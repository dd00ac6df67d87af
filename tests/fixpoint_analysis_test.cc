// Tests for the grounder, the Clark-completion encoding, and the
// FixpointAnalyzer: the paper's Section 2 example (paths, cycles, Gₖ), the
// least-fixpoint algorithm of Theorem 3, and randomized cross-checks
// against brute-force enumeration of the full state space.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/core/engine.h"
#include "src/eval/stable.h"
#include "src/eval/wellfounded.h"
#include "src/fixpoint/analysis.h"
#include "src/fixpoint/brute_force.h"
#include "src/ground/grounder.h"
#include "src/reductions/three_coloring.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

using testing::CanonStates;
using testing::DbFromGraph;
using testing::IdbRelation;
using testing::MustProgram;
using testing::UnarySet;

constexpr char kPi1[] = "T(X) :- E(Y,X), !T(Y).";

// --- Grounder. ---

TEST(GrounderTest, TransitiveClosureGrounding) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram(
      "S(X,Y) :- E(X,Y).\nS(X,Y) :- E(X,Z), S(Z,Y).", symbols);
  Database db = DbFromGraph(PathGraph(3), symbols);  // E = {01, 12}
  auto g = GroundProgramFor(p, db);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // Rule 1: one ground rule per edge (bodies fully evaluated away).
  // Rule 2: per edge (x,z), y ranges over A: 2 × 3 = 6.
  EXPECT_EQ(g->rules.size(), 2u + 6u);
  // Facts appear as ground rules with empty bodies.
  size_t empty_bodies = 0;
  for (const GroundRule& r : g->rules) {
    if (g->RuleBody(r).empty()) ++empty_bodies;
  }
  EXPECT_EQ(empty_bodies, 2u);
}

TEST(GrounderTest, ToggleRuleGroundsOverUniverseSquared) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("T(Z) :- !T(W).", symbols);
  Database db = DbFromGraph(PathGraph(3), symbols);
  auto g = GroundProgramFor(p, db);
  ASSERT_TRUE(g.ok());
  // {¬T(W)} is an existential component: one auxiliary atom with a rule
  // per w, and a rule T(z) ← aux per z — 2|A| = 6 rules, not |A|² = 9;
  // the three T atoms plus the auxiliary one.
  EXPECT_EQ(g->rules.size(), 6u);
  EXPECT_EQ(g->atoms.size(), 4u);
}

TEST(GrounderTest, UnsatisfiableEdbPartDropsInstances) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("T(X) :- E(X,X).", symbols);
  Database db = DbFromGraph(PathGraph(3), symbols);  // no self-loops
  auto g = GroundProgramFor(p, db);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->rules.empty());
}

TEST(GrounderTest, PosNegClashIsUndefinedUnderWellFounded) {
  // H's body holds A(x) and !A(x). No total interpretation satisfies it,
  // but A is undefined in the well-founded model, so H is undefined too
  // (Van Gelder's alternation over the full grounding): the grounder must
  // keep such an instantiation.
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram(
      "A(X) :- S(X), !A(X).\nH(X) :- S(X), A(X), !A(X).", symbols);
  Database db(symbols);
  ASSERT_TRUE(db.AddFactNamed("S", {"1"}).ok());
  ASSERT_TRUE(db.AddFactNamed("S", {"2"}).ok());
  auto wf = EvalWellFounded(p, db);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();
  EXPECT_FALSE(wf->total);
  EXPECT_EQ(IdbRelation(p, wf->true_state, "H").size(), 0u);
  EXPECT_EQ(UnarySet(*symbols, IdbRelation(p, wf->undefined_state, "A")),
            (std::set<std::string>{"1", "2"}));
  EXPECT_EQ(UnarySet(*symbols, IdbRelation(p, wf->undefined_state, "H")),
            (std::set<std::string>{"1", "2"}));
}

TEST(GrounderTest, InequalityFiltersInstances) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("P(X,Y) :- E(X,Z), E(Y,W), X != Y.", symbols);
  Database db = DbFromGraph(PathGraph(3), symbols);  // out-vertices: 0, 1
  auto g = GroundProgramFor(p, db);
  ASSERT_TRUE(g.ok());
  // (x,y) ∈ {0,1}², x ≠ y → 2 ground rules (each with empty body).
  EXPECT_EQ(g->rules.size(), 2u);
}

TEST(GrounderTest, GroundRuleLimitEnforced) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("T(Z) :- !T(W).", symbols);
  Database db = DbFromGraph(PathGraph(10), symbols);
  GrounderOptions opts;
  opts.max_ground_rules = 10;  // 100 instantiations exceed this
  auto g = GroundProgramFor(p, db, opts);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
}

TEST(GrounderTest, MissingEdbPolicies) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("T(X) :- Ghost(X).", symbols);
  Database db = DbFromGraph(PathGraph(2), symbols);
  EXPECT_FALSE(GroundProgramFor(p, db).ok());
  GrounderOptions opts;
  opts.allow_missing_edb = true;
  auto g = GroundProgramFor(p, db, opts);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->rules.empty());
}

// --- Pinned groundings: the atom numbering and the rule order. ---
//
// The atom ids number the CNF's variables and order every model vector,
// so a grounder rewrite must reproduce them, not just the rule set. No
// input below has two positive EDB atoms tied on bound columns, the one
// place where the join order is a planner's free choice.

/// (π, D)'s grounding as text: its atoms in id order, eight to a line,
/// then GroundProgram::ToString.
std::string PinnedGrounding(std::string_view program, std::string_view facts) {
  Engine engine;
  INFLOG_CHECK(engine.LoadProgramText(program).ok());
  INFLOG_CHECK(engine.LoadDatabaseText(facts).ok());
  const Program& p = **engine.program();
  auto g = GroundProgramFor(p, engine.database());
  INFLOG_CHECK(g.ok()) << g.status().ToString();
  std::string out;
  for (uint32_t a = 0; a < g->atoms.size(); ++a) {
    const GroundAtom& atom = g->atoms.atom(a);
    out += g->IsAuxiliary(a)
               ? StrCat("#exists(", atom.args[0], ",", atom.args[1], ")")
               : StrCat(p.predicate(atom.predicate).name,
                        FormatTuple(p.symbols(), atom.args));
    out += (a % 8 == 7 || a + 1 == g->atoms.size()) ? "\n" : " ";
  }
  return out + g->ToString(p);
}

TEST(GroundingPinTest, PiColOnTriangleStrip) {
  EXPECT_EQ(PinnedGrounding(
                "R(X) :- R(X).\nB(X) :- B(X).\nG(X) :- G(X).\n"
                "P(X) :- E(X,Y), R(X), R(Y).\nP(X) :- E(X,Y), B(X), B(Y).\n"
                "P(X) :- E(X,Y), G(X), G(Y).\nP(X) :- G(X), B(X).\n"
                "P(X) :- B(X), R(X).\nP(X) :- R(X), G(X).\n"
                "P(X) :- !R(X), !B(X), !G(X).\nT(Z) :- P(X), !T(W).\n",
                "E(0,1). E(0,2). E(1,2). E(1,3). E(2,3). E(2,4). E(3,4)."),
            R"pin(R(0) R(1) R(2) R(3) R(4) B(0) B(1) B(2)
B(3) B(4) G(0) G(1) G(2) G(3) G(4) P(0)
P(1) P(2) P(3) P(4) T(0) T(1) T(2) T(3)
T(4) #exists(10,0) #exists(10,1)
R(0) :- R(0).
R(1) :- R(1).
R(2) :- R(2).
R(3) :- R(3).
R(4) :- R(4).
B(0) :- B(0).
B(1) :- B(1).
B(2) :- B(2).
B(3) :- B(3).
B(4) :- B(4).
G(0) :- G(0).
G(1) :- G(1).
G(2) :- G(2).
G(3) :- G(3).
G(4) :- G(4).
P(0) :- R(0), R(1).
P(0) :- R(0), R(2).
P(1) :- R(1), R(2).
P(1) :- R(1), R(3).
P(2) :- R(2), R(3).
P(2) :- R(2), R(4).
P(3) :- R(3), R(4).
P(0) :- B(0), B(1).
P(0) :- B(0), B(2).
P(1) :- B(1), B(2).
P(1) :- B(1), B(3).
P(2) :- B(2), B(3).
P(2) :- B(2), B(4).
P(3) :- B(3), B(4).
P(0) :- G(0), G(1).
P(0) :- G(0), G(2).
P(1) :- G(1), G(2).
P(1) :- G(1), G(3).
P(2) :- G(2), G(3).
P(2) :- G(2), G(4).
P(3) :- G(3), G(4).
P(0) :- B(0), G(0).
P(1) :- B(1), G(1).
P(2) :- B(2), G(2).
P(3) :- B(3), G(3).
P(4) :- B(4), G(4).
P(0) :- R(0), B(0).
P(1) :- R(1), B(1).
P(2) :- R(2), B(2).
P(3) :- R(3), B(3).
P(4) :- R(4), B(4).
P(0) :- R(0), G(0).
P(1) :- R(1), G(1).
P(2) :- R(2), G(2).
P(3) :- R(3), G(3).
P(4) :- R(4), G(4).
P(0) :- !R(0), !B(0), !G(0).
P(1) :- !R(1), !B(1), !G(1).
P(2) :- !R(2), !B(2), !G(2).
P(3) :- !R(3), !B(3), !G(3).
P(4) :- !R(4), !B(4), !G(4).
#exists(10,0) :- P(0).
#exists(10,0) :- P(1).
#exists(10,0) :- P(2).
#exists(10,0) :- P(3).
#exists(10,0) :- P(4).
#exists(10,1) :- !T(0).
#exists(10,1) :- !T(1).
#exists(10,1) :- !T(2).
#exists(10,1) :- !T(3).
#exists(10,1) :- !T(4).
T(0) :- #exists(10,0), #exists(10,1).
T(1) :- #exists(10,0), #exists(10,1).
T(2) :- #exists(10,0), #exists(10,1).
T(3) :- #exists(10,0), #exists(10,1).
T(4) :- #exists(10,0), #exists(10,1).
)pin");
}

TEST(GroundingPinTest, StratifiableOnRingWithChord) {
  EXPECT_EQ(PinnedGrounding(
                "T(X,Y) :- E(X,Y).\nT(X,Z) :- T(X,Y), E(Y,Z).\n"
                "N(X) :- S(X), !T(X,X).\n",
                "E(0,1). E(1,2). E(2,3). E(3,4). E(4,5). E(5,0). E(1,4). "
                "S(0). S(3)."),
            R"pin(T(0,1) T(1,2) T(2,3) T(3,4) T(4,5) T(5,0) T(1,4) T(0,0)
T(1,1) T(1,0) T(2,1) T(2,0) T(3,1) T(3,0) T(4,1) T(4,0)
T(5,1) T(0,2) T(2,2) T(3,2) T(4,2) T(5,2) T(0,3) T(1,3)
T(3,3) T(4,3) T(5,3) T(0,4) T(2,4) T(4,4) T(5,4) T(0,5)
T(1,5) T(2,5) T(3,5) T(5,5) N(0) N(3)
T(0,1).
T(1,2).
T(2,3).
T(3,4).
T(4,5).
T(5,0).
T(1,4).
T(0,1) :- T(0,0).
T(1,1) :- T(1,0).
T(2,1) :- T(2,0).
T(3,1) :- T(3,0).
T(4,1) :- T(4,0).
T(5,1) :- T(5,0).
T(0,2) :- T(0,1).
T(1,2) :- T(1,1).
T(2,2) :- T(2,1).
T(3,2) :- T(3,1).
T(4,2) :- T(4,1).
T(5,2) :- T(5,1).
T(0,3) :- T(0,2).
T(1,3) :- T(1,2).
T(2,3) :- T(2,2).
T(3,3) :- T(3,2).
T(4,3) :- T(4,2).
T(5,3) :- T(5,2).
T(0,4) :- T(0,3).
T(1,4) :- T(1,3).
T(2,4) :- T(2,3).
T(3,4) :- T(3,3).
T(4,4) :- T(4,3).
T(5,4) :- T(5,3).
T(0,5) :- T(0,4).
T(1,5) :- T(1,4).
T(2,5) :- T(2,4).
T(3,5) :- T(3,4).
T(4,5) :- T(4,4).
T(5,5) :- T(5,4).
T(0,0) :- T(0,5).
T(1,0) :- T(1,5).
T(2,0) :- T(2,5).
T(3,0) :- T(3,5).
T(4,0) :- T(4,5).
T(5,0) :- T(5,5).
T(0,4) :- T(0,1).
T(1,4) :- T(1,1).
T(2,4) :- T(2,1).
T(3,4) :- T(3,1).
T(4,4) :- T(4,1).
T(5,4) :- T(5,1).
N(0) :- !T(0,0).
N(3) :- !T(3,3).
)pin");
}

TEST(GroundingPinTest, WinGame) {
  EXPECT_EQ(PinnedGrounding(
                "W(X) :- M(X,Y), !W(Y).\n",
                "M(0,1). M(1,2). M(2,0). M(2,3). M(3,4)."),
            R"pin(W(0) W(1) W(2) W(3) W(4)
W(0) :- !W(1).
W(1) :- !W(2).
W(2) :- !W(0).
W(2) :- !W(3).
W(3) :- !W(4).
)pin");
}

TEST(GroundingPinTest, ConstantOnlyInAHead) {
  EXPECT_EQ(PinnedGrounding(
                "C(X,9) :- E(X,Y), !C(Y,9).\nK(X) :- !C(X,9).\n",
                "E(1,2). E(2,3)."),
            R"pin(C(1,9) C(2,9) C(3,9) K(1) K(2) K(3) K(9) C(9,9)
C(1,9) :- !C(2,9).
C(2,9) :- !C(3,9).
K(1) :- !C(1,9).
K(2) :- !C(2,9).
K(3) :- !C(3,9).
K(9) :- !C(9,9).
)pin");
}

TEST(GroundingPinTest, UnsafeNegatedEdb) {
  EXPECT_EQ(PinnedGrounding(
                "U(X) :- !E(X,X), !U(X).\n"
                "V(X,Y) :- E(X,Z), !E(Y,Y), !V(Y,X).\n",
                "E(1,1). E(1,2). E(2,3)."),
            R"pin(U(2) U(3) V(1,2) V(2,1) V(1,3) V(3,1) V(2,2) V(2,3)
V(3,2)
U(2) :- !U(2).
U(3) :- !U(3).
V(1,2) :- !V(2,1).
V(1,3) :- !V(3,1).
V(2,2) :- !V(2,2).
V(2,3) :- !V(3,2).
)pin");
}

TEST(GroundingPinTest, EqualityBinds) {
  EXPECT_EQ(PinnedGrounding(
                "Q(X,Y) :- E(X,Z), Y = Z, !Q(Y,X).\nO(Y) :- Y = 2, !O(Y).\n",
                "E(1,2). E(2,3). E(3,1)."),
            R"pin(Q(1,2) Q(2,1) Q(2,3) Q(3,2) Q(3,1) Q(1,3) O(2)
Q(1,2) :- !Q(2,1).
Q(2,3) :- !Q(3,2).
Q(3,1) :- !Q(1,3).
O(2) :- !O(2).
)pin");
}

TEST(GroundingPinTest, InequalityFilters) {
  EXPECT_EQ(PinnedGrounding(
                "D(X,Y) :- E(X,Z), E(Y,W), X != Y, !D(Y,X).\n"
                "I(X) :- E(X,Y), X != 1, !I(Y).\n",
                "E(1,2). E(2,3). E(3,1)."),
            R"pin(D(1,2) D(2,1) D(1,3) D(3,1) D(2,3) D(3,2) I(2) I(3)
I(1)
D(1,2) :- !D(2,1).
D(1,3) :- !D(3,1).
D(2,1) :- !D(1,2).
D(2,3) :- !D(3,2).
D(3,1) :- !D(1,3).
D(3,2) :- !D(2,3).
I(2) :- !I(3).
I(3) :- !I(1).
)pin");
}

TEST(GroundingPinTest, EdbOnlyComponentWithAndWithoutWitness) {
  EXPECT_EQ(PinnedGrounding(
                "A(Z) :- S(Z), E(X,X), !A(Z).\n"
                "B(Z) :- S(Z), E(X,Y), E(Y,X), !B(Z).\n"
                "C(Z) :- S(Z), E(X,Y), !C(Y).\n",
                "E(1,2). E(2,1). E(2,3). S(1). S(3)."),
            R"pin(B(1) B(3) C(2) C(1) C(3) #exists(2,0)
B(1) :- !B(1).
B(3) :- !B(3).
#exists(2,0) :- !C(2).
#exists(2,0) :- !C(1).
#exists(2,0) :- !C(3).
C(1) :- #exists(2,0).
C(3) :- #exists(2,0).
)pin");
}

// --- Analyzer on the paper's §2 example. ---

FixpointAnalyzer MustAnalyzer(const Program& p, const Database& db) {
  auto a = FixpointAnalyzer::Create(&p, &db);
  INFLOG_CHECK(a.ok()) << a.status().ToString();
  return std::move(a).value();
}

TEST(AnalyzerTest, PathHasUniqueFixpointAtOddPositions) {
  for (size_t n : {2u, 3u, 4u, 5u, 6u, 7u}) {
    auto symbols = std::make_shared<SymbolTable>();
    Program p = MustProgram(kPi1, symbols);
    Database db = DbFromGraph(PathGraph(n), symbols);
    FixpointAnalyzer analyzer = MustAnalyzer(p, db);
    auto unique = analyzer.UniqueFixpoint();
    ASSERT_TRUE(unique.ok());
    EXPECT_EQ(*unique, UniqueStatus::kUnique) << "n=" << n;
    auto fp = analyzer.FindFixpoint();
    ASSERT_TRUE(fp.ok());
    ASSERT_TRUE(fp->has_value());
    std::set<std::string> expected;
    for (size_t v = 1; v < n; v += 2) expected.insert(std::to_string(v));
    EXPECT_EQ(UnarySet(*symbols, IdbRelation(p, **fp, "T")), expected);
  }
}

TEST(AnalyzerTest, OddCyclesHaveNoFixpoint) {
  for (size_t n : {3u, 5u, 7u, 9u}) {
    auto symbols = std::make_shared<SymbolTable>();
    Program p = MustProgram(kPi1, symbols);
    Database db = DbFromGraph(CycleGraph(n), symbols);
    FixpointAnalyzer analyzer = MustAnalyzer(p, db);
    auto has = analyzer.HasFixpoint();
    ASSERT_TRUE(has.ok());
    EXPECT_FALSE(*has) << "n=" << n;
    auto unique = analyzer.UniqueFixpoint();
    ASSERT_TRUE(unique.ok());
    EXPECT_EQ(*unique, UniqueStatus::kNoFixpoint);
  }
}

TEST(AnalyzerTest, EvenCyclesHaveExactlyTwoFixpoints) {
  for (size_t n : {4u, 6u, 8u}) {
    auto symbols = std::make_shared<SymbolTable>();
    Program p = MustProgram(kPi1, symbols);
    Database db = DbFromGraph(CycleGraph(n), symbols);
    FixpointAnalyzer analyzer = MustAnalyzer(p, db);
    auto fps = analyzer.EnumerateFixpoints();
    ASSERT_TRUE(fps.ok());
    ASSERT_EQ(fps->size(), 2u) << "n=" << n;
    // The two fixpoints are the alternating sets — incomparable.
    EXPECT_FALSE((*fps)[0].IsSubsetOf((*fps)[1]));
    EXPECT_FALSE((*fps)[1].IsSubsetOf((*fps)[0]));
    auto unique = analyzer.UniqueFixpoint();
    ASSERT_TRUE(unique.ok());
    EXPECT_EQ(*unique, UniqueStatus::kMultiple);
  }
}

TEST(AnalyzerTest, DisjointCyclesMultiplyFixpoints) {
  // Gₖ (k disjoint C₄'s) has exactly 2ᵏ pairwise-incomparable fixpoints —
  // exponentially many in the size of the database (Section 2).
  for (size_t k : {1u, 2u, 3u, 4u, 5u}) {
    auto symbols = std::make_shared<SymbolTable>();
    Program p = MustProgram(kPi1, symbols);
    Database db = DbFromGraph(DisjointCycles(k, 4), symbols);
    FixpointAnalyzer analyzer = MustAnalyzer(p, db);
    auto count = analyzer.CountFixpoints();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, uint64_t{1} << k) << "k=" << k;
  }
}

TEST(AnalyzerTest, DisjointCyclesHaveNoLeastFixpoint) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram(kPi1, symbols);
  Database db = DbFromGraph(DisjointCycles(3, 4), symbols);
  FixpointAnalyzer analyzer = MustAnalyzer(p, db);
  auto least = analyzer.LeastFixpoint();
  ASSERT_TRUE(least.ok());
  EXPECT_TRUE(least->has_fixpoint);
  EXPECT_FALSE(least->has_least);
  // The intersection of the alternating fixpoints is empty, and ∅ is not
  // a fixpoint here.
  EXPECT_EQ(least->intersection.TotalTuples(), 0u);
}

TEST(AnalyzerTest, UniqueFixpointIsLeast) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram(kPi1, symbols);
  Database db = DbFromGraph(PathGraph(6), symbols);
  FixpointAnalyzer analyzer = MustAnalyzer(p, db);
  auto least = analyzer.LeastFixpoint();
  ASSERT_TRUE(least.ok());
  EXPECT_TRUE(least->has_least);
  EXPECT_EQ(UnarySet(*symbols, IdbRelation(p, least->intersection, "T")),
            (std::set<std::string>{"1", "3", "5"}));
  EXPECT_GE(least->sat_calls, 2u);
}

TEST(AnalyzerTest, PositiveProgramLeastFixpointMatchesEvaluation) {
  // For positive DATALOG the least fixpoint exists and equals the
  // bottom-up evaluation; the analyzer must find exactly it.
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram(
      "S(X,Y) :- E(X,Y).\nS(X,Y) :- E(X,Z), S(Z,Y).", symbols);
  Database db = DbFromGraph(CycleGraph(4), symbols);
  FixpointAnalyzer analyzer = MustAnalyzer(p, db);
  auto least = analyzer.LeastFixpoint();
  ASSERT_TRUE(least.ok());
  ASSERT_TRUE(least->has_least);
  // TC of C₄ is all 16 pairs.
  EXPECT_EQ(IdbRelation(p, least->intersection, "S").size(), 16u);
  // But fixpoints are not unique: S = A² is also a fixpoint only if it is
  // supported... (here TC is total so the fixpoint IS unique).
  auto unique = analyzer.UniqueFixpoint();
  ASSERT_TRUE(unique.ok());
  EXPECT_EQ(*unique, UniqueStatus::kUnique);
}

TEST(AnalyzerTest, PositiveProgramCanHaveManyFixpointsButALeast) {
  // S(x) ← S(x) supports any subset of A: 2^|A| fixpoints, least = ∅.
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("S(X) :- S(X).", symbols);
  Database db = DbFromGraph(PathGraph(3), symbols);
  FixpointAnalyzer analyzer = MustAnalyzer(p, db);
  auto count = analyzer.CountFixpoints();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 8u);
  auto least = analyzer.LeastFixpoint();
  ASSERT_TRUE(least.ok());
  EXPECT_TRUE(least->has_least);
  EXPECT_EQ(least->intersection.TotalTuples(), 0u);
}

// S(X) :- S(X) over four constants has 2^4 = 16 fixpoints: the limits
// below straddle that count.
TEST(AnalyzerTest, EnumerationRespectsLimit) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("S(X) :- S(X).", symbols);
  Database db = DbFromGraph(PathGraph(4), symbols);
  FixpointAnalyzer analyzer = MustAnalyzer(p, db);
  for (const auto& [limit, expected] :
       {std::pair<size_t, size_t>{5, 5}, {16, 16}, {17, 16}}) {
    auto fps = analyzer.EnumerateFixpoints(limit);
    ASSERT_TRUE(fps.ok()) << fps.status().ToString();
    EXPECT_EQ(fps->size(), expected) << "limit=" << limit;
  }
}

TEST(AnalyzerTest, CountLimitExceededIsError) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("S(X) :- S(X).", symbols);
  Database db = DbFromGraph(PathGraph(4), symbols);
  FixpointAnalyzer analyzer = MustAnalyzer(p, db);
  for (uint64_t limit : {7u, 15u}) {
    auto count = analyzer.CountFixpoints(limit);
    EXPECT_EQ(count.status().code(), StatusCode::kResourceExhausted)
        << "limit=" << limit;
  }
  auto at_limit = analyzer.CountFixpoints(/*limit=*/16);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(*at_limit, 16u);
}

TEST(AnalyzerTest, GroundingWithNoAtomsHasOneFixpoint) {
  // No instantiation survives E(X,Y), !E(X,Y): the empty state is the one
  // fixpoint, and there is no atom to block it with.
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("P(X) :- E(X,Y), !E(X,Y).", symbols);
  Database db = DbFromGraph(PathGraph(3), symbols);
  FixpointAnalyzer analyzer = MustAnalyzer(p, db);
  ASSERT_EQ(analyzer.ground().atoms.size(), 0u);
  auto has = analyzer.HasFixpoint();
  ASSERT_TRUE(has.ok()) << has.status().ToString();
  EXPECT_TRUE(*has);
  auto unique = analyzer.UniqueFixpoint();
  ASSERT_TRUE(unique.ok()) << unique.status().ToString();
  EXPECT_EQ(*unique, UniqueStatus::kUnique);
}

TEST(AnalyzerTest, RaisedStopFlagExhaustsAndAFreshAnalyzerAnswers) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText(kPi1).ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2). E(2,3). E(3,4).").ok());
  std::atomic<bool> stop{true};
  AnalyzeOptions stopped;
  stopped.solver.stop = &stop;

  auto analyzer = engine.MakeAnalyzer(stopped);
  ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();
  // No conflict budget is set, so the error names the stop flag.
  const Status has = analyzer->HasFixpoint().status();
  EXPECT_EQ(has.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(has.message(), "SAT search stopped");
  auto program = engine.program();
  ASSERT_TRUE(program.ok());
  const Status stable_stopped =
      EnumerateStableModels(**program, engine.database(), stopped).status();
  EXPECT_EQ(stable_stopped.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stable_stopped.message(), "SAT search stopped");

  // The flag belongs to the stopped options only: a fresh analyzer on the
  // same engine answers.
  auto fresh = engine.MakeAnalyzer();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto fresh_has = fresh->HasFixpoint();
  ASSERT_TRUE(fresh_has.ok()) << fresh_has.status().ToString();
  EXPECT_TRUE(*fresh_has);
  auto stable = EnumerateStableModels(**program, engine.database());
  ASSERT_TRUE(stable.ok()) << stable.status().ToString();
  EXPECT_EQ(stable->models.size(), 1u);

  // The stopped solve memoized nothing, so once the flag is lowered the
  // same analyzer answers.
  stop = false;
  auto again = analyzer->HasFixpoint();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(*again);
}

TEST(AnalyzerTest, QueryStoppedAfterTheFirstAnswerLeavesTheAnalyzerUsable) {
  // On C₄ the second fixpoint takes a decision to find, so a raised flag
  // stops UniqueFixpoint after its memoized first answer.
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram(kPi1, symbols);
  Database db = DbFromGraph(CycleGraph(4), symbols);
  std::atomic<bool> stop{false};
  AnalyzeOptions options;
  options.solver.stop = &stop;
  auto analyzer = FixpointAnalyzer::Create(&p, &db, options);
  ASSERT_TRUE(analyzer.ok());
  auto has = analyzer->HasFixpoint();
  ASSERT_TRUE(has.ok());
  EXPECT_TRUE(*has);
  stop = true;
  const Status stopped = analyzer->UniqueFixpoint().status();
  EXPECT_EQ(stopped.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stopped.message(), "SAT search stopped");
  // The stopped query's block reaches no later query: both fixpoints
  // are still there.
  stop = false;
  auto unique = analyzer->UniqueFixpoint();
  ASSERT_TRUE(unique.ok()) << unique.status().ToString();
  EXPECT_EQ(*unique, UniqueStatus::kMultiple);
  auto count = analyzer->CountFixpoints();
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 2u);
}

// --- Brute force cross-checks. ---

TEST(BruteForceTest, MatchesAnalyzerOnPaperExamples) {
  struct Case {
    const char* name;
    Digraph graph;
  };
  const Case cases[] = {
      {"L3", PathGraph(3)},
      {"L4", PathGraph(4)},
      {"C3", CycleGraph(3)},
      {"C4", CycleGraph(4)},
      {"C5", CycleGraph(5)},
  };
  for (const Case& c : cases) {
    auto symbols = std::make_shared<SymbolTable>();
    Program p = MustProgram(kPi1, symbols);
    Database db = DbFromGraph(c.graph, symbols);
    auto brute = BruteForceFixpoints(p, db);
    ASSERT_TRUE(brute.ok()) << c.name << ": " << brute.status().ToString();
    FixpointAnalyzer analyzer = MustAnalyzer(p, db);
    auto sat = analyzer.EnumerateFixpoints();
    ASSERT_TRUE(sat.ok()) << c.name;
    EXPECT_EQ(CanonStates(p, *brute), CanonStates(p, *sat)) << c.name;
  }
}

TEST(BruteForceTest, RefusesLargeSpaces) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("S(X,Y) :- E(X,Y), !S(Y,X).", symbols);
  Database db = DbFromGraph(PathGraph(6), symbols);  // 36 binary atoms
  auto r = BruteForceFixpoints(p, db);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

/// Random DATALOG¬ program over E/2 with unary IDB predicates T, S —
/// small enough that the full 2^(2|A|) state space is enumerable.
std::string RandomUnaryProgram(Rng* rng) {
  const char* heads[] = {"T", "S"};
  const char* vars[] = {"X", "Y", "Z"};
  std::string text;
  const int num_rules = 1 + static_cast<int>(rng->Uniform(3));
  for (int r = 0; r < num_rules; ++r) {
    const char* head = heads[rng->Uniform(2)];
    const char* head_var = vars[rng->Uniform(3)];
    std::vector<std::string> body;
    const int num_lits = 1 + static_cast<int>(rng->Uniform(3));
    for (int l = 0; l < num_lits; ++l) {
      switch (rng->Uniform(6)) {
        case 0:
          body.push_back(StrCat("E(", vars[rng->Uniform(3)], ",",
                                vars[rng->Uniform(3)], ")"));
          break;
        case 1:
          body.push_back(StrCat("T(", vars[rng->Uniform(3)], ")"));
          break;
        case 2:
          body.push_back(StrCat("S(", vars[rng->Uniform(3)], ")"));
          break;
        case 3:
          body.push_back(StrCat("!T(", vars[rng->Uniform(3)], ")"));
          break;
        case 4:
          body.push_back(StrCat("!S(", vars[rng->Uniform(3)], ")"));
          break;
        case 5:
          body.push_back(StrCat(vars[rng->Uniform(3)],
                                rng->Bernoulli(0.5) ? " = " : " != ",
                                vars[rng->Uniform(3)]));
          break;
      }
    }
    text += StrCat(head, "(", head_var, ") :- ", StrJoin(body, ", "), ".\n");
  }
  return text;
}

class RandomProgramCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramCrossCheck, SatEnumerationEqualsBruteForce) {
  const int seed = GetParam();
  Rng rng(seed * 37 + 5);
  const std::string text = RandomUnaryProgram(&rng);
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram(text, symbols);
  const Digraph g = RandomDigraph(3, 0.4, &rng);
  Database db = DbFromGraph(g, symbols);
  // A generated predicate may occur only in bodies, making it a (missing)
  // EDB relation; both pipelines then read it as empty.
  BruteForceOptions brute_opts;
  brute_opts.allow_missing_edb = true;
  auto brute = BruteForceFixpoints(p, db, brute_opts);
  ASSERT_TRUE(brute.ok()) << text << brute.status().ToString();
  AnalyzeOptions analyze_opts;
  analyze_opts.grounder.allow_missing_edb = true;
  auto analyzer = FixpointAnalyzer::Create(&p, &db, analyze_opts);
  ASSERT_TRUE(analyzer.ok()) << text;
  auto sat = analyzer->EnumerateFixpoints();
  ASSERT_TRUE(sat.ok()) << text;
  EXPECT_EQ(CanonStates(p, *brute), CanonStates(p, *sat))
      << "program:\n"
      << text << "graph: " << g.ToString();
  // Least-fixpoint decision agrees with brute force too: the intersection
  // is the meet of all brute-force fixpoints, and it is least iff it is
  // one of them.
  auto least = analyzer->LeastFixpoint();
  ASSERT_TRUE(least.ok());
  EXPECT_EQ(least->has_fixpoint, !brute->empty()) << text;
  if (!brute->empty()) {
    IdbState meet = MakeEmptyIdbState(p);
    for (size_t r = 0; r < meet.relations.size(); ++r) {
      const Relation& first = (*brute)[0].relations[r];
      for (size_t i = 0; i < first.size(); ++i) {
        bool in_all = true;
        for (const IdbState& other : *brute) {
          in_all = in_all && other.relations[r].Contains(first.Row(i));
        }
        if (in_all) meet.relations[r].Insert(first.Row(i));
      }
    }
    EXPECT_EQ(testing::CanonState(p, meet),
              testing::CanonState(p, least->intersection))
        << text;
    bool brute_has_least = false;
    for (const IdbState& cand : *brute) {
      bool below_all = true;
      for (const IdbState& other : *brute) {
        below_all &= cand.IsSubsetOf(other);
      }
      if (below_all) {
        brute_has_least = true;
        EXPECT_EQ(testing::CanonState(p, cand),
                  testing::CanonState(p, least->intersection))
            << text;
      }
    }
    EXPECT_EQ(least->has_least, brute_has_least) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramCrossCheck,
                         ::testing::Range(0, 100));

// --- One solver across queries. ---

/// The answers of fresh analyzers, one per query.
struct FreshAnswers {
  bool has = false;
  std::optional<IdbState> found;
  std::vector<IdbState> all;
  UniqueStatus unique = UniqueStatus::kNoFixpoint;
  LeastFixpointOutcome least;
};

FixpointAnalyzer MustAnalyzer(const Program& p, const Database& db,
                              const AnalyzeOptions& options) {
  auto a = FixpointAnalyzer::Create(&p, &db, options);
  INFLOG_CHECK(a.ok()) << a.status().ToString();
  return std::move(a).value();
}

FreshAnswers AskFresh(const Program& p, const Database& db,
                      const AnalyzeOptions& options) {
  FreshAnswers ref;
  ref.has = MustAnalyzer(p, db, options).HasFixpoint().value();
  ref.found = MustAnalyzer(p, db, options).FindFixpoint().value();
  ref.all = MustAnalyzer(p, db, options).EnumerateFixpoints().value();
  ref.unique = MustAnalyzer(p, db, options).UniqueFixpoint().value();
  ref.least = MustAnalyzer(p, db, options).LeastFixpoint().value();
  return ref;
}

// The six queries; EnumerateFixpoints runs both in full and below the
// total.
enum class Query { kHas, kFind, kEnumerateAll, kEnumerateSome, kCount,
                   kUnique, kLeast };

/// Asks every query twice, in an order drawn from `seed`, on one analyzer
/// over (p, db), and checks each answer against fresh analyzers'.
void CheckQueryOrder(const Program& p, const Database& db,
                     const AnalyzeOptions& options, uint64_t seed,
                     const std::string& what) {
  SCOPED_TRACE(what);
  const FreshAnswers ref = AskFresh(p, db, options);
  const std::multiset<std::string> all = CanonStates(p, ref.all);
  std::vector<Query> order;
  for (const Query q :
       {Query::kHas, Query::kFind, Query::kEnumerateAll,
        Query::kEnumerateSome, Query::kCount, Query::kUnique,
        Query::kLeast}) {
    order.insert(order.end(), {q, q});
  }
  Rng rng(seed);
  rng.Shuffle(&order);
  FixpointAnalyzer analyzer = MustAnalyzer(p, db, options);
  for (const Query q : order) {
    switch (q) {
      case Query::kHas:
        EXPECT_EQ(analyzer.HasFixpoint().value(), ref.has);
        break;
      case Query::kFind: {
        const std::optional<IdbState> found = analyzer.FindFixpoint().value();
        ASSERT_EQ(found.has_value(), ref.found.has_value());
        if (found) {
          EXPECT_EQ(testing::CanonState(p, *found),
                    testing::CanonState(p, *ref.found));
        }
        break;
      }
      case Query::kEnumerateAll:
        EXPECT_EQ(CanonStates(p, analyzer.EnumerateFixpoints().value()), all);
        break;
      case Query::kEnumerateSome: {
        if (ref.all.size() < 2) break;
        const size_t k = 1 + rng.Uniform(ref.all.size() - 1);
        const std::multiset<std::string> some =
            CanonStates(p, analyzer.EnumerateFixpoints(k).value());
        EXPECT_EQ(some.size(), k);
        EXPECT_EQ(std::set<std::string>(some.begin(), some.end()).size(), k);
        EXPECT_TRUE(std::includes(all.begin(), all.end(), some.begin(),
                                  some.end()));
        break;
      }
      case Query::kCount:
        EXPECT_EQ(analyzer.CountFixpoints().value(), ref.all.size());
        break;
      case Query::kUnique:
        EXPECT_EQ(analyzer.UniqueFixpoint().value(), ref.unique);
        break;
      case Query::kLeast: {
        const LeastFixpointOutcome least = analyzer.LeastFixpoint().value();
        EXPECT_EQ(least.has_fixpoint, ref.least.has_fixpoint);
        EXPECT_EQ(least.has_least, ref.least.has_least);
        if (least.has_fixpoint && ref.least.has_fixpoint) {
          EXPECT_EQ(testing::CanonState(p, least.intersection),
                    testing::CanonState(p, ref.least.intersection));
        }
        // C₀ is the first model's atoms: each later round shrinks it.
        const size_t c0 = ref.found ? ref.found->TotalTuples() : 0;
        EXPECT_GE(least.sat_calls, 1u);
        EXPECT_LE(least.sat_calls, c0 + 1);
        break;
      }
    }
  }
}

class QueryOrder : public ::testing::TestWithParam<int> {};

TEST_P(QueryOrder, RandomProgramAnswersEqualFreshAnalyzers) {
  // The programs and graphs of RandomProgramCrossCheck.
  const int seed = GetParam();
  Rng rng(seed * 37 + 5);
  const std::string text = RandomUnaryProgram(&rng);
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram(text, symbols);
  Database db = DbFromGraph(RandomDigraph(3, 0.4, &rng), symbols);
  AnalyzeOptions options;
  options.grounder.allow_missing_edb = true;
  CheckQueryOrder(p, db, options, seed, text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryOrder, ::testing::Range(0, 100));

TEST(QueryOrderTest, PaperInstancesAnswerAsFreshAnalyzers) {
  struct Case {
    const char* name;
    const char* program;
    Digraph graph;
  };
  Digraph strip(10);  // uniquely 3-colourable: 6 fixpoints
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = i + 1; j <= i + 2 && j < 10; ++j) strip.AddEdge(i, j);
  }
  const std::string pi_col = PiColText();
  const Case cases[] = {
      {"pi_col/strip", pi_col.c_str(), strip},
      {"pi_col/K4", pi_col.c_str(), CompleteGraph(4)},
      {"C3", kPi1, CycleGraph(3)},
      {"C4", kPi1, CycleGraph(4)},
      {"C6", kPi1, CycleGraph(6)},
      {"L5", kPi1, PathGraph(5)},
      {"G3", kPi1, DisjointCycles(3, 4)},
      // 64 fixpoints against fewer CNF clauses: later queries run after the
      // analyzer has swept the retired blocks.
      {"self-support/C6", "S(X) :- E(X,Y), S(X).", CycleGraph(6)},
  };
  uint64_t seed = 1;
  for (const Case& c : cases) {
    auto symbols = std::make_shared<SymbolTable>();
    Program p = MustProgram(c.program, symbols);
    Database db = DbFromGraph(c.graph, symbols);
    CheckQueryOrder(p, db, {}, seed++, c.name);
  }
}

}  // namespace
}  // namespace inflog
