// Edge cases and cross-module properties: empty databases, universe
// handling, program constants, convergence invariants, and enumeration
// counts — failure modes a downstream user would hit first.

#include <gtest/gtest.h>

#include <variant>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/core/engine.h"
#include "src/eval/theta.h"
#include "src/fixpoint/analysis.h"
#include "src/sat/solver.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

using testing::DbFromGraph;
using testing::MustProgram;

TEST(EdgeCaseTest, EmptyProgramText) {
  auto p = ParseProgram("");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->rules().empty());
  auto q = ParseProgram("% only comments\n// and more\n");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->rules().empty());
}

TEST(EdgeCaseTest, EmptyDatabaseEmptyUniverse) {
  // No facts, no universe: Θ^∞ is empty, trivially converged.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("T(X) :- !T(X).").ok());
  auto result = engine.Evaluate(SemanticsKind::kInflationary);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state().TotalTuples(), 0u);
  EXPECT_TRUE(std::get<InflationaryResult>(result->detail).converged);
  // And the unique fixpoint is the empty one.
  auto analyzer = engine.MakeAnalyzer();
  ASSERT_TRUE(analyzer.ok());
  auto unique = analyzer->UniqueFixpoint();
  ASSERT_TRUE(unique.ok());
  EXPECT_EQ(*unique, UniqueStatus::kUnique);
}

TEST(EdgeCaseTest, UniverseWithoutFacts) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("T(X) :- !T(X).").ok());
  ASSERT_TRUE(engine.LoadDatabaseText("@universe a b.").ok());
  // T(x) ← ¬T(x) on a 2-element universe: Θ^∞ = A.
  auto result = engine.Evaluate(SemanticsKind::kInflationary);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state().TotalTuples(), 2u);
  // ...and (π, D) has no fixpoint (pointwise toggle).
  auto analyzer = engine.MakeAnalyzer();
  ASSERT_TRUE(analyzer.ok());
  auto has = analyzer->HasFixpoint();
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
}

TEST(EdgeCaseTest, ProgramConstantsJoinTheUniverse) {
  // The constant c42 appears only in the program; evaluation must range
  // over it (Section 2's universe plus program constants).
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("P(X) :- X = c42.").ok());
  ASSERT_TRUE(engine.LoadDatabaseText("@universe a.").ok());
  auto result = engine.Evaluate(SemanticsKind::kInflationary);
  ASSERT_TRUE(result.ok());
  auto p = engine.RelationOf(result->state(), "P");
  ASSERT_TRUE(p.ok());
  ASSERT_EQ((*p)->size(), 1u);
  EXPECT_EQ(engine.symbols()->Name((*p)->Row(0)[0]), "c42");
}

TEST(EdgeCaseTest, FactsOnlyProgram) {
  // Bodyless ground rules behave like IDB facts under every semantics.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("F(a,b).\nF(b,c).").ok());
  auto inf = engine.Evaluate(SemanticsKind::kInflationary);
  ASSERT_TRUE(inf.ok());
  EXPECT_EQ(inf->state().TotalTuples(), 2u);
  EXPECT_EQ(std::get<InflationaryResult>(inf->detail).num_stages, 1u);
  auto analyzer = engine.MakeAnalyzer();
  ASSERT_TRUE(analyzer.ok());
  auto unique = analyzer->UniqueFixpoint();
  ASSERT_TRUE(unique.ok());
  EXPECT_EQ(*unique, UniqueStatus::kUnique);
  auto wf = engine.Evaluate(SemanticsKind::kWellFounded);
  ASSERT_TRUE(wf.ok());
  EXPECT_TRUE(std::get<WellFoundedResult>(wf->detail).total);
  EXPECT_EQ(wf->state().TotalTuples(), 2u);
}

TEST(EdgeCaseTest, SelfLoopGraph) {
  Digraph g(2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("T(X) :- E(Y,X), !T(Y).", symbols);
  Database db = DbFromGraph(g, symbols);
  // T(0) ← E(0,0) ∧ ¬T(0): vertex 0 toggles itself → no fixpoint.
  auto analyzer = FixpointAnalyzer::Create(&p, &db);
  ASSERT_TRUE(analyzer.ok());
  auto has = analyzer->HasFixpoint();
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
}

TEST(EdgeCaseTest, MaxStagesZeroMeansUnbounded) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram(
      "S(X,Y) :- E(X,Y).\nS(X,Y) :- E(X,Z), S(Z,Y).", symbols);
  Database db = DbFromGraph(PathGraph(20), symbols);
  InflationaryOptions opts;
  opts.max_stages = 0;
  auto result = EvalInflationary(p, db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->num_stages, 19u);
}

TEST(EdgeCaseTest, ArityZeroEverywhere) {
  Engine engine;
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "Go :- Start, !Stop.\n"
                      "Done :- Go.\n")
                  .ok());
  ASSERT_TRUE(engine.LoadDatabaseText("Start.").ok());
  InflationaryOptions opts;
  opts.context.allow_missing_edb = true;  // Stop has no facts
  auto result =
      EvalInflationary(**engine.program(), engine.database(), opts);
  ASSERT_TRUE(result.ok());
  auto go = engine.RelationOf(result->state, "Go");
  auto done = engine.RelationOf(result->state, "Done");
  ASSERT_TRUE(go.ok() && done.ok());
  EXPECT_EQ((*go)->size(), 1u);
  EXPECT_EQ((*done)->size(), 1u);
}

TEST(EdgeCaseTest, LongChainDeepStages) {
  // 400 stages of inflationary iteration: no stack or bookkeeping issues.
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("R(X) :- S0(X).\nR(Y) :- E(X,Y), R(X).", symbols);
  Database db = DbFromGraph(PathGraph(400), symbols);
  ASSERT_TRUE(db.AddFact("S0", Tuple{symbols->Intern("0")}).ok());
  auto result = EvalInflationary(p, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state.relations[0].size(), 400u);
  EXPECT_EQ(result->num_stages, 400u);
}

// --- Cross-module properties on random programs. ---

class InflationaryInvariants : public ::testing::TestWithParam<int> {};

TEST_P(InflationaryInvariants, FinalStateIsInductiveFixpoint) {
  // Θ(S^∞) ⊆ S^∞ (the inflationary operator has stabilized), and on
  // positive programs S^∞ IS the least fixpoint found by the analyzer.
  const int seed = GetParam();
  Rng rng(seed * 83 + 19);
  const Digraph g = RandomDigraph(4, 0.4, &rng);
  const bool positive = seed % 2 == 0;
  const std::string text =
      positive ? "S(X,Y) :- E(X,Y).\nS(X,Y) :- E(X,Z), S(Z,Y).\n"
               : "S(X,Y) :- E(X,Y), !S(Y,X).\n"
                 "S(X,Y) :- E(X,Z), S(Z,Y), !S(Y,X).\n";
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram(text, symbols);
  Database db = DbFromGraph(g, symbols);
  auto inf = EvalInflationary(p, db);
  ASSERT_TRUE(inf.ok());
  auto ctx = EvalContext::Create(p, db);
  ASSERT_TRUE(ctx.ok());
  ThetaOperator theta(&*ctx);
  EXPECT_TRUE(theta.Apply(inf->state).IsSubsetOf(inf->state))
      << "Θ̂ not stabilized";
  if (positive) {
    auto analyzer = FixpointAnalyzer::Create(&p, &db);
    ASSERT_TRUE(analyzer.ok());
    auto least = analyzer->LeastFixpoint();
    ASSERT_TRUE(least.ok());
    ASSERT_TRUE(least->has_least);
    EXPECT_EQ(least->intersection, inf->state);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InflationaryInvariants,
                         ::testing::Range(0, 12));

TEST(EnumerationCountTest, SolverEnumerationMatchesBruteForceModelCount) {
  for (int seed : {3, 7, 11, 19}) {
    Rng rng(seed);
    sat::Cnf cnf;
    for (int i = 0; i < 10; ++i) cnf.NewVar();
    for (int c = 0; c < 18; ++c) {
      sat::Clause clause;
      while (clause.size() < 3) {
        const sat::Var v = static_cast<sat::Var>(rng.Uniform(10));
        bool dup = false;
        for (const sat::Lit& l : clause) dup |= l.var() == v;
        if (!dup) clause.push_back(sat::Lit(v, rng.Bernoulli(0.5)));
      }
      cnf.AddClause(clause);
    }
    uint64_t brute = 0;
    std::vector<bool> assignment(10);
    for (uint32_t mask = 0; mask < 1024; ++mask) {
      for (int v = 0; v < 10; ++v) assignment[v] = (mask >> v) & 1;
      if (cnf.IsSatisfiedBy(assignment)) ++brute;
    }
    sat::Solver solver;
    solver.AddCnf(cnf);
    uint64_t enumerated = 0;
    while (solver.Solve() == sat::SolveResult::kSat) {
      ++enumerated;
      ASSERT_LE(enumerated, 1024u);
      sat::Clause block;
      for (sat::Var v = 0; v < 10; ++v) {
        block.push_back(solver.ModelValue(v) ? sat::Neg(v) : sat::Pos(v));
      }
      if (!solver.AddClause(block)) break;
    }
    EXPECT_EQ(enumerated, brute) << "seed " << seed;
  }
}

TEST(GroundBodySharingTest, ToggleSharesBodiesAcrossHeads) {
  // The toggle's components {¬Q(U)} and {¬T(W)} are projected, so it
  // grounds in linear size and its bodies are interned once.
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("T(Z) :- !Q(U), !T(W).\nQ(X) :- E(X,Y).",
                          symbols);
  Database db = DbFromGraph(PathGraph(5), symbols);
  auto analyzer = FixpointAnalyzer::Create(&p, &db);
  ASSERT_TRUE(analyzer.ok());
  const GroundProgram& ground = analyzer->ground();
  // 5 + 5 auxiliary rules and 5 toggle rules (not 125) + 4 Q rules;
  // bodies: 10 auxiliary + 1 toggle + the Q facts' empty body.
  EXPECT_EQ(ground.rules.size(), 15u + 4u);
  EXPECT_LE(ground.bodies.size(), 25u + 5u);
  // And the completion introduces at most one Tseitin var per body.
  EXPECT_LE(analyzer->encoding().num_body_vars, ground.bodies.size());
}

TEST(StatusPropagationTest, GroundingLimitSurfacesThroughAnalyzer) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("T(Z) :- !Q(U), !T(W).\nQ(X) :- E(X,Y).",
                          symbols);
  Database db = DbFromGraph(PathGraph(30), symbols);
  AnalyzeOptions opts;
  opts.grounder.max_ground_rules = 100;
  auto analyzer = FixpointAnalyzer::Create(&p, &db, opts);
  EXPECT_FALSE(analyzer.ok());
  EXPECT_EQ(analyzer.status().code(), StatusCode::kResourceExhausted);
}

TEST(SolverBudgetTest, BudgetSurfacesAsResourceExhausted) {
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("T(X) :- E(Y,X), !T(Y).", symbols);
  Database db = DbFromGraph(DisjointCycles(6, 4), symbols);
  AnalyzeOptions opts;
  opts.solver.max_conflicts = 1;
  auto analyzer = FixpointAnalyzer::Create(&p, &db, opts);
  ASSERT_TRUE(analyzer.ok());
  // Enumerating 64 fixpoints under a 1-conflict budget must give up
  // (rather than silently returning a partial answer).
  auto fps = analyzer->EnumerateFixpoints();
  EXPECT_FALSE(fps.ok());
  EXPECT_EQ(fps.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fps.status().message(), "SAT conflict budget exhausted");
}

TEST(SolverBudgetTest, BudgetCoversEveryQueryOfOneAnalyzer) {
  // One solver serves every query of an analyzer, so the budget is the
  // analyzer's: a second query that needs a conflict finds it spent.
  auto symbols = std::make_shared<SymbolTable>();
  Program p = MustProgram("T(X) :- E(Y,X), !T(Y).", symbols);
  Database db = DbFromGraph(DisjointCycles(6, 4), symbols);
  AnalyzeOptions opts;
  opts.solver.max_conflicts = 1;
  auto analyzer = FixpointAnalyzer::Create(&p, &db, opts);
  ASSERT_TRUE(analyzer.ok());
  EXPECT_EQ(analyzer->EnumerateFixpoints().status().code(),
            StatusCode::kResourceExhausted);
  const Status second = analyzer->CountFixpoints().status();
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(second.message(), "SAT conflict budget exhausted");
  // A fresh analyzer with no budget answers: 2^6 fixpoints.
  auto fresh = FixpointAnalyzer::Create(&p, &db);
  ASSERT_TRUE(fresh.ok());
  auto count = fresh->CountFixpoints();
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 64u);
}

}  // namespace
}  // namespace inflog
