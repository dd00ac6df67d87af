// Tests for the DATALOG¬ parser, printer round-trips, and program
// analysis (EDB/IDB split, stratification, safety) on the paper's programs.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/ast/analysis.h"
#include "src/ast/parser.h"
#include "src/ast/printer.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/core/engine.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

using testing::MustDatabase;
using testing::MustProgram;

// The paper's π₁ (Section 2).
constexpr char kPi1[] = "T(X) :- E(Y,X), !T(Y).";
// The paper's π₂.
constexpr char kPi2[] =
    "S1(X,Y) :- E(X,Y).\n"
    "S1(X,Y) :- E(X,Z), S1(Z,Y).\n"
    "S2(X,Y,Z,W) :- S1(X,Y), !S1(Z,W).\n";
// The paper's π₃ (positive transitive closure).
constexpr char kPi3[] =
    "S(X,Y) :- E(X,Y).\n"
    "S(X,Y) :- E(X,Z), S(Z,Y).\n";

TEST(ParserTest, ParsesPi1) {
  Program p = MustProgram(kPi1);
  ASSERT_EQ(p.rules().size(), 1u);
  const Rule& r = p.rules()[0];
  EXPECT_EQ(p.predicate(r.head.predicate).name, "T");
  ASSERT_EQ(r.body.size(), 2u);
  EXPECT_EQ(r.body[0].kind, Literal::Kind::kAtom);
  EXPECT_EQ(r.body[1].kind, Literal::Kind::kNegAtom);
  // E is EDB, T is IDB.
  EXPECT_FALSE(p.predicate(*p.FindPredicate("E")).is_idb);
  EXPECT_TRUE(p.predicate(*p.FindPredicate("T")).is_idb);
  EXPECT_TRUE(p.HasNegation());
  EXPECT_FALSE(p.IsPositive());
}

TEST(ParserTest, ParsesPi2WithArities) {
  Program p = MustProgram(kPi2);
  EXPECT_EQ(p.rules().size(), 3u);
  EXPECT_EQ(p.predicate(*p.FindPredicate("S1")).arity, 2u);
  EXPECT_EQ(p.predicate(*p.FindPredicate("S2")).arity, 4u);
  EXPECT_EQ(p.idb_predicates().size(), 2u);
}

TEST(ParserTest, Pi3IsPositive) {
  Program p = MustProgram(kPi3);
  EXPECT_TRUE(p.IsPositive());
  EXPECT_FALSE(p.HasNegation());
}

TEST(ParserTest, NotKeywordNegates) {
  Program p = MustProgram("T(X) :- E(Y,X), not T(Y).");
  EXPECT_EQ(p.rules()[0].body[1].kind, Literal::Kind::kNegAtom);
}

TEST(ParserTest, EqualityAndInequality) {
  Program p = MustProgram("P(X,Y) :- D(X), D(Y), X != Y.\n"
                          "Q(X,Y) :- D(X), D(Y), X = Y.\n"
                          "R(X,Y) :- D(X), D(Y), X <> Y.\n");
  EXPECT_EQ(p.rules()[0].body[2].kind, Literal::Kind::kNeq);
  EXPECT_EQ(p.rules()[1].body[2].kind, Literal::Kind::kEq);
  EXPECT_EQ(p.rules()[2].body[2].kind, Literal::Kind::kNeq);
  // Inequality makes a program non-DATALOG per the paper's definition.
  EXPECT_FALSE(p.IsPositive());
}

TEST(ParserTest, ConstantsInHeadAndBody) {
  Program p = MustProgram("G(Z1,1,Z2) :- .\nH(X) :- E(X,foo).");
  const Rule& g = p.rules()[0];
  EXPECT_TRUE(g.body.empty());
  EXPECT_TRUE(g.head.args[0].IsVariable());
  EXPECT_TRUE(g.head.args[1].IsConstant());
  EXPECT_EQ(p.symbols().Name(g.head.args[1].id), "1");
  const Rule& h = p.rules()[1];
  EXPECT_TRUE(h.body[0].args[1].IsConstant());
  EXPECT_EQ(p.symbols().Name(h.body[0].args[1].id), "foo");
}

TEST(ParserTest, BodylessRuleWithoutColonDash) {
  Program p = MustProgram("Dom(X).");
  EXPECT_TRUE(p.rules()[0].body.empty());
  EXPECT_EQ(p.rules()[0].num_vars, 1u);
}

TEST(ParserTest, ZeroArityPredicates) {
  Program p = MustProgram("Flag :- E(X,Y).\nOther :- Flag, !Done.");
  EXPECT_EQ(p.predicate(*p.FindPredicate("Flag")).arity, 0u);
  EXPECT_EQ(p.predicate(*p.FindPredicate("Done")).arity, 0u);
}

TEST(ParserTest, CommentsAndWhitespace) {
  Program p = MustProgram(
      "% leading comment\n"
      "T(X) :- E(Y,X), % inline\n"
      "        !T(Y).\n"
      "// slash comment\n");
  EXPECT_EQ(p.rules().size(), 1u);
}

TEST(ParserTest, QuotedConstants) {
  Program p = MustProgram("P(X) :- E(X, 'Hello World').");
  EXPECT_EQ(p.symbols().Name(p.rules()[0].body[0].args[1].id),
            "Hello World");
}

TEST(ParserTest, VariablesSharedWithinRuleOnly) {
  Program p = MustProgram("A(X) :- E(X,X).\nB(X) :- F(X).");
  // Both rules use variable index 0 for their own X.
  EXPECT_EQ(p.rules()[0].num_vars, 1u);
  EXPECT_EQ(p.rules()[1].num_vars, 1u);
  EXPECT_EQ(p.rules()[0].body[0].args[0].id,
            p.rules()[0].body[0].args[1].id);
}

TEST(ParserTest, EachUnderscoreIsItsOwnVariable) {
  Program p = MustProgram("P(X) :- E(X,_), F(_,X).");
  const Rule& rule = p.rules()[0];
  EXPECT_EQ(rule.num_vars, 3u);
  EXPECT_NE(rule.body[0].args[1].id, rule.body[1].args[0].id);
  EXPECT_EQ(p.ToString(), "P(X) :- E(X,_), F(_,X).\n");

  // Joined as one variable, the rule would derive nothing here.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("P(X) :- E(X,_), F(_,X).").ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2). F(3,1).").ok());
  auto result = engine.Evaluate(SemanticsKind::kStratified);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rel = engine.RelationOf(result->state(), "P");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(testing::TuplesOf(*engine.symbols(), **rel),
            (std::vector<std::vector<std::string>>{{"1"}}));
}

TEST(ParserTest, HashCommentsInProgramsAndFacts) {
  Program p = MustProgram(
      "# leading comment\n"
      "T(X) :- E(Y,X), # inline\n"
      "        !T(Y).\n");
  EXPECT_EQ(p.rules().size(), 1u);
  Database db = MustDatabase("E(1,2). # an edge\n# E(3,4).\n");
  EXPECT_EQ((*db.GetRelation("E"))->size(), 1u);
}

TEST(ParserTest, ArityConflictRejected) {
  auto r = ParseProgram("T(X) :- E(X).\nS(X,Y) :- E(X,Y).");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, SyntaxErrorsCarryLineNumbers) {
  auto r = ParseProgram("T(X) :- E(Y,X)\nU(X) :- E(X,X).");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().ToString();
}

TEST(ParserTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseProgram("P(X) :- E(X, 'oops).").ok());
}

TEST(ParserTest, PrintParseRoundTrip) {
  const char* kSources[] = {
      kPi1, kPi2, kPi3,
      "G(Z1,1,Z2).",
      "P(X,Y) :- D(X), D(Y), X != Y, !Q(X).",
      "T(Z) :- !Q(U), !T(W).",
      "P(X) :- E(X, 'Hello World'), F(X, _), G(_, X).",
  };
  for (const char* src : kSources) {
    Program p1 = MustProgram(src);
    const std::string printed = p1.ToString();
    Program p2 = MustProgram(printed, p1.shared_symbols());
    EXPECT_EQ(printed, p2.ToString()) << "source: " << src;
  }
}

TEST(DatabaseParserTest, FactsAndUniverse) {
  Database db = MustDatabase(
      "E(1,2). E(2,3).\n"
      "V(a). Flag.\n"
      "@universe x y.\n");
  EXPECT_EQ((*db.GetRelation("E"))->size(), 2u);
  EXPECT_EQ((*db.GetRelation("V"))->size(), 1u);
  EXPECT_EQ((*db.GetRelation("Flag"))->arity(), 0u);
  EXPECT_EQ((*db.GetRelation("Flag"))->size(), 1u);
  // Universe: 1,2,3,a + declared x,y.
  EXPECT_EQ(db.universe().size(), 6u);
}

TEST(DatabaseParserTest, RejectsVariablesInFacts) {
  EXPECT_FALSE(ParseDatabase("E(X, 1).").ok());
}

TEST(DatabaseParserTest, RejectsArityDrift) {
  EXPECT_FALSE(ParseDatabase("E(1,2). E(3).").ok());
}

// --- Program analysis. ---

TEST(AnalysisTest, Pi1NotStratifiable) {
  // T depends negatively on itself: recursion through negation.
  const ProgramAnalysis a = AnalyzeProgram(MustProgram(kPi1));
  EXPECT_FALSE(a.stratifiable);
}

TEST(AnalysisTest, Pi2StratifiesIntoTwoLayers) {
  Program p = MustProgram(kPi2);
  const ProgramAnalysis a = AnalyzeProgram(p);
  ASSERT_TRUE(a.stratifiable);
  const int s1 = a.stratum[*p.FindPredicate("S1")];
  const int s2 = a.stratum[*p.FindPredicate("S2")];
  EXPECT_LT(s1, s2);  // S2 uses S1 negatively, so it sits strictly higher
  EXPECT_EQ(a.num_strata, 2);
}

TEST(AnalysisTest, PositiveProgramsAreStratifiable) {
  const ProgramAnalysis a = AnalyzeProgram(MustProgram(kPi3));
  EXPECT_TRUE(a.stratifiable);
  EXPECT_EQ(a.num_strata, 1);
}

TEST(AnalysisTest, ToggleRuleIsUnsafeAndUnstratifiable) {
  Program p = MustProgram("T(Z) :- !Q(U), !T(W).");
  const ProgramAnalysis a = AnalyzeProgram(p);
  EXPECT_FALSE(a.stratifiable);
  ASSERT_EQ(a.unsafe_vars.size(), 1u);
  // All three variables Z, U, W are unsafe (active-domain semantics).
  EXPECT_EQ(a.unsafe_vars[0].size(), 3u);
  // Only U and W occur under negation; the head variable Z does not.
  ASSERT_EQ(a.negation_unsafe_vars.size(), 1u);
  EXPECT_EQ(a.negation_unsafe_vars[0].size(), 2u);
  EXPECT_FALSE(a.AllSafe());
  EXPECT_FALSE(a.NegationSafe());
  EXPECT_EQ(a.warnings.size(), 1u);
}

TEST(AnalysisTest, NegationSafetyCheckNamesRuleAndVariables) {
  Program p = MustProgram("T(X) :- E(X,Y), !Q(Z).");
  const ProgramAnalysis a = AnalyzeProgram(p);
  EXPECT_FALSE(a.NegationSafe());
  const Status s = CheckNegationSafety(p);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The diagnostic names the offending rule and the offending variable —
  // and only that variable (X and Y are bound by E).
  EXPECT_NE(s.message().find("T(X) :- E(X,Y), !Q(Z)."), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("variable(s) Z"), std::string::npos)
      << s.message();
}

TEST(AnalysisTest, NegationSafetyAcceptsBoundNegation) {
  // X is bound by a positive literal before the negated one uses it, so
  // the rule passes even though the program is head-unsafe elsewhere.
  Program p = MustProgram(
      "T(X) :- E(X,Y), !Q(X).\n"
      "H(Z) :- E(X,Y).\n");  // Z ranges over the active domain: allowed
  const ProgramAnalysis a = AnalyzeProgram(p);
  EXPECT_FALSE(a.AllSafe());      // the H rule is head-unsafe
  EXPECT_TRUE(a.NegationSafe());  // but no unbound variable under negation
  EXPECT_TRUE(CheckNegationSafety(p).ok());
}

TEST(AnalysisTest, NegationSafetyHonorsEqualityClosure) {
  // X is bound through X = Y with Y bound by D — the same closure range
  // restriction uses.
  Program p = MustProgram("P(X) :- D(Y), X = Y, !Q(X).");
  EXPECT_TRUE(CheckNegationSafety(p).ok());
}

TEST(AnalysisTest, NegationSafetyListsEveryOffendingRule) {
  Program p = MustProgram(
      "A(X) :- D(X).\n"
      "B(X) :- D(X), !C(Y).\n"
      "E(X) :- D(X), !F(Z).\n");
  const Status s = CheckNegationSafety(p);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("variable(s) Y"), std::string::npos);
  EXPECT_NE(s.message().find("variable(s) Z"), std::string::npos);
}

TEST(AnalysisTest, SafeRuleHasNoWarnings) {
  const ProgramAnalysis a = AnalyzeProgram(MustProgram(kPi3));
  EXPECT_TRUE(a.AllSafe());
  EXPECT_TRUE(a.warnings.empty());
}

TEST(AnalysisTest, EqualityBindingMakesSafe) {
  // X is bound through the equality chain X = Y, Y bound by D(Y).
  Program p = MustProgram("P(X) :- D(Y), X = Y, !Q(X).");
  const ProgramAnalysis a = AnalyzeProgram(p);
  EXPECT_TRUE(a.AllSafe());
}

TEST(AnalysisTest, EqualityChainClosure) {
  Program p = MustProgram("P(X) :- D(Z), X = Y, Y = Z.");
  const std::vector<bool> bound = BoundVariables(p.rules()[0]);
  EXPECT_TRUE(bound[0]);  // X via Y via Z
  EXPECT_TRUE(bound[1]);
  EXPECT_TRUE(bound[2]);
}

TEST(AnalysisTest, NegativeEdgeRecorded) {
  Program p = MustProgram(kPi2);
  const ProgramAnalysis a = AnalyzeProgram(p);
  bool found_negative = false;
  for (const DependencyEdge& e : a.edges) {
    if (e.head == *p.FindPredicate("S2") &&
        e.body == *p.FindPredicate("S1")) {
      found_negative = e.negative;
    }
  }
  // S2 uses S1 both positively and negatively; the edge is negative-
  // dominant.
  EXPECT_TRUE(found_negative);
}

TEST(AnalysisTest, MutualNegationNotStratifiable) {
  const ProgramAnalysis a = AnalyzeProgram(
      MustProgram("A(X) :- D(X), !B(X).\nB(X) :- D(X), !A(X)."));
  EXPECT_FALSE(a.stratifiable);
}

TEST(AnalysisTest, LongNegativeChainStratifies) {
  const ProgramAnalysis a = AnalyzeProgram(MustProgram(
      "A(X) :- D(X).\nB(X) :- D(X), !A(X).\nC(X) :- D(X), !B(X).\n"
      "F(X) :- D(X), !C(X)."));
  ASSERT_TRUE(a.stratifiable);
  EXPECT_EQ(a.num_strata, 4);
}

/// The edges and strata by Ullman's relaxation, the reference the
/// component pass must agree with: raise stratum(head) to stratum(body),
/// plus one over a negative edge, until nothing moves; a stratum past the
/// number of predicates means a cycle through negation.
ProgramAnalysis RelaxationReference(const Program& program) {
  ProgramAnalysis out;
  const size_t num_preds = program.num_predicates();
  std::map<std::pair<uint32_t, uint32_t>, bool> edge_map;
  for (const Rule& rule : program.rules()) {
    for (const Literal& lit : rule.body) {
      if (!lit.IsPositiveAtom() && !lit.IsNegatedAtom()) continue;
      auto [it, inserted] = edge_map.emplace(
          std::make_pair(rule.head.predicate, lit.predicate),
          lit.IsNegatedAtom());
      if (!inserted) it->second = it->second || lit.IsNegatedAtom();
    }
  }
  for (const auto& [key, neg] : edge_map) {
    out.edges.push_back(DependencyEdge{key.first, key.second, neg});
  }
  out.stratum.assign(num_preds, 0);
  out.stratifiable = true;
  bool changed = true;
  while (changed && out.stratifiable) {
    changed = false;
    for (const auto& [key, neg] : edge_map) {
      const int need = out.stratum[key.second] + (neg ? 1 : 0);
      if (out.stratum[key.first] < need) {
        out.stratum[key.first] = need;
        changed = true;
        if (out.stratum[key.first] > static_cast<int>(num_preds)) {
          out.stratifiable = false;
          break;
        }
      }
    }
  }
  if (out.stratifiable) {
    out.num_strata =
        *std::max_element(out.stratum.begin(), out.stratum.end()) + 1;
  } else {
    out.stratum.assign(num_preds, -1);
  }
  return out;
}

/// A random program over P0..P(n-1), 2 <= n <= 12, with an EDB V: rules
/// `Pi(X) :- <one to three literals Pj(X) or !Pj(X)>.` in shuffled order.
/// When `layered`, each predicate gets a level, and a rule reads only
/// predicates at most its head's level and negates only lower ones, so
/// the program is stratifiable; otherwise any edge may occur, self-loops
/// included.
std::string RandomDependencyProgram(Rng* rng, bool layered) {
  const uint64_t n = 2 + rng->Uniform(11);
  std::vector<uint64_t> level(n);
  for (uint64_t& l : level) l = rng->Uniform(4);
  std::vector<std::string> rules;
  const uint64_t num_rules = 1 + rng->Uniform(2 * n);
  for (uint64_t r = 0; r < num_rules; ++r) {
    const uint64_t head = rng->Uniform(n);
    std::vector<std::string> body;
    const uint64_t num_lits = 1 + rng->Uniform(3);
    for (uint64_t l = 0; l < num_lits; ++l) {
      const uint64_t pred = rng->Uniform(n);
      bool negated = rng->Bernoulli(0.4);
      if (layered && level[pred] > level[head]) continue;
      if (layered && level[pred] == level[head]) negated = false;
      body.push_back(StrCat(negated ? "!" : "", "P", pred, "(X)"));
    }
    if (body.empty()) body.push_back("V(X)");
    rules.push_back(StrCat("P", head, "(X) :- ", StrJoin(body, ", "), "."));
  }
  rng->Shuffle(&rules);
  return StrJoin(rules, "\n");
}

TEST(AnalysisTest, ComponentsAgreeWithRelaxationAndReachability) {
  Rng rng(22);
  int stratifiable = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::string text = RandomDependencyProgram(&rng, trial % 2 == 0);
    const Program p = MustProgram(text);
    const ProgramAnalysis a = AnalyzeProgram(p);
    const ProgramAnalysis ref = RelaxationReference(p);
    ASSERT_EQ(a.stratifiable, ref.stratifiable) << text;
    EXPECT_EQ(a.stratum, ref.stratum) << text;
    EXPECT_EQ(a.num_strata, ref.num_strata) << text;
    ASSERT_EQ(a.edges.size(), ref.edges.size()) << text;
    for (size_t i = 0; i < a.edges.size(); ++i) {
      const DependencyEdge& e = a.edges[i];
      const DependencyEdge& r = ref.edges[i];
      EXPECT_EQ(std::tie(e.head, e.body, e.negative),
                std::tie(r.head, r.body, r.negative))
          << text;
    }
    stratifiable += a.stratifiable ? 1 : 0;

    // Each predicate lies in exactly one component, members ascending.
    const size_t n = p.num_predicates();
    std::vector<size_t> component_of(n, a.components.size());
    for (size_t c = 0; c < a.components.size(); ++c) {
      const std::vector<uint32_t>& component = a.components[c];
      EXPECT_TRUE(std::is_sorted(component.begin(), component.end()));
      for (const uint32_t q : component) {
        EXPECT_EQ(component_of[q], a.components.size()) << text;
        component_of[q] = c;
      }
    }
    // Two predicates share a component iff each reaches the other
    // (Floyd–Warshall over the edges).
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (size_t i = 0; i < n; ++i) reach[i][i] = true;
    for (const DependencyEdge& e : a.edges) reach[e.head][e.body] = true;
    for (size_t k = 0; k < n; ++k) {
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          if (reach[i][k] && reach[k][j]) reach[i][j] = true;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_LT(component_of[i], a.components.size()) << text;
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(component_of[i] == component_of[j],
                  reach[i][j] && reach[j][i])
            << text;
      }
    }
    // Dependency-first: an edge stays in its component or leads to an
    // earlier one.
    for (const DependencyEdge& e : a.edges) {
      EXPECT_LE(component_of[e.body], component_of[e.head]) << text;
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(stratifiable, 100);
  EXPECT_LT(stratifiable, 380);
}

TEST(AnalysisTest, TopDownNegationChainHasOneStratumPerRule) {
  // P_i(X) :- V(X), !P_{i-1}(X), written from i = 20,000 down to 1. The
  // relaxation took one pass over every edge per stratum here, quadratic
  // in the rule count; the component pass is linear.
  std::string text;
  for (int i = 20000; i >= 1; --i) {
    text += StrCat("P", i, "(X) :- V(X), !P", i - 1, "(X).\n");
  }
  const Program p = MustProgram(text);
  const ProgramAnalysis a = AnalyzeProgram(p);
  ASSERT_TRUE(a.stratifiable);
  EXPECT_EQ(a.num_strata, 20001);
  EXPECT_EQ(a.components.size(), 20002u);  // P0..P20000 and V
  EXPECT_EQ(a.stratum[*p.FindPredicate("P0")], 0);
  EXPECT_EQ(a.stratum[*p.FindPredicate("P20000")], 20000);
}

}  // namespace
}  // namespace inflog
