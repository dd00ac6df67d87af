// Tests for the paper's reductions:
//   * Example 1 / Theorems 1-2: π_SAT fixpoints ↔ satisfying assignments,
//     with the CDCL solver (run directly on the CNF) as independent oracle;
//   * Lemma 1: π_COL fixpoints ↔ 3-colorability, vs. backtracking oracle;
//   * Theorem 4: circuits, succinct graphs, and the π_SC compiler.

#include <gtest/gtest.h>

#include "src/ast/analysis.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/core/engine.h"
#include "src/fixpoint/analysis.h"
#include "src/reductions/circuit.h"
#include "src/reductions/sat_db.h"
#include "src/reductions/succinct.h"
#include "src/reductions/three_coloring.h"
#include "src/sat/solver.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

using testing::DbFromGraph;

sat::Cnf Random3Sat(int num_vars, int num_clauses, Rng* rng) {
  sat::Cnf cnf;
  for (int i = 0; i < num_vars; ++i) cnf.NewVar();
  for (int c = 0; c < num_clauses; ++c) {
    sat::Clause clause;
    while (clause.size() < 3) {
      const sat::Var v = static_cast<sat::Var>(rng->Uniform(num_vars));
      bool dup = false;
      for (const sat::Lit& l : clause) dup |= l.var() == v;
      if (!dup) clause.push_back(sat::Lit(v, rng->Bernoulli(0.5)));
    }
    cnf.AddClause(clause);
  }
  return cnf;
}

uint64_t BruteForceModelCount(const sat::Cnf& cnf) {
  INFLOG_CHECK(cnf.num_vars <= 16);
  uint64_t count = 0;
  std::vector<bool> assignment(cnf.num_vars);
  for (uint32_t mask = 0; mask < (1u << cnf.num_vars); ++mask) {
    for (int v = 0; v < cnf.num_vars; ++v) assignment[v] = (mask >> v) & 1;
    if (cnf.IsSatisfiedBy(assignment)) ++count;
  }
  return count;
}

// --- Example 1: D(I) encoding. ---

TEST(SatDbTest, EncodingShape) {
  sat::Cnf cnf;
  const sat::Var x = cnf.NewVar(), y = cnf.NewVar();
  cnf.AddClause({sat::Pos(x), sat::Neg(y)});
  auto symbols = std::make_shared<SymbolTable>();
  Database db = SatToDatabase(cnf, symbols);
  EXPECT_EQ(db.universe().size(), 3u);  // v0, v1, c0
  EXPECT_EQ((*db.GetRelation("V"))->size(), 2u);
  EXPECT_EQ((*db.GetRelation("P"))->size(), 1u);
  EXPECT_EQ((*db.GetRelation("N"))->size(), 1u);
}

TEST(SatDbTest, RoundTripThroughDatabase) {
  Rng rng(42);
  const sat::Cnf cnf = Random3Sat(6, 10, &rng);
  auto symbols = std::make_shared<SymbolTable>();
  Database db = SatToDatabase(cnf, symbols);
  auto back = DatabaseToSat(db);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_vars, cnf.num_vars);
  ASSERT_EQ(back->clauses.size(), cnf.clauses.size());
  for (size_t c = 0; c < cnf.clauses.size(); ++c) {
    auto a = cnf.clauses[c];
    auto b = back->clauses[c];
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "clause " << c;
  }
}

TEST(SatDbTest, PiSatIsNotStratifiable) {
  // π_SAT needs a semantics beyond stratification — that is the point.
  auto symbols = std::make_shared<SymbolTable>();
  Program p = PiSatProgram(symbols);
  const ProgramAnalysis a = AnalyzeProgram(p);
  EXPECT_FALSE(a.stratifiable);
}

class PiSatCorrespondence : public ::testing::TestWithParam<int> {};

TEST_P(PiSatCorrespondence, FixpointExistenceMatchesSatisfiability) {
  const int seed = GetParam();
  Rng rng(seed * 997 + 3);
  const int n = 4 + static_cast<int>(rng.Uniform(4));
  const int m = static_cast<int>(n * (1.5 + (seed % 5)));
  const sat::Cnf cnf = Random3Sat(n, m, &rng);

  // Independent oracle: CDCL directly on the CNF.
  sat::Solver oracle;
  oracle.AddCnf(cnf);
  const bool satisfiable = oracle.Solve() == sat::SolveResult::kSat;

  auto symbols = std::make_shared<SymbolTable>();
  Program pi_sat = PiSatProgram(symbols);
  Database db = SatToDatabase(cnf, symbols);
  auto analyzer = FixpointAnalyzer::Create(&pi_sat, &db);
  ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();
  auto has = analyzer->HasFixpoint();
  ASSERT_TRUE(has.ok());
  EXPECT_EQ(*has, satisfiable) << "n=" << n << " m=" << m;

  if (satisfiable) {
    // Every fixpoint decodes to a satisfying assignment.
    auto fp = analyzer->FindFixpoint();
    ASSERT_TRUE(fp.ok());
    ASSERT_TRUE(fp->has_value());
    auto assignment = DecodeAssignment(pi_sat, db, cnf, **fp);
    ASSERT_TRUE(assignment.ok());
    EXPECT_TRUE(cnf.IsSatisfiedBy(*assignment));
    // And the oracle's model encodes to a verified fixpoint.
    auto encoded = EncodeAssignment(pi_sat, db, cnf, oracle.Model());
    ASSERT_TRUE(encoded.ok());
    auto verified = analyzer->VerifyFixpoint(*encoded);
    ASSERT_TRUE(verified.ok());
    EXPECT_TRUE(*verified);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PiSatCorrespondence, ::testing::Range(0, 15));

TEST(PiSatTest, FixpointCountEqualsModelCount) {
  // The Theorem 1 / Theorem 2 bijection, counted exactly.
  for (int seed : {1, 2, 3, 4, 5}) {
    Rng rng(seed * 131);
    const sat::Cnf cnf = Random3Sat(5, 6 + seed, &rng);
    auto symbols = std::make_shared<SymbolTable>();
    Program pi_sat = PiSatProgram(symbols);
    Database db = SatToDatabase(cnf, symbols);
    auto analyzer = FixpointAnalyzer::Create(&pi_sat, &db);
    ASSERT_TRUE(analyzer.ok());
    auto count = analyzer->CountFixpoints();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, BruteForceModelCount(cnf)) << "seed " << seed;
  }
}

TEST(PiSatTest, UniqueFixpointIffUniqueSat) {
  // Theorem 2: π_SAT-UNIQUE-FIXPOINT mirrors UNIQUE SAT.
  // (a) A forced chain has exactly one model.
  sat::Cnf unique;
  for (int i = 0; i < 5; ++i) unique.NewVar();
  unique.AddClause({sat::Pos(0)});
  for (int i = 0; i + 1 < 5; ++i) {
    unique.AddClause({sat::Neg(i), sat::Pos(i + 1)});
    unique.AddClause({sat::Pos(i), sat::Neg(i + 1)});
  }
  // (b) A free variable gives two models.
  sat::Cnf two = unique;
  two.NewVar();
  // (c) A contradiction gives none.
  sat::Cnf none = unique;
  none.AddClause({sat::Neg(4)});

  struct Case {
    const sat::Cnf* cnf;
    UniqueStatus expected;
  } cases[] = {{&unique, UniqueStatus::kUnique},
               {&two, UniqueStatus::kMultiple},
               {&none, UniqueStatus::kNoFixpoint}};
  for (const auto& c : cases) {
    auto symbols = std::make_shared<SymbolTable>();
    Program pi_sat = PiSatProgram(symbols);
    Database db = SatToDatabase(*c.cnf, symbols);
    auto analyzer = FixpointAnalyzer::Create(&pi_sat, &db);
    ASSERT_TRUE(analyzer.ok());
    auto unique_status = analyzer->UniqueFixpoint();
    ASSERT_TRUE(unique_status.ok());
    EXPECT_EQ(*unique_status, c.expected);
  }
}

TEST(PiSatTest, EmptyClauseMeansNoFixpoint) {
  sat::Cnf cnf;
  cnf.NewVar();
  cnf.AddClause({});  // unsatisfiable empty clause
  auto symbols = std::make_shared<SymbolTable>();
  Program pi_sat = PiSatProgram(symbols);
  Database db = SatToDatabase(cnf, symbols);
  auto analyzer = FixpointAnalyzer::Create(&pi_sat, &db);
  ASSERT_TRUE(analyzer.ok());
  auto has = analyzer->HasFixpoint();
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
}

TEST(PiSatTest, NoClausesMeansAllAssignmentsAreFixpoints) {
  sat::Cnf cnf;
  cnf.NewVar();
  cnf.NewVar();
  cnf.NewVar();
  auto symbols = std::make_shared<SymbolTable>();
  Program pi_sat = PiSatProgram(symbols);
  Database db = SatToDatabase(cnf, symbols);
  auto analyzer = FixpointAnalyzer::Create(&pi_sat, &db);
  ASSERT_TRUE(analyzer.ok());
  auto count = analyzer->CountFixpoints();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 8u);
}

// --- Lemma 1: π_COL. ---

class PiColCorrespondence : public ::testing::TestWithParam<int> {};

TEST_P(PiColCorrespondence, FixpointIffThreeColorable) {
  const int seed = GetParam();
  Digraph g(0);
  switch (seed) {
    case 0:
      g = CycleGraph(5);
      break;
    case 1:
      g = CompleteGraph(4);
      break;
    case 2:
      g = CompleteGraph(3);
      break;
    case 3: {  // odd wheel: not 3-colorable
      Digraph wheel(6);
      const Digraph rim = CycleGraph(5);
      for (const auto& [u, v] : rim.Edges()) wheel.AddEdge(u, v);
      for (int v = 0; v < 5; ++v) wheel.AddEdge(5, v);
      g = wheel;
      break;
    }
    default: {
      Rng rng(seed * 53);
      g = RandomDigraph(4 + rng.Uniform(3), 0.45, &rng);
      break;
    }
  }
  auto symbols = std::make_shared<SymbolTable>();
  Program pi_col = PiColProgram(symbols);
  Database db = DbFromGraph(g, symbols);
  auto analyzer = FixpointAnalyzer::Create(&pi_col, &db);
  ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();
  auto fp = analyzer->FindFixpoint();
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  const bool colorable = IsThreeColorable(g);
  EXPECT_EQ(fp->has_value(), colorable) << g.ToString();
  if (fp->has_value()) {
    auto colors = DecodeColoring(pi_col, db, g.num_vertices(), **fp);
    ASSERT_TRUE(colors.ok()) << colors.status().ToString();
    EXPECT_TRUE(IsProperColoring(g, *colors));
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, PiColCorrespondence,
                         ::testing::Range(0, 12));

TEST(PiColTest, SelfLoopHasNoFixpoint) {
  Digraph g(2);
  g.AddEdge(0, 0);
  auto symbols = std::make_shared<SymbolTable>();
  Program pi_col = PiColProgram(symbols);
  Database db = DbFromGraph(g, symbols);
  auto analyzer = FixpointAnalyzer::Create(&pi_col, &db);
  ASSERT_TRUE(analyzer.ok());
  auto has = analyzer->HasFixpoint();
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
}

// π_COL at a size where its toggle T(Z) :- P(X), !T(W) only fits because
// its existential components are projected: unprojected it grounds to
// |A|³ = 8,000,000 rules, over the 5,000,000 default cap.
class PiColAt200 : public ::testing::TestWithParam<bool> {};

TEST_P(PiColAt200, ProjectedToggleFitsTheDefaultLimits) {
  const bool with_k4 = GetParam();
  Digraph g = CycleGraph(200);  // even: 3-colourable (2 colours suffice)
  if (with_k4) {
    Digraph joined(204);
    for (const auto& [u, v] : g.Edges()) joined.AddEdge(u, v);
    for (size_t u = 200; u < 204; ++u) {
      for (size_t v = u + 1; v < 204; ++v) joined.AddEdge(u, v);
    }
    g = joined;
  }
  std::string facts;
  for (const auto& [u, v] : g.Edges()) facts += StrCat("E(", u, ",", v, ").\n");

  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText(PiColText()).ok());
  ASSERT_TRUE(engine.LoadDatabaseText(facts).ok());
  auto analyzer = engine.MakeAnalyzer();
  ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();
  auto has = analyzer->HasFixpoint();
  ASSERT_TRUE(has.ok()) << has.status().ToString();
  EXPECT_EQ(*has, !with_k4);
  auto fixpoint = analyzer->FindFixpoint();
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status().ToString();
  ASSERT_EQ(fixpoint->has_value(), !with_k4);
  if (fixpoint->has_value()) {
    auto colors = DecodeColoring(**engine.program(), engine.database(),
                                 g.num_vertices(), **fixpoint);
    ASSERT_TRUE(colors.ok()) << colors.status().ToString();
    EXPECT_TRUE(IsProperColoring(g, *colors));
  }
  auto wf = engine.Evaluate(SemanticsKind::kWellFounded);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();

}

INSTANTIATE_TEST_SUITE_P(EvenCycle, PiColAt200, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "PlusK4" : "Alone";
                         });

// --- Circuits. ---

TEST(CircuitTest, GateSemantics) {
  Circuit c(2);
  const uint32_t x = c.AddInput(0);
  const uint32_t y = c.AddInput(1);
  const uint32_t and_xy = c.AddAnd(x, y);
  const uint32_t or_xy = c.AddOr(x, y);
  c.AddAnd(or_xy, c.AddNot(and_xy));  // XOR as output
  EXPECT_FALSE(c.Eval({false, false}));
  EXPECT_TRUE(c.Eval({true, false}));
  EXPECT_TRUE(c.Eval({false, true}));
  EXPECT_FALSE(c.Eval({true, true}));
  EXPECT_TRUE(c.Validate().ok());
}

TEST(CircuitTest, ValidateCatchesForwardReference) {
  Circuit c(1);
  c.AddInput(0);
  // Hand-craft a bad gate via the public API being impossible; check the
  // empty circuit instead.
  Circuit empty(1);
  EXPECT_FALSE(empty.Validate().ok());
}

TEST(SuccinctFamiliesTest, CompleteGraphAdjacency) {
  const SuccinctGraph sg = SuccinctCompleteGraph(3);
  for (uint64_t u = 0; u < 8; ++u) {
    for (uint64_t v = 0; v < 8; ++v) {
      EXPECT_EQ(sg.HasEdge(u, v), u != v) << u << "," << v;
    }
  }
}

TEST(SuccinctFamiliesTest, HypercubeAdjacency) {
  const SuccinctGraph sg = SuccinctHypercube(4);
  for (uint64_t u = 0; u < 16; ++u) {
    for (uint64_t v = 0; v < 16; ++v) {
      EXPECT_EQ(sg.HasEdge(u, v), __builtin_popcountll(u ^ v) == 1);
    }
  }
}

TEST(SuccinctFamiliesTest, CycleAdjacency) {
  const SuccinctGraph sg = SuccinctCycle(3);
  for (uint64_t u = 0; u < 8; ++u) {
    for (uint64_t v = 0; v < 8; ++v) {
      EXPECT_EQ(sg.HasEdge(u, v), v == ((u + 1) & 7)) << u << "→" << v;
    }
  }
}

TEST(SuccinctFamiliesTest, ExplicitRoundTrip) {
  Rng rng(17);
  const Digraph g = RandomDigraph(7, 0.3, &rng);
  const SuccinctGraph sg = SuccinctFromExplicit(g, 3);
  const Digraph expanded = sg.Expand();
  for (size_t u = 0; u < 7; ++u) {
    for (size_t v = 0; v < 7; ++v) {
      EXPECT_EQ(expanded.HasEdge(u, v), g.HasEdge(u, v));
    }
  }
  // Padding vertex 7 has no edges.
  for (size_t v = 0; v < 8; ++v) {
    EXPECT_FALSE(expanded.HasEdge(7, v));
    EXPECT_FALSE(expanded.HasEdge(v, 7));
  }
}

// --- Theorem 4: π_SC. ---

struct SuccinctCase {
  const char* name;
  SuccinctGraph graph;
  bool expect_colorable;
};

class PiScCorrespondence
    : public ::testing::TestWithParam<int> {};

TEST_P(PiScCorrespondence, FixpointIffSuccinctThreeColorable) {
  SuccinctCase cases[] = {
      {"K2", SuccinctCompleteGraph(1), true},
      {"K4", SuccinctCompleteGraph(2), false},
      {"Q2", SuccinctHypercube(2), true},
      {"C4", SuccinctCycle(2), true},
      {"C8", SuccinctCycle(3), true},
      {"K8", SuccinctCompleteGraph(3), false},
  };
  const SuccinctCase& c = cases[GetParam()];
  // Independent oracle: expand and backtrack.
  const Digraph expanded = c.graph.Expand();
  ASSERT_EQ(IsThreeColorable(expanded), c.expect_colorable) << c.name;

  auto symbols = std::make_shared<SymbolTable>();
  auto instance = BuildSuccinct3Col(c.graph, symbols);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  AnalyzeOptions opts;
  opts.grounder.max_ground_rules = 20'000'000;
  auto analyzer = FixpointAnalyzer::Create(&instance->program,
                                           &instance->database, opts);
  ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();
  auto fp = analyzer->FindFixpoint();
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  EXPECT_EQ(fp->has_value(), c.expect_colorable) << c.name;

  if (fp->has_value()) {
    // Gate relations in the fixpoint hold exactly the tuples on which the
    // gate outputs 1 (the paper's "In any fixpoint of π_SC ..." claim).
    const Program& p = instance->program;
    const size_t n2 = 2 * c.graph.n;
    for (size_t gi = 0; gi < c.graph.circuit.num_gates(); ++gi) {
      auto pred = p.FindPredicate(StrCat("Gt", gi));
      ASSERT_TRUE(pred.ok());
      const Relation& rel =
          (*fp)->relations[p.predicate(*pred).idb_index];
      size_t expected_size = 0;
      for (uint64_t bits = 0; bits < (uint64_t{1} << n2); ++bits) {
        std::vector<bool> inputs(n2);
        for (size_t b = 0; b < n2; ++b) inputs[b] = (bits >> b) & 1;
        const bool value = c.graph.circuit.EvalAllGates(inputs)[gi];
        if (value) ++expected_size;
        Tuple t(n2);
        for (size_t b = 0; b < n2; ++b) {
          t[b] = instance->database.symbols().Find(inputs[b] ? "1" : "0");
        }
        EXPECT_EQ(rel.Contains(t), value)
            << c.name << " gate " << gi << " bits " << bits;
      }
      EXPECT_EQ(rel.size(), expected_size);
    }
    // And the coloring decodes to a proper 3-coloring of the expansion.
    auto colors = DecodeSuccinctColoring(*instance, c.graph, **fp);
    ASSERT_TRUE(colors.ok()) << colors.status().ToString();
    EXPECT_TRUE(IsProperColoring(expanded, *colors)) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, PiScCorrespondence, ::testing::Range(0, 6));

TEST(PiScTest, RejectsMismatchedInputCount) {
  SuccinctGraph sg;
  sg.n = 2;
  sg.circuit = Circuit(3);  // should be 4
  sg.circuit.AddInput(0);
  auto instance = BuildSuccinct3Col(sg, std::make_shared<SymbolTable>());
  EXPECT_FALSE(instance.ok());
}

}  // namespace
}  // namespace inflog
