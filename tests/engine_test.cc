// Tests for the Engine facade and the Hamilton-circuit US pipeline.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>

#include "src/core/engine.h"
#include "src/reductions/hamilton.h"
#include "src/reductions/sat_db.h"
#include "src/sat/solver.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

TEST(EngineTest, EndToEndPi1) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("T(X) :- E(Y,X), !T(Y).").ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2). E(2,3). E(3,4).").ok());
  auto result = engine.Evaluate(SemanticsKind::kInflationary);
  ASSERT_TRUE(result.ok());
  auto t = engine.RelationOf(result->state(), "T");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->size(), 3u);  // {2,3,4}: vertices with predecessors
  auto analyzer = engine.MakeAnalyzer();
  ASSERT_TRUE(analyzer.ok());
  auto unique = analyzer->UniqueFixpoint();
  ASSERT_TRUE(unique.ok());
  EXPECT_EQ(*unique, UniqueStatus::kUnique);
}

TEST(EngineTest, SemanticsKindNamesRoundTrip) {
  for (SemanticsKind kind :
       {SemanticsKind::kInflationary, SemanticsKind::kStratified,
        SemanticsKind::kWellFounded, SemanticsKind::kStable}) {
    auto parsed = ParseSemanticsKind(SemanticsKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseSemanticsKind("nope").ok());
  EXPECT_EQ(ParseSemanticsKind("nope").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, UnifiedEvaluateMatchesTypedEntryPoints) {
  Engine engine;
  // Semipositive program (negation touches only the EDB), so all four
  // semantics provably coincide: reachability from the non-blocked seeds.
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "R(X) :- S(X), !B(X).\n"
                      "R(Y) :- R(X), E(X,Y).\n")
                  .ok());
  ASSERT_TRUE(engine
                  .LoadDatabaseText(
                      "S(1). S(4). B(4). E(1,2). E(2,3). E(4,5).\n")
                  .ok());
  for (SemanticsKind kind :
       {SemanticsKind::kInflationary, SemanticsKind::kStratified,
        SemanticsKind::kWellFounded, SemanticsKind::kStable}) {
    auto outcome = engine.Evaluate(kind);
    ASSERT_TRUE(outcome.ok()) << SemanticsKindName(kind);
    EXPECT_EQ(outcome->kind, kind);
  }
  // The unified answer matches each typed evaluator's canonical state.
  const Program& program = **engine.program();
  auto inflationary = EvalInflationary(program, engine.database());
  ASSERT_TRUE(inflationary.ok());
  EXPECT_EQ(engine.Evaluate(SemanticsKind::kInflationary)->state(),
            inflationary->state);
  auto stratified = EvalStratified(program, engine.database());
  ASSERT_TRUE(stratified.ok());
  EXPECT_EQ(engine.Evaluate(SemanticsKind::kStratified)->state(),
            stratified->state);
  auto wellfounded = EvalWellFounded(program, engine.database());
  ASSERT_TRUE(wellfounded.ok());
  EXPECT_EQ(engine.Evaluate(SemanticsKind::kWellFounded)->state(),
            wellfounded->true_state);
  auto stable = EnumerateStableModels(program, engine.database());
  ASSERT_TRUE(stable.ok());
  ASSERT_EQ(stable->models.size(), 1u);
  EXPECT_EQ(engine.Evaluate(SemanticsKind::kStable)->state(),
            stable->models.front());
  // On this stratified program all four agree.
  EXPECT_EQ(inflationary->state, stratified->state);
  EXPECT_EQ(stratified->state, wellfounded->true_state);
  EXPECT_EQ(stratified->state, stable->models.front());
}

TEST(EngineTest, UnifiedEvaluateDetailCarriesSemanticsSpecifics) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("T(X) :- E(Y,X), !T(Y).").ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2). E(2,3). E(3,4).").ok());
  auto outcome = engine.Evaluate(SemanticsKind::kInflationary);
  ASSERT_TRUE(outcome.ok());
  const auto* detail = std::get_if<InflationaryResult>(&outcome->detail);
  ASSERT_NE(detail, nullptr);
  EXPECT_TRUE(detail->converged);
  EXPECT_GT(detail->num_stages, 0u);
  // Non-stratifiable: the stratified path must fail through Evaluate too.
  auto stratified = engine.Evaluate(SemanticsKind::kStratified);
  EXPECT_FALSE(stratified.ok());
  EXPECT_EQ(stratified.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, RequiresProgramBeforeEvaluation) {
  Engine engine;
  EXPECT_EQ(engine.Evaluate(SemanticsKind::kInflationary).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(engine.program().ok());
}

TEST(EngineTest, LoadProgramReplacesPrevious) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("A(X) :- E(X,Y).").ok());
  ASSERT_TRUE(engine.LoadProgramText("B(X) :- E(Y,X).").ok());
  auto program = engine.program();
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE((*program)->FindPredicate("B").ok());
  EXPECT_FALSE((*program)->FindPredicate("A").ok());
}

TEST(EngineTest, DatabaseTextIsAdditive) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2).").ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(2,3).").ok());
  EXPECT_EQ((*engine.database().GetRelation("E"))->size(), 2u);
}

TEST(EngineTest, RejectsForeignSymbolTable) {
  Engine engine;
  Program foreign = testing::MustProgram("T(X) :- E(X,Y).");
  EXPECT_FALSE(engine.LoadProgram(std::move(foreign)).ok());
}

TEST(EngineTest, DescribeSummarizes) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("T(X) :- E(Y,X), !T(Y).").ok());
  auto description = engine.Describe();
  ASSERT_TRUE(description.ok());
  EXPECT_NE(description->find("EDB: E/2"), std::string::npos)
      << *description;
  EXPECT_NE(description->find("IDB: T/1"), std::string::npos);
  EXPECT_NE(description->find("stratifiable: no"), std::string::npos);
}

TEST(EngineTest, RelationOfRejectsEdb) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("T(X) :- E(Y,X).").ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2).").ok());
  auto result = engine.Evaluate(SemanticsKind::kInflationary);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(engine.RelationOf(result->state(), "E").ok());
  EXPECT_FALSE(engine.RelationOf(result->state(), "Nope").ok());
}

TEST(EngineTest, AllSemanticsOnOneProgram) {
  Engine engine;
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "R(X,Y) :- E(X,Y).\n"
                      "R(X,Y) :- E(X,Z), R(Z,Y).\n"
                      "Un(X,Y) :- E(Y,X), !R(X,Y).\n")
                  .ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2). E(2,3).").ok());
  auto inf = engine.Evaluate(SemanticsKind::kInflationary);
  auto strat = engine.Evaluate(SemanticsKind::kStratified);
  auto wf = engine.Evaluate(SemanticsKind::kWellFounded);
  auto stable = engine.Evaluate(SemanticsKind::kStable);
  ASSERT_TRUE(inf.ok() && strat.ok() && wf.ok() && stable.ok());
  // Stratified program: all four agree on the (total) model.
  EXPECT_TRUE(std::get<WellFoundedResult>(wf->detail).total);
  EXPECT_EQ(wf->state(), strat->state());
  ASSERT_EQ(std::get<StableResult>(stable->detail).models.size(), 1u);
  EXPECT_EQ(stable->state(), strat->state());
}

TEST(EngineTest, EvaluateAndIncrementalSessionAgree) {
  // Both run EvalSemantics, so they return the same error or the same
  // state — one relation per IDB predicate, also when the stable
  // semantics finds no model (the first program has none).
  const std::pair<const char*, const char*> cases[] = {
      {"P(X) :- E(X), !P(X).", "E(1)."},
      {"R(X) :- S(X), !B(X).\nR(Y) :- R(X), E(X,Y).\n",
       "S(1). S(4). B(4). E(1,2). E(2,3). E(4,5)."},
  };
  for (const auto& [program_text, facts] : cases) {
    for (SemanticsKind kind :
         {SemanticsKind::kInflationary, SemanticsKind::kStratified,
          SemanticsKind::kWellFounded, SemanticsKind::kStable}) {
      const std::string where = std::string(program_text) + " under " +
                                std::string(SemanticsKindName(kind));
      Engine engine;
      ASSERT_TRUE(engine.LoadProgramText(program_text).ok());
      ASSERT_TRUE(engine.LoadDatabaseText(facts).ok());
      auto evaluated = engine.Evaluate(kind);
      const Status begun = engine.BeginIncremental(kind);
      ASSERT_EQ(evaluated.status().code(), begun.code()) << where;
      if (!begun.ok()) continue;
      const IdbState& maintained = **engine.IncrementalState();
      const Program& program = **engine.program();
      EXPECT_EQ(evaluated->state().relations.size(),
                program.idb_predicates().size())
          << where;
      EXPECT_EQ(maintained.relations.size(),
                program.idb_predicates().size())
          << where;
      EXPECT_EQ(evaluated->state(), maintained) << where;
      for (const uint32_t pred : program.idb_predicates()) {
        EXPECT_TRUE(
            engine.RelationOf(evaluated->state(), program.predicate(pred).name)
                .ok())
            << where;
      }
    }
  }
}

TEST(EngineTest, FailedBeginKeepsTheLiveSession) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("T(X) :- E(Y,X), !T(W).").ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2). E(2,3).").ok());
  ASSERT_TRUE(engine.BeginServing(SemanticsKind::kInflationary).ok());
  // Neither session can start: the program is not stratifiable, and W
  // occurs only under negation.
  EXPECT_EQ(engine.BeginIncremental(SemanticsKind::kStratified).code(),
            StatusCode::kFailedPrecondition);
  EvalOptions strict;
  strict.reject_unsafe_negation = true;
  EXPECT_EQ(engine.BeginIncremental(SemanticsKind::kInflationary, strict)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.HasIncrementalSession());
  ASSERT_TRUE(engine.HasServingSession());
  const Tuple edge{engine.symbols()->Intern("3"),
                   engine.symbols()->Intern("4")};
  EXPECT_TRUE(engine.ApplyUpdate({{"E", edge}}, {}).ok());
}

TEST(EngineTest, RejectUnsafeNegationGatesAllFourSemantics) {
  // The toggle-style rule has W only under negation. By default every
  // semantics evaluates it (active-domain reading); with
  // reject_unsafe_negation the unified entry point refuses it up front —
  // including for the grounded pipelines, which build no EvalContext.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("T(X) :- E(Y,X), !T(W).").ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2). E(2,3).").ok());
  for (SemanticsKind kind :
       {SemanticsKind::kInflationary, SemanticsKind::kStratified,
        SemanticsKind::kWellFounded, SemanticsKind::kStable}) {
    EvalOptions lenient;
    auto accepted = engine.Evaluate(kind, lenient);
    if (kind != SemanticsKind::kStratified) {  // not stratifiable
      EXPECT_TRUE(accepted.ok()) << SemanticsKindName(kind);
    }
    EvalOptions strict;
    strict.reject_unsafe_negation = true;
    auto rejected = engine.Evaluate(kind, strict);
    ASSERT_FALSE(rejected.ok()) << SemanticsKindName(kind);
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.status().message().find("variable(s) W"),
              std::string::npos)
        << rejected.status().message();
  }
  // Negation-safe programs pass the strict mode untouched.
  Engine safe;
  ASSERT_TRUE(safe.LoadProgramText("T(X) :- E(Y,X), !T(Y).").ok());
  ASSERT_TRUE(safe.LoadDatabaseText("E(1,2). E(2,3).").ok());
  EvalOptions strict;
  strict.reject_unsafe_negation = true;
  EXPECT_TRUE(safe.Evaluate(SemanticsKind::kInflationary, strict).ok());
}

// --- Hamilton circuits through π_SAT (the US-typical example). ---

TEST(HamiltonTest, CnfModelsAreCircuits) {
  const Digraph g = CycleGraph(5);
  auto cnf = HamiltonToCnf(g);
  ASSERT_TRUE(cnf.ok());
  sat::Solver solver;
  solver.AddCnf(*cnf);
  ASSERT_EQ(solver.Solve(), sat::SolveResult::kSat);
  auto circuit = DecodeHamiltonCircuit(g, solver.Model());
  ASSERT_TRUE(circuit.ok()) << circuit.status().ToString();
  EXPECT_EQ((*circuit)[0], 0u);
}

TEST(HamiltonTest, NoCircuitOnPath) {
  auto cnf = HamiltonToCnf(PathGraph(4));
  ASSERT_TRUE(cnf.ok());
  sat::Solver solver;
  solver.AddCnf(*cnf);
  EXPECT_EQ(solver.Solve(), sat::SolveResult::kUnsat);
}

class HamiltonCounts : public ::testing::TestWithParam<int> {};

TEST_P(HamiltonCounts, ModelCountEqualsCircuitCount) {
  const int seed = GetParam();
  Digraph g(0);
  switch (seed) {
    case 0:
      g = CycleGraph(4);
      break;
    case 1:
      g = CompleteGraph(4);
      break;
    case 2:
      g = CompleteGraph(3);
      break;
    default: {
      Rng rng(seed * 911);
      g = RandomDigraph(5, 0.5, &rng);
      break;
    }
  }
  const uint64_t expected = CountHamiltonCircuits(g);
  auto cnf = HamiltonToCnf(g);
  ASSERT_TRUE(cnf.ok());
  // Count models by enumeration.
  sat::Solver solver;
  solver.AddCnf(*cnf);
  uint64_t models = 0;
  while (solver.Solve() == sat::SolveResult::kSat && models < 1000) {
    ++models;
    sat::Clause block;
    for (sat::Var v = 0; v < cnf->num_vars; ++v) {
      block.push_back(solver.ModelValue(v) ? sat::Neg(v) : sat::Pos(v));
    }
    if (!solver.AddClause(block)) break;
  }
  EXPECT_EQ(models, expected) << g.ToString();
}

INSTANTIATE_TEST_SUITE_P(Graphs, HamiltonCounts, ::testing::Range(0, 8));

TEST(HamiltonTest, UniqueCircuitMeansUniqueFixpoint) {
  // C₄ has exactly one directed Hamilton circuit: the composed reduction
  // Hamilton → CNF → D(I) → π_SAT must yield a UNIQUE fixpoint; K₄ has
  // six, so "multiple"; L₄ has none, so "no fixpoint". Theorem 2 end to
  // end.
  struct Case {
    Digraph graph;
    UniqueStatus expected;
  } cases[] = {
      {CycleGraph(4), UniqueStatus::kUnique},
      {CompleteGraph(4), UniqueStatus::kMultiple},
      {PathGraph(4), UniqueStatus::kNoFixpoint},
  };
  for (const auto& c : cases) {
    auto cnf = HamiltonToCnf(c.graph);
    ASSERT_TRUE(cnf.ok());
    auto symbols = std::make_shared<SymbolTable>();
    Program pi_sat = PiSatProgram(symbols);
    Database db = SatToDatabase(*cnf, symbols);
    auto analyzer = FixpointAnalyzer::Create(&pi_sat, &db);
    ASSERT_TRUE(analyzer.ok());
    auto unique = analyzer->UniqueFixpoint();
    ASSERT_TRUE(unique.ok());
    EXPECT_EQ(*unique, c.expected) << c.graph.ToString();
  }
}

}  // namespace
}  // namespace inflog
