// Cross-semantics regression tests for the unified fixpoint core.
//
// All four semantics now parameterize the same FixpointDriver, so their
// agreement on the program classes where they provably coincide is the
// regression surface for the shared machinery:
//
//   * positive DATALOG: inflationary = least fixpoint = stratified =
//     well-founded (total), and the unique stable model;
//   * semipositive DATALOG¬ (negation only on EDB relations): same —
//     negated literals are constant along the stages, so the inflationary
//     iteration computes the stratified model;
//   * stratifiable DATALOG¬: stratified = well-founded true part, and the
//     well-founded model is total (the inflationary semantics may
//     legitimately differ here — Proposition 2's distance program reads
//     its meaning off that very divergence, so it is NOT asserted).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/core/engine.h"
#include "src/graphs/digraph.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

/// Engine loaded with a random digraph as E(u,v), every vertex as V(x),
/// a random seed set S, and a random blocked set B.
void LoadRandomGraphDb(Engine* engine, size_t n, uint64_t seed) {
  Rng rng(seed);
  const Digraph g = RandomDigraph(n, 2.0 / n, &rng);
  GraphToDatabase(g, "E", engine->mutable_database());
  for (size_t v = 0; v < n; ++v) {
    const std::string name = std::to_string(v);
    ASSERT_TRUE(engine->mutable_database()->AddFactNamed("V", {name}).ok());
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(engine->mutable_database()->AddFactNamed("S", {name}).ok());
    }
    if (rng.Bernoulli(0.2)) {
      ASSERT_TRUE(engine->mutable_database()->AddFactNamed("B", {name}).ok());
    }
  }
  // Every EDB relation the programs mention must exist even when the
  // random draws left it empty.
  ASSERT_TRUE(engine->mutable_database()->DeclareRelation("S", 1).ok());
  ASSERT_TRUE(engine->mutable_database()->DeclareRelation("B", 1).ok());
}

class CrossSemantics : public ::testing::TestWithParam<int> {};

TEST_P(CrossSemantics, PositiveProgramAllFourAgree) {
  Engine engine;
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "R(X) :- S(X).\n"
                      "R(Y) :- R(X), E(X,Y).\n"
                      "P(X,Y) :- R(X), E(X,Y).\n")
                  .ok());
  LoadRandomGraphDb(&engine, 12, 1000 + GetParam());

  auto inflationary = engine.Evaluate(SemanticsKind::kInflationary);
  ASSERT_TRUE(inflationary.ok());
  auto stratified = engine.Evaluate(SemanticsKind::kStratified);
  ASSERT_TRUE(stratified.ok());
  auto wellfounded = engine.Evaluate(SemanticsKind::kWellFounded);
  ASSERT_TRUE(wellfounded.ok());
  auto stable = engine.Evaluate(SemanticsKind::kStable);
  ASSERT_TRUE(stable.ok());

  EXPECT_EQ(inflationary->state(), stratified->state());
  EXPECT_TRUE(std::get<WellFoundedResult>(wellfounded->detail).total);
  EXPECT_EQ(inflationary->state(), wellfounded->state());
  ASSERT_EQ(std::get<StableResult>(stable->detail).models.size(), 1u);
  EXPECT_EQ(inflationary->state(), stable->state());
}

TEST_P(CrossSemantics, SemipositiveProgramAllFourAgree) {
  Engine engine;
  // Negation only on EDB relations: reachability from non-blocked seeds
  // plus the asymmetric-edge pairs.
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "R(X) :- S(X), !B(X).\n"
                      "R(Y) :- R(X), E(X,Y), !B(Y).\n"
                      "A(X,Y) :- E(X,Y), !E(Y,X).\n")
                  .ok());
  LoadRandomGraphDb(&engine, 12, 2000 + GetParam());

  auto inflationary = engine.Evaluate(SemanticsKind::kInflationary);
  ASSERT_TRUE(inflationary.ok());
  auto stratified = engine.Evaluate(SemanticsKind::kStratified);
  ASSERT_TRUE(stratified.ok());
  auto wellfounded = engine.Evaluate(SemanticsKind::kWellFounded);
  ASSERT_TRUE(wellfounded.ok());
  auto stable = engine.Evaluate(SemanticsKind::kStable);
  ASSERT_TRUE(stable.ok());

  EXPECT_EQ(inflationary->state(), stratified->state())
      << "inflationary:\n"
      << testing::CanonState(**engine.program(), inflationary->state())
      << "stratified:\n"
      << testing::CanonState(**engine.program(), stratified->state());
  EXPECT_TRUE(std::get<WellFoundedResult>(wellfounded->detail).total);
  EXPECT_EQ(inflationary->state(), wellfounded->state());
  ASSERT_EQ(std::get<StableResult>(stable->detail).models.size(), 1u);
  EXPECT_EQ(inflationary->state(), stable->state());
}

TEST_P(CrossSemantics, StratifiableProgramStratifiedEqualsWellFounded) {
  Engine engine;
  // Two strata with IDB negation across them: unreachable vertices and
  // the edges leaving them. The well-founded model of a stratifiable
  // program is total and equals its stratified model.
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "R(X) :- S(X).\n"
                      "R(Y) :- R(X), E(X,Y).\n"
                      "U(X) :- V(X), !R(X).\n"
                      "D(X,Y) :- E(X,Y), U(X).\n")
                  .ok());
  LoadRandomGraphDb(&engine, 10, 3000 + GetParam());

  auto stratified = engine.Evaluate(SemanticsKind::kStratified);
  ASSERT_TRUE(stratified.ok());
  auto wellfounded = engine.Evaluate(SemanticsKind::kWellFounded);
  ASSERT_TRUE(wellfounded.ok());

  EXPECT_TRUE(std::get<WellFoundedResult>(wellfounded->detail).total);
  EXPECT_EQ(stratified->state(), wellfounded->state())
      << "stratified:\n"
      << testing::CanonState(**engine.program(), stratified->state())
      << "well-founded true part:\n"
      << testing::CanonState(**engine.program(), wellfounded->state());
  // And the stratified model is the unique stable model.
  auto stable = engine.Evaluate(SemanticsKind::kStable);
  ASSERT_TRUE(stable.ok());
  ASSERT_EQ(std::get<StableResult>(stable->detail).models.size(), 1u);
  EXPECT_EQ(stratified->state(), stable->state());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSemantics, ::testing::Range(0, 8));

// --- The grounding Evaluate shares with a live analyzer. ---

/// A state by predicate and constant names, so engines with different
/// symbol tables compare.
std::string RenderByName(const Program& p, const IdbState& state) {
  std::string out;
  for (const uint32_t pred : p.idb_predicates()) {
    out += StrCat(p.predicate(pred).name, "={");
    const int idb = p.predicate(pred).idb_index;
    for (const std::vector<std::string>& row :
         testing::TuplesOf(p.symbols(), state.relations[idb])) {
      out += StrCat("(", StrJoin(row, ","), ")");
    }
    out += "} ";
  }
  return out;
}

/// The well-founded model and the stable models of the engine's (π, D),
/// or the error that stopped them.
std::string GroundedAnswers(const Engine& engine) {
  const Program& p = *engine.program().value();
  auto wf = engine.Evaluate(SemanticsKind::kWellFounded);
  if (!wf.ok()) return wf.status().ToString();
  const auto& model = std::get<WellFoundedResult>(wf->detail);
  std::string out =
      StrCat("true: ", RenderByName(p, model.true_state),
             "\nundefined: ", RenderByName(p, model.undefined_state), "\n");
  auto stable = engine.Evaluate(SemanticsKind::kStable);
  if (!stable.ok()) return out + stable.status().ToString();
  std::multiset<std::string> models;
  for (const IdbState& m : std::get<StableResult>(stable->detail).models) {
    models.insert(RenderByName(p, m));
  }
  for (const std::string& m : models) out += StrCat("stable: ", m, "\n");
  return out;
}

/// GroundedAnswers of a fresh Engine over `program` and a copy of `db`.
std::string FreshGroundedAnswers(const std::string& program,
                                 const Database& db) {
  Engine fresh;
  INFLOG_CHECK(fresh.LoadProgramText(program).ok());
  INFLOG_CHECK(fresh.mutable_database()->MergeFrom(db).ok());
  return GroundedAnswers(fresh);
}

TEST(SharedGroundingTest, NeverStaleAfterAMutation) {
  Engine engine;
  std::string program = "T(X) :- E(Y,X), !T(Y).";
  ASSERT_TRUE(engine.LoadProgramText(program).ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2). E(2,3). E(3,4). E(4,1).").ok());
  Database* db = engine.mutable_database();
  const std::vector<std::pair<std::string, std::function<void()>>> mutations =
      {
          {"AddFact",
           [&] { ASSERT_TRUE(db->AddFactNamed("E", {"4", "5"}).ok()); }},
          {"Relation::Erase",
           [&] {
             auto e = db->MutableRelation("E");
             ASSERT_TRUE(e.ok());
             const Tuple edge = {engine.symbols()->Intern("4"),
                                 engine.symbols()->Intern("1")};
             ASSERT_TRUE((*e)->Erase(edge));
           }},
          {"Relation assignment",
           [&] {
             auto e = db->MutableRelation("E");
             ASSERT_TRUE(e.ok());
             Database cycle(engine.symbols());
             ASSERT_TRUE(cycle.AddFactNamed("E", {"1", "2"}).ok());
             ASSERT_TRUE(cycle.AddFactNamed("E", {"2", "3"}).ok());
             ASSERT_TRUE(cycle.AddFactNamed("E", {"3", "1"}).ok());
             **e = *cycle.GetRelation("E").value();
           }},
          {"copy assignment",
           [&] {
             Database other(engine.symbols());
             ASSERT_TRUE(other.AddFactNamed("E", {"1", "2"}).ok());
             ASSERT_TRUE(other.AddFactNamed("E", {"2", "1"}).ok());
             *db = other;
           }},
          {"LoadDatabaseText",
           [&] { ASSERT_TRUE(engine.LoadDatabaseText("E(3,1).").ok()); }},
          {"LoadProgramText",
           [&] {
             program = "T(X) :- E(X,Y), !T(Y).";
             ASSERT_TRUE(engine.LoadProgramText(program).ok());
           }},
      };
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    auto analyzer = engine.MakeAnalyzer();
    ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();
    const std::string before = GroundedAnswers(engine);
    EXPECT_EQ(before, FreshGroundedAnswers(program, engine.database()));
    mutate();
    // The analyzer, and with it its grounding, is still alive.
    const std::string after = GroundedAnswers(engine);
    EXPECT_EQ(after, FreshGroundedAnswers(program, engine.database()));
    EXPECT_NE(after, before) << "the mutation changed no answer";
  }
}

TEST(SharedGroundingTest, WritesThroughAnEarlierRelationPointerAreSeen) {
  // The database generation sums the relations' versions, so a write
  // through a Relation* taken before MakeAnalyzer keeps Evaluate off the
  // analyzer's grounding like any other mutation.
  Engine engine;
  const std::string program = "T(X) :- E(Y,X), !T(Y).";
  ASSERT_TRUE(engine.LoadProgramText(program).ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2). E(2,3).").ok());
  const std::string before = GroundedAnswers(engine);
  auto e = engine.mutable_database()->MutableRelation("E");
  ASSERT_TRUE(e.ok());
  auto analyzer = engine.MakeAnalyzer();
  ASSERT_TRUE(analyzer.ok());
  (*e)->Insert(
      Tuple{engine.symbols()->Intern("3"), engine.symbols()->Intern("1")});
  const std::string after = GroundedAnswers(engine);
  EXPECT_NE(after, before);
  EXPECT_EQ(after, FreshGroundedAnswers(program, engine.database()));
}

TEST(SharedGroundingTest, TheEngineKeepsNoGroundingAlive) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("T(X) :- E(Y,X), !T(Y).").ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2). E(2,3).").ok());
  std::weak_ptr<const GroundCompletion> grounding;
  {
    auto analyzer = engine.MakeAnalyzer();
    ASSERT_TRUE(analyzer.ok());
    grounding = analyzer->grounding();
    ASSERT_TRUE(engine.Evaluate(SemanticsKind::kWellFounded).ok());
    EXPECT_FALSE(grounding.expired());
  }
  EXPECT_TRUE(grounding.expired());
  EXPECT_TRUE(engine.Evaluate(SemanticsKind::kWellFounded).ok());
}

TEST(SharedGroundingTest, AnalyzerGrounderOptionsDoNotReachEvaluate) {
  // F is an EDB relation the database lacks: the analyzer may read it as
  // empty, Evaluate, which grounds at the defaults, may not.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("T(X) :- E(Y,X), !T(Y), !F(X).").ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(1,2). E(2,3).").ok());
  const Status alone = engine.Evaluate(SemanticsKind::kWellFounded).status();
  ASSERT_FALSE(alone.ok());
  AnalyzeOptions lenient;
  lenient.grounder.allow_missing_edb = true;
  auto analyzer = engine.MakeAnalyzer(lenient);
  ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();
  EXPECT_EQ(engine.Evaluate(SemanticsKind::kWellFounded).status(), alone);
  EXPECT_FALSE(engine.Evaluate(SemanticsKind::kStable).ok());
}

TEST(EngineConcurrencyTest, GroundedEvaluationsShareALiveAnalyzersGrounding) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText("T(X) :- E(Y,X), !T(Y).").ok());
  LoadRandomGraphDb(&engine, 12, 77);
  const std::string serial = GroundedAnswers(engine);
  auto analyzer = engine.MakeAnalyzer();
  ASSERT_TRUE(analyzer.ok());
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &got, t] {
      for (int i = 0; i < 8; ++i) got[t].push_back(GroundedAnswers(engine));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<std::string>& answers : got) {
    for (const std::string& answer : answers) EXPECT_EQ(answer, serial);
  }
}

}  // namespace
}  // namespace inflog
