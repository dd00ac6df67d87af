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

#include <variant>

#include "src/base/rng.h"
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

}  // namespace
}  // namespace inflog
