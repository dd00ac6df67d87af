// Focused tests for the rule planner and executor: operator ordering,
// index use, residual enumeration, constants, repeated variables, and
// statistics — the join machinery everything else sits on.

#include <gtest/gtest.h>

#include "src/eval/executor.h"
#include "src/eval/plan.h"
#include "src/eval/theta.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

using testing::DbFromGraph;
using testing::MustProgram;

class ExecutorFixture : public ::testing::Test {
 protected:
  void Init(std::string_view program_text, const Digraph& g) {
    symbols_ = std::make_shared<SymbolTable>();
    program_ =
        std::make_unique<Program>(MustProgram(program_text, symbols_));
    db_ = std::make_unique<Database>(DbFromGraph(g, symbols_));
    auto ctx = EvalContext::Create(*program_, *db_);
    INFLOG_CHECK(ctx.ok()) << ctx.status().ToString();
    ctx_ = std::make_unique<EvalContext>(std::move(ctx).value());
  }

  /// Runs rule 0's full plan into a fresh relation.
  Relation RunRule0(EvalStats* stats) {
    const std::vector<bool> all_dynamic(program_->idb_predicates().size(),
                                        true);
    RulePlan plan = PlanRule(*program_, 0, all_dynamic, -1);
    const Rule& rule = program_->rules()[0];
    Relation out(program_->predicate(rule.head.predicate).arity);
    IdbState state = MakeEmptyIdbState(*program_);
    ExecutePlan(*ctx_, plan, state, nullptr, &out, stats);
    return out;
  }

  std::shared_ptr<SymbolTable> symbols_;
  std::unique_ptr<Program> program_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<EvalContext> ctx_;
};

TEST_F(ExecutorFixture, JoinUsesIndexForBoundColumns) {
  Init("P(X,Z) :- E(X,Y), E(Y,Z).", PathGraph(32));
  EvalStats stats;
  Relation out = RunRule0(&stats);
  EXPECT_EQ(out.size(), 30u);  // two-step pairs on a path
  // The second E atom should be matched via index lookups, not scans:
  // rows_matched stays near the output size, far below 31*31.
  EXPECT_GT(stats.index_lookups, 0u);
  EXPECT_LT(stats.rows_matched, 200u);
}

TEST_F(ExecutorFixture, RepeatedVariableInAtom) {
  Digraph g(3);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(2, 2);
  Init("L(X) :- E(X,X).", g);
  EvalStats stats;
  Relation out = RunRule0(&stats);
  EXPECT_EQ(out.size(), 2u);  // self-loops at 0 and 2
}

TEST_F(ExecutorFixture, RepeatedVariableAcrossAtoms) {
  Init("Sym(X,Y) :- E(X,Y), E(Y,X).", CycleGraph(2));
  EvalStats stats;
  Relation out = RunRule0(&stats);
  EXPECT_EQ(out.size(), 2u);  // (0,1) and (1,0)
}

TEST_F(ExecutorFixture, ConstantsInBodyFilter) {
  Init("From0(Y) :- E(0, Y).", PathGraph(4));
  EvalStats stats;
  Relation out = RunRule0(&stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(symbols_->Name(out.Row(0)[0]), "1");
}

TEST_F(ExecutorFixture, ConstantHeadEmitsFixedValue) {
  Init("Tag(X, marked) :- E(X,Y).", PathGraph(3));
  EvalStats stats;
  Relation out = RunRule0(&stats);
  EXPECT_EQ(out.size(), 2u);  // vertices 0,1 have successors
  for (size_t r = 0; r < out.size(); ++r) {
    EXPECT_EQ(symbols_->Name(out.Row(r)[1]), "marked");
  }
}

TEST_F(ExecutorFixture, ResidualEnumerationForUnsafeHead) {
  // Y is not range-restricted: ranges over the universe.
  Init("Pairs(X,Y) :- E(X,Z).", PathGraph(3));
  EvalStats stats;
  Relation out = RunRule0(&stats);
  EXPECT_EQ(out.size(), 2u * 3u);  // {0,1} × universe
  EXPECT_GT(stats.enumerations, 0u);
}

TEST_F(ExecutorFixture, EqualityBindsInsteadOfEnumerating) {
  Init("Q(X,Y) :- E(X,Z), Y = X.", PathGraph(8));
  EvalStats stats;
  Relation out = RunRule0(&stats);
  EXPECT_EQ(out.size(), 7u);
  // Y is bound by the equality, never enumerated.
  EXPECT_EQ(stats.enumerations, 0u);
}

TEST_F(ExecutorFixture, ConstantEqualityContradictionNeverFires) {
  Init("Q(X) :- E(X,Y), 1 = 2.", PathGraph(4));
  const std::vector<bool> all_dynamic(program_->idb_predicates().size(),
                                      true);
  RulePlan plan = PlanRule(*program_, 0, all_dynamic, -1);
  EXPECT_TRUE(plan.never_fires);
  EvalStats stats;
  Relation out = RunRule0(&stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.rows_matched, 0u);
}

TEST_F(ExecutorFixture, ConstantInequalityTautologyDropped) {
  Init("Q(X) :- E(X,Y), 1 != 2.", PathGraph(4));
  EvalStats stats;
  Relation out = RunRule0(&stats);
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(ExecutorFixture, NegatedAtomAppliedAsFilter) {
  Init("NoBack(X,Y) :- E(X,Y), !E(Y,X).", CycleGraph(2));
  EvalStats stats;
  Relation out = RunRule0(&stats);
  EXPECT_TRUE(out.empty());  // C2 is symmetric
  Init("NoBack(X,Y) :- E(X,Y), !E(Y,X).", PathGraph(3));
  EvalStats stats2;
  Relation out2 = RunRule0(&stats2);
  EXPECT_EQ(out2.size(), 2u);  // paths are one-way
}

TEST_F(ExecutorFixture, DeltaScanRestrictsToRange) {
  Init("S(X,Y) :- E(X,Z), S(Z,Y).\nS(X,Y) :- E(X,Y).", PathGraph(5));
  const std::vector<bool> all_dynamic(program_->idb_predicates().size(),
                                      true);
  // Seed S with the edges, then mark only the last row as delta.
  IdbState state = MakeEmptyIdbState(*program_);
  Relation& s = state.relations[0];
  for (int i = 0; i + 1 < 5; ++i) {
    s.Insert(Tuple{symbols_->Intern(std::to_string(i)),
                   symbols_->Intern(std::to_string(i + 1))});
  }
  const auto candidates =
      DeltaCandidates(*program_, program_->rules()[0], all_dynamic);
  ASSERT_EQ(candidates.size(), 1u);
  RulePlan plan = PlanRule(*program_, 0, all_dynamic, candidates[0]);
  // Only (3,4) is "new" (one shard — per-shard ranges with one entry).
  DeltaRanges deltas{{{s.size() - 1, s.size()}}};
  Relation out(2);
  EvalStats stats;
  ExecutePlan(*ctx_, plan, state, &deltas, &out, &stats);
  // Only derivations through the delta tuple (3,4): E(2,3) ∧ S(3,4).
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(symbols_->Name(out.Row(0)[0]), "2");
  EXPECT_EQ(symbols_->Name(out.Row(0)[1]), "4");
}

TEST_F(ExecutorFixture, PlanToStringIsInformative) {
  Init("T(X) :- E(Y,X), !T(Y).", PathGraph(3));
  const std::vector<bool> all_dynamic(program_->idb_predicates().size(),
                                      true);
  RulePlan plan = PlanRule(*program_, 0, all_dynamic, -1);
  const std::string text = plan.ToString(*program_);
  EXPECT_NE(text.find("match E"), std::string::npos) << text;
  EXPECT_NE(text.find("filter-neg T"), std::string::npos) << text;
}

TEST_F(ExecutorFixture, StatsCountDerivationsAndDuplicates) {
  // Two rules deriving overlapping tuples: derivations > new_tuples.
  Init("A(X) :- E(X,Y).\nA(X) :- E(X,Z), E(Z,W).", PathGraph(4));
  const std::vector<bool> all_dynamic(program_->idb_predicates().size(),
                                      true);
  IdbState state = MakeEmptyIdbState(*program_);
  Relation out(1);
  EvalStats stats;
  for (size_t r = 0; r < 2; ++r) {
    RulePlan plan = PlanRule(*program_, r, all_dynamic, -1);
    ExecutePlan(*ctx_, plan, state, nullptr, &out, &stats);
  }
  EXPECT_EQ(out.size(), 3u);            // {0,1,2}
  EXPECT_GT(stats.derivations, stats.new_tuples);
}

TEST_F(ExecutorFixture, ZeroArityEmit) {
  Init("Some :- E(X,Y).", PathGraph(2));
  EvalStats stats;
  Relation out = RunRule0(&stats);
  EXPECT_EQ(out.arity(), 0u);
  EXPECT_EQ(out.size(), 1u);
}

TEST(EvalStatsTest, AddSumsEveryCounter) {
  // Every uint64_t of EvalStats is a listed counter or a histogram bucket.
  EXPECT_EQ(sizeof(EvalStats),
            sizeof(uint64_t) *
                (std::size(kEvalCounters) + EvalStats::kSliceHistBuckets));
  // Distinct values, so a sum routed into the wrong field shows.
  EvalStats part;
  uint64_t value = 1;
  for (const EvalCounter& c : kEvalCounters) part.*c.field = value++;
  for (uint64_t& bucket : part.slice_hist) bucket = value++;
  EvalStats sum;
  sum.Add(part);
  sum.Add(part);
  for (const EvalCounter& c : kEvalCounters) {
    EXPECT_EQ(sum.*c.field, 2 * (part.*c.field)) << c.name;
  }
  for (size_t b = 0; b < EvalStats::kSliceHistBuckets; ++b) {
    EXPECT_EQ(sum.slice_hist[b], 2 * part.slice_hist[b]) << "bucket " << b;
  }
}

}  // namespace
}  // namespace inflog
