// The semi-naive entry point: a thin wrapper over the shared fixpoint
// core (FixpointDriver + RelationalConsequence in fixpoint_driver.h).
//
// Drives the inflationary iteration S⁰ = ∅, Sⁿ⁺¹ = Sⁿ ∪ Θ(Sⁿ) for a subset
// of rules, with a subset of the IDB predicates designated dynamic. Used by
// the inflationary evaluator (all rules, all predicates dynamic) and the
// stratified evaluator (one stratum at a time).
//
// Stage-exactness of the delta optimization: a rule body is a conjunction
// of positive IDB literals (monotone non-decreasing along the stages),
// EDB / equality literals (constant), and negated IDB literals (monotone
// non-increasing). If a body instance is true at Sⁿ and all its positive
// dynamic literals already held at Sⁿ⁻¹, then the whole body held at Sⁿ⁻¹
// (negated literals true at Sⁿ were true at every earlier stage), so its
// head entered at stage n at the latest. Hence the tuples that are new at
// stage n+1 all have a positive dynamic literal matched in Δⁿ, and
// restricting one positive dynamic literal to Δⁿ (iterating over the
// choices) reproduces the naive stage sets exactly. This matters because
// Proposition 2's distance program reads its meaning off the stage at
// which tuples enter. The property is cross-checked against the naive
// driver in tests/eval_inflationary_test.cc.

#ifndef INFLOG_EVAL_SEMINAIVE_H_
#define INFLOG_EVAL_SEMINAIVE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/eval/context.h"
#include "src/eval/executor.h"

namespace inflog {

/// Options for one semi-naive run: the stage cap for the driver loop and
/// everything else for the RelationalConsequence it iterates.
struct SemiNaiveOptions {
  /// Rules to evaluate (indices into program.rules()); empty = all rules.
  std::vector<size_t> rule_subset;
  /// Stop after this many stages (0 = run to the inductive fixpoint).
  size_t max_stages = 0;
  /// If false, recompute full Θ every stage (the naive driver; used as a
  /// cross-check oracle and as the ablation baseline in bench E6).
  bool use_deltas = true;
  /// Optional caller-owned pool slot shared across runs (the stratified
  /// evaluator reuses one pool across strata instead of spawning threads
  /// per stratum). The slot is filled lazily by the first stage that fans
  /// out; when null the run keeps its own private slot. Must outlive the
  /// run.
  std::unique_ptr<ThreadPool>* pool_cache = nullptr;
  /// Externally seeded initial deltas: when non-null (and use_deltas is
  /// on), stage 0 runs *delta* plans over these per-shard ranges instead
  /// of the full pass. The incremental maintainer records the
  /// [pre-insert, post-insert) shard ranges of the tuples it appended to
  /// the state and seeds the closure run with them, so resuming a
  /// fixpoint after a small insertion costs O(delta), not O(state).
  /// Copied at construction; sized num_idb × num_shards.
  const DeltaRanges* initial_deltas = nullptr;
};

/// Output of a semi-naive run.
struct SemiNaiveOutcome {
  /// Number of productive stages (stages that added at least one tuple);
  /// this is the n₀ with S^{n₀} = S^{n₀+1} of Section 4.
  size_t num_stages = 0;
  /// True iff the run reached the inductive fixpoint (false only when
  /// max_stages cut it short).
  bool converged = false;
  /// stage_sizes[idb_index][k] = relation size after stage k+1.
  std::vector<std::vector<size_t>> stage_sizes;
  /// stage_shard_sizes[idb_index][k][s] = rows in shard s after stage
  /// k+1. The stage of a tuple at Relation::RowRef (s, r) is the first k
  /// with r < stage_shard_sizes[idb][k][s]; for unsharded relations shard
  /// 0's entry is the old global rule.
  std::vector<std::vector<std::vector<size_t>>> stage_shard_sizes;
  EvalStats stats;
};

/// Runs the loop, growing `state` in place (append-only). `ctx` decides
/// which predicates are dynamic; rules whose head predicate is not dynamic
/// in `ctx` must not be part of the subset.
SemiNaiveOutcome RunSemiNaive(const EvalContext& ctx,
                              const SemiNaiveOptions& options,
                              IdbState* state);

}  // namespace inflog

#endif  // INFLOG_EVAL_SEMINAIVE_H_
