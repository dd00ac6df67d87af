// Plan executor: interprets a RulePlan against an evaluation context and an
// IDB state, emitting derived head tuples.

#ifndef INFLOG_EVAL_EXECUTOR_H_
#define INFLOG_EVAL_EXECUTOR_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/eval/context.h"
#include "src/eval/plan.h"

namespace inflog {

/// The counter groups of EvalStats. Across the {threads × shards ×
/// scheduler × min_slice_rows} sweep, kExecutor, kOptimizer, kIncremental
/// and kSat are bit-identical (tests/parallel_determinism_test.cc);
/// kPartition and kServing describe where and how the work ran and vary
/// with the configuration (for the stealing scheduler, with timing too).
enum class StatsGroup {
  /// What the relational executor computed.
  kExecutor,
  /// How parallel stages cut and scheduled the work.
  kPartition,
  /// The plan passes (src/opt/pass_manager.h) and program rewrites
  /// (src/opt/program_rewrite.h), filled at compile time: pure functions
  /// of the program, the EDB, the declared outputs and the passes.
  kOptimizer,
  /// Engine::ApplyUpdate's maintenance (src/eval/incremental.h).
  kIncremental,
  /// The CDCL core (src/sat/solver.h SolverStats) behind the SAT-backed
  /// modes. The search varies with the solver configuration; the results
  /// it leads to never do.
  kSat,
  /// The serving layer (src/serve/): how the session was driven.
  kServing,
};

/// Every EvalStats counter, once, as X(field, group, doc) in declaration
/// order. The fields, EvalStats::Add and kEvalCounters expand from this
/// list, so adding a counter is one line here.
#define INFLOG_EVAL_COUNTERS(X)                                                \
  X(derivations, kExecutor, "Head tuples produced (with duplicates).")         \
  X(new_tuples, kExecutor, "Head tuples that were new in the output.")         \
  X(rows_matched, kExecutor, "Rows tested by kMatch ops.")                     \
  X(index_lookups, kExecutor, "kMatch ops served by a hash index.")            \
  X(intersections, kExecutor, "Lookups intersecting >= 2 posting lists.")      \
  X(enumerations, kExecutor, "Universe elements tried by kEnumerate.")         \
  X(stages, kExecutor, "Iteration stages run (filled by drivers).")            \
  X(parallel_tasks, kPartition, "Stage tasks run on a thread pool.")           \
  X(steals, kPartition, "Chunks taken from another worker's deque.")           \
  X(splits, kPartition, "Chunk halves shed for stealing.")                     \
  X(parks, kPartition, "Hungry stealing workers that blocked.")                \
  X(slices, kPartition, "Delta slices run (not full-plan tasks).")             \
  X(auto_static_stages, kPartition, "Stages auto kept on the static slicer.")  \
  X(auto_stealing_stages, kPartition, "Stages auto flipped to stealing.")      \
  X(batched_plans, kPartition, "Tiny delta plans sharing a stage task.")       \
  X(opt_rules_eliminated, kOptimizer, "Rules dead-rule elimination dropped.")  \
  X(opt_plans_reordered, kOptimizer, "Plans whose join order changed.")        \
  X(opt_subplans_shared, kOptimizer, "Plans reading a shared intermediate.")   \
  X(opt_shared_prefixes, kOptimizer, "Shared intermediates per stage.")        \
  X(opt_shared_rows, kOptimizer, "Rows put into shared intermediates.")        \
  X(opt_magic_rules_generated, kOptimizer, "Demand rules magic sets added.")   \
  X(opt_rules_inlined, kOptimizer, "Predicates inlined at their one use.")     \
  X(incremental_updates, kIncremental, "Updates maintained incrementally.")    \
  X(incremental_oracle_runs, kIncremental, "Recomputes and oracle checks.")    \
  X(incremental_edb_inserted, kIncremental, "EDB tuples actually added.")      \
  X(incremental_edb_deleted, kIncremental, "EDB tuples actually removed.")     \
  X(incremental_idb_inserted, kIncremental, "Net IDB tuples added.")           \
  X(incremental_idb_deleted, kIncremental, "Net IDB tuples removed.")          \
  X(incremental_del_candidates, kIncremental, "DRed over-deleted candidates.") \
  X(incremental_rederived, kIncremental, "Candidates DRed put back.")          \
  X(incremental_recounted, kIncremental, "Always 0; perfbench reads it.")      \
  X(incremental_dred_units, kIncremental, "Units maintained by DRed.")         \
  X(sat_conflicts, kSat, "CDCL conflicts across all solves.")                  \
  X(sat_decisions, kSat, "Branching decisions.")                               \
  X(sat_propagations, kSat, "Unit propagations.")                              \
  X(sat_restarts, kSat, "Luby restarts.")                                      \
  X(sat_learned, kSat, "Clauses learned from conflicts.")                      \
  X(sat_deleted, kSat, "Learnt clauses ReduceDB or Simplify dropped.")         \
  X(serve_epochs_published, kServing, "Snapshots sealed and swapped in.")      \
  X(serve_snapshots_pinned, kServing, "Pin calls readers made.")               \
  X(serve_queries, kServing, "Queries evaluated or served from cache.")        \
  X(serve_updates, kServing, "Update lines accepted.")                         \
  X(serve_batched_updates, kServing, "Update lines coalesced into a batch.")   \
  X(serve_compactions, kServing, "Relations compacted by the schedule.")       \
  X(cache_hits, kServing, "Query-cache lookups that hit.")                     \
  X(cache_misses, kServing, "Lookups that evaluated instead.")                 \
  X(cache_invalidations, kServing, "Entries killed by net deltas.")

/// Counters accumulated across executions, one field per
/// INFLOG_EVAL_COUNTERS entry plus the slice histogram.
struct EvalStats {
#define INFLOG_EVAL_COUNTER_FIELD(field, group, doc) uint64_t field = 0;
  INFLOG_EVAL_COUNTERS(INFLOG_EVAL_COUNTER_FIELD)
#undef INFLOG_EVAL_COUNTER_FIELD
  /// Histogram of executed delta-slice sizes (kPartition): bucket k
  /// counts slices with row count in [2^k, 2^(k+1)), the last bucket
  /// everything larger.
  static constexpr size_t kSliceHistBuckets = 17;
  std::array<uint64_t, kSliceHistBuckets> slice_hist{};

  /// Counts one executed delta slice of `rows` rows.
  void RecordSlice(uint64_t rows) {
    ++slices;
    size_t bucket = 0;
    while ((uint64_t{2} << bucket) <= rows &&
           bucket + 1 < kSliceHistBuckets) {
      ++bucket;
    }
    slice_hist[bucket] += 1;
  }

  void Add(const EvalStats& other) {
#define INFLOG_EVAL_COUNTER_ADD(field, group, doc) field += other.field;
    INFLOG_EVAL_COUNTERS(INFLOG_EVAL_COUNTER_ADD)
#undef INFLOG_EVAL_COUNTER_ADD
    for (size_t i = 0; i < kSliceHistBuckets; ++i) {
      slice_hist[i] += other.slice_hist[i];
    }
  }
};

/// One EvalStats counter: its field name, group and member.
struct EvalCounter {
  std::string_view name;
  StatsGroup group;
  uint64_t EvalStats::*field;
};

/// Every EvalStats counter in declaration order, for printers and
/// checks that walk them all.
inline constexpr EvalCounter kEvalCounters[] = {
#define INFLOG_EVAL_COUNTER_ENTRY(field, group, doc) \
  {#field, StatsGroup::group, &EvalStats::field},
    INFLOG_EVAL_COUNTERS(INFLOG_EVAL_COUNTER_ENTRY)
#undef INFLOG_EVAL_COUNTER_ENTRY
};

/// One shard's appended local-row range [begin, end).
using ShardRange = std::pair<size_t, size_t>;

/// Per dynamic IDB predicate (by idb_index), the per-shard local-row
/// ranges holding the tuples added in the previous stage (indexed by the
/// relation's shard; inner size == Relation::num_shards()). Used by
/// delta-scan ops, and sliced along shard boundaries by the parallel
/// stage fan-out.
using DeltaRanges = std::vector<std::vector<ShardRange>>;

/// Executes `plan` reading predicate values through `ctx`/`state`, inserting
/// derived head tuples into `out` (which must have the head's arity — or
/// the projection arity when `plan.has_projection`). `deltas` may be null
/// when the plan has no delta literal. `shared` holds the stage's shared
/// intermediates, indexed by PlanOp::shared_source; may be null when the
/// plan has no shared-scan ops.
void ExecutePlan(const EvalContext& ctx, const RulePlan& plan,
                 const IdbState& state, const DeltaRanges* deltas,
                 Relation* out, EvalStats* stats,
                 const std::vector<Relation>* shared = nullptr);

/// Sampled per-row work estimate of one delta plan, used by the auto
/// stage scheduler (StageScheduler::kAuto) to predict how unevenly the
/// static partition's tasks would be loaded.
struct DeltaWorkEstimate {
  /// Total delta rows the plan scans (shards linearized in shard order,
  /// the delta-scan walk order — the same linearization the schedulers
  /// slice).
  size_t rows = 0;
  /// Sampling stride: sample i describes delta row i * stride and stands
  /// for the stride rows starting there.
  size_t stride = 1;
  /// Estimated join work of each sampled row: 1 + the shortest
  /// posting-list length the first index probe after the delta scan
  /// would iterate for that row's key values. Empty when the plan gives
  /// the estimator no per-row signal (no index probe keyed by delta-bound
  /// variables, or indexes disabled); rows are then assumed uniform.
  std::vector<uint64_t> sample_cost;
  /// Per-row cost assumed when `sample_cost` is empty: 1 plus the full
  /// cardinality of the first non-delta match's relation when that match
  /// is a scan (no usable key columns), else 1. Keeps scan-heavy plans
  /// costed consistently with probed ones for the auto scheduler and the
  /// optimizer instead of defaulting every uniform plan to weight 1.
  uint64_t uniform_cost = 1;
};

/// Estimates `plan`'s per-row join work over the delta rows in
/// `delta_ranges` (the plan's delta predicate), probing at most
/// `max_samples` rows. Reads posting-list *lengths* only — cheap relative
/// to executing the plan — and touches no EvalStats, so running it never
/// perturbs the determinism-checked counters. Caller must have finalized
/// the probed indexes (Relation::EnsureIndexed) when running concurrently.
DeltaWorkEstimate EstimateDeltaWork(const EvalContext& ctx,
                                    const RulePlan& plan,
                                    const IdbState& state,
                                    const std::vector<ShardRange>& delta_ranges,
                                    size_t max_samples);

}  // namespace inflog

#endif  // INFLOG_EVAL_EXECUTOR_H_
