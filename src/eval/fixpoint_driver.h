// FixpointDriver: the single operator-iteration core behind every
// semantics in the library.
//
// The paper's semantics all arise by iterating an immediate-consequence
// operator to a fixpoint — inflationary DATALOG¬ iterates Θ̂(S) = S ∪ Θ(S)
// over IDB relations, the stratified semantics runs the same iteration
// stratum by stratum, the well-founded semantics alternates the reduct
// operator, and the stable-model check closes a positive ground residue
// under immediate consequence. This file factors that shared shape into
// one driver plus the two concrete consequence operators:
//
//   * FixpointDriver::Iterate — the stage loop: call a step function until
//     it reports no growth (or a stage cap is hit), counting productive
//     stages. Every fixpoint computation in the library runs through it.
//   * RelationalConsequence — Θ̂ over an IdbState: compiled rule plans
//     (full plans for stage 1, one delta plan per dynamic positive literal
//     for later stages), per-stage derivation buffers, buffer merge, and
//     the delta row ranges handed to the executor.
//   * GroundConsequence — the immediate-consequence operator of a positive
//     ground program (a Gelfond–Lifschitz reduct), propagated with
//     rule-body counters so total work stays linear in program size.
//
// Per-semantics files (inflationary.cc, stratified.cc, wellfounded.cc,
// stable.cc) parameterize these; none of them owns a stage/delta loop.

#ifndef INFLOG_EVAL_FIXPOINT_DRIVER_H_
#define INFLOG_EVAL_FIXPOINT_DRIVER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/eval/context.h"
#include "src/eval/executor.h"
#include "src/eval/seminaive.h"
#include "src/ground/ground_program.h"
#include "src/opt/plan_ir.h"

namespace inflog {

/// The shared stage loop.
class FixpointDriver {
 public:
  struct Outcome {
    /// Number of productive stages (stages that added at least one fact);
    /// the n₀ with S^{n₀} = S^{n₀+1} of Section 4.
    size_t num_stages = 0;
    /// True iff the run reached the fixpoint (false only when max_stages
    /// cut it short).
    bool converged = false;
  };

  /// One application of the inflationary step: grow the state in place and
  /// return the number of new facts. `stage` is the 0-based index of the
  /// stage about to run.
  using StepFn = std::function<size_t(size_t stage)>;

  /// Iterates `step` until it returns 0 (converged) or `max_stages`
  /// productive stages have run (0 = run to the fixpoint).
  static Outcome Iterate(const StepFn& step, size_t max_stages = 0);
};

/// Θ̂ over an IdbState: the relational immediate-consequence operator with
/// semi-naive (delta) stages and per-stage buffering. Grows `*state` in
/// place (append-only); one instance drives one fixpoint run. The state's
/// relations may be hash-sharded (EvalContextOptions::num_shards); all of
/// them must share one shard count, and staging relations are created
/// with the same count so the shard partitions agree everywhere.
///
/// Parallel stages (EvalContextOptions::num_threads > 1): every stage is a
/// pure join over the frozen previous state Sⁿ, so the stage's work is
/// split into chunks that run on a base::ThreadPool, each writing into its
/// own sharded staging Relations. The stage's plans are first grouped into
/// units, in serial execution order: one per rule plan on a full pass; on
/// a delta pass, plans whose delta is at least min_slice_rows rows stand
/// alone, while consecutive smaller plans are batched into one unit —
/// rule-heavy programs no longer pay one staging relation per nearly
/// empty plan (EvalStats::batched_plans counts them). A chunk
/// (unit, begin, end) is a row window of a big delta plan's delta, or a
/// whole full plan or batch. One body runs every chunk; the schedulers
/// differ only in the chunk list and the dispatch call, with a third mode
/// choosing between them per stage (EvalContextOptions::scheduler):
///
///   * kStatic pre-cuts each big unit into min(4·threads,
///     rows/min_slice_rows) equal row windows and claims them from a
///     shared counter (ThreadPool::ParallelFor); it never steals or splits;
///   * kStealing hands one chunk per unit to per-worker deques
///     (ThreadPool::ParallelForDynamic), dealt largest estimated work
///     first; idle workers steal, and oversized chunks split in half while
///     anyone is hungry, so a window hiding most of the stage's join work
///     cannot serialize the stage;
///   * kAuto (the default) estimates the work of each static window —
///     delta rows weighted by the posting-list lengths the plan's first
///     index probe would walk (EstimateDeltaWork, sampled once per big
///     unit and stage; the stealing deal reuses the sample) — and flips
///     the stage to kStealing only when the estimates' coefficient of
///     variation exceeds EvalContextOptions::kDefaultStealVariance, so
///     skewed stages get the stealing machinery and uniform ones skip
///     its overhead (EvalStats::auto_{static,stealing}_stages record the
///     decisions).
///
/// Both merges — chunk stagings into the stage buffers, stage buffers into
/// the state — are shard-wise ParallelFors: each worker owns one shard
/// across all relations and folds the chunk outputs in ascending
/// (unit, first delta row) order — the serial execution order, however
/// the scheduler cut or stole the rows — so no two workers ever write the
/// same shard and no serial merge runs on the hot path. Relations
/// (per-shard row ids included), stage_sizes(), and stats (apart from the
/// partition bookkeeping: parallel_tasks, steals, splits, parks, slices,
/// slice_hist) are therefore bit-identical to the num_threads == 1 run at
/// every shard count under every scheduler. Before fan-out, the stage
/// finalizes every column index its plans will probe
/// (Relation::EnsureIndexed), making all reads during the stage
/// lock-free.
class RelationalConsequence {
 public:
  /// Compiles the rule plans through the optimizer pass pipeline selected
  /// by ctx.optimizer_passes() (src/opt/pass_manager.h). Reads every
  /// option but max_stages, which bounds the driver loop instead. Rules
  /// whose head predicate is not dynamic in `ctx` must not be part of the
  /// subset. `ctx` and `state` must outlive the operator.
  RelationalConsequence(const EvalContext& ctx,
                        const SemiNaiveOptions& options, IdbState* state);

  /// Runs one stage: executes the plans (full plans at stage 0 — unless
  /// SemiNaiveOptions::initial_deltas seeded the run — or when deltas are
  /// off, delta plans otherwise) into fresh buffers, merges the buffers
  /// into the state, and exposes the appended row ranges as the next
  /// stage's deltas. Returns the number of new tuples.
  size_t Step(size_t stage);

  /// stage_sizes[idb_index][k] = relation size after productive stage k+1.
  const std::vector<std::vector<size_t>>& stage_sizes() const {
    return stage_sizes_;
  }

  /// stage_shard_sizes[idb_index][k][s] = rows in shard s after productive
  /// stage k+1. The stage of a tuple at RowRef (s, r) is the first k with
  /// r < stage_shard_sizes[idb][k][s] — the sharded form of the old
  /// global-row-id rule.
  const std::vector<std::vector<std::vector<size_t>>>& stage_shard_sizes()
      const {
    return stage_shard_sizes_;
  }

  const EvalStats& stats() const { return stats_; }

 private:
  /// One plan of a stage unit.
  struct UnitPlan {
    const RulePlan* plan;
    int head_idb;
    size_t rows;  ///< The plan's delta rows (0 for full plans and plans
                  ///< with no delta).
  };

  /// One schedulable unit of a parallel stage: a full rule plan, a
  /// contiguous run of tiny delta plans executed back to back, or one big
  /// delta plan whose delta rows chunks may cut into windows. Units
  /// appear in serial execution order (rules in program order, then plan
  /// order), which the ordered fold relies on.
  struct StageUnit {
    std::vector<UnitPlan> plans;
    /// Distinct head_idbs this unit stages into, in first-appearance
    /// order — one staging relation and stats block per entry, so a
    /// batch never interleaves two heads in one relation.
    std::vector<int> heads;
    /// A big delta plan's delta predicate and delta rows; -1 and 0 for
    /// full plans and batches, which always run as one chunk.
    int delta_idb = -1;
    size_t rows = 0;
    /// A big delta plan's sampled join work, filled at most once per
    /// stage and only when auto or stealing reads it.
    DeltaWorkEstimate work;
  };

  /// Chunk `unit` of the stage — rows [begin, end) of a big unit's delta,
  /// or (unit, 0, 0) for a full plan or batch — and its staging: one
  /// relation and stats block per unit head.
  struct Chunk {
    size_t unit;
    size_t begin;
    size_t end;
    std::vector<Relation> outs;
    std::vector<EvalStats> stats;
  };

  /// Executes the stage's plans serially, straight into `buffers` (the
  /// exact num_threads == 1 path). Allocates no task scaffolding — no
  /// staging relations, no pool, no slices; Step dispatches here directly
  /// when num_threads == 1.
  void RunStageSerial(bool full_pass, std::vector<Relation>* buffers);

  /// Takes the serial path under the min_slice_rows cutoff; otherwise
  /// partitions the stage into units, finalizes their indexes, resolves
  /// kAuto from the estimated static imbalance, runs the scheduler's
  /// chunks through RunChunk, and folds them into `buffers`.
  void RunStageParallel(bool full_pass, std::vector<Relation>* buffers);

  /// Groups the stage's plans into StageUnits: one per rule plan on a
  /// full pass; on a delta pass, plans with at least min_slice_rows delta
  /// rows stand alone and consecutive smaller plans accumulate into
  /// batches that flush once they hold min_slice_rows rows. Records the
  /// batching bookkeeping (batched_plans, slices for the batched plans)
  /// into stats_.
  std::vector<StageUnit> PartitionStageUnits(bool full_pass);

  /// Number of equal row windows the static scheduler cuts `u` into:
  /// min(4·threads, rows/min_slice_rows), and 1 for a full plan or batch.
  size_t StaticWindows(const StageUnit& u) const;

  /// The kAuto signal: coefficient of variation of the estimated work of
  /// the static scheduler's chunks (batches whole; each big unit's
  /// StaticWindows weighted by its sampled posting-list lengths).
  /// Deterministic in (units, state, thread count); reads no EvalStats.
  double EstimateStaticImbalance(const std::vector<StageUnit>& units) const;

  /// The one chunk body of both schedulers: runs `u`'s plans over the
  /// chunk's window of the delta (the whole delta for batches) into the
  /// chunk's own stagings.
  void RunChunk(const StageUnit& u, Chunk* chunk) const;

  /// The determinism-critical fold: sorts `chunks` by (unit, begin) — the
  /// serial execution order — and merges their stagings into `buffers`
  /// shard-wise (each worker owns one shard, folding in that order),
  /// rewrites each stats block's new_tuples from the merge counts (a
  /// tuple derived by two stagings is new in both but was counted once
  /// serially), and accumulates everything — including the slice and
  /// fan-out counts — into stats_.
  void FoldStagedOutputs(const std::vector<StageUnit>& units,
                         std::vector<Chunk>* chunks,
                         std::vector<Relation>* buffers, ThreadPool& pool);

  /// Merges the stage buffers into the state and refreshes the per-shard
  /// delta ranges; shard-parallel when a pool is running and the batch is
  /// big enough, serial otherwise — identical output either way. Returns
  /// the number of new tuples.
  size_t MergeStageBuffers(const std::vector<Relation>& buffers);

  /// Brings every column index `plan` can probe up to date (when join
  /// indexes are on), so reads during a fan-out are lock-free.
  void FinalizeIndexes(const RulePlan& plan) const;

  /// Recomputes the stage's shared intermediates (subplan sharing): runs
  /// every SharedSubplan of the pass kind into a fresh shared_rels_ slot
  /// before the stage fans out. Subplans write disjoint outputs, so when
  /// several are pending (and the estimated work clears the serial
  /// cutoff) they run as one ParallelFor task each — after finalizing the
  /// indexes their plans probe — with per-task stats folded in subplan
  /// index order. Each slot's contents are produced by exactly one task
  /// executing the same plan over the same frozen state as the serial
  /// path, so the intermediates — and every consumer read — stay
  /// bit-identical across thread counts and schedulers.
  void ComputeSharedIntermediates(bool full_pass);

  const EvalContext& ctx_;
  IdbState* state_;
  bool use_deltas_;
  /// True iff SemiNaiveOptions::initial_deltas seeded delta_ranges_,
  /// making stage 0 a delta pass.
  bool seeded_ = false;
  /// The optimized plan set (src/opt/pass_manager.h).
  StagePlans plans_;
  /// The stage's shared intermediates, indexed by PlanOp::shared_source;
  /// rebuilt by ComputeSharedIntermediates every stage.
  std::vector<Relation> shared_rels_;
  DeltaRanges delta_ranges_;
  std::vector<std::vector<size_t>> stage_sizes_;
  std::vector<std::vector<std::vector<size_t>>> stage_shard_sizes_;
  EvalStats stats_;
  size_t num_threads_ = 1;
  size_t num_shards_ = 1;
  StageScheduler scheduler_ = StageScheduler::kAuto;
  /// The serial-cutoff / slicing granularity (EvalContext::min_slice_rows).
  size_t min_slice_rows_ = EvalContextOptions::kDefaultMinSliceRows;
  /// Points at SemiNaiveOptions::pool_cache when provided, else at
  /// own_pool_. The slot is filled lazily by the first stage that
  /// actually fans out; it stays null when num_threads_ == 1 or every
  /// stage is under the serial cutoff.
  std::unique_ptr<ThreadPool>* pool_slot_ = nullptr;
  std::unique_ptr<ThreadPool> own_pool_;
};

/// The immediate-consequence operator of a positive ground program — the
/// residue of a Gelfond–Lifschitz reduct P^I. Construction discards the
/// rules killed by `assumed_true` and fires the body-less rules; each Step
/// propagates the previous stage's newly derived atoms through per-rule
/// prerequisite counters, so a whole fixpoint run costs O(program size).
class GroundConsequence {
 public:
  GroundConsequence(const GroundProgram& ground,
                    const std::vector<bool>& assumed_true);

  /// Fires every rule whose last prerequisite was derived in the previous
  /// stage; returns the number of newly true atoms.
  size_t Step(size_t stage);

  /// Truth by atom id (the least model once Iterate has converged).
  const std::vector<bool>& model() const { return model_; }
  std::vector<bool> TakeModel() && { return std::move(model_); }

 private:
  const GroundProgram& ground_;
  // Per surviving rule: number of positive prerequisites not yet derived.
  std::vector<uint32_t> missing_;
  // For each atom, the surviving rules in whose positive body it appears.
  std::vector<std::vector<uint32_t>> watchers_;
  std::vector<bool> model_;
  std::vector<uint32_t> frontier_;  // atoms derived in the previous stage
};

}  // namespace inflog

#endif  // INFLOG_EVAL_FIXPOINT_DRIVER_H_
