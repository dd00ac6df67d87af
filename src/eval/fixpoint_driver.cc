#include "src/eval/fixpoint_driver.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/base/logging.h"
#include "src/opt/pass_manager.h"

namespace inflog {

FixpointDriver::Outcome FixpointDriver::Iterate(const StepFn& step,
                                                size_t max_stages) {
  Outcome out;
  while (true) {
    if (max_stages != 0 && out.num_stages >= max_stages) {
      return out;  // converged stays false
    }
    if (step(out.num_stages) == 0) {
      out.converged = true;
      return out;
    }
    ++out.num_stages;
  }
}

namespace {

/// Cuts one predicate's per-shard delta ranges into about `desired`
/// slices, each itself a per-shard range vector. Slices align to shard
/// boundaries — whole shards are grouped until a slice holds ~1/desired
/// of the rows — except that a shard holding more than two targets'
/// worth of rows is split by rows, so a skewed hash cannot starve the
/// fan-out. Deterministic in (ranges, desired) only.
std::vector<std::vector<ShardRange>> SliceDeltaRanges(
    const std::vector<ShardRange>& ranges, size_t desired) {
  const size_t num_shards = ranges.size();
  size_t rows = 0;
  for (const auto& [b, e] : ranges) rows += e - b;
  std::vector<std::vector<ShardRange>> out;
  if (rows == 0 || desired <= 1) {
    out.push_back(ranges);
    return out;
  }
  const size_t target = (rows + desired - 1) / desired;
  std::vector<ShardRange> cur(num_shards, {0, 0});
  size_t acc = 0;
  auto flush = [&] {
    if (acc == 0) return;
    out.push_back(cur);
    cur.assign(num_shards, {0, 0});
    acc = 0;
  };
  for (size_t s = 0; s < num_shards; ++s) {
    const auto [b, e] = ranges[s];
    const size_t n = e - b;
    if (n == 0) continue;
    if (n > 2 * target) {
      flush();
      const size_t pieces = (n + target - 1) / target;
      for (size_t k = 0; k < pieces; ++k) {
        cur[s] = {b + n * k / pieces, b + n * (k + 1) / pieces};
        acc = cur[s].second - cur[s].first;
        flush();
      }
      continue;
    }
    cur[s] = ranges[s];
    acc += n;
    if (acc >= target) flush();
  }
  flush();
  return out;
}

/// Projects the linearized row window [begin, end) — shards concatenated
/// in shard order, the delta-scan walk order — back onto per-shard
/// ranges. Pure function of (base, begin, end): however the stealing
/// scheduler happened to cut a delta chunk, the rows it covers are
/// determined by its window alone.
std::vector<ShardRange> ProjectDeltaWindow(
    const std::vector<ShardRange>& base, size_t begin, size_t end) {
  std::vector<ShardRange> out(base.size(), {0, 0});
  size_t offset = 0;
  for (size_t s = 0; s < base.size(); ++s) {
    const auto [b, e] = base[s];
    const size_t n = e - b;
    const size_t lo = std::min(n, begin > offset ? begin - offset : 0);
    const size_t hi = std::min(n, end > offset ? end - offset : 0);
    if (hi > lo) out[s] = {b + lo, b + hi};
    offset += n;
  }
  return out;
}

}  // namespace

RelationalConsequence::RelationalConsequence(const EvalContext& ctx,
                                             const SemiNaiveOptions& options,
                                             IdbState* state)
    : ctx_(ctx),
      state_(state),
      use_deltas_(options.use_deltas),
      num_threads_(ctx.num_threads()),
      scheduler_(ctx.scheduler()),
      min_slice_rows_(ctx.min_slice_rows()),
      pool_slot_(options.pool_cache != nullptr ? options.pool_cache
                                               : &own_pool_) {
  const Program& program = ctx.program();
  const size_t num_idb = program.idb_predicates().size();
  INFLOG_CHECK(state->relations.size() == num_idb);

  // Lower the rules through the optimizer pass pipeline (greedy plans,
  // then the passes ctx.optimizer_passes() enables). The counters are
  // pure functions of (program, database, pass selection), so copying
  // them into the determinism-checked stats block is sweep-safe.
  OptCounters counters;
  plans_ = CompileStagePlans(ctx, *state, options.rule_subset, use_deltas_,
                             &counters);
  stats_.opt_rules_eliminated = counters.rules_eliminated;
  stats_.opt_plans_reordered = counters.plans_reordered;
  stats_.opt_subplans_shared = counters.subplans_shared;
  stats_.opt_shared_prefixes = counters.shared_prefixes;

  // All dynamic relations must agree on one shard count so staging
  // relations and the state partition every tuple set identically.
  num_shards_ = num_idb > 0 ? state->relations[0].num_shards() : 1;
  for (const Relation& rel : state->relations) {
    INFLOG_CHECK(rel.num_shards() == num_shards_)
        << "IDB relations must share one shard count";
  }
  shared_rels_.reserve(plans_.shared.size());
  for (const SharedSubplan& sp : plans_.shared) {
    shared_rels_.emplace_back(sp.arity, num_shards_);
  }
  if (options.initial_deltas != nullptr && use_deltas_) {
    // Seeded run: stage 0 is a delta pass over the caller's appended row
    // ranges (the incremental maintainer's trigger-pass insertions).
    INFLOG_CHECK(options.initial_deltas->size() == num_idb);
    for (const auto& ranges : *options.initial_deltas) {
      INFLOG_CHECK(ranges.size() == num_shards_);
    }
    delta_ranges_ = *options.initial_deltas;
    seeded_ = true;
  } else {
    delta_ranges_.assign(num_idb,
                         std::vector<ShardRange>(num_shards_, {0, 0}));
  }
  stage_sizes_.resize(num_idb);
  stage_shard_sizes_.resize(num_idb);
}

void RelationalConsequence::ComputeSharedIntermediates(bool full_pass) {
  // Subplans of the other pass kind keep last stage's contents; only the
  // matching ones are rebuilt this stage.
  std::vector<size_t> pending;
  for (size_t k = 0; k < plans_.shared.size(); ++k) {
    if (plans_.shared[k].delta_pass != full_pass) pending.push_back(k);
  }
  if (pending.empty()) return;

  auto run_one = [&](size_t k, EvalStats* stats) {
    const SharedSubplan& sp = plans_.shared[k];
    shared_rels_[k] = Relation(sp.arity, num_shards_);
    ExecutePlan(ctx_, sp.plan, *state_,
                sp.delta_pass ? &delta_ranges_ : nullptr, &shared_rels_[k],
                stats);
  };

  // Each subplan writes only its own shared_rels_ slot, so with several
  // pending the rebuilds fan out one task apiece. The estimate mirrors
  // RunStageParallel's: input rows the plans will touch, a deterministic
  // proxy independent of threads/shards/scheduler, so the serial-vs-
  // parallel choice is a pure function of the stage.
  size_t work = 0;
  if (num_threads_ > 1 && pending.size() >= 2) {
    for (size_t k : pending) {
      const SharedSubplan& sp = plans_.shared[k];
      for (const PlanOp& op : sp.plan.ops) {
        if (op.kind != PlanOp::Kind::kMatch || op.shared_source >= 0) {
          continue;
        }
        if (op.is_delta_scan) {
          const PredicateInfo& info = ctx_.program().predicate(op.predicate);
          for (const auto& [begin, end] : delta_ranges_[info.idb_index]) {
            work += end - begin;
          }
        } else {
          work += ctx_.Resolve(op.predicate, *state_).size();
        }
      }
    }
  }
  if (num_threads_ <= 1 || pending.size() < 2 || work < min_slice_rows_) {
    for (size_t k : pending) {
      run_one(k, &stats_);
      stats_.opt_shared_rows += shared_rels_[k].size();
    }
    return;
  }
  if (*pool_slot_ == nullptr) {
    *pool_slot_ = std::make_unique<ThreadPool>(num_threads_ - 1);
  }
  // Workers read the frozen state concurrently: finalize the column
  // indexes the subplans probe before the fan-out, as RunStageParallel
  // does for the rule plans.
  if (ctx_.use_join_indexes()) {
    for (size_t k : pending) {
      for (const PlanOp& op : plans_.shared[k].plan.ops) {
        if (op.kind != PlanOp::Kind::kMatch || op.is_delta_scan ||
            op.key_cols.empty()) {
          continue;
        }
        const Relation& rel = ctx_.Resolve(op.predicate, *state_);
        for (size_t col : op.key_cols) rel.EnsureIndexed(col);
      }
    }
  }
  std::vector<EvalStats> task_stats(pending.size());
  (*pool_slot_)->ParallelFor(pending.size(), [&](size_t i) {
    run_one(pending[i], &task_stats[i]);
  });
  // Fold in subplan index order — the serial accumulation order — so the
  // stats block is bit-identical to the serial rebuild.
  for (size_t i = 0; i < pending.size(); ++i) {
    stats_.Add(task_stats[i]);
    stats_.opt_shared_rows += shared_rels_[pending[i]].size();
  }
}

void RelationalConsequence::RunStageSerial(bool full_pass,
                                           std::vector<Relation>* buffers) {
  if (full_pass) {
    for (const CompiledRulePlans& c : plans_.rules) {
      ExecutePlan(ctx_, c.full, *state_, nullptr, &(*buffers)[c.head_idb],
                  &stats_, &shared_rels_);
    }
  } else {
    for (const CompiledRulePlans& c : plans_.rules) {
      for (const CompiledDeltaPlan& d : c.deltas) {
        ExecutePlan(ctx_, d.plan, *state_, &delta_ranges_,
                    &(*buffers)[c.head_idb], &stats_, &shared_rels_);
      }
    }
  }
}

void RelationalConsequence::FinalizeStageIndexes(bool full_pass) const {
  auto touch = [&](const RulePlan& plan) {
    for (const PlanOp& op : plan.ops) {
      if (op.kind != PlanOp::Kind::kMatch || op.is_delta_scan ||
          op.key_cols.empty()) {
        continue;
      }
      const Relation& rel = ctx_.Resolve(op.predicate, *state_);
      for (size_t col : op.key_cols) rel.EnsureIndexed(col);
    }
  };
  for (const CompiledRulePlans& c : plans_.rules) {
    if (full_pass) {
      touch(c.full);
    } else {
      for (const CompiledDeltaPlan& d : c.deltas) touch(d.plan);
    }
  }
}

void RelationalConsequence::RunStageParallel(bool full_pass,
                                             std::vector<Relation>* buffers) {
  // Small stages aren't worth the fan-out (staging relations + pool
  // wakeups): below one slice's worth of input rows, take the serial path
  // — it computes the identical result, so the cutoff is invisible to
  // callers. The work proxy is deterministic and independent of the
  // thread count, shard count, and scheduler.
  size_t work = 0;
  if (full_pass) {
    for (const CompiledRulePlans& c : plans_.rules) {
      for (const PlanOp& op : c.full.ops) {
        if (op.kind == PlanOp::Kind::kMatch) {
          work += op.shared_source >= 0
                      ? shared_rels_[op.shared_source].size()
                      : ctx_.Resolve(op.predicate, *state_).size();
        }
      }
    }
  } else {
    for (const auto& ranges : delta_ranges_) {
      for (const auto& [begin, end] : ranges) work += end - begin;
    }
  }
  if (work < min_slice_rows_) {
    RunStageSerial(full_pass, buffers);
    return;
  }
  if (*pool_slot_ == nullptr) {
    // Spawned lazily so runs whose stages all fall under the cutoff (e.g.
    // many small strata) never pay thread creation. The calling thread
    // participates in the pool's loops, so N threads total means N-1
    // workers.
    *pool_slot_ = std::make_unique<ThreadPool>(num_threads_ - 1);
  }
  ThreadPool& pool = **pool_slot_;

  // During the fan-out every worker reads the frozen Sⁿ concurrently, so
  // first finalize each column index the plans can probe; after this no
  // relation read mutates anything (Relation::EnsureIndexed contract).
  if (ctx_.use_join_indexes()) FinalizeStageIndexes(full_pass);

  std::vector<DeltaUnit> units;
  if (!full_pass) units = PartitionDeltaUnits();

  StageScheduler scheduler = scheduler_;
  if (scheduler == StageScheduler::kAuto) {
    // Full passes run one atomic task per rule — there is no slice for
    // stealing to re-cut — so only delta stages consult the imbalance
    // estimate. Either way both machineries fold by the same
    // deterministic key, so the choice is invisible outside the
    // bookkeeping counters.
    scheduler =
        (!full_pass && EstimateStaticImbalance(units) >
                           EvalContextOptions::kDefaultStealVariance)
            ? StageScheduler::kStealing
            : StageScheduler::kStatic;
    if (scheduler == StageScheduler::kStealing) {
      ++stats_.auto_stealing_stages;
    } else {
      ++stats_.auto_static_stages;
    }
  }
  if (scheduler == StageScheduler::kStealing) {
    RunStageStealing(full_pass, units, buffers, pool);
  } else {
    RunStageStatic(full_pass, units, buffers, pool);
  }
}

std::vector<RelationalConsequence::DeltaUnit>
RelationalConsequence::PartitionDeltaUnits() {
  std::vector<DeltaUnit> units;
  DeltaUnit pending;  // batch being accumulated
  size_t pending_rows = 0;
  auto flush = [&] {
    if (pending.batch.empty()) return;
    if (pending.batch.size() >= 2) {
      stats_.batched_plans += pending.batch.size();
    }
    units.push_back(std::move(pending));
    pending = DeltaUnit();
    pending_rows = 0;
  };
  for (const CompiledRulePlans& c : plans_.rules) {
    for (const CompiledDeltaPlan& d : c.deltas) {
      size_t rows = 0;
      if (d.delta_idb >= 0) {
        for (const auto& [begin, end] : delta_ranges_[d.delta_idb]) {
          rows += end - begin;
        }
      }
      if (d.delta_idb >= 0 && rows >= min_slice_rows_) {
        flush();
        DeltaUnit u;
        u.plan = &d.plan;
        u.head_idb = c.head_idb;
        u.delta_idb = d.delta_idb;
        u.rows = rows;
        u.heads.push_back(c.head_idb);
        units.push_back(std::move(u));
        continue;
      }
      // Tiny (or delta-less) plan: share a task with its neighbours so
      // rule-heavy programs don't pay one staging relation per nearly
      // empty plan. Batches stay contiguous in plan order — the ordered
      // fold depends on it.
      pending.batch.push_back(BatchEntry{&d.plan, c.head_idb, rows});
      bool seen = false;
      for (int h : pending.heads) seen = seen || h == c.head_idb;
      if (!seen) pending.heads.push_back(c.head_idb);
      if (d.delta_idb >= 0) stats_.RecordSlice(rows);
      pending_rows += rows;
      if (pending_rows >= min_slice_rows_) flush();
    }
  }
  flush();
  return units;
}

double RelationalConsequence::EstimateStaticImbalance(
    const std::vector<DeltaUnit>& units) const {
  // Number of delta rows EstimateDeltaWork may probe per plan. The whole
  // estimate costs at most one posting-length lookup per sampled row —
  // a fraction of the join that follows — and a stride this dense still
  // catches hub windows much smaller than a slice.
  constexpr size_t kMaxWorkSamples = 2048;

  // Stealing can only re-cut sliceable units; a stage made purely of
  // atomic batches runs the same tasks under either machinery, so
  // report it balanced and skip the estimation entirely.
  bool sliceable = false;
  for (const DeltaUnit& u : units) sliceable = sliceable || u.batch.empty();
  if (!sliceable) return 0.0;

  // Pool the estimated work of every task the static partition would
  // create: one value per batch, one per up-front slice of each big
  // plan. The per-row signal is the posting-list length of the plan's
  // first index probe; plans giving no such signal fall back to row
  // counts — exactly the proxy the static slicer itself balances, so
  // they report a perfectly balanced contribution. Zero-work batches
  // (runs of never-fires / empty-delta plans) are skipped: they are
  // near-free tasks under either scheduler, and counting them would
  // only drag the mean down and inflate the CV.
  std::vector<double> work;
  for (const DeltaUnit& u : units) {
    if (!u.batch.empty()) {
      double rows = 0;
      for (const BatchEntry& e : u.batch) rows += static_cast<double>(e.rows);
      if (rows > 0) work.push_back(rows);
      continue;
    }
    const size_t desired = std::max<size_t>(
        1, std::min(num_threads_ * 4, u.rows / min_slice_rows_));
    const DeltaWorkEstimate est = EstimateDeltaWork(
        ctx_, *u.plan, *state_, delta_ranges_[u.delta_idb], kMaxWorkSamples);
    std::vector<double> slice(desired, 0.0);
    if (est.sample_cost.empty()) {
      // Uniform plans weigh each row by the estimate's scan-aware
      // per-row cost (the first joined relation's cardinality when the
      // plan probes nothing), so scan-heavy plans aren't under-counted
      // against probed ones.
      for (size_t w = 0; w < desired; ++w) {
        slice[w] = static_cast<double>(u.rows * (w + 1) / desired -
                                       u.rows * w / desired) *
                   static_cast<double>(est.uniform_cost);
      }
    } else {
      for (size_t i = 0; i < est.sample_cost.size(); ++i) {
        const size_t row = i * est.stride;
        slice[row * desired / u.rows] +=
            static_cast<double>(est.sample_cost[i] * est.stride);
      }
    }
    for (double v : slice) work.push_back(v);
  }
  if (work.size() < 2) return 0.0;
  double sum = 0;
  for (double v : work) sum += v;
  const double mean = sum / static_cast<double>(work.size());
  if (mean <= 0) return 0.0;
  double var = 0;
  for (double v : work) var += (v - mean) * (v - mean);
  return std::sqrt(var / static_cast<double>(work.size())) / mean;
}

void RelationalConsequence::RunStageStatic(
    bool full_pass, const std::vector<DeltaUnit>& units,
    std::vector<Relation>* buffers, ThreadPool& pool) {
  // Partition the stage: full passes split per rule plan; delta passes
  // take the shared units — one task per batch, and per (big plan ×
  // delta slice) with the slices cut from the per-shard delta ranges so
  // the fan-out partitions along shard boundaries. Task order — units in
  // program order, then ascending slices — is exactly the serial
  // execution order; the ordered shard-wise merge below relies on that.
  struct StageTask {
    const RulePlan* plan = nullptr;    ///< Single-plan task.
    int head_idb = -1;
    int sliced = -1;                   ///< Index into sliced ranges, or -1.
    const DeltaUnit* batch = nullptr;  ///< Batch task (overrides plan).
  };
  std::vector<StageTask> tasks;
  // Per-sliced-task delta ranges, precomputed here (serially) so the
  // workers read them in place instead of deep-copying DeltaRanges on
  // the hot fan-out path.
  std::vector<DeltaRanges> sliced_ranges;
  if (full_pass) {
    for (const CompiledRulePlans& c : plans_.rules) {
      tasks.push_back(StageTask{&c.full, c.head_idb, -1, nullptr});
    }
  } else {
    for (const DeltaUnit& u : units) {
      if (!u.batch.empty()) {
        tasks.push_back(StageTask{nullptr, -1, -1, &u});
        continue;
      }
      const std::vector<ShardRange>& ranges = delta_ranges_[u.delta_idb];
      // Aim for a few slices per thread so claim-order load imbalance
      // evens out, but never slices smaller than min_slice_rows_.
      const size_t desired =
          std::min(num_threads_ * 4, u.rows / min_slice_rows_);
      for (std::vector<ShardRange>& slice :
           SliceDeltaRanges(ranges, desired)) {
        size_t slice_rows = 0;
        for (const auto& [begin, end] : slice) slice_rows += end - begin;
        stats_.RecordSlice(slice_rows);
        DeltaRanges local = delta_ranges_;
        local[u.delta_idb] = std::move(slice);
        tasks.push_back(StageTask{u.plan, u.head_idb,
                                  static_cast<int>(sliced_ranges.size()),
                                  nullptr});
        sliced_ranges.push_back(std::move(local));
      }
    }
  }

  // Per-task staging: one sharded output relation and stats block per
  // head the task stages into (single-plan tasks exactly one, batch
  // tasks one per distinct head), so workers never share a mutable
  // object and a batch never interleaves two heads in one relation.
  std::vector<std::vector<Relation>> outs(tasks.size());
  std::vector<std::vector<EvalStats>> task_stats(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const StageTask& t = tasks[i];
    const size_t num_heads = t.batch != nullptr ? t.batch->heads.size() : 1;
    outs[i].reserve(num_heads);
    for (size_t slot = 0; slot < num_heads; ++slot) {
      const int head = t.batch != nullptr ? t.batch->heads[slot] : t.head_idb;
      const Relation& buffer = (*buffers)[head];
      outs[i].emplace_back(buffer.arity(), buffer.num_shards());
    }
    task_stats[i].resize(num_heads);
  }

  pool.ParallelFor(tasks.size(), [&](size_t i) {
    const StageTask& t = tasks[i];
    if (t.batch != nullptr) {
      // Batched tiny plans run back to back over their full (small)
      // delta ranges, each staging into its head's slot.
      for (const BatchEntry& e : t.batch->batch) {
        size_t slot = 0;
        while (t.batch->heads[slot] != e.head_idb) ++slot;
        ExecutePlan(ctx_, *e.plan, *state_, &delta_ranges_, &outs[i][slot],
                    &task_stats[i][slot], &shared_rels_);
      }
      return;
    }
    const DeltaRanges* deltas =
        full_pass ? nullptr
                  : (t.sliced >= 0 ? &sliced_ranges[t.sliced]
                                   : &delta_ranges_);
    ExecutePlan(ctx_, *t.plan, *state_, deltas, &outs[i][0],
                &task_stats[i][0], &shared_rels_);
  });

  // Fold the per-task stagings in task order — the serial execution
  // order, which the ordered shard-wise merge relies on. A batch's heads
  // fold in first-appearance order; per buffer that is still the serial
  // insertion order, because each head's staging received its batch
  // plans' rows in plan order.
  std::vector<StagedOutput> ordered;
  ordered.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const StageTask& t = tasks[i];
    const size_t num_heads = t.batch != nullptr ? t.batch->heads.size() : 1;
    for (size_t slot = 0; slot < num_heads; ++slot) {
      const int head = t.batch != nullptr ? t.batch->heads[slot] : t.head_idb;
      ordered.push_back(StagedOutput{head, &outs[i][slot],
                                     &task_stats[i][slot]});
    }
  }
  FoldStagedOutputs(ordered, buffers, pool);
}

void RelationalConsequence::RunStageStealing(
    bool full_pass, const std::vector<DeltaUnit>& units,
    std::vector<Relation>* buffers, ThreadPool& pool) {
  // One item per unit, in serial execution order. Big delta plans carry
  // their predicate's whole delta range (ParallelForDynamic splits it on
  // demand); batches and full plans are atomic (0 rows — exactly one
  // body call).
  struct StealItem {
    const RulePlan* plan = nullptr;
    int head_idb = -1;
    int delta_idb = -1;                ///< < 0: atomic.
    const DeltaUnit* batch = nullptr;  ///< Batch item (overrides plan).
  };
  std::vector<StealItem> items;
  std::vector<size_t> item_rows;
  if (full_pass) {
    for (const CompiledRulePlans& c : plans_.rules) {
      items.push_back(StealItem{&c.full, c.head_idb, -1, nullptr});
      item_rows.push_back(0);
    }
  } else {
    for (const DeltaUnit& u : units) {
      if (!u.batch.empty()) {
        items.push_back(StealItem{nullptr, -1, -1, &u});
        item_rows.push_back(0);
      } else {
        items.push_back(StealItem{u.plan, u.head_idb, u.delta_idb, nullptr});
        item_rows.push_back(u.rows);
      }
    }
  }

  // Per-item work estimates steer the initial deal (LPT instead of
  // round-robin), so the stealing machinery starts balanced and steals
  // only to correct estimation error. Batches weigh their summed delta
  // rows; big plans reuse EstimateDeltaWork's posting-length signal
  // (the same proxy the auto scheduler's imbalance estimate pools), so
  // a hub-heavy plan outweighs an equal-row uniform one. Full passes
  // have no delta signal and keep the round-robin deal.
  std::vector<uint64_t> item_weights;
  if (!full_pass && items.size() > 1) {
    constexpr size_t kMaxWorkSamples = 2048;
    item_weights.reserve(items.size());
    for (const DeltaUnit& u : units) {
      if (!u.batch.empty()) {
        uint64_t rows = 0;
        for (const BatchEntry& e : u.batch) rows += e.rows;
        item_weights.push_back(std::max<uint64_t>(rows, 1));
        continue;
      }
      const DeltaWorkEstimate est = EstimateDeltaWork(
          ctx_, *u.plan, *state_, delta_ranges_[u.delta_idb],
          kMaxWorkSamples);
      uint64_t cost = 0;
      if (est.sample_cost.empty()) {
        cost = static_cast<uint64_t>(u.rows) * est.uniform_cost;
      } else {
        for (const uint64_t c : est.sample_cost) cost += c * est.stride;
      }
      item_weights.push_back(std::max<uint64_t>(cost, 1));
    }
  }

  // Each executed chunk stages into its own sharded relation(s) — one
  // per head for batch items. The set of chunks depends on steal timing,
  // but a chunk's (item, begin) key fully determines the delta rows it
  // covered, so sorting the records by that key reconstructs the serial
  // execution order whatever the partition was. Records are
  // per-participant, so workers never share a vector.
  struct ChunkRecord {
    size_t item;
    size_t begin;
    size_t rows;
    std::vector<Relation> outs;    // parallel to the item's heads
    std::vector<EvalStats> stats;
  };
  std::vector<std::vector<ChunkRecord>> records(pool.num_workers() + 1);
  // Chunks are cut dynamically, so their restricted DeltaRanges cannot
  // be precomputed serially as on the static path. Instead each worker
  // keeps one scratch copy of the full ranges (made on its first chunk)
  // and per chunk overwrites — then restores — only the sliced
  // predicate's entry, so the hot fan-out path never deep-copies the
  // whole DeltaRanges per chunk.
  std::vector<DeltaRanges> scratch(pool.num_workers() + 1);

  const ThreadPool::DynamicLoopStats dyn = pool.ParallelForDynamic(
      item_rows, item_weights, min_slice_rows_,
      [&](size_t i, size_t begin, size_t end, size_t worker) {
        const StealItem& item = items[i];
        ChunkRecord rec{i, begin, end - begin, {}, {}};
        if (item.batch != nullptr) {
          const DeltaUnit& u = *item.batch;
          rec.outs.reserve(u.heads.size());
          for (int head : u.heads) {
            rec.outs.emplace_back((*buffers)[head].arity(), num_shards_);
          }
          rec.stats.resize(u.heads.size());
          for (const BatchEntry& e : u.batch) {
            size_t slot = 0;
            while (u.heads[slot] != e.head_idb) ++slot;
            ExecutePlan(ctx_, *e.plan, *state_, &delta_ranges_,
                        &rec.outs[slot], &rec.stats[slot], &shared_rels_);
          }
          records[worker].push_back(std::move(rec));
          return;
        }
        rec.outs.emplace_back((*buffers)[item.head_idb].arity(),
                              num_shards_);
        rec.stats.resize(1);
        const DeltaRanges* deltas = nullptr;
        if (!full_pass) {
          if (item.delta_idb >= 0) {
            DeltaRanges& local = scratch[worker];
            if (local.empty()) local = delta_ranges_;
            local[item.delta_idb] = ProjectDeltaWindow(
                delta_ranges_[item.delta_idb], begin, end);
            deltas = &local;
          } else {
            deltas = &delta_ranges_;
          }
        }
        ExecutePlan(ctx_, *item.plan, *state_, deltas, &rec.outs[0],
                    &rec.stats[0], &shared_rels_);
        if (!full_pass && item.delta_idb >= 0) {
          // Restore the invariant scratch[worker] == delta_ranges_.
          scratch[worker][item.delta_idb] = delta_ranges_[item.delta_idb];
        }
        records[worker].push_back(std::move(rec));
      });

  // Deterministic fold order: ascending (unit, first delta row). Stealing
  // reordered which worker ran which rows, never which rows exist or how
  // they fold.
  std::vector<ChunkRecord*> chunks;
  for (std::vector<ChunkRecord>& worker_records : records) {
    for (ChunkRecord& rec : worker_records) chunks.push_back(&rec);
  }
  std::sort(chunks.begin(), chunks.end(),
            [](const ChunkRecord* a, const ChunkRecord* b) {
              return a->item != b->item ? a->item < b->item
                                        : a->begin < b->begin;
            });
  std::vector<StagedOutput> ordered;
  ordered.reserve(chunks.size());
  for (ChunkRecord* rec : chunks) {
    const StealItem& item = items[rec->item];
    if (item.batch != nullptr) {
      // Batched plans recorded their slices at partition time.
      for (size_t slot = 0; slot < item.batch->heads.size(); ++slot) {
        ordered.push_back(StagedOutput{item.batch->heads[slot],
                                       &rec->outs[slot], &rec->stats[slot]});
      }
      continue;
    }
    if (item.delta_idb >= 0) rec->stats[0].RecordSlice(rec->rows);
    ordered.push_back(StagedOutput{item.head_idb, &rec->outs[0],
                                   &rec->stats[0]});
  }
  FoldStagedOutputs(ordered, buffers, pool);
  stats_.steals += dyn.steals;
  stats_.splits += dyn.splits;
  stats_.parks += dyn.parks;
}

void RelationalConsequence::FoldStagedOutputs(
    const std::vector<StagedOutput>& ordered, std::vector<Relation>* buffers,
    ThreadPool& pool) {
  // Shard-wise ordered merge: each worker owns one shard of every buffer
  // and folds the staged outputs in the given order — the serial
  // execution order — so the per-shard sequence of first appearances in
  // `buffers` (and therefore row ids, stage sizes, and every downstream
  // stage) is identical to the serial run, while no two workers ever
  // write the same shard and no serial merge runs.
  std::vector<size_t> merged(ordered.size() * num_shards_, 0);
  auto merge_shard = [&](size_t s) {
    for (size_t i = 0; i < ordered.size(); ++i) {
      merged[i * num_shards_ + s] =
          (*buffers)[ordered[i].head_idb].MergeShardFrom(*ordered[i].out, s);
    }
  };
  if (num_shards_ > 1) {
    pool.ParallelFor(num_shards_, merge_shard);
  } else {
    merge_shard(0);
  }
  for (size_t i = 0; i < ordered.size(); ++i) {
    size_t merged_new = 0;
    for (size_t s = 0; s < num_shards_; ++s) {
      merged_new += merged[i * num_shards_ + s];
    }
    // A tuple derived by two stagings is new in both but was counted once
    // serially; the merge count restores the serial new_tuples.
    ordered[i].stats->new_tuples = merged_new;
    stats_.Add(*ordered[i].stats);
  }
  stats_.parallel_tasks += ordered.size();
}

size_t RelationalConsequence::MergeStageBuffers(
    const std::vector<Relation>& buffers) {
  size_t batch = 0;
  for (const Relation& buffer : buffers) batch += buffer.size();
  std::vector<size_t> added(num_shards_, 0);
  auto merge_shard = [&](size_t s) {
    size_t add = 0;
    for (size_t i = 0; i < buffers.size(); ++i) {
      Relation& rel = state_->relations[i];
      const size_t before = rel.ShardSize(s);
      add += rel.MergeShardFrom(buffers[i], s);
      delta_ranges_[i][s] = {before, rel.ShardSize(s)};
    }
    added[s] = add;
  };
  // Shard-parallel whenever a pool is already running and the batch is
  // worth a wakeup; the serial fallback runs the same per-shard merges in
  // shard order, so the state (per-shard insertion order included) is
  // identical either way.
  if (num_threads_ > 1 && num_shards_ > 1 && *pool_slot_ != nullptr &&
      batch >= min_slice_rows_) {
    (*pool_slot_)->ParallelFor(num_shards_, merge_shard);
  } else {
    for (size_t s = 0; s < num_shards_; ++s) merge_shard(s);
  }
  size_t total = 0;
  for (size_t a : added) total += a;
  return total;
}

size_t RelationalConsequence::Step(size_t stage) {
  const Program& program = ctx_.program();
  const size_t num_idb = program.idb_predicates().size();

  // Derivations are buffered per stage and merged afterwards, so every
  // stage reads a consistent Sⁿ (and so relations are never mutated while
  // scanned). Buffers share the state's shard count so the merge can go
  // shard by shard.
  std::vector<Relation> buffers;
  buffers.reserve(num_idb);
  for (uint32_t pred : program.idb_predicates()) {
    buffers.emplace_back(program.predicate(pred).arity, num_shards_);
  }

  const bool full_pass = (stage == 0 && !seeded_) || !use_deltas_;
  // Shared intermediates (subplan sharing) are rebuilt before the stage
  // fans out — one task per pending subplan when the work clears the
  // serial cutoff — so every consumer, on any thread and under any
  // scheduler, reads the same finalized relation.
  ComputeSharedIntermediates(full_pass);
  if (num_threads_ <= 1) {
    RunStageSerial(full_pass, &buffers);
  } else {
    RunStageParallel(full_pass, &buffers);
  }

  // Merge the stage's derivations; the appended per-shard row ranges
  // become the next deltas.
  const size_t added = MergeStageBuffers(buffers);
  if (added > 0) {
    ++stats_.stages;
    for (size_t i = 0; i < num_idb; ++i) {
      const Relation& rel = state_->relations[i];
      stage_sizes_[i].push_back(rel.size());
      std::vector<size_t> per_shard(num_shards_);
      for (size_t s = 0; s < num_shards_; ++s) {
        per_shard[s] = rel.ShardSize(s);
      }
      stage_shard_sizes_[i].push_back(std::move(per_shard));
    }
  }
  return added;
}

GroundConsequence::GroundConsequence(const GroundProgram& ground,
                                     const std::vector<bool>& assumed_true)
    : ground_(ground) {
  const size_t num_atoms = ground.atoms.size();
  INFLOG_CHECK(assumed_true.size() == num_atoms);
  constexpr uint32_t kDead = static_cast<uint32_t>(-1);

  missing_.resize(ground.rules.size());
  watchers_.resize(num_atoms);
  model_.assign(num_atoms, false);

  for (uint32_t r = 0; r < ground.rules.size(); ++r) {
    const GroundRule& rule = ground.rules[r];
    const GroundBody& body = ground.RuleBody(rule);
    bool dead = false;
    for (uint32_t n : body.neg) {
      if (assumed_true[n]) {
        dead = true;
        break;
      }
    }
    if (dead) {
      missing_[r] = kDead;
      continue;
    }
    missing_[r] = static_cast<uint32_t>(body.pos.size());
    for (uint32_t p : body.pos) watchers_[p].push_back(r);
    if (body.pos.empty() && !model_[rule.head]) {
      model_[rule.head] = true;
      frontier_.push_back(rule.head);
    }
  }
}

size_t GroundConsequence::Step(size_t /*stage*/) {
  std::vector<uint32_t> next;
  for (uint32_t atom : frontier_) {
    for (uint32_t r : watchers_[atom]) {
      INFLOG_DCHECK(missing_[r] != static_cast<uint32_t>(-1) &&
                    missing_[r] > 0);
      if (--missing_[r] == 0) {
        const uint32_t head = ground_.rules[r].head;
        if (!model_[head]) {
          model_[head] = true;
          next.push_back(head);
        }
      }
    }
  }
  frontier_ = std::move(next);
  return frontier_.size();
}

}  // namespace inflog
