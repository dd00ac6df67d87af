#include "src/eval/fixpoint_driver.h"

#include <algorithm>
#include <cmath>

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

/// Number of delta rows EstimateDeltaWork may probe per big unit. The
/// whole estimate costs at most one posting-length lookup per sampled
/// row — a fraction of the join that follows — and a stride this dense
/// still catches hub windows much smaller than a static window.
constexpr size_t kMaxWorkSamples = 2048;

/// Projects the linearized row window [begin, end) — shards concatenated
/// in shard order, the delta-scan walk order — back onto per-shard
/// ranges. Pure function of (base, begin, end): however a scheduler cut
/// or split a delta chunk, the rows it covers are determined by its
/// window alone.
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
  for (size_t k : pending) FinalizeIndexes(plans_.shared[k].plan);
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

void RelationalConsequence::FinalizeIndexes(const RulePlan& plan) const {
  if (!ctx_.use_join_indexes()) return;
  for (const PlanOp& op : plan.ops) {
    if (op.kind != PlanOp::Kind::kMatch || op.is_delta_scan ||
        op.key_cols.empty()) {
      continue;
    }
    const Relation& rel = ctx_.Resolve(op.predicate, *state_);
    for (size_t col : op.key_cols) rel.EnsureIndexed(col);
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

  // Partition the stage, then — since during the fan-out every worker
  // reads the frozen Sⁿ concurrently — finalize each column index its
  // plans can probe; after this no relation read mutates anything
  // (Relation::EnsureIndexed contract).
  std::vector<StageUnit> units = PartitionStageUnits(full_pass);
  for (const StageUnit& u : units) {
    for (const UnitPlan& p : u.plans) FinalizeIndexes(*p.plan);
  }

  StageScheduler scheduler = scheduler_;
  if (scheduler != StageScheduler::kStatic) {
    // One work sample per big unit feeds both auto's imbalance estimate
    // and the stealing deal.
    for (StageUnit& u : units) {
      if (u.rows == 0) continue;
      u.work = EstimateDeltaWork(ctx_, *u.plans[0].plan, *state_,
                                 delta_ranges_[u.delta_idb], kMaxWorkSamples);
    }
  }
  if (scheduler == StageScheduler::kAuto) {
    // A full pass has no big unit — nothing for stealing to re-cut — so
    // it reports itself balanced and stays static. Either way every
    // chunk folds by the same deterministic key, so the choice is
    // invisible outside the bookkeeping counters.
    scheduler = EstimateStaticImbalance(units) >
                        EvalContextOptions::kDefaultStealVariance
                    ? StageScheduler::kStealing
                    : StageScheduler::kStatic;
    if (scheduler == StageScheduler::kStealing) {
      ++stats_.auto_stealing_stages;
    } else {
      ++stats_.auto_static_stages;
    }
  }

  std::vector<Chunk> chunks;
  if (scheduler == StageScheduler::kStealing) {
    // One splittable chunk per big unit (full plans and batches have 0
    // rows: atomic), dealt by estimated work — batches weigh their delta
    // rows, big units their sampled join work, so a hub-heavy plan
    // outweighs an equal-row uniform one — so the stealing starts
    // balanced and only corrects estimation error. Full-pass units all
    // weigh 1, which deals them round-robin. Chunks are collected per
    // participant, so workers never share a vector.
    std::vector<size_t> rows;
    std::vector<uint64_t> weights;
    for (const StageUnit& u : units) {
      uint64_t weight = 0;
      if (u.rows == 0) {
        for (const UnitPlan& p : u.plans) weight += p.rows;
      } else if (u.work.sample_cost.empty()) {
        weight = static_cast<uint64_t>(u.rows) * u.work.uniform_cost;
      } else {
        for (const uint64_t c : u.work.sample_cost) {
          weight += c * u.work.stride;
        }
      }
      rows.push_back(u.rows);
      weights.push_back(std::max<uint64_t>(weight, 1));
    }
    std::vector<std::vector<Chunk>> done(pool.num_workers() + 1);
    const ThreadPool::DynamicLoopStats dyn = pool.ParallelForDynamic(
        rows, weights, min_slice_rows_,
        [&](size_t i, size_t begin, size_t end, size_t worker) {
          Chunk chunk{i, begin, end, {}, {}};
          RunChunk(units[i], &chunk);
          done[worker].push_back(std::move(chunk));
        });
    for (std::vector<Chunk>& worker_chunks : done) {
      for (Chunk& chunk : worker_chunks) chunks.push_back(std::move(chunk));
    }
    stats_.steals += dyn.steals;
    stats_.splits += dyn.splits;
    stats_.parks += dyn.parks;
  } else {
    // Equal row windows of every big unit, cut up front — the windows the
    // imbalance estimate weighed — and claimed from a shared counter.
    for (size_t i = 0; i < units.size(); ++i) {
      const size_t rows = units[i].rows;
      const size_t windows = StaticWindows(units[i]);
      for (size_t w = 0; w < windows; ++w) {
        chunks.push_back(Chunk{i, rows * w / windows,
                               rows * (w + 1) / windows, {}, {}});
      }
    }
    pool.ParallelFor(chunks.size(), [&](size_t c) {
      RunChunk(units[chunks[c].unit], &chunks[c]);
    });
  }
  FoldStagedOutputs(units, &chunks, buffers, pool);
}

std::vector<RelationalConsequence::StageUnit>
RelationalConsequence::PartitionStageUnits(bool full_pass) {
  std::vector<StageUnit> units;
  if (full_pass) {
    for (const CompiledRulePlans& c : plans_.rules) {
      units.push_back(StageUnit{
          {UnitPlan{&c.full, c.head_idb, 0}}, {c.head_idb}, -1, 0, {}});
    }
    return units;
  }
  StageUnit pending;  // batch being accumulated
  size_t pending_rows = 0;
  auto flush = [&] {
    if (pending.plans.empty()) return;
    if (pending.plans.size() >= 2) {
      stats_.batched_plans += pending.plans.size();
    }
    units.push_back(std::move(pending));
    pending = StageUnit();
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
        units.push_back(StageUnit{{UnitPlan{&d.plan, c.head_idb, rows}},
                                  {c.head_idb}, d.delta_idb, rows, {}});
        continue;
      }
      // Tiny (or delta-less) plan: share a chunk with its neighbours so
      // rule-heavy programs don't pay one staging relation per nearly
      // empty plan. Batches stay contiguous in plan order — the ordered
      // fold depends on it.
      pending.plans.push_back(UnitPlan{&d.plan, c.head_idb, rows});
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

size_t RelationalConsequence::StaticWindows(const StageUnit& u) const {
  // A few windows per thread so claim-order load imbalance evens out,
  // but none below min_slice_rows_.
  return std::max<size_t>(
      1, std::min(num_threads_ * 4, u.rows / min_slice_rows_));
}

double RelationalConsequence::EstimateStaticImbalance(
    const std::vector<StageUnit>& units) const {
  // Stealing can only re-cut big units; a stage made purely of full
  // plans and batches runs the same chunks under either scheduler, so
  // report it balanced.
  bool sliceable = false;
  for (const StageUnit& u : units) sliceable = sliceable || u.rows > 0;
  if (!sliceable) return 0.0;

  // Pool the estimated work of every chunk the static scheduler would
  // run: one value per batch, one per window of each big unit. The
  // per-row signal is the posting-list length of the plan's first index
  // probe; plans giving no such signal fall back to row counts — exactly
  // the proxy the static windows balance, so they report a perfectly
  // balanced contribution. Zero-work batches (runs of never-fires /
  // empty-delta plans) are skipped: they are near-free chunks under
  // either scheduler, and counting them would only drag the mean down
  // and inflate the CV.
  std::vector<double> work;
  for (const StageUnit& u : units) {
    if (u.rows == 0) {
      double rows = 0;
      for (const UnitPlan& p : u.plans) rows += static_cast<double>(p.rows);
      if (rows > 0) work.push_back(rows);
      continue;
    }
    const size_t windows = StaticWindows(u);
    const DeltaWorkEstimate& est = u.work;
    std::vector<double> window(windows, 0.0);
    if (est.sample_cost.empty()) {
      // Uniform plans weigh each row by the estimate's scan-aware
      // per-row cost (the first joined relation's cardinality when the
      // plan probes nothing), so scan-heavy plans aren't under-counted
      // against probed ones.
      for (size_t w = 0; w < windows; ++w) {
        window[w] = static_cast<double>(u.rows * (w + 1) / windows -
                                        u.rows * w / windows) *
                    static_cast<double>(est.uniform_cost);
      }
    } else {
      for (size_t i = 0; i < est.sample_cost.size(); ++i) {
        const size_t row = i * est.stride;
        window[row * windows / u.rows] +=
            static_cast<double>(est.sample_cost[i] * est.stride);
      }
    }
    for (double v : window) work.push_back(v);
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

void RelationalConsequence::RunChunk(const StageUnit& u, Chunk* chunk) const {
  // A big unit reads only the chunk's window of its delta; full plans
  // read no delta and batches run over their full (small) deltas.
  DeltaRanges window;
  const DeltaRanges* deltas = &delta_ranges_;
  if (u.rows > 0) {
    window = delta_ranges_;
    window[u.delta_idb] = ProjectDeltaWindow(delta_ranges_[u.delta_idb],
                                             chunk->begin, chunk->end);
    deltas = &window;
  }
  chunk->outs.reserve(u.heads.size());
  for (int head : u.heads) {
    chunk->outs.emplace_back(state_->relations[head].arity(), num_shards_);
  }
  chunk->stats.resize(u.heads.size());
  for (const UnitPlan& p : u.plans) {
    size_t slot = 0;
    while (u.heads[slot] != p.head_idb) ++slot;
    ExecutePlan(ctx_, *p.plan, *state_, deltas, &chunk->outs[slot],
                &chunk->stats[slot], &shared_rels_);
  }
}

void RelationalConsequence::FoldStagedOutputs(
    const std::vector<StageUnit>& units, std::vector<Chunk>* chunks,
    std::vector<Relation>* buffers, ThreadPool& pool) {
  // Deterministic fold order: ascending (unit, first delta row). A
  // scheduler decides which worker runs which rows, never which rows a
  // chunk covers or how they fold. Batched plans recorded their slices
  // at partition time.
  std::sort(chunks->begin(), chunks->end(),
            [](const Chunk& a, const Chunk& b) {
              return a.unit != b.unit ? a.unit < b.unit : a.begin < b.begin;
            });
  size_t num_outputs = 0;
  for (Chunk& chunk : *chunks) {
    if (units[chunk.unit].rows > 0) {
      chunk.stats[0].RecordSlice(chunk.end - chunk.begin);
    }
    num_outputs += chunk.outs.size();
  }

  // Shard-wise ordered merge: each worker owns one shard of every buffer
  // and folds the stagings in chunk order — a batch's heads in
  // first-appearance order, which per buffer is still the serial
  // insertion order, because each head's staging received its batch
  // plans' rows in plan order — so the per-shard sequence of first
  // appearances in `buffers` (and therefore row ids, stage sizes, and
  // every downstream stage) is identical to the serial run, while no two
  // workers ever write the same shard and no serial merge runs.
  std::vector<size_t> merged(num_outputs * num_shards_, 0);
  auto merge_shard = [&](size_t s) {
    size_t i = 0;
    for (Chunk& chunk : *chunks) {
      const std::vector<int>& heads = units[chunk.unit].heads;
      for (size_t slot = 0; slot < heads.size(); ++slot, ++i) {
        merged[i * num_shards_ + s] =
            (*buffers)[heads[slot]].MergeShardFrom(chunk.outs[slot], s);
      }
    }
  };
  if (num_shards_ > 1) {
    pool.ParallelFor(num_shards_, merge_shard);
  } else {
    merge_shard(0);
  }
  size_t i = 0;
  for (Chunk& chunk : *chunks) {
    for (EvalStats& stats : chunk.stats) {
      size_t merged_new = 0;
      for (size_t s = 0; s < num_shards_; ++s) {
        merged_new += merged[i * num_shards_ + s];
      }
      ++i;
      // A tuple derived by two stagings is new in both but was counted
      // once serially; the merge count restores the serial new_tuples.
      stats.new_tuples = merged_new;
      stats_.Add(stats);
    }
  }
  stats_.parallel_tasks += num_outputs;
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
