// E10 — shard scaling of the fixpoint stage merge.
//
// PR 2 parallelized the stage *work* but funneled every stage through one
// single-threaded merge per predicate; hash-sharded relations turn both
// merges (task stagings → stage buffers, stage buffers → state) into
// shard-wise ParallelFors with no serial merge on the hot path. This
// bench isolates that effect:
//
//   * BM_ShardedJoinCore — the E7/E9 transitive-closure join core (256
//     vertices) at a fixed thread count, sweeping shards 1/2/4/8. The
//     shards=1 series is the PR 2 layout (parallel tasks, serial merge);
//     the ratio t(1 shard)/t(S shards) at fixed threads is the measured
//     merge-parallelism gain. A serial (1 thread, 1 shard) series anchors
//     the overall speedup.
//   * BM_ShardedMergeHeavy — a two-predicate union program whose stages
//     derive far more tuples than they match (merge-bound by
//     construction), where the serial merge is the bottleneck and shard
//     scaling shows up directly.
//
// Every iteration cross-checks the sharded result against an unsharded
// serial baseline computed once at setup — a wrong shard partition or
// merge order would change the tuple sets or stage sizes, and the bench
// aborts rather than publish a bogus speedup. Counters carry threads,
// shards, tuples, stages, and parallel_tasks into the JSON trajectory.
//
// Like E9, the sweep only shows gains on a multi-core machine; a
// single-core container shows the fan-out + per-shard probe overhead
// instead, and the `threads`/`shards` counters keep such runs
// distinguishable in the trajectory.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/eval/inflationary.h"

namespace inflog {
namespace {

// The join core of E7/E9: transitive closure over one random digraph.
constexpr char kTcCore[] =
    "S1(X,Y) :- E(X,Y).\n"
    "S1(X,Y) :- E(X,Z), S1(Z,Y).\n";

// Merge-heavy: four copies of the closure growing in lockstep, so each
// stage's derivation volume (and therefore the merge) dominates the probe
// work.
constexpr char kMergeHeavy[] =
    "S1(X,Y) :- E(X,Y).\n"
    "S1(X,Y) :- E(X,Z), S1(Z,Y).\n"
    "S2(X,Y) :- E(X,Y).\n"
    "S2(X,Y) :- S2(X,Z), E(Z,Y).\n"
    "U(X,Y) :- S1(X,Y).\n"
    "U(X,Y) :- S2(Y,X).\n";

void RunShardSweep(benchmark::State& state, const char* program_text,
                   size_t n, double degree) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t shards = static_cast<size_t>(state.range(1));
  Rng rng(n * 13 + 5);  // same seed family as E7/E9's join core
  const Digraph g = RandomDigraph(n, degree / n, &rng);
  auto symbols = std::make_shared<SymbolTable>();
  Program p = bench::MustProgram(program_text, symbols);
  Database db = bench::DbFromGraph(g, symbols);

  // Unsharded serial baseline once; every timed iteration must reproduce
  // its tuple sets and stage sizes.
  InflationaryOptions serial;
  serial.context.num_threads = 1;
  serial.context.num_shards = 1;
  auto baseline = EvalInflationary(p, db, serial);
  INFLOG_CHECK(baseline.ok());

  InflationaryOptions options;
  options.context.num_threads = threads;
  options.context.num_shards = shards;
  double tuples = 0, stages = 0, tasks = 0;
  for (auto _ : state) {
    auto result = EvalInflationary(p, db, options);
    INFLOG_CHECK(result.ok());
    INFLOG_CHECK(result->state == baseline->state)
        << "sharded state diverged from serial at threads=" << threads
        << " shards=" << shards;
    INFLOG_CHECK(result->stage_sizes == baseline->stage_sizes);
    tuples = static_cast<double>(result->state.TotalTuples());
    stages = static_cast<double>(result->num_stages);
    tasks = static_cast<double>(result->stats.parallel_tasks);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["vertices"] = static_cast<double>(n);
  state.counters["tuples"] = tuples;
  state.counters["stages"] = stages;
  state.counters["parallel_tasks"] = tasks;
}

void BM_ShardedJoinCore(benchmark::State& state) {
  RunShardSweep(state, kTcCore, /*n=*/256, /*degree=*/4.0);
}
BENCHMARK(BM_ShardedJoinCore)
    ->Args({1, 1})  // serial anchor
    ->Args({4, 1})  // PR 2 layout: parallel tasks, serial merge
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ShardedMergeHeavy(benchmark::State& state) {
  RunShardSweep(state, kMergeHeavy, /*n=*/160, /*degree=*/3.0);
}
BENCHMARK(BM_ShardedMergeHeavy)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace inflog
