// E11 — scheduler scaling on a pathologically skewed stage.
//
// PR 3's static slicer cuts a stage's delta rows into equal-row slices,
// which balances stages whose join work is uniform per row. This bench
// builds the adversarial opposite — the workload ROADMAP's "work-stealing
// slicer for pathologically skewed shard histograms" item calls for:
//
//   * every delta tuple of the hot IDB predicate R hashes into ONE shard
//     (the symbols are pre-filtered by their unary tuple hash), so
//     shard-aligned slicing gets no help from the shard histogram; and
//   * the join fan-out per delta row is extremely skewed: 64 hub rows
//     inside the first 1024 (of 16384) carry ~80% of the stage's
//     derivations, so the equal-row slices covering the hub window hide
//     most of the stage's work while the rest finish instantly.
//
// The static scheduler therefore serializes the stage on the few threads
// that claimed the hot slices; the stealing scheduler
// (--scheduler=stealing, ThreadPool::ParallelForDynamic) splits exactly
// those chunks while the other workers are hungry and keeps everyone
// busy; the auto scheduler (the default) must detect the hub skew from
// its posting-length estimate and flip this stage to stealing by itself
// — the series exists to hold auto within 10% of explicit stealing here
// (its `auto_stealing` counter shows the decision). The acceptance
// target is a ≥1.5× stealing-over-static speedup at 8 threads on this
// workload — on a machine with ≥8 cores; like E9/E10, a single-core
// container shows only the scheduling overhead, and the
// `threads`/`scheduler` counters keep such runs distinguishable in the
// trajectory.
//
// Every timed iteration cross-checks the parallel result against an
// unsharded serial baseline computed once at setup (tuple sets AND stage
// sizes): a wrong chunk projection or fold order would abort the bench
// rather than publish a bogus speedup. Steals, splits, and executed-slice
// counts go into the JSON counters.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/strings.h"
#include "src/eval/inflationary.h"
#include "src/relation/tuple.h"

namespace inflog {
namespace {

// Stage 0 (full pass) fills R with the 16384 hot symbols; stage 1 (the
// measured stage) runs the P rule over R's delta, whose per-row work is
// |Big(x,·)| — 1024 for hubs, 1 otherwise.
constexpr char kSkewProgram[] =
    "R(Y) :- Seed(X), E0(X,Y).\n"
    "P(X,Y) :- R(X), Big(X,Y).\n";

constexpr size_t kHotRows = 16384;   // R tuples, all in shard 0
constexpr size_t kHubWindow = 1024;  // leading R rows holding the hubs
constexpr size_t kHubStride = 16;    // one hub per 16 rows in the window
constexpr size_t kHubFanout = 1024;  // Big rows per hub
constexpr uint32_t kShardBits = 3;   // 8 shards

/// Interns fresh symbols until `count` of them hash into shard 0 of a
/// 2^kShardBits-sharded unary relation; returns their names.
std::vector<std::string> HotSymbols(SymbolTable* symbols, size_t count) {
  std::vector<std::string> hot;
  for (size_t i = 0; hot.size() < count; ++i) {
    std::string name = StrCat("h", i);
    const Value v = symbols->Intern(name);
    const Tuple tuple{v};
    if (ShardOfHash(HashTuple(tuple), kShardBits) == 0) {
      hot.push_back(std::move(name));
    }
  }
  return hot;
}

void BM_SkewedStageSchedulers(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const StageScheduler scheduler =
      state.range(1) == 0   ? StageScheduler::kStatic
      : state.range(1) == 1 ? StageScheduler::kStealing
                            : StageScheduler::kAuto;
  auto symbols = std::make_shared<SymbolTable>();
  Program p = bench::MustProgram(kSkewProgram, symbols);
  Database db(symbols);

  const std::vector<std::string> hot = HotSymbols(symbols.get(), kHotRows);
  INFLOG_CHECK(db.AddFactNamed("Seed", {"s"}).ok());
  for (const std::string& name : hot) {
    // E0 row order fixes R's derivation (= shard-0 row) order.
    INFLOG_CHECK(db.AddFactNamed("E0", {"s", name}).ok());
  }
  // Hub rows sit in the leading window, one per kHubStride rows, so all
  // of the hub work lands inside the first two 512-row static slices.
  size_t big_rows = 0;
  for (size_t i = 0; i < hot.size(); ++i) {
    const bool hub = i < kHubWindow && i % kHubStride == 0;
    const size_t fanout = hub ? kHubFanout : 1;
    for (size_t j = 0; j < fanout; ++j) {
      INFLOG_CHECK(
          db.AddFactNamed("Big", {hot[i], StrCat("t", j)}).ok());
      ++big_rows;
    }
  }

  // Serial unsharded baseline once; every timed iteration must reproduce
  // its tuple sets and stage sizes.
  InflationaryOptions serial;
  serial.context.num_threads = 1;
  serial.context.num_shards = 1;
  auto baseline = EvalInflationary(p, db, serial);
  INFLOG_CHECK(baseline.ok());

  // Insurance on the adversarial claim: at 8 shards, R is entirely hot.
  {
    InflationaryOptions sharded = serial;
    sharded.context.num_shards = 8;
    auto check = EvalInflationary(p, db, sharded);
    INFLOG_CHECK(check.ok());
    const Relation& r = check->state.relations[0];
    INFLOG_CHECK(r.size() == kHotRows);
    for (size_t s = 1; s < r.num_shards(); ++s) {
      INFLOG_CHECK(r.ShardSize(s) == 0) << "R leaked into shard " << s;
    }
  }

  InflationaryOptions options;
  options.context.num_threads = threads;
  options.context.num_shards = 8;
  options.context.scheduler = scheduler;
  double tuples = 0, tasks = 0, steals = 0, splits = 0, slices = 0;
  double parks = 0, auto_static = 0, auto_stealing = 0;
  for (auto _ : state) {
    auto result = EvalInflationary(p, db, options);
    INFLOG_CHECK(result.ok());
    INFLOG_CHECK(result->state == baseline->state)
        << "skewed stage diverged from serial at threads=" << threads
        << " scheduler=" << StageSchedulerName(scheduler);
    INFLOG_CHECK(result->stage_sizes == baseline->stage_sizes);
    tuples = static_cast<double>(result->state.TotalTuples());
    tasks = static_cast<double>(result->stats.parallel_tasks);
    steals = static_cast<double>(result->stats.steals);
    splits = static_cast<double>(result->stats.splits);
    slices = static_cast<double>(result->stats.slices);
    parks = static_cast<double>(result->stats.parks);
    auto_static = static_cast<double>(result->stats.auto_static_stages);
    auto_stealing = static_cast<double>(result->stats.auto_stealing_stages);
  }
  // The whole point of auto on this workload: it must have flipped the
  // skewed stage to stealing, not merely matched its time by accident.
  if (scheduler == StageScheduler::kAuto && threads > 1) {
    INFLOG_CHECK(auto_stealing >= 1)
        << "auto scheduler failed to detect the hub skew";
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["scheduler"] = static_cast<double>(state.range(1));
  state.counters["hot_rows"] = static_cast<double>(kHotRows);
  state.counters["big_rows"] = static_cast<double>(big_rows);
  state.counters["tuples"] = tuples;
  state.counters["parallel_tasks"] = tasks;
  state.counters["steals"] = steals;
  state.counters["splits"] = splits;
  state.counters["slices"] = slices;
  state.counters["parks"] = parks;
  state.counters["auto_static"] = auto_static;
  state.counters["auto_stealing"] = auto_stealing;
}

BENCHMARK(BM_SkewedStageSchedulers)
    ->Args({1, 0})  // serial anchor
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({8, 0})  // static: hot slices serialize on few threads
    ->Args({8, 1})  // stealing: hot chunks split across all workers
    ->Args({8, 2})  // auto: must flip to stealing by itself (within 10%)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace inflog
