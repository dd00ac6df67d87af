// E13 — incremental view maintenance under a mixed update stream.
//
// The incremental maintainer (src/eval/incremental.h) promises that a
// single-tuple EDB update costs O(|delta|) — the tuples whose support
// actually changes — instead of O(|database|), the price of re-running
// the fixpoint from scratch. This bench measures that promise on a
// transitive-closure workload big enough for the gap to matter:
//
//   * The database is `kComponents` disjoint 16-node directed rings, so
//     the materialized closure T holds components × 16² rows (the
//     default 512 × 256 = 131072 ≥ 64k) while any one update's
//     consequences stay inside a single component — exactly the regime
//     where maintenance should win.
//   * BM_UpdateStream applies a pre-generated stream of single-tuple
//     updates through Engine::ApplyUpdate: each step deletes one ring
//     edge (DRed: the component's closure shrinks to the chain closure)
//     and the next step re-inserts it (rederivation grows it back), with
//     every kChordEvery-th pair instead inserting and then deleting a
//     fresh chord edge. Pairs net to the identity, so every benchmark
//     iteration starts from the same database and maintained state.
//     Reported time is per ApplyUpdate call (amortized over the stream).
//   * BM_FullRecompute times one from-scratch stratified evaluation of
//     the same (program, database) — the baseline an update would cost
//     without maintenance. The `speedup_vs_recompute` counter on
//     BM_UpdateStream carries the measured ratio; the acceptance bar is
//     ≥ 10× at this database size.
//
// Correctness guards: after every iteration's stream the maintained
// state must equal the setup-time baseline (the stream nets to zero),
// and with INFLOG_E13_VERIFY=1 the setup additionally replays a slice of
// the stream in a verify_incremental session, cross-checking every
// update against the recompute oracle — the CI incremental-oracle job
// runs exactly that. Counters carry threads, edges, tc_rows, updates per
// iteration, and the cumulative incremental_* tallies into the JSON
// trajectory.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/strings.h"
#include "src/core/engine.h"

namespace inflog {
namespace {

constexpr char kTc[] =
    "T(X,Y) :- E(X,Y).\n"
    "T(X,Z) :- T(X,Y), E(Y,Z).\n";

constexpr size_t kNodesPerRing = 16;
constexpr size_t kUpdatesPerIter = 32;  // 16 delete/re-insert pairs
constexpr size_t kChordEvery = 4;       // every 4th pair is insert/delete

struct Workload {
  std::vector<std::pair<std::string, Tuple>> stream_del;  // pair step 1
  std::vector<std::pair<std::string, Tuple>> stream_ins;  // pair step 2
  size_t edges = 0;
};

// Interns node `i` of ring `c` and returns its symbol id.
Value Node(SymbolTable* symbols, size_t c, size_t i) {
  return symbols->Intern(StrCat("n", c * kNodesPerRing + i));
}

// Loads `components` disjoint rings into the engine's database and
// pre-generates the update stream (kUpdatesPerIter/2 pairs; each pair is
// applied as two single-tuple ApplyUpdate calls that together restore
// the database).
Workload Setup(Engine* engine, size_t components) {
  INFLOG_CHECK(engine->LoadProgramText(kTc).ok());
  SymbolTable* symbols = engine->symbols().get();
  Database* db = engine->mutable_database();
  for (size_t c = 0; c < components; ++c) {
    for (size_t i = 0; i < kNodesPerRing; ++i) {
      const Tuple edge{Node(symbols, c, i),
                       Node(symbols, c, (i + 1) % kNodesPerRing)};
      INFLOG_CHECK(db->AddFact("E", edge).ok());
    }
  }
  Workload w;
  w.edges = components * kNodesPerRing;
  Rng rng(components * 17 + 3);
  for (size_t u = 0; u < kUpdatesPerIter / 2; ++u) {
    const size_t c = rng.Uniform(components);
    if (u % kChordEvery == kChordEvery - 1) {
      // Chord pair: insert a fresh shortcut edge, then delete it.
      const size_t a = rng.Uniform(kNodesPerRing);
      const size_t b = (a + 2 + rng.Uniform(kNodesPerRing - 3)) %
                       kNodesPerRing;
      const Tuple chord{Node(symbols, c, a), Node(symbols, c, b)};
      w.stream_del.emplace_back("E", chord);  // applied second
      w.stream_ins.emplace_back("E", chord);  // applied first
    } else {
      // Ring pair: delete one ring edge (the component's closure decays
      // to the chain closure), then re-insert it.
      const size_t i = rng.Uniform(kNodesPerRing);
      const Tuple edge{Node(symbols, c, i),
                       Node(symbols, c, (i + 1) % kNodesPerRing)};
      w.stream_del.emplace_back("E", edge);  // applied first
      w.stream_ins.emplace_back("E", edge);  // applied second
    }
  }
  return w;
}

// Applies pair `u` of the stream as two single-tuple updates; chord
// pairs insert first, ring pairs delete first (Setup encoded the order).
void ApplyPair(Engine* engine, const Workload& w, size_t u) {
  const bool chord_pair = u % kChordEvery == kChordEvery - 1;
  const auto& first = chord_pair ? w.stream_ins[u] : w.stream_del[u];
  const auto& second = chord_pair ? w.stream_del[u] : w.stream_ins[u];
  auto r1 = chord_pair ? engine->ApplyUpdate({first}, {})
                       : engine->ApplyUpdate({}, {first});
  INFLOG_CHECK(r1.ok()) << r1.status().ToString();
  auto r2 = chord_pair ? engine->ApplyUpdate({}, {second})
                       : engine->ApplyUpdate({second}, {});
  INFLOG_CHECK(r2.ok()) << r2.status().ToString();
}

void BM_UpdateStream(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t components = static_cast<size_t>(state.range(1));
  Engine engine;
  const Workload w = Setup(&engine, components);

  EvalOptions options;
  options.num_threads = threads;

  // Oracle slice: with INFLOG_E13_VERIFY=1, replay the stream once in a
  // verify session — every ApplyUpdate is cross-checked against a
  // from-scratch evaluation (and the pairs restore the database for the
  // timed sweep below).
  const char* verify_env = std::getenv("INFLOG_E13_VERIFY");
  if (verify_env != nullptr && std::string(verify_env) == "1") {
    EvalOptions verify = options;
    verify.verify_incremental = true;
    INFLOG_CHECK(engine.BeginIncremental(SemanticsKind::kStratified, verify)
                     .ok());
    for (size_t u = 0; u < w.stream_del.size(); ++u) {
      ApplyPair(&engine, w, u);
    }
  }

  // Baseline for the per-iteration equality guard and the speedup
  // counter: one from-scratch evaluation of the loaded database.
  auto full_start = std::chrono::steady_clock::now();
  auto baseline = engine.Evaluate(SemanticsKind::kStratified, options);
  auto full_end = std::chrono::steady_clock::now();
  INFLOG_CHECK(baseline.ok()) << baseline.status().ToString();
  const double full_us =
      std::chrono::duration<double, std::micro>(full_end - full_start)
          .count();

  INFLOG_CHECK(
      engine.BeginIncremental(SemanticsKind::kStratified, options).ok());
  double update_ns = 0;
  size_t updates = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t u = 0; u < w.stream_del.size(); ++u) {
      ApplyPair(&engine, w, u);
    }
    const auto t1 = std::chrono::steady_clock::now();
    update_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    updates += 2 * w.stream_del.size();
    auto st = engine.IncrementalState();
    INFLOG_CHECK(st.ok());
    INFLOG_CHECK((*st)->TotalTuples() == baseline->state().TotalTuples() &&
                 **st == baseline->state())
        << "maintained state diverged after a net-zero update stream";
  }
  const double per_update_us = updates == 0 ? 0 : update_ns / 1e3 / updates;

  auto stats = engine.IncrementalStats();
  INFLOG_CHECK(stats.ok());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["edges"] = static_cast<double>(w.edges);
  state.counters["tc_rows"] =
      static_cast<double>(baseline->state().TotalTuples());
  state.counters["updates_per_iter"] =
      static_cast<double>(2 * w.stream_del.size());
  state.counters["amortized_update_us"] = per_update_us;
  state.counters["full_recompute_us"] = full_us;
  state.counters["speedup_vs_recompute"] =
      per_update_us == 0 ? 0 : full_us / per_update_us;
  state.counters["oracle_runs"] =
      static_cast<double>((*stats)->incremental_oracle_runs);
  state.counters["dred_units"] =
      static_cast<double>((*stats)->incremental_dred_units);
  state.counters["idb_deleted"] =
      static_cast<double>((*stats)->incremental_idb_deleted);
  state.counters["idb_inserted"] =
      static_cast<double>((*stats)->incremental_idb_inserted);
}
BENCHMARK(BM_UpdateStream)
    ->Args({1, 512})  // 8192 edges, 131072 closure rows — the ≥64k point
    ->Args({1, 64})   // small anchor: 1024 edges, 16384 rows
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FullRecompute(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t components = static_cast<size_t>(state.range(1));
  Engine engine;
  const Workload w = Setup(&engine, components);
  EvalOptions options;
  options.num_threads = threads;
  double tuples = 0;
  for (auto _ : state) {
    auto result = engine.Evaluate(SemanticsKind::kStratified, options);
    INFLOG_CHECK(result.ok()) << result.status().ToString();
    tuples = static_cast<double>(result->state().TotalTuples());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["edges"] = static_cast<double>(w.edges);
  state.counters["tc_rows"] = tuples;
}
BENCHMARK(BM_FullRecompute)
    ->Args({1, 512})
    ->Args({1, 64})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace inflog
