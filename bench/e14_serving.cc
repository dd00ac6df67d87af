// E14 — serving throughput: epoch snapshots + the delta-invalidated
// query cache.
//
// The serving layer (src/serve/) publishes immutable epoch snapshots so
// any number of reader threads answer `?...` queries lock-free while a
// writer applies updates, and memoizes answers in a cache keyed
// (canonical query, epoch) that update deltas invalidate precisely.
// This bench measures both claims:
//
//   * BM_ServeThroughput runs 1–8 reader threads, each cycling a fixed
//     mix of point/join/ground queries against pinned snapshots, with
//     the cache on and off. `queries_per_sec` is the headline rate; with
//     the cache on every key after the first round is a hit
//     (`cache_hit_rate` ≈ 1), so cache-on must beat cache-off — the
//     cached path skips the join entirely.
//   * BM_ServeUnderUpdates interleaves the same reader mix with a
//     writer applying net-zero single-edge update pairs: every pair
//     republishes two epochs and invalidates the touched component's
//     entries, so the counters expose the steady-state hit rate under
//     churn plus the per-epoch publish cost (`epochs`,
//     `cache_invalidations`).
//
// Correctness guard: at setup every query's answer is computed three
// ways — cache-on, cache-off, and straight EvalServeQuery against a pin
// — and all three renderings must match byte-for-byte. The readers then
// re-check every answer against the rendering recorded for their
// snapshot's epoch.

#include <benchmark/benchmark.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/strings.h"
#include "src/core/engine.h"
#include "src/serve/query.h"
#include "src/serve/serving.h"

namespace inflog {
namespace {

constexpr char kTc[] =
    "T(X,Y) :- E(X,Y).\n"
    "T(X,Z) :- T(X,Y), E(Y,Z).\n";

constexpr size_t kNodesPerRing = 16;
constexpr size_t kComponents = 64;  // 1024 edges, 16384 closure rows
constexpr size_t kQueriesPerThread = 256;

Value Node(SymbolTable* symbols, size_t c, size_t i) {
  return symbols->Intern(StrCat("n", c * kNodesPerRing + i));
}

std::string NodeName(size_t c, size_t i) {
  return StrCat("n", c * kNodesPerRing + i);
}

// Loads kComponents disjoint 16-node rings into the engine.
void LoadRings(Engine* engine) {
  INFLOG_CHECK(engine->LoadProgramText(kTc).ok());
  SymbolTable* symbols = engine->symbols().get();
  Database* db = engine->mutable_database();
  for (size_t c = 0; c < kComponents; ++c) {
    for (size_t i = 0; i < kNodesPerRing; ++i) {
      const Tuple edge{Node(symbols, c, i),
                       Node(symbols, c, (i + 1) % kNodesPerRing)};
      INFLOG_CHECK(db->AddFact("E", edge).ok());
    }
  }
}

// The reader mix: point lookups, a two-atom join, and ground probes,
// spread across components so the cache holds a handful of hot keys.
std::vector<std::string> QueryMix() {
  std::vector<std::string> mix;
  for (size_t c = 0; c < 4; ++c) {
    mix.push_back("?T(" + NodeName(c, 0) + ",X)");
    mix.push_back("?E(" + NodeName(c, 1) + ",X), T(X,Y)");
    mix.push_back("?T(" + NodeName(c, 2) + "," + NodeName(c, 5) + ")");
  }
  return mix;
}

// Answers every query in the mix and checks the rendering matches
// `expected` (empty map = record instead of check).
void VerifyMix(serve::ServingSession* session,
               const std::vector<std::string>& mix,
               std::map<std::string, std::string>* expected) {
  for (const std::string& q : mix) {
    auto outcome = session->Query(q);
    INFLOG_CHECK(outcome.ok()) << outcome.status().ToString();
    auto [it, inserted] =
        expected->emplace(q, outcome->answer.rendered);
    INFLOG_CHECK(inserted || it->second == outcome->answer.rendered)
        << "serving answer diverged for " << q;
  }
}

void BM_ServeThroughput(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const bool cache = state.range(1) != 0;
  Engine engine;
  LoadRings(&engine);
  EvalOptions options;
  options.serving.cache = cache;
  INFLOG_CHECK(engine.BeginServing(SemanticsKind::kStratified, options).ok());
  auto serving = engine.serving();
  INFLOG_CHECK(serving.ok());
  serve::ServingSession* session = *serving;

  const std::vector<std::string> mix = QueryMix();
  // Built-in verify: record each answer once, then re-derive it with the
  // cache bypassed (straight EvalServeQuery against a pin) and compare.
  std::map<std::string, std::string> expected;
  VerifyMix(session, mix, &expected);
  {
    const serve::SnapshotHandle snap = session->Pin();
    for (const std::string& q : mix) {
      auto parsed = serve::ParseServeQuery(q, snap->symbols());
      INFLOG_CHECK(parsed.ok());
      auto answer = serve::EvalServeQuery(*parsed, session->program(), *snap);
      INFLOG_CHECK(answer.ok());
      INFLOG_CHECK(expected.at(q) == answer->rendered)
          << "cached rendering diverged for " << q;
    }
  }

  size_t total_queries = 0;
  for (auto _ : state) {
    std::vector<std::thread> readers;
    readers.reserve(threads);
    std::atomic<size_t> failures{0};
    for (size_t t = 0; t < threads; ++t) {
      readers.emplace_back([&, t] {
        const serve::SnapshotHandle snap = session->Pin();
        for (size_t q = 0; q < kQueriesPerThread; ++q) {
          const std::string& line = mix[(q + t) % mix.size()];
          auto outcome = session->Query(line, snap);
          if (!outcome.ok() ||
              outcome->answer.rendered != expected.at(line)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& t : readers) t.join();
    INFLOG_CHECK(failures.load() == 0) << "reader answers diverged";
    total_queries += threads * kQueriesPerThread;
  }

  const EvalStats stats = session->stats();
  state.counters["serve_threads"] = static_cast<double>(threads);
  state.counters["cache"] = cache ? 1 : 0;
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(total_queries), benchmark::Counter::kIsRate);
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
  state.counters["cache_hit_rate"] =
      stats.serve_queries == 0
          ? 0
          : static_cast<double>(stats.cache_hits) /
                static_cast<double>(stats.serve_queries);
}
BENCHMARK(BM_ServeThroughput)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ServeUnderUpdates(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const bool cache = state.range(1) != 0;
  Engine engine;
  LoadRings(&engine);
  EvalOptions options;
  options.serving.cache = cache;
  INFLOG_CHECK(engine.BeginServing(SemanticsKind::kStratified, options).ok());
  auto serving = engine.serving();
  INFLOG_CHECK(serving.ok());
  serve::ServingSession* session = *serving;
  SymbolTable* symbols = engine.symbols().get();

  const std::vector<std::string> mix = QueryMix();
  // Per-epoch expected answers: epoch numbers are even at the rest state
  // (every delete/insert pair restores the database), so readers verify
  // only when their pin landed on a rest epoch.
  std::map<std::string, std::string> rest;
  VerifyMix(session, mix, &rest);

  // The churn pair: one ring edge in component 0 out and back in. Only
  // component 0's entries (and the shared-key T/E entries) invalidate.
  UpdateBatch del;
  del.deletes.emplace_back("E", Tuple{Node(symbols, 0, 3),
                                      Node(symbols, 0, 4)});
  UpdateBatch ins;
  ins.inserts = del.deletes;

  size_t total_queries = 0;
  size_t epochs = 0;
  for (auto _ : state) {
    std::atomic<bool> done{false};
    std::atomic<size_t> served{0};
    std::atomic<size_t> failures{0};
    std::vector<std::thread> readers;
    readers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      readers.emplace_back([&, t] {
        size_t q = t;
        while (!done.load(std::memory_order_acquire)) {
          const serve::SnapshotHandle snap = session->Pin();
          const std::string& line = mix[q++ % mix.size()];
          auto outcome = session->Query(line, snap);
          if (!outcome.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          } else if (snap->epoch() % 2 == 0 &&
                     outcome->answer.rendered != rest.at(line)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          served.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (size_t pair = 0; pair < 8; ++pair) {
      INFLOG_CHECK(engine.ApplyUpdate(del).ok());
      INFLOG_CHECK(engine.ApplyUpdate(ins).ok());
      epochs += 2;
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    INFLOG_CHECK(failures.load() == 0) << "reader answers diverged";
    total_queries += served.load();
  }

  const EvalStats stats = session->stats();
  state.counters["serve_threads"] = static_cast<double>(threads);
  state.counters["cache"] = cache ? 1 : 0;
  state.counters["epochs"] = static_cast<double>(epochs);
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(total_queries), benchmark::Counter::kIsRate);
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
  state.counters["cache_invalidations"] =
      static_cast<double>(stats.cache_invalidations);
}
BENCHMARK(BM_ServeUnderUpdates)
    ->ArgsProduct({{1, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace inflog
