// serve: one ServingSession (stratified, default tuning: cache on,
// compaction threshold 0.3), fed like `inflog_cli --serve` at
// --serve-threads=1. Each round applies one update line, then answers one
// group of G queries against one pinned snapshot.
//
// The program has a recursive unit maintained by DRed (T), non-recursive
// units maintained by counting over the updated relation (H, and Acyc,
// which negates T), and a unit over a relation no update touches (K over
// L), whose cache entries survive across epochs. Every update has the
// same shape: delete one ring edge and restore the edge the previous
// round deleted, so the state stays stationary and the update latency
// unimodal. A cycle opens with a delete-only round and closes with a
// restore-only round, after which the database is back at its initial
// state and the maintained state must equal a from-scratch evaluation.
//
// Untraced runs drive the session through Engine::BeginServing and
// ServingSession. Traced runs call the layers themselves, in the order
// ServingSession does (updates: apply, compact, publish, cache advance;
// queries: pin, parse, lookup, eval, insert), so that each call is a
// span; both paths must reach the same epochs, answers and counters.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness/workloads.h"
#include "src/core/engine.h"
#include "src/eval/incremental.h"
#include "src/serve/cache.h"
#include "src/serve/query.h"
#include "src/serve/serving.h"
#include "src/serve/snapshot.h"

namespace perfbench {
namespace {

constexpr char kProgram[] =
    "T(X,Y) :- E(X,Y).\n"
    "T(X,Y) :- T(X,Z), E(Z,Y).\n"
    "H(X,Y) :- E(X,Z), E(Z,Y).\n"
    "Acyc(X) :- V(X), !T(X,X).\n"
    "K(X,Y) :- L(X,Z), L(Z,Y).\n";

struct Sizes {
  size_t rings;          ///< Rings in E.
  size_t ring_len;       ///< Vertices per ring.
  size_t labels;         ///< Vertices of the static graph L.
  size_t label_out;      ///< Out-degree of every vertex of L.
  size_t pool;           ///< Queries the groups draw from.
  size_t group;          ///< Queries per group (G), all on one pin.
  size_t cycle;          ///< Swap rounds per cycle (plus open and close).
  size_t warmup_cycles;  ///< Untimed cycles before the window.
  size_t check_cycles;   ///< Cycles whose counts form the fingerprint.
  size_t replay;         ///< Rounds replayed under verify_incremental.
};

// The query traffic is taken from published or existing serving loads
// rather than tuned: the pool has YCSB's default record count (1000) and
// is drawn with YCSB's Zipfian constant (0.99), the skew of its core
// workloads (Cooper et al., SoCC 2010); a group is E14's 256 queries per
// pinned snapshot.
constexpr double kZipfExponent = 0.99;

Sizes SizesFor(bool smoke) {
  if (smoke) return Sizes{8, 6, 16, 2, 27, 8, 6, 1, 2, 4};
  return Sizes{128, 16, 256, 2, 1000, 256, 62, 6, 4, 8};
}

size_t Vertex(const Sizes& s, size_t ring, size_t i) {
  return ring * s.ring_len + i + 1;
}
constexpr size_t kLabelBase = 1000000;

struct Inputs {
  std::string facts;
  std::vector<std::string> pool;
  std::vector<double> cdf;  ///< Zipf(kZipfExponent) over the pool.
};

Inputs Generate(uint64_t seed, const Sizes& s) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5e7e);
  Inputs in;
  for (size_t r = 0; r < s.rings; ++r) {
    for (size_t i = 0; i < s.ring_len; ++i) {
      in.facts += "E(" + std::to_string(Vertex(s, r, i)) + "," +
                  std::to_string(Vertex(s, r, (i + 1) % s.ring_len)) + ").\n";
      in.facts += "V(" + std::to_string(Vertex(s, r, i)) + ").\n";
    }
  }
  // A fixed out-degree keeps K's answer sizes, and so the query cost, the
  // same for every seed.
  for (size_t v = 0; v < s.labels; ++v) {
    for (size_t k = 0; k < s.label_out; ++k) {
      in.facts += "L(" + std::to_string(kLabelBase + v) + "," +
                  std::to_string(kLabelBase + rng.Below(s.labels)) + ").\n";
    }
  }
  const auto label = [&] {
    return std::to_string(kLabelBase + rng.Below(s.labels));
  };
  // E14's three query shapes (a ground probe, a selection and a two-atom
  // join) over each unit: T (DRed), H (counting) and K (untouched by
  // updates). Kinds go round-robin by popularity rank, so the hot end of
  // the Zipf draw has the same mix of kinds whatever the seed.
  for (size_t q = 0; q < s.pool; ++q) {
    const size_t ring = rng.Below(s.rings);
    const size_t i = rng.Below(s.ring_len);
    const std::string a = std::to_string(Vertex(s, ring, i));
    const std::string b =
        std::to_string(Vertex(s, ring, (i + 1 + rng.Below(s.ring_len - 1)) %
                                           s.ring_len));
    const std::string c = std::to_string(Vertex(s, ring, (i + 2) % s.ring_len));
    switch (q % 9) {
      case 0: in.pool.push_back("?T(" + a + "," + b + ")"); break;
      case 1: in.pool.push_back("?T(" + a + ",X)"); break;
      case 2: in.pool.push_back("?E(" + a + ",X), T(X,Y)"); break;
      case 3: in.pool.push_back("?H(" + a + "," + c + ")"); break;
      case 4: in.pool.push_back("?H(" + a + ",X)"); break;
      case 5: in.pool.push_back("?E(" + a + ",X), H(X,Y)"); break;
      case 6: in.pool.push_back("?K(" + label() + "," + label() + ")"); break;
      case 7: in.pool.push_back("?K(" + label() + ",X)"); break;
      default: in.pool.push_back("?L(" + label() + ",X), K(X,Y)"); break;
    }
  }
  double total = 0;
  for (size_t i = 0; i < s.pool; ++i) {
    total += std::pow(static_cast<double>(i + 1), -kZipfExponent);
    in.cdf.push_back(total);
  }
  for (double& c : in.cdf) c /= total;
  return in;
}

// One round of the fixed sequence: an update line and a query group.
struct Round {
  std::string update;
  std::vector<size_t> queries;  ///< Indices into the pool.
};

// The rounds of cycle `c`: a delete-only round, swap rounds deleting an
// edge of another ring than the previous one, and a restore-only round.
std::vector<Round> CycleRounds(uint64_t seed, size_t c, const Sizes& s,
                               const Inputs& in) {
  Rng rng((seed + 1) * 0xD1B54A32D192ED03ULL + c);
  const auto edge = [&](size_t ring, size_t i) {
    return "E(" + std::to_string(Vertex(s, ring, i)) + "," +
           std::to_string(Vertex(s, ring, (i + 1) % s.ring_len)) + ")";
  };
  const auto draw = [&] {
    std::vector<size_t> q(s.group);
    for (size_t& x : q) {
      const auto it =
          std::lower_bound(in.cdf.begin(), in.cdf.end() - 1, rng.Uniform());
      x = static_cast<size_t>(it - in.cdf.begin());
    }
    return q;
  };
  std::vector<Round> rounds;
  size_t prev_ring = s.rings;
  std::string prev;
  for (size_t j = 0; j <= s.cycle + 1; ++j) {
    Round round;
    if (j <= s.cycle) {
      size_t ring = rng.Below(s.rings);
      while (ring == prev_ring) ring = rng.Below(s.rings);
      const std::string e = edge(ring, rng.Below(s.ring_len));
      round.update = "-" + e + (prev.empty() ? "" : " +" + prev);
      prev = e;
      prev_ring = ring;
    } else {
      round.update = "+" + prev;
    }
    round.queries = draw();
    rounds.push_back(std::move(round));
  }
  return rounds;
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// The workload's one client: its writer and reader calls into a serving
// session. Untraced runs go through the ServingSession the engine owns;
// traced runs through the layers it is built from, each call in a span.
class Client {
 public:
  Client(inflog::Engine* engine, bool decomposed, Tracer* tracer)
      : engine_(engine), decomposed_(decomposed), tracer_(tracer) {}

  inflog::Status Begin() {
    if (!decomposed_) {
      INFLOG_RETURN_IF_ERROR(
          engine_->BeginServing(inflog::SemanticsKind::kStratified));
      session_ = *engine_->serving();
      return inflog::Status::OK();
    }
    // Engine::BeginServing's option mapping at the default EvalOptions.
    const inflog::EvalOptions defaults;
    inflog::IncrementalOptions inc;
    inc.semantics = inflog::MaintainedSemantics::kStratified;
    inc.use_seminaive = defaults.stratified.use_seminaive;
    inc.context.num_threads = defaults.num_threads;
    inc.context.num_shards = defaults.num_shards;
    inc.context.scheduler = defaults.scheduler;
    inc.context.optimizer_passes = defaults.optimizer_passes;
    {
      ScopedSpan span(tracer_, "eval.begin_incremental");
      auto created = inflog::IncrementalSession::Create(
          **engine_->program(), engine_->mutable_database(), inc);
      if (!created.ok()) return created.status();
      incremental_ = std::move(created).value();
    }
    ScopedSpan span(tracer_, "serve.publish_initial");
    registry_.Publish(incremental_->program(), engine_->database(),
                      incremental_->state(), nullptr, Stats());
    return inflog::Status::OK();
  }

  /// One update line, from the call until the next epoch is published.
  inflog::Result<inflog::UpdateResult> Update(const std::string& line,
                                              Samples* compact_ms) {
    inflog::Result<inflog::UpdateBatch> batch = [&] {
      ScopedSpan span(tracer_, "eval.parse_update");
      return inflog::ParseUpdateLine(line, engine_->symbols().get());
    }();
    if (!batch.ok()) return batch.status();
    if (!decomposed_) return session_->ApplyUpdate(*batch);
    inflog::Result<inflog::UpdateResult> result = [&] {
      ScopedSpan span(tracer_, "eval.apply_update");
      return incremental_->ApplyUpdate(*batch);
    }();
    if (!result.ok()) return result;
    ++updates_;
    {
      const int64_t start = NowNs();
      ScopedSpan span(tracer_, "relation.compact");
      const size_t n = incremental_->CompactDeadRelations(
          inflog::serve::ServingTuning{}.compact_threshold);
      compactions_ += n;
      if (n > 0 && tracer_->enabled()) compact_ms->Add(MsSince(start));
    }
    uint64_t epoch = 0;
    {
      ScopedSpan span(tracer_, "serve.publish");
      epoch = registry_.Publish(incremental_->program(), engine_->database(),
                                incremental_->state(),
                                &result->changed_relations, Stats());
    }
    ScopedSpan span(tracer_, "serve.cache_advance");
    cache_.Advance(&result->changed_relations, epoch);
    return result;
  }

  inflog::serve::SnapshotHandle Pin() {
    if (!decomposed_) return session_->Pin();
    ScopedSpan span(tracer_, "serve.pin");
    return registry_.Pin();
  }

  inflog::Result<inflog::serve::QueryOutcome> Query(
      const std::string& line, const inflog::serve::SnapshotHandle& snap) {
    if (!decomposed_) return session_->Query(line, snap);
    inflog::Result<inflog::serve::ServeQuery> query = [&] {
      ScopedSpan span(tracer_, "serve.parse_query");
      return inflog::serve::ParseServeQuery(line, snap->symbols());
    }();
    if (!query.ok()) return query.status();
    inflog::serve::QueryOutcome out;
    out.epoch = snap->epoch();
    ++queries_;
    std::optional<inflog::serve::ServeAnswer> cached = [&] {
      ScopedSpan span(tracer_, "serve.cache_lookup");
      return cache_.Lookup(query->key, out.epoch);
    }();
    if (cached.has_value()) {
      out.cache_hit = true;
      out.answer = std::move(*cached);
      return out;
    }
    inflog::Result<inflog::serve::ServeAnswer> answer = [&] {
      ScopedSpan span(tracer_, "serve.eval_query");
      return inflog::serve::EvalServeQuery(*query, incremental_->program(),
                                           *snap);
    }();
    if (!answer.ok()) return answer.status();
    out.answer = std::move(answer).value();
    ScopedSpan span(tracer_, "serve.cache_insert");
    cache_.Insert(query->key, out.epoch, query->support, out.answer);
    return out;
  }

  /// The session's composite counters, as ServingSession::stats() builds
  /// them (the decomposed path freezes the same block into snapshots).
  inflog::EvalStats Stats() const {
    if (!decomposed_) return session_->stats();
    inflog::EvalStats st = incremental_->cumulative_stats();
    st.serve_epochs_published = registry_.epochs_published();
    st.serve_snapshots_pinned = registry_.pins();
    st.serve_queries = queries_;
    st.serve_updates = updates_;
    st.serve_compactions = compactions_;
    st.cache_hits = cache_.hits();
    st.cache_misses = cache_.misses();
    st.cache_invalidations = cache_.invalidations();
    return st;
  }

  const inflog::IncrementalSession& incremental() const {
    return decomposed_ ? *incremental_ : session_->incremental();
  }
  const inflog::serve::SnapshotRegistry& registry() const {
    return decomposed_ ? registry_ : session_->registry();
  }
  const inflog::Program& program() const { return incremental().program(); }

 private:
  inflog::Engine* engine_;
  bool decomposed_;
  Tracer* tracer_;
  inflog::serve::ServingSession* session_ = nullptr;
  std::unique_ptr<inflog::IncrementalSession> incremental_;
  inflog::serve::SnapshotRegistry registry_;
  inflog::serve::QueryCache cache_;
  uint64_t queries_ = 0;
  uint64_t updates_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace

Outcome RunServe(const Options& o, Tracer* tracer) {
  Outcome out;
  const Sizes s = SizesFor(o.smoke);
  const Inputs in = Generate(o.seed, s);
  out.context["sizes"] =
      "{\"rings\":" + std::to_string(s.rings) +
      ",\"ring_len\":" + std::to_string(s.ring_len) +
      ",\"label_vertices\":" + std::to_string(s.labels) +
      ",\"label_out_degree\":" + std::to_string(s.label_out) +
      ",\"query_pool\":" + std::to_string(s.pool) +
      ",\"group\":" + std::to_string(s.group) +
      ",\"rounds_per_cycle\":" + std::to_string(s.cycle + 2) +
      ",\"warmup_cycles\":" + std::to_string(s.warmup_cycles) +
      ",\"check_cycles\":" + std::to_string(s.check_cycles) + "}";
  out.context["config"] =
      "{\"semantics\":\"stratified\",\"threads\":1,\"shards\":1,"
      "\"serve_threads\":1,\"cache\":true,\"compact_threshold\":0.3,"
      "\"update_batch\":1,\"path\":" +
      std::string(o.trace ? "\"layers called directly\""
                          : "\"ServingSession\"") +
      "}";

  // The baseline: a from-scratch stratified evaluation of the initial
  // database, which the maintained state must equal at every cycle end.
  inflog::Engine oracle;
  inflog::Status status = LoadEngine(kProgram, in.facts, tracer, &oracle);
  if (!status.ok()) {
    out.SetupFail("oracle load: " + status.ToString());
    return out;
  }
  inflog::Result<inflog::EvalOutcome> baseline =
      oracle.Evaluate(inflog::SemanticsKind::kStratified);
  if (!baseline.ok()) {
    out.SetupFail("baseline: " + baseline.status().ToString());
    return out;
  }
  out.context["idb_tuples"] = std::to_string(baseline->state().TotalTuples());

  // A short replay of the sequence with every update cross-checked by the
  // library against a full recompute.
  {
    inflog::Engine replay;
    inflog::EvalOptions verify;
    verify.verify_incremental = true;
    status = LoadEngine(kProgram, in.facts, tracer, &replay);
    if (status.ok()) {
      status = replay.BeginServing(inflog::SemanticsKind::kStratified, verify);
    }
    const std::vector<Round> rounds = CycleRounds(o.seed, 0, s, in);
    for (size_t r = 0; status.ok() && r < s.replay; ++r) {
      auto batch = inflog::ParseUpdateLine(rounds[r].update,
                                           replay.symbols().get());
      status =
          batch.ok() ? replay.ApplyUpdate(*batch).status() : batch.status();
    }
    if (!status.ok()) {
      out.SetupFail("verify_incremental replay: " + status.ToString());
      return out;
    }
  }

  uint32_t setup_op = kSetupOpBase;
  inflog::Engine engine;
  Client client(&engine, o.trace, tracer);
  status = TimeSetup(
      [&] {
        INFLOG_RETURN_IF_ERROR(LoadEngine(kProgram, in.facts, tracer, &engine));
        return client.Begin();
      },
      o.trace, tracer, &setup_op, &out);
  if (!status.ok()) {
    out.SetupFail("begin serving: " + status.ToString());
    return out;
  }

  const size_t rounds_per_cycle = s.cycle + 2;
  const size_t warmup = s.warmup_cycles * rounds_per_cycle;
  const size_t window_end = warmup + s.check_cycles * rounds_per_cycle;
  Samples compact_ms, sealed, shared, live, amplification;
  inflog::EvalStats window;  // update counters over the check window
  inflog::EvalStats at_start;  // session counters when the window opens
  uint64_t answer_rows = 0, answers = 0, answer_hash = 0xcbf29ce484222325ULL;
  uint64_t sealed_total = 0;
  inflog::serve::SnapshotHandle prev = client.Pin();
  std::vector<Round> cycle;
  std::optional<Schedule> schedule;  // opens with the timed window
  size_t measured = 0;
  for (size_t r = 0;; ++r) {
    const bool timed = r >= warmup;
    if (r == warmup) {
      schedule.emplace(o.seconds, kSpreadSetups, kMinSamples);
      at_start = client.Stats();
    }
    if (timed && r >= window_end && schedule->Done(measured)) break;
    if (timed && schedule->SetupDue()) {
      TimeColdSetups(
          [&] {
            inflog::Engine cold;
            INFLOG_RETURN_IF_ERROR(
                LoadEngine(kProgram, in.facts, tracer, &cold));
            return cold.BeginServing(inflog::SemanticsKind::kStratified);
          },
          o.trace, tracer, &setup_op, &out);
    }
    if (r % rounds_per_cycle == 0) {
      cycle = CycleRounds(o.seed, r / rounds_per_cycle, s, in);
    }
    const Round& round = cycle[r % rounds_per_cycle];
    const bool traced = o.trace && timed && r % 2 == 0;
    const uint64_t epoch_before = client.registry().epoch();

    tracer->set_enabled(traced);
    tracer->set_op(static_cast<uint32_t>(2 * r));
    const int64_t start = NowNs();
    inflog::Result<inflog::UpdateResult> update = [&] {
      ScopedSpan span(tracer, "op.update");
      return client.Update(round.update, &compact_ms);
    }();
    const int64_t mid = NowNs();
    tracer->set_op(static_cast<uint32_t>(2 * r + 1));
    std::vector<inflog::Result<inflog::serve::QueryOutcome>> got;
    got.reserve(round.queries.size());
    inflog::serve::SnapshotHandle snap;
    {
      ScopedSpan span(tracer, "op.query");
      snap = client.Pin();
      for (const size_t q : round.queries) {
        got.push_back(client.Query(in.pool[q], snap));
      }
    }
    const double round_ms = MsSince(start);
    const double query_ms = static_cast<double>(NowNs() - mid) / 1e6;
    tracer->set_enabled(false);

    // Verification, outside the timed interval.
    std::string update_error;
    if (!update.ok()) {
      update_error = update.status().ToString();
    } else if (update->used_oracle ||
               client.Stats().incremental_oracle_runs != 0) {
      update_error = "update fell back to the recompute oracle";
    } else if (client.registry().epoch() != epoch_before + 1) {
      update_error = "epoch did not advance by one";
    }
    std::string query_error;
    for (size_t i = 0; i < got.size() && query_error.empty(); ++i) {
      const std::string& line = in.pool[round.queries[i]];
      if (!got[i].ok()) {
        query_error = line + ": " + got[i].status().ToString();
        continue;
      }
      auto parsed = inflog::serve::ParseServeQuery(line, snap->symbols());
      auto fresh = parsed.ok() ? inflog::serve::EvalServeQuery(
                                     *parsed, client.program(), *snap)
                               : inflog::Result<inflog::serve::ServeAnswer>(
                                     parsed.status());
      if (!fresh.ok() || got[i]->epoch != snap->epoch() ||
          fresh->rendered != got[i]->answer.rendered) {
        query_error = line + ": answer differs from an uncached evaluation";
      }
    }
    if (timed) {
      out.attempted += 2;
      out.AddOp(query_ms, round_ms, o.trace, traced);
      ++measured;
      const std::string round_name = "round " + std::to_string(r);
      if (!update_error.empty()) {
        out.OpFail(round_name + " update: " + update_error);
      }
      if (!query_error.empty()) {
        out.OpFail(round_name + " query: " + query_error);
      }
    } else if (!update_error.empty() || !query_error.empty()) {
      out.SetupFail("warm-up round " + std::to_string(r) + ": " +
                    update_error + query_error);
    }
    if (!update.ok()) break;  // the session may be inconsistent now

    if (timed && r < window_end) {
      window.Add(update->stats);
      uint64_t rows = 0, reused = 0;
      for (const auto& [name, rel] : snap->edb()) {
        const auto it = prev->edb().find(name);
        if (it != prev->edb().end() && it->second == rel) {
          ++reused;
        } else {
          rows += rel->size();
        }
      }
      for (size_t i = 0; i < snap->idb().size(); ++i) {
        if (i < prev->idb().size() && prev->idb()[i] == snap->idb()[i]) {
          ++reused;
        } else {
          rows += snap->idb()[i]->size();
        }
      }
      const inflog::EvalStats& u = update->stats;
      const uint64_t net =
          u.incremental_edb_inserted + u.incremental_edb_deleted +
          u.incremental_idb_inserted + u.incremental_idb_deleted;
      sealed.Add(static_cast<double>(rows));
      sealed_total += rows;
      shared.Add(static_cast<double>(reused));
      live.Add(static_cast<double>(client.registry().live_snapshots()));
      amplification.Add(net == 0 ? 0.0
                                 : static_cast<double>(rows) /
                                       static_cast<double>(net));
      for (const auto& g : got) {
        answer_rows += g->answer.rows.size();
        answer_hash = Fnv(answer_hash, g->answer.rendered);
        ++answers;
      }
      if (r + 1 == window_end) {
        const inflog::EvalStats st = client.Stats();
        const uint64_t hits = st.cache_hits - at_start.cache_hits;
        const uint64_t misses = st.cache_misses - at_start.cache_misses;
        const uint64_t invalidations =
            st.cache_invalidations - at_start.cache_invalidations;
        const uint64_t compactions =
            st.serve_compactions - at_start.serve_compactions;
        const double updates = static_cast<double>(window_end - warmup);
        const auto per_update = [&](uint64_t v) {
          return static_cast<double>(v) / updates;
        };
        const auto ratio = [](uint64_t a, uint64_t b) {
          return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
        };
        AddExecutorLayer(window, updates, &out);
        AddExecutorFingerprint(window, "eval.", &out);
        std::map<std::string, double>& l = out.layer;
        l["eval.del_candidates"] =
            per_update(window.incremental_del_candidates);
        l["eval.rederived"] = per_update(window.incremental_rederived);
        l["eval.recounted"] = per_update(window.incremental_recounted);
        l["eval.idb_churn"] = per_update(window.incremental_idb_inserted +
                                         window.incremental_idb_deleted);
        l["eval.rederived_per_candidate"] = ratio(
            window.incremental_rederived, window.incremental_del_candidates);
        l["eval.oracle_runs"] = static_cast<double>(st.incremental_oracle_runs);
        l["relation.compactions"] = per_update(compactions) * 1000.0;
        l["serve.sealed_rows"] = sealed.Mean();
        l["serve.seal_amplification"] = amplification.Mean();
        l["serve.shared_relations"] = shared.Mean();
        l["serve.cache_hit_ratio"] = ratio(hits, hits + misses);
        l["serve.cache_invalidations"] = per_update(invalidations);
        l["serve.answer_rows"] = ratio(answer_rows, answers);
        const std::pair<const char*, uint64_t> counts[] = {
            {"del_candidates", window.incremental_del_candidates},
            {"rederived", window.incremental_rederived},
            {"recounted", window.incremental_recounted},
            {"idb_inserted", window.incremental_idb_inserted},
            {"idb_deleted", window.incremental_idb_deleted},
            {"edb_inserted", window.incremental_edb_inserted},
            {"edb_deleted", window.incremental_edb_deleted},
            {"oracle_runs", st.incremental_oracle_runs},
            {"cache_hits", hits},
            {"cache_misses", misses},
            {"cache_invalidations", invalidations},
            {"compactions", compactions},
            {"epoch", client.registry().epoch()},
            {"sealed_rows", sealed_total},
            {"answer_rows", answer_rows},
            {"answer_hash", answer_hash},
        };
        for (const auto& [name, value] : counts) {
          out.fingerprint[std::string("serve.") + name] = std::to_string(value);
        }
      }
    }
    prev = std::move(snap);

    // The last round of a cycle restores the initial database.
    if (r % rounds_per_cycle == rounds_per_cycle - 1 &&
        client.incremental().state() != baseline->state()) {
      const std::string msg = "cycle " + std::to_string(r / rounds_per_cycle) +
                              ": maintained state differs from the baseline";
      if (timed) {
        out.OpFail(msg);
      } else {
        out.SetupFail(msg);
      }
    }
  }

  out.layer["serve.live_snapshots"] = live.Mean();
  if (o.trace) {
    const auto ms = [&](const char* name, double q) {
      return tracer->PerCallMs(name).Quantile(q);
    };
    const auto us = [&](const char* name, double q) {
      return ms(name, q) * 1e3;
    };
    std::map<std::string, double>& l = out.layer;
    l["serve.update_ms.p10"] = ms("op.update", 0.1);
    l["serve.update_ms.p50"] = ms("op.update", 0.5);
    l["eval.parse_update_us"] = us("eval.parse_update", 0.5);
    l["eval.apply_update_ms.p10"] = ms("eval.apply_update", 0.1);
    l["eval.apply_update_ms.p50"] = ms("eval.apply_update", 0.5);
    l["relation.compact_ms.p50"] = compact_ms.Quantile(0.5);
    l["serve.publish_ms.p10"] = ms("serve.publish", 0.1);
    l["serve.publish_ms.p50"] = ms("serve.publish", 0.5);
    l["serve.cache_advance_us"] = us("serve.cache_advance", 0.5);
    l["serve.pin_us"] = us("serve.pin", 0.5);
    l["serve.parse_query_us"] = us("serve.parse_query", 0.5);
    l["serve.cache_lookup_us"] = us("serve.cache_lookup", 0.5);
    l["serve.eval_query_us.p10"] = us("serve.eval_query", 0.1);
    l["serve.eval_query_us.p50"] = us("serve.eval_query", 0.5);
    l["serve.cache_insert_us"] = us("serve.cache_insert", 0.5);
    l["ast.parse_program_ms"] = ms("ast.parse_program", 0.5);
    l["ast.parse_facts_ms"] = ms("ast.parse_facts", 0.5);
    out.child_coverage = std::min(tracer->MedianChildCoverage("op.update"),
                                  tracer->MedianChildCoverage("op.query"));
    out.context["compactions_timed"] = std::to_string(compact_ms.size());
  }
  return out;
}

}  // namespace perfbench
