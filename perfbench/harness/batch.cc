// batch and batch-par: one caller re-evaluates a loaded Engine with
// Evaluate(kInflationary), the paper's proposal and the CLI default.
//
// batch runs at the library default (1 thread, 1 shard): the relational
// executor, the relation indexes and the plan passes do all the work and
// no thread-pool, grounder, SAT or serving code runs. batch-par runs the
// same program and data at the CLI's default parallel configuration
// (threads = hardware concurrency, shards and scheduler auto), the only
// workload that exercises base::ThreadPool, the static and stealing
// stage schedulers and the shard-wise merges.

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness/workloads.h"
#include "src/core/engine.h"

namespace perfbench {
namespace {

// Recursion (T), a three-atom join (Tri), negation on an IDB predicate
// read at the current stage (New: pairs reached one hop beyond the
// closure so far, which only the inflationary reading defines), and
// negation on the EDB (Far).
constexpr char kProgram[] =
    "T(X,Y) :- E(X,Y).\n"
    "T(X,Y) :- T(X,Z), E(Z,Y).\n"
    "Tri(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).\n"
    "New(X,Y) :- T(X,Z), E(Z,Y), !T(X,Y).\n"
    "Far(X,Y) :- T(X,Y), !E(X,Y).\n";

struct Sizes {
  size_t components;    ///< Plain components.
  size_t vertices;      ///< Vertices per plain component.
  size_t edges;         ///< Edges per plain component.
  size_t hubs;          ///< Hub-heavy components.
  size_t hub_vertices;  ///< Vertices per hub component.
};

Sizes SizesFor(bool smoke) {
  if (smoke) return Sizes{16, 16, 24, 1, 96};
  return Sizes{48, 32, 48, 2, 96};
}

// Every component is strongly connected (a Hamiltonian cycle through a
// seeded permutation) plus seeded chords up to a fixed edge count. The
// closure is then all n^2 pairs and the semi-naive join work is n * m per
// component whatever the seed, so seeds change the inputs but not the
// amount of work. A hub component links one vertex to and from every
// other vertex of its component: the contiguous run of delta rows that
// reach the hub each probe a posting list as long as the component, the
// skew that makes the auto scheduler pick stealing for the stages that
// carry those rows, while the plain components' stages stay static.
std::string GenerateFacts(uint64_t seed, const Sizes& s) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 0xba7c4);
  std::string text;
  std::set<std::pair<size_t, size_t>> edges;
  size_t base = 1;
  const auto add = [&](size_t a, size_t b) {
    if (a == b || !edges.insert({a, b}).second) return false;
    text += "E(" + std::to_string(a) + "," + std::to_string(b) + ").\n";
    return true;
  };
  const auto component = [&](size_t n, size_t m, bool hub) {
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = base + i;
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.Below(i + 1)]);
    }
    size_t count = 0;
    for (size_t i = 0; i < n; ++i) {
      count += add(perm[i], perm[(i + 1) % n]);
      if (hub && i > 0) count += add(perm[i], perm[0]) + add(perm[0], perm[i]);
    }
    while (count < m) count += add(base + rng.Below(n), base + rng.Below(n));
    base += n;
  };
  for (size_t c = 0; c < s.components; ++c) {
    component(s.vertices, s.edges, false);
  }
  for (size_t h = 0; h < s.hubs; ++h) {
    component(s.hub_vertices, 3 * s.hub_vertices, true);
  }
  return text;
}

// Why an evaluation disagrees with the reference, or "" when it agrees.
std::string Disagreement(const inflog::Result<inflog::EvalOutcome>& got,
                         const inflog::EvalOutcome& ref) {
  if (!got.ok()) return "evaluation failed: " + got.status().ToString();
  if (got->state() != ref.state()) return "state differs from the reference";
  const inflog::EvalStats& a = *got->stats();
  const inflog::EvalStats& b = *ref.stats();
  if (a.rows_matched != b.rows_matched || a.derivations != b.derivations ||
      a.new_tuples != b.new_tuples || a.stages != b.stages) {
    return "counters differ from the reference: rows_matched " +
           std::to_string(a.rows_matched) + " vs " +
           std::to_string(b.rows_matched) + ", derivations " +
           std::to_string(a.derivations) + " vs " +
           std::to_string(b.derivations);
  }
  return "";
}

// Why an evaluation's parallel dispatch does not fit its configuration,
// or "" when it does: batch dispatches nothing in parallel, and batch-par
// runs both the static and the stealing stage scheduler (a host with a
// single hardware thread cannot run batch-par at all).
std::string DispatchMismatch(const inflog::EvalStats& st, bool parallel) {
  if (parallel) {
    if (st.auto_static_stages > 0 && st.auto_stealing_stages > 0) return "";
    return "auto scheduler picked static on " +
           std::to_string(st.auto_static_stages) + " stages and stealing on " +
           std::to_string(st.auto_stealing_stages) + "; both must be > 0";
  }
  const uint64_t dispatched = st.parallel_tasks + st.slices + st.steals +
                              st.parks + st.batched_plans +
                              st.auto_static_stages + st.auto_stealing_stages;
  return dispatched == 0 ? "" : "serial evaluation dispatched parallel work";
}

}  // namespace

Outcome RunBatch(const Options& o, bool parallel, Tracer* tracer) {
  Outcome out;
  const Sizes s = SizesFor(o.smoke);
  const std::string facts = GenerateFacts(o.seed, s);
  inflog::EvalOptions eval;  // library defaults: 1 thread, 1 shard
  if (parallel) {            // the CLI defaults
    eval.num_threads = 0;
    eval.num_shards = 0;
    eval.scheduler = inflog::StageScheduler::kAuto;
  }
  out.context["sizes"] =
      "{\"components\":" + std::to_string(s.components) +
      ",\"vertices\":" + std::to_string(s.vertices) +
      ",\"edges\":" + std::to_string(s.edges) +
      ",\"hub_components\":" + std::to_string(s.hubs) +
      ",\"hub_vertices\":" + std::to_string(s.hub_vertices) + "}";
  out.context["config"] =
      std::string("{\"semantics\":\"inflationary\",\"threads\":") +
      (parallel ? "\"0 (hardware concurrency)\"" : "1") + ",\"shards\":" +
      (parallel ? "\"0 (auto)\"" : "1") + ",\"scheduler\":\"auto\"}";

  uint32_t setup_op = kSetupOpBase;
  inflog::Engine engine;
  const inflog::Status loaded = TimeSetup(
      [&] { return LoadEngine(kProgram, facts, tracer, &engine); }, o.trace,
      tracer, &setup_op, &out);
  if (!loaded.ok()) {
    out.SetupFail("load: " + loaded.ToString());
    return out;
  }

  // The reference: one serial evaluation, cross-checked once against an
  // evaluation with every optimizer pass off.
  inflog::Result<inflog::EvalOutcome> ref =
      engine.Evaluate(inflog::SemanticsKind::kInflationary);
  if (!ref.ok()) {
    out.SetupFail("reference: " + ref.status().ToString());
    return out;
  }
  {
    inflog::EvalOptions plain;
    plain.optimizer_passes = inflog::OptimizerPasses::None();
    auto unoptimized =
        engine.Evaluate(inflog::SemanticsKind::kInflationary, plain);
    if (!unoptimized.ok() || unoptimized->state() != ref->state()) {
      out.SetupFail("optimized and unoptimized evaluations disagree");
      return out;
    }
  }
  out.context["idb_tuples"] = std::to_string(ref->state().TotalTuples());

  const auto evaluate = [&] {
    ScopedSpan op(tracer, "op");
    ScopedSpan call(tracer, "eval.evaluate");
    return engine.Evaluate(inflog::SemanticsKind::kInflationary, eval);
  };
  for (int i = 0; i < 3; ++i) {  // warm-up: allocator, pool, page cache
    const inflog::Result<inflog::EvalOutcome> got = evaluate();
    std::string why = Disagreement(got, *ref);
    if (why.empty()) why = DispatchMismatch(*got->stats(), parallel);
    if (!why.empty()) out.SetupFail("warm-up: " + why);
  }

  // Parallel counters that depend on thread timing are reported as
  // per-evaluation medians; everything else must equal the reference.
  Samples steals, parks, slices, tasks;
  inflog::EvalStats first_stats;
  Schedule schedule(o.seconds, kSpreadSetups, kMinSamples);
  size_t ops = 0;
  while (!schedule.Done(ops)) {
    if (schedule.SetupDue()) {
      TimeColdSetups(
          [&] {
            inflog::Engine cold;
            return LoadEngine(kProgram, facts, tracer, &cold);
          },
          o.trace, tracer, &setup_op, &out);
    }
    const bool traced = o.trace && ops % 2 == 0;
    tracer->set_enabled(traced);
    tracer->set_op(static_cast<uint32_t>(ops));
    const int64_t start = NowNs();
    inflog::Result<inflog::EvalOutcome> got = evaluate();
    const double ms = MsSince(start);
    tracer->set_enabled(false);
    ++ops;
    ++out.attempted;
    out.AddOp(ms, ms, o.trace, traced);
    const std::string why = Disagreement(got, *ref);
    if (!why.empty()) {
      out.OpFail("evaluation " + std::to_string(ops) + ": " + why);
      continue;
    }
    const inflog::EvalStats& st = *got->stats();
    if (ops == 1) first_stats = st;
    steals.Add(static_cast<double>(st.steals));
    parks.Add(static_cast<double>(st.parks));
    slices.Add(static_cast<double>(st.slices));
    tasks.Add(static_cast<double>(st.parallel_tasks));
  }

  AddExecutorLayer(first_stats, 1, &out);
  out.layer["eval.steals"] = steals.Quantile(0.5);
  out.layer["eval.parks"] = parks.Quantile(0.5);
  out.layer["eval.slices"] = slices.Quantile(0.5);
  out.layer["eval.parallel_tasks"] = tasks.Quantile(0.5);
  AddExecutorFingerprint(first_stats, "eval.", &out);
  const inflog::Program& program = **engine.program();
  for (size_t i = 0; i < ref->state().relations.size(); ++i) {
    out.fingerprint["rows." +
                    program.predicate(program.idb_predicates()[i]).name] =
        std::to_string(ref->state().relations[i].size());
  }
  if (o.trace) out.child_coverage = tracer->MedianChildCoverage("op");
  out.layer["ast.parse_program_ms"] =
      tracer->PerCallMs("ast.parse_program").Quantile(0.5);
  out.layer["ast.parse_facts_ms"] =
      tracer->PerCallMs("ast.parse_facts").Quantile(0.5);
  return out;
}

}  // namespace perfbench
