// perfbench_harness: runs one workload and prints its result.
//
//   perfbench_harness --workload batch|batch-par|serve|grounded --seed N
//                     --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//                     [--source-digest HEX]
//   perfbench_harness --probe [--smoke]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. DIR receives the run
// record (context, every metric, sample counts, errors), the trace file of
// a traced run, and the per-seed fingerprint of deterministic counts that
// every later run at the same seed and source digest must reproduce.
// --probe runs only the host-drift probe and prints its p10/p50 as JSON;
// run.py runs it in its own process before and after each run so the
// probe's buffer never counts towards the workload's peak RSS.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perfbench/harness/common.h"
#include "perfbench/harness/workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The per-layer metrics, in BENCHMARK.json order. Every workload reports
// every one; a layer a workload does not run reports 0.
constexpr MetricDef kPerLayer[] = {
    {"ast.parse_program_ms", "ms"},
    {"ast.parse_facts_ms", "ms"},
    {"opt.plans_reordered", "count"},
    {"opt.subplans_shared", "count"},
    {"opt.shared_rows", "count"},
    {"eval.stages", "count"},
    {"eval.derivations", "count"},
    {"eval.new_tuples", "count"},
    {"eval.rows_matched", "count"},
    {"eval.index_lookups", "count"},
    {"eval.intersections", "count"},
    {"eval.derivations_per_new", "ratio"},
    {"eval.rows_per_new", "ratio"},
    {"eval.parallel_tasks", "count"},
    {"eval.slices", "count"},
    {"eval.steals", "count"},
    {"eval.parks", "count"},
    {"eval.batched_plans", "count"},
    {"eval.auto_static_stages", "count"},
    {"eval.auto_stealing_stages", "count"},
    {"eval.parse_update_us", "us"},
    {"eval.apply_update_ms.p10", "ms"},
    {"eval.apply_update_ms.p50", "ms"},
    {"eval.del_candidates", "count"},
    {"eval.rederived", "count"},
    {"eval.recounted", "count"},
    {"eval.idb_churn", "count"},
    {"eval.rederived_per_candidate", "ratio"},
    {"eval.oracle_runs", "count"},
    {"relation.compact_ms.p50", "ms"},
    {"relation.compactions", "count/1k"},
    {"serve.update_ms.p10", "ms"},
    {"serve.update_ms.p50", "ms"},
    {"serve.publish_ms.p10", "ms"},
    {"serve.publish_ms.p50", "ms"},
    {"serve.sealed_rows", "count"},
    {"serve.seal_amplification", "ratio"},
    {"serve.shared_relations", "count"},
    {"serve.live_snapshots", "count"},
    {"serve.pin_us", "us"},
    {"serve.parse_query_us", "us"},
    {"serve.cache_lookup_us", "us"},
    {"serve.eval_query_us.p10", "us"},
    {"serve.eval_query_us.p50", "us"},
    {"serve.cache_insert_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_invalidations", "count"},
    {"serve.answer_rows", "count"},
    {"serve.cache_advance_us", "us"},
    {"ground.ground_ms.p10", "ms"},
    {"ground.ground_ms.p50", "ms"},
    {"ground.rules", "count"},
    {"ground.atoms", "count"},
    {"fixpoint.analyzer_ms", "ms"},
    {"fixpoint.cnf_vars", "count"},
    {"fixpoint.cnf_clauses", "count"},
    {"sat.solve_ms.p10", "ms"},
    {"sat.solve_ms.p50", "ms"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.learned", "count"},
    {"sat.deleted", "count"},
    {"eval.wellfounded_ms.p10", "ms"},
    {"eval.wellfounded_ms.p50", "ms"},
    {"eval.wf_rounds", "count"},
    {"latency.op_ms.p10", "ms"},
    {"latency.op_ms.p50", "ms"},
    {"latency.round_ms.p10", "ms"},
    {"latency.round_ms.p50", "ms"},
    {"trace.op_ms.p50", "ms"},
    {"trace.overhead", "ratio"},
    {"trace.child_coverage", "ratio"},
};

bool ParseArgs(int argc, char** argv, Options* o, bool* probe) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      o->smoke = true;
    } else if (arg == "--probe") {
      *probe = true;
    } else if (arg == "--workload" && (v = value())) {
      o->workload = v;
    } else if (arg == "--seed" && (v = value())) {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      o->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = value())) {
      o->trace = std::string_view(v) == "1";
    } else if (arg == "--out-dir" && (v = value())) {
      o->out_dir = v;
    } else if (arg == "--source-digest" && (v = value())) {
      o->source_digest = v;
    } else {
      std::cerr << "perfbench_harness: bad argument " << arg << "\n";
      return false;
    }
  }
  return *probe || (o->seconds > 0 && (o->workload == "batch" ||
                                       o->workload == "batch-par" ||
                                       o->workload == "serve" ||
                                       o->workload == "grounded"));
}

// Compares the run's deterministic counts with the fingerprint an earlier
// run at the same seed and source digest left behind, or records them.
// The digest is part of the file name, so runs of two source versions
// that alternate each compare against their own earlier runs.
// Returns the names of the counts that differ.
std::vector<std::string> CheckFingerprint(const Options& o,
                                          const Outcome& out) {
  const std::string path = o.out_dir + "/fingerprint-" + o.workload +
                           (o.smoke ? "-smoke" : "") + "-seed" +
                           std::to_string(o.seed) + "-" + o.source_digest +
                           ".txt";
  std::vector<std::string> differ;
  std::ifstream in(path);
  if (in) {
    std::map<std::string, std::string> earlier;
    std::string line;
    while (std::getline(in, line)) {
      const size_t eq = line.find('=');
      if (eq != std::string::npos) {
        earlier[line.substr(0, eq)] = line.substr(eq + 1);
      }
    }
    for (const auto& [name, value] : out.fingerprint) {
      const auto it = earlier.find(name);
      if (it == earlier.end() || it->second != value) {
        differ.push_back(name + " " + value + " vs earlier " +
                         (it == earlier.end() ? "absent" : it->second));
      }
    }
    return differ;
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream w(tmp);
    for (const auto& [name, value] : out.fingerprint) {
      w << name << "=" << value << "\n";
    }
  }
  std::rename(tmp.c_str(), path.c_str());
  return differ;
}

int Main(int argc, char** argv) {
  Options o;
  bool probe = false;
  if (!ParseArgs(argc, argv, &o, &probe)) return 2;
  if (probe) {
    const DriftProbe p = RunDriftProbe(o.smoke);
    std::cout << "{\"p10_ms\":" << JsonNumber(p.p10_ms)
              << ",\"p50_ms\":" << JsonNumber(p.p50_ms) << "}\n";
    return 0;
  }

  Tracer tracer;
  Outcome out;
  if (o.workload == "serve") {
    out = RunServe(o, &tracer);
  } else if (o.workload == "grounded") {
    out = RunGrounded(o, &tracer);
  } else {
    out = RunBatch(o, o.workload == "batch-par", &tracer);
  }
  const double rss = PeakRssMb();
  const std::vector<std::string> differ = CheckFingerprint(o, out);
  for (const std::string& d : differ) {
    out.SetupFail("deterministic count changed: " + d);
  }
  if (out.attempted == 0) out.SetupFail("no operation completed");

  // Every timing is gated on the p2 of its samples: each operation does
  // the same work, host drift only ever slows it, and the share of a run
  // the host leaves quiet changes from run to run (down to a few percent
  // in busy phases), which moves any percentile that needs more of the
  // run to be quiet (README.md, "Why p2"). The other quantiles are in the
  // context and, from traced runs, per layer.
  constexpr double kGated = 0.02;
  std::vector<Metric> e2e = {
      {"setup_s", out.setup_s.Quantile(kGated), "s"},
      {"peak_rss_mb", rss, "MB"},
      {"ok_rate",
       out.attempted == 0 ? 0.0
                          : static_cast<double>(out.attempted - out.failed) /
                                static_cast<double>(out.attempted),
       "ratio"},
      {"op_ms.p2", out.op_ms.Quantile(kGated), "ms"},
      {"round_ms.p2", out.round_ms.Quantile(kGated), "ms"},
  };
  if (o.trace) {
    const double plain = out.plain_op_ms.Quantile(0.5);
    out.layer["latency.op_ms.p10"] = out.plain_op_ms.Quantile(0.1);
    out.layer["latency.op_ms.p50"] = plain;
    out.layer["latency.round_ms.p10"] = out.plain_round_ms.Quantile(0.1);
    out.layer["latency.round_ms.p50"] = out.plain_round_ms.Quantile(0.5);
    out.layer["trace.op_ms.p50"] = out.traced_op_ms.Quantile(0.5);
    out.layer["trace.overhead"] =
        plain > 0 ? out.traced_op_ms.Quantile(0.5) / plain : 0.0;
    out.layer["trace.child_coverage"] = out.child_coverage;
  }
  std::vector<Metric> layer;
  for (const MetricDef& def : kPerLayer) {
    const auto it = out.layer.find(def.name);
    layer.push_back(
        {def.name, it == out.layer.end() ? 0.0 : it->second, def.unit});
    if (it != out.layer.end()) out.layer.erase(it);
  }
  for (const auto& [name, value] : out.layer) {
    out.SetupFail("per-layer metric missing from the table: " + name);
  }
  const bool correct = out.setup_ok && out.failed == 0;

  const auto metrics_json = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
      s += (i ? "," : "") + JsonString(ms[i].name) + ":{\"value\":" +
           JsonNumber(ms[i].value) + ",\"unit\":" + JsonString(ms[i].unit) +
           "}";
    }
    return s + "}";
  };
  std::string errors = "[";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    errors += (i ? "," : "") + JsonString(out.errors[i]);
    std::cout << "# error: " << out.errors[i] << "\n";
  }
  errors += "]";
  std::string context = "{\"workload\":" + JsonString(o.workload) +
                        ",\"seed\":" + std::to_string(o.seed) +
                        ",\"seconds\":" + JsonNumber(o.seconds) +
                        ",\"trace\":" + (o.trace ? "true" : "false") +
                        ",\"smoke\":" + (o.smoke ? "true" : "false") +
                        ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                        ",\"cxx_flags\":" + JsonString(PERFBENCH_CXX_FLAGS) +
                        ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
                        ",\"nproc\":" +
                        std::to_string(std::thread::hardware_concurrency()) +
                        ",\"cpu_model\":" + JsonString(CpuModel()) +
                        ",\"source_digest\":" + JsonString(o.source_digest);
  for (const auto& [key, value] : out.context) {
    context += "," + JsonString(key) + ":" + value;
  }
  context += ",\"samples\":{\"setup_s\":" + std::to_string(out.setup_s.size()) +
             ",\"op_ms\":" + std::to_string(out.op_ms.size()) +
             ",\"round_ms\":" + std::to_string(out.round_ms.size());
  if (o.trace) {
    context += ",\"traced_ops\":" + std::to_string(out.traced_op_ms.size()) +
               ",\"untraced_ops\":" + std::to_string(out.plain_op_ms.size());
  }
  context += "}";
  // The shape of each timed distribution, for telling a shift of the
  // whole distribution (a regression) from a heavier upper half (drift).
  context += ",\"quantiles\":{";
  const std::pair<const char*, const Samples*> timed[] = {
      {"setup_s", &out.setup_s}, {"op_ms", &out.op_ms},
      {"round_ms", &out.round_ms}};
  for (size_t i = 0; i < std::size(timed); ++i) {
    context += std::string(i ? "," : "") + "\"" + timed[i].first + "\":{";
    const std::pair<const char*, double> qs[] = {
        {"min", 0}, {"p2", 0.02}, {"p5", 0.05}, {"p10", 0.1},
        {"p25", 0.25}, {"p50", 0.5}, {"p90", 0.9}};
    for (size_t k = 0; k < std::size(qs); ++k) {
      context += std::string(k ? "," : "") + "\"" + qs[k].first +
                 "\":" + JsonNumber(timed[i].second->Quantile(qs[k].second));
    }
    context += "}";
  }
  context += "}}";

  const std::string stem = o.out_dir + "/run-" + o.workload +
                           (o.smoke ? "-smoke" : "") + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0");
  if (o.trace && !tracer.WriteTrace(stem + ".trace.json")) {
    std::cout << "# warning: cannot write " << stem << ".trace.json\n";
  }
  {
    std::ofstream record(stem + ".json");
    record << "{\"context\":" << context << ",\"correct\":"
           << (correct ? "true" : "false") << ",\"errors\":" << errors
           << ",\"end_to_end\":" << metrics_json(e2e)
           << ",\"per_layer\":" << metrics_json(layer) << "}\n";
  }
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << out.attempted << ",\"failed\":"
            << out.failed << ",\"metrics\":"
            << metrics_json(o.trace ? layer : e2e) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
