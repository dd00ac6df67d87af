// grounded: fixed seeded instances of the paper's π_COL (Lemma 1) over
// random graphs near the 3-colourability threshold, half colourable and
// half not. One sample answers the `fixpoints`-mode questions for every
// instance (MakeAnalyzer, HasFixpoint, UniqueFixpoint) and computes
// Evaluate(kWellFounded) for every instance, so every sample does the
// same work: a sample that alternated a fast and a slow instance would put
// p50 on the boundary between two modes. It is the only workload that
// runs the grounder, the Clark-completion encoding, the CDCL solver and
// the alternating fixpoint, while the relational executor sits idle.

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness/workloads.h"
#include "src/core/engine.h"
#include "src/fixpoint/analysis.h"
#include "src/ground/grounder.h"
#include "src/reductions/three_coloring.h"

namespace perfbench {
namespace {

struct Sizes {
  size_t vertices;
  double colourable_degree;    ///< Average degree of colourable instances.
  double uncolourable_degree;  ///< Average degree of the others.
  size_t pairs;                ///< (colourable, uncolourable) pairs.
};

Sizes SizesFor(bool smoke) {
  if (smoke) return Sizes{10, 3.0, 5.0, 1};
  return Sizes{16, 4.4, 4.8, 4};
}

using Graph = std::vector<std::vector<size_t>>;

// The harness's own colourability oracle (backtracking over vertices by
// decreasing degree), independent of the library's SAT path.
bool Colourable(const Graph& g) {
  std::vector<size_t> order(g.size());
  for (size_t i = 0; i < g.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return g[a].size() > g[b].size(); });
  std::vector<int> colour(g.size(), -1);
  const auto fill = [&](const auto& self, size_t k) -> bool {
    if (k == order.size()) return true;
    const size_t v = order[k];
    for (int c = 0; c < (k == 0 ? 1 : 3); ++c) {
      bool clash = false;
      for (const size_t w : g[v]) clash = clash || colour[w] == c;
      if (clash) continue;
      colour[v] = c;
      if (self(self, k + 1)) return true;
    }
    colour[v] = -1;
    return false;
  };
  return fill(fill, 0);
}

struct Instance {
  bool colourable = false;
  std::vector<std::pair<size_t, size_t>> edges;
  std::string facts;
};

// Random simple graphs at the given average degree until one with the
// wanted colourability turns up. Selection looks only at the graph, never
// at the library, so every commit sees the same instances.
Instance Draw(Rng* rng, size_t n, double degree, bool colourable) {
  const size_t m =
      static_cast<size_t>(degree * static_cast<double>(n) / 2 + 0.5);
  while (true) {
    Graph g(n);
    std::set<std::pair<size_t, size_t>> edges;
    while (edges.size() < m) {
      size_t a = rng->Below(n), b = rng->Below(n);
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      if (edges.insert({a, b}).second) {
        g[a].push_back(b);
        g[b].push_back(a);
      }
    }
    if (Colourable(g) != colourable) continue;
    return Instance{colourable, {edges.begin(), edges.end()}, ""};
  }
}

// The seed renames the vertices of each instance through a seeded
// increasing map; the graphs themselves are drawn once from a fixed
// stream and their facts keep one order. How hard a near-threshold
// instance is for CDCL varies several-fold from graph to graph, and with
// the atom numbering too: a permuting relabelling moved conflicts by up
// to 10% and the sample time by about 8% from seed to seed, which would
// add to the spread of any comparison made across seeds. An increasing
// map keeps every ordering the grounder and the solver see, so each seed
// has new inputs and the same search.
void Relabel(uint64_t seed, size_t n, Instance* inst) {
  Rng rng(seed * 0xA0761D6478BD642FULL + 0x3c01);
  std::vector<size_t> label(n);
  size_t next = 1;
  for (size_t i = 0; i < n; ++i) {
    next += rng.Below(4);
    label[i] = next++;
  }
  for (const auto& [a, b] : inst->edges) {
    inst->facts += "E(" + std::to_string(label[a]) + "," +
                   std::to_string(label[b]) + ").\n";
  }
}

// What one instance answers; every sample must reproduce it exactly.
struct Answers {
  bool has = false;
  inflog::UniqueStatus unique = inflog::UniqueStatus::kNoFixpoint;
  inflog::sat::SolverStats sat;
  size_t ground_rules = 0;
  size_t ground_atoms = 0;
  size_t cnf_vars = 0;
  size_t cnf_clauses = 0;
  size_t wf_rounds = 0;
};

bool SameSearch(const inflog::sat::SolverStats& a,
                const inflog::sat::SolverStats& b) {
  return a.conflicts == b.conflicts && a.propagations == b.propagations &&
         a.learned_clauses == b.learned_clauses &&
         a.deleted_clauses == b.deleted_clauses && a.decisions == b.decisions;
}

}  // namespace

Outcome RunGrounded(const Options& o, Tracer* tracer) {
  Outcome out;
  const Sizes s = SizesFor(o.smoke);
  Rng graphs(0x3c01);
  std::vector<Instance> instances;
  for (size_t p = 0; p < s.pairs; ++p) {
    instances.push_back(Draw(&graphs, s.vertices, s.colourable_degree, true));
    instances.push_back(
        Draw(&graphs, s.vertices, s.uncolourable_degree, false));
  }
  std::string edges = "[";
  for (size_t i = 0; i < instances.size(); ++i) {
    Relabel(o.seed + i, s.vertices, &instances[i]);
    edges += (i > 0 ? "," : "") + std::to_string(instances[i].edges.size());
  }
  out.context["sizes"] = "{\"vertices\":" + std::to_string(s.vertices) +
                         ",\"instances\":" + std::to_string(instances.size()) +
                         ",\"edges\":" + edges + "]}";
  out.context["config"] =
      "{\"program\":\"pi_col\",\"questions\":[\"HasFixpoint\","
      "\"UniqueFixpoint\",\"wellfounded\"],\"sat_portfolio\":1}";

  const std::string program = inflog::PiColText();
  std::vector<inflog::Engine> engines(instances.size());
  const auto load_all = [&](std::vector<inflog::Engine>* into) {
    for (size_t i = 0; i < instances.size(); ++i) {
      INFLOG_RETURN_IF_ERROR(
          LoadEngine(program, instances[i].facts, tracer, &(*into)[i]));
    }
    return inflog::Status::OK();
  };
  uint32_t setup_op = kSetupOpBase;
  const inflog::Status loaded = TimeSetup([&] { return load_all(&engines); },
                                          o.trace, tracer, &setup_op, &out);
  if (!loaded.ok()) {
    out.SetupFail("load: " + loaded.ToString());
    return out;
  }

  // One instance's questions; fills `got` and returns the first error.
  const auto ask = [&](size_t i, Answers* got,
                       std::optional<inflog::EvalOutcome>* wf) -> std::string {
    inflog::Result<inflog::FixpointAnalyzer> analyzer = [&] {
      ScopedSpan span(tracer, "fixpoint.analyzer");
      return engines[i].MakeAnalyzer();
    }();
    if (!analyzer.ok()) return "MakeAnalyzer: " + analyzer.status().ToString();
    inflog::Result<bool> has = [&] {
      ScopedSpan span(tracer, "sat.has_fixpoint");
      return analyzer->HasFixpoint();
    }();
    if (!has.ok()) return "HasFixpoint: " + has.status().ToString();
    inflog::Result<inflog::UniqueStatus> unique = [&] {
      ScopedSpan span(tracer, "sat.unique_fixpoint");
      return analyzer->UniqueFixpoint();
    }();
    if (!unique.ok()) return "UniqueFixpoint: " + unique.status().ToString();
    inflog::Result<inflog::EvalOutcome> model = [&] {
      ScopedSpan span(tracer, "eval.wellfounded");
      return engines[i].Evaluate(inflog::SemanticsKind::kWellFounded);
    }();
    if (!model.ok()) return "well-founded: " + model.status().ToString();
    got->has = *has;
    got->unique = *unique;
    got->sat = analyzer->sat_stats();
    got->ground_rules = analyzer->ground().rules.size();
    got->ground_atoms = analyzer->ground().atoms.size();
    got->cnf_vars = static_cast<size_t>(analyzer->encoding().cnf.num_vars);
    got->cnf_clauses = analyzer->encoding().cnf.clauses.size();
    got->wf_rounds = std::get<inflog::WellFoundedResult>(model->detail).rounds;
    wf->emplace(std::move(model).value());
    return "";
  };

  // The set-up reference, checked against the harness's own colourability
  // oracle and, for every fixpoint the analyzer returns, VerifyFixpoint.
  std::vector<Answers> ref(instances.size());
  std::vector<std::optional<inflog::EvalOutcome>> ref_wf(instances.size());
  for (size_t i = 0; i < instances.size(); ++i) {
    const std::string error = ask(i, &ref[i], &ref_wf[i]);
    if (!error.empty()) {
      out.SetupFail("reference: " + error);
      return out;
    }
    const bool colourable = instances[i].colourable;
    if (ref[i].has != colourable ||
        ref[i].unique != (colourable ? inflog::UniqueStatus::kMultiple
                                     : inflog::UniqueStatus::kNoFixpoint)) {
      out.SetupFail("instance " + std::to_string(i) +
                    ": verdicts disagree with the colourability oracle");
    }
    auto analyzer = engines[i].MakeAnalyzer();
    if (!analyzer.ok()) {
      out.SetupFail("MakeAnalyzer: " + analyzer.status().ToString());
      continue;
    }
    auto fixpoint = analyzer->FindFixpoint();
    if (!fixpoint.ok() || fixpoint->has_value() != colourable) {
      out.SetupFail("instance " + std::to_string(i) +
                    ": FindFixpoint disagrees");
    } else if (fixpoint->has_value()) {
      auto verified = analyzer->VerifyFixpoint(**fixpoint);
      if (!verified.ok() || !*verified) {
        out.SetupFail("instance " + std::to_string(i) +
                      ": returned fixpoint fails VerifyFixpoint");
      }
    }
  }
  if (!out.setup_ok) return out;

  const auto sample = [&](std::vector<Answers>* got,
                          std::vector<std::optional<inflog::EvalOutcome>>* wf) {
    ScopedSpan span(tracer, "op");
    for (size_t i = 0; i < instances.size(); ++i) {
      const std::string error = ask(i, &(*got)[i], &(*wf)[i]);
      if (!error.empty()) return "instance " + std::to_string(i) + ": " + error;
    }
    return std::string();
  };
  const auto disagreement =
      [&](const std::vector<Answers>& got,
          const std::vector<std::optional<inflog::EvalOutcome>>& wf) {
        for (size_t i = 0; i < instances.size(); ++i) {
          const Answers& a = got[i];
          const Answers& r = ref[i];
          if (a.has != r.has || a.unique != r.unique) {
            return "instance " + std::to_string(i) +
                   ": verdicts differ from the reference";
          }
          if (!SameSearch(a.sat, r.sat) || a.ground_rules != r.ground_rules ||
              a.cnf_clauses != r.cnf_clauses || a.wf_rounds != r.wf_rounds) {
            return "instance " + std::to_string(i) +
                   ": deterministic counts differ from the reference "
                   "(conflicts " +
                   std::to_string(a.sat.conflicts) + " vs " +
                   std::to_string(r.sat.conflicts) + ")";
          }
          const auto& mw = std::get<inflog::WellFoundedResult>(wf[i]->detail);
          const auto& rw =
              std::get<inflog::WellFoundedResult>(ref_wf[i]->detail);
          if (mw.true_state != rw.true_state ||
              mw.undefined_state != rw.undefined_state) {
            return "instance " + std::to_string(i) +
                   ": well-founded model differs from the reference";
          }
        }
        return std::string();
      };

  {  // warm-up
    std::vector<Answers> got(instances.size());
    std::vector<std::optional<inflog::EvalOutcome>> wf(instances.size());
    std::string error = sample(&got, &wf);
    if (error.empty()) error = disagreement(got, wf);
    if (!error.empty()) out.SetupFail("warm-up: " + error);
  }

  Schedule schedule(o.seconds, kSpreadSetups, kMinSamples);
  size_t ops = 0;
  while (!schedule.Done(ops)) {
    if (schedule.SetupDue()) {
      TimeColdSetups(
          [&] {
            std::vector<inflog::Engine> cold(instances.size());
            return load_all(&cold);
          },
          o.trace, tracer, &setup_op, &out);
    }
    const bool traced = o.trace && ops % 2 == 0;
    tracer->set_enabled(traced);
    tracer->set_op(static_cast<uint32_t>(ops));
    if (traced) {
      // The grounder alone, outside the sample span.
      for (size_t i = 0; i < instances.size(); ++i) {
        ScopedSpan span(tracer, "ground.ground");
        auto ground = inflog::GroundProgramFor(**engines[i].program(),
                                               engines[i].database());
        if (!ground.ok()) {
          out.OpFail("GroundProgramFor: " + ground.status().ToString());
        }
      }
    }
    std::vector<Answers> got(instances.size());
    std::vector<std::optional<inflog::EvalOutcome>> wf(instances.size());
    const int64_t start = NowNs();
    std::string error = sample(&got, &wf);
    const double ms = MsSince(start);
    tracer->set_enabled(false);
    ++ops;
    ++out.attempted;
    out.AddOp(ms, ms, o.trace, traced);
    if (error.empty()) error = disagreement(got, wf);
    if (!error.empty()) {
      out.OpFail("sample " + std::to_string(ops) + ": " + error);
    }
  }

  Answers total;
  for (const Answers& a : ref) {
    total.sat.Add(a.sat);
    total.ground_rules += a.ground_rules;
    total.ground_atoms += a.ground_atoms;
    total.cnf_vars += a.cnf_vars;
    total.cnf_clauses += a.cnf_clauses;
    total.wf_rounds += a.wf_rounds;
  }
  std::map<std::string, double>& l = out.layer;
  l["ground.rules"] = static_cast<double>(total.ground_rules);
  l["ground.atoms"] = static_cast<double>(total.ground_atoms);
  l["fixpoint.cnf_vars"] = static_cast<double>(total.cnf_vars);
  l["fixpoint.cnf_clauses"] = static_cast<double>(total.cnf_clauses);
  l["sat.conflicts"] = static_cast<double>(total.sat.conflicts);
  l["sat.propagations"] = static_cast<double>(total.sat.propagations);
  l["sat.learned"] = static_cast<double>(total.sat.learned_clauses);
  l["sat.deleted"] = static_cast<double>(total.sat.deleted_clauses);
  l["eval.wf_rounds"] = static_cast<double>(total.wf_rounds);
  for (size_t i = 0; i < ref.size(); ++i) {
    const std::string p = "instance" + std::to_string(i) + ".";
    const Answers& a = ref[i];
    const std::pair<const char*, uint64_t> counts[] = {
        {"has_fixpoint", a.has},
        {"unique", static_cast<uint64_t>(a.unique)},
        {"sat_conflicts", a.sat.conflicts},
        {"sat_decisions", a.sat.decisions},
        {"sat_propagations", a.sat.propagations},
        {"sat_learned", a.sat.learned_clauses},
        {"sat_deleted", a.sat.deleted_clauses},
        {"ground_rules", a.ground_rules},
        {"ground_atoms", a.ground_atoms},
        {"cnf_vars", a.cnf_vars},
        {"cnf_clauses", a.cnf_clauses},
        {"wf_rounds", a.wf_rounds},
    };
    for (const auto& [name, value] : counts) {
      out.fingerprint[p + name] = std::to_string(value);
    }
  }
  if (o.trace) {
    const auto p = [&](const char* name, double q) {
      return tracer->PerOpTotalMs(name).Quantile(q);
    };
    Samples solve;
    std::map<uint32_t, double> per_op;
    for (const Tracer::Span& span : tracer->spans()) {
      const std::string_view name = span.name;
      if (name == "sat.has_fixpoint" || name == "sat.unique_fixpoint") {
        per_op[span.op] +=
            static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      }
    }
    for (const auto& [op, ms] : per_op) solve.Add(ms);
    l["ground.ground_ms.p10"] = p("ground.ground", 0.1);
    l["ground.ground_ms.p50"] = p("ground.ground", 0.5);
    l["fixpoint.analyzer_ms"] = p("fixpoint.analyzer", 0.5);
    l["sat.solve_ms.p10"] = solve.Quantile(0.1);
    l["sat.solve_ms.p50"] = solve.Quantile(0.5);
    l["eval.wellfounded_ms.p10"] = p("eval.wellfounded", 0.1);
    l["eval.wellfounded_ms.p50"] = p("eval.wellfounded", 0.5);
    l["ast.parse_program_ms"] =
        tracer->PerCallMs("ast.parse_program").Quantile(0.5);
    l["ast.parse_facts_ms"] =
        tracer->PerCallMs("ast.parse_facts").Quantile(0.5);
    out.child_coverage = tracer->MedianChildCoverage("op");
  }
  return out;
}

}  // namespace perfbench
