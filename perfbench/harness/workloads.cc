#include "perfbench/harness/workloads.h"

#include <string>
#include <utility>

#include "src/ast/parser.h"

namespace perfbench {

inflog::Status LoadEngine(const std::string& program,
                          const std::string& facts, Tracer* tracer,
                          inflog::Engine* engine) {
  inflog::Result<inflog::Program> parsed = [&] {
    ScopedSpan span(tracer, "ast.parse_program");
    return inflog::ParseProgram(program, engine->symbols());
  }();
  if (!parsed.ok()) return parsed.status();
  INFLOG_RETURN_IF_ERROR(engine->LoadProgram(std::move(parsed).value()));
  ScopedSpan span(tracer, "ast.parse_facts");
  return inflog::ParseDatabaseInto(facts, engine->mutable_database());
}

void AddExecutorLayer(const inflog::EvalStats& s, double per, Outcome* out) {
  const auto d = [per](uint64_t v) { return static_cast<double>(v) / per; };
  const auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  std::map<std::string, double>& l = out->layer;
  l["opt.plans_reordered"] = d(s.opt_plans_reordered);
  l["opt.subplans_shared"] = d(s.opt_subplans_shared);
  l["opt.shared_rows"] = d(s.opt_shared_rows);
  l["eval.stages"] = d(s.stages);
  l["eval.derivations"] = d(s.derivations);
  l["eval.new_tuples"] = d(s.new_tuples);
  l["eval.rows_matched"] = d(s.rows_matched);
  l["eval.index_lookups"] = d(s.index_lookups);
  l["eval.intersections"] = d(s.intersections);
  l["eval.derivations_per_new"] = ratio(s.derivations, s.new_tuples);
  l["eval.rows_per_new"] = ratio(s.rows_matched, s.new_tuples);
  l["eval.parallel_tasks"] = d(s.parallel_tasks);
  l["eval.slices"] = d(s.slices);
  l["eval.steals"] = d(s.steals);
  l["eval.parks"] = d(s.parks);
  l["eval.batched_plans"] = d(s.batched_plans);
  l["eval.auto_static_stages"] = d(s.auto_static_stages);
  l["eval.auto_stealing_stages"] = d(s.auto_stealing_stages);
}

void AddExecutorFingerprint(const inflog::EvalStats& s,
                            const std::string& prefix, Outcome* out) {
  // Scheduler bookkeeping that depends on thread timing (steals, splits,
  // parks, slices, tasks) is left out; the auto scheduler's decisions
  // are functions of the data and stay in.
  const std::pair<const char*, uint64_t> counts[] = {
      {"stages", s.stages},
      {"derivations", s.derivations},
      {"new_tuples", s.new_tuples},
      {"rows_matched", s.rows_matched},
      {"index_lookups", s.index_lookups},
      {"intersections", s.intersections},
      {"enumerations", s.enumerations},
      {"batched_plans", s.batched_plans},
      {"auto_static_stages", s.auto_static_stages},
      {"auto_stealing_stages", s.auto_stealing_stages},
      {"opt_plans_reordered", s.opt_plans_reordered},
      {"opt_subplans_shared", s.opt_subplans_shared},
      {"opt_shared_rows", s.opt_shared_rows},
  };
  for (const auto& [name, value] : counts) {
    out->fingerprint[prefix + name] = std::to_string(value);
  }
}

}  // namespace perfbench
