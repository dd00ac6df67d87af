#include "src/eval/stratified.h"

#include "src/eval/seminaive.h"
#include "src/opt/program_rewrite.h"

namespace inflog {

namespace {

/// The rewrite-free evaluator: used directly when no program rewrite is
/// active, and on the rewritten program otherwise.
Result<StratifiedResult> EvalStratifiedCore(const Program& program,
                                            const Database& database,
                                            const StratifiedOptions& options) {
  const ProgramAnalysis analysis = AnalyzeProgram(program);
  if (!analysis.stratifiable) {
    return Status::FailedPrecondition(
        "program is not stratifiable (a cycle passes through negation); "
        "the stratified semantics is undefined — use EvalInflationary");
  }
  StratifiedResult result;
  result.num_strata = analysis.num_strata;
  // The state outlives the per-stratum contexts, so its shard layout is
  // resolved from the options up front (every stratum's context resolves
  // to the same count).
  result.state =
      MakeEmptyIdbState(program, ResolvedNumShards(options.context));

  // Each stratum's rules (those whose head lives in it), in rule order.
  std::vector<std::vector<size_t>> rules_of(analysis.num_strata);
  for (size_t r = 0; r < program.rules().size(); ++r) {
    rules_of[analysis.stratum[program.rules()[r].head.predicate]].push_back(r);
  }
  // One pool shared across strata (filled lazily by the first stratum
  // whose stages fan out), so threads are spawned at most once per run.
  std::unique_ptr<ThreadPool> pool;
  for (std::vector<size_t>& stratum_rules : rules_of) {
    if (stratum_rules.empty()) continue;
    // This stratum's predicates, the heads of its rules, are dynamic;
    // lower strata are frozen at their already-computed values inside
    // `result.state`.
    std::vector<bool> dynamic(program.idb_predicates().size(), false);
    for (const size_t r : stratum_rules) {
      dynamic[program.predicate(program.rules()[r].head.predicate)
                  .idb_index] = true;
    }
    SemiNaiveOptions sn;
    sn.use_deltas = options.use_seminaive;
    sn.pool_cache = &pool;
    sn.rule_subset = std::move(stratum_rules);
    INFLOG_ASSIGN_OR_RETURN(
        EvalContext ctx,
        EvalContext::CreateWithFixed(program, database, dynamic,
                                     &result.state, options.context));
    SemiNaiveOutcome outcome = RunSemiNaive(ctx, sn, &result.state);
    INFLOG_CHECK(outcome.converged);
    result.stats.Add(outcome.stats);
  }
  return result;
}

}  // namespace

Result<StratifiedResult> EvalStratified(const Program& program,
                                        const Database& database,
                                        const StratifiedOptions& options) {
  // A rewrite only replaces a stratifiable program with a stratifiable
  // one, so Core's stratifiability error still fires exactly when the
  // ORIGINAL program is not stratifiable. num_strata reports the
  // rewritten program's stratification.
  return EvalWithRewrites(
      program, options.context, RewriteSemantics::kStratified,
      [&](const Program& p) {
        return EvalStratifiedCore(p, database, options);
      },
      [](const std::vector<int>&, StratifiedResult*) {});
}

}  // namespace inflog
