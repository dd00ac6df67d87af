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

  const size_t num_idb = program.idb_predicates().size();
  // One pool shared across strata (filled lazily by the first stratum
  // whose stages fan out), so threads are spawned at most once per run.
  std::unique_ptr<ThreadPool> pool;
  for (int stratum = 0; stratum < analysis.num_strata; ++stratum) {
    // Rules whose head lives in this stratum.
    SemiNaiveOptions sn;
    sn.use_deltas = options.use_seminaive;
    sn.pool_cache = &pool;
    for (size_t r = 0; r < program.rules().size(); ++r) {
      if (analysis.stratum[program.rules()[r].head.predicate] == stratum) {
        sn.rule_subset.push_back(r);
      }
    }
    if (sn.rule_subset.empty()) continue;
    // This stratum's predicates are dynamic; lower strata are frozen at
    // their already-computed values inside `result.state`.
    std::vector<bool> dynamic(num_idb, false);
    for (size_t i = 0; i < num_idb; ++i) {
      dynamic[i] =
          analysis.stratum[program.idb_predicates()[i]] == stratum;
    }
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
