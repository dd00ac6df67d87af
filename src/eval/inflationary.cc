#include "src/eval/inflationary.h"

#include "src/opt/program_rewrite.h"

namespace inflog {

size_t InflationaryResult::TupleStage(size_t idb_index,
                                      TupleView tuple) const {
  INFLOG_CHECK(idb_index < state.relations.size());
  Relation::RowRef ref;
  if (!state.relations[idb_index].FindRef(tuple, &ref)) return 0;
  // Shards are append-only, so the tuple entered at the first stage whose
  // recorded shard size covers its local row id.
  const auto& by_stage = stage_shard_sizes[idb_index];
  for (size_t k = 0; k < by_stage.size(); ++k) {
    if (ref.row < by_stage[k][ref.shard]) return k + 1;
  }
  INFLOG_CHECK(false) << "row beyond recorded stages";
  return 0;
}

namespace {

/// The rewrite-free evaluator: used directly when no program rewrite is
/// active, and on the rewritten program otherwise.
Result<InflationaryResult> EvalInflationaryCore(
    const Program& program, const Database& database,
    const InflationaryOptions& options) {
  INFLOG_ASSIGN_OR_RETURN(
      EvalContext ctx, EvalContext::Create(program, database,
                                           options.context));
  InflationaryResult result;
  result.state = MakeEmptyIdbState(program, ctx.num_shards());
  SemiNaiveOptions sn;
  sn.max_stages = options.max_stages;
  sn.use_deltas = options.use_seminaive;
  SemiNaiveOutcome outcome = RunSemiNaive(ctx, sn, &result.state);
  result.num_stages = outcome.num_stages;
  result.converged = outcome.converged;
  result.stage_sizes = std::move(outcome.stage_sizes);
  result.stage_shard_sizes = std::move(outcome.stage_shard_sizes);
  result.stats = outcome.stats;
  return result;
}

/// Moves a rewritten run's stage bookkeeping into the original layout
/// by the index map its state was moved with. Predicates the rewrite
/// dropped get all-zero stage rows (TupleStage reports 0 for them).
void RemapStageSizes(const std::vector<int>& map,
                     InflationaryResult* result) {
  const size_t num_shards = result->state.relations.empty()
                                ? 1
                                : result->state.relations[0].num_shards();
  const size_t num_stage_rows =
      result->stage_sizes.empty() ? 0 : result->stage_sizes[0].size();
  std::vector<std::vector<size_t>> sizes(
      map.size(), std::vector<size_t>(num_stage_rows, 0));
  std::vector<std::vector<std::vector<size_t>>> shard_sizes(
      map.size(), std::vector<std::vector<size_t>>(
                      num_stage_rows, std::vector<size_t>(num_shards, 0)));
  for (size_t i = 0; i < map.size(); ++i) {
    if (map[i] < 0) continue;
    sizes[i] = std::move(result->stage_sizes[map[i]]);
    shard_sizes[i] = std::move(result->stage_shard_sizes[map[i]]);
  }
  result->stage_sizes = std::move(sizes);
  result->stage_shard_sizes = std::move(shard_sizes);
}

}  // namespace

Result<InflationaryResult> EvalInflationary(
    const Program& program, const Database& database,
    const InflationaryOptions& options) {
  return EvalWithRewrites(
      program, options.context, RewriteSemantics::kInflationary,
      [&](const Program& p) {
        return EvalInflationaryCore(p, database, options);
      },
      RemapStageSizes);
}

Result<InflationaryResult> EvalLeastFixpoint(
    const Program& program, const Database& database,
    const InflationaryOptions& options) {
  if (!program.IsPositive()) {
    return Status::FailedPrecondition(
        "least-fixpoint semantics requires a positive DATALOG program; "
        "use EvalInflationary for DATALOG¬");
  }
  return EvalInflationary(program, database, options);
}

}  // namespace inflog
