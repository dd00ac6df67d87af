#include "src/eval/seminaive.h"

#include "src/eval/fixpoint_driver.h"

namespace inflog {

SemiNaiveOutcome RunSemiNaive(const EvalContext& ctx,
                              const SemiNaiveOptions& options,
                              IdbState* state) {
  RelationalConsequence theta(ctx, options, state);
  const FixpointDriver::Outcome outcome = FixpointDriver::Iterate(
      [&](size_t stage) { return theta.Step(stage); }, options.max_stages);

  SemiNaiveOutcome out;
  out.num_stages = outcome.num_stages;
  out.converged = outcome.converged;
  out.stage_sizes = theta.stage_sizes();
  out.stage_shard_sizes = theta.stage_shard_sizes();
  out.stats = theta.stats();
  return out;
}

}  // namespace inflog
