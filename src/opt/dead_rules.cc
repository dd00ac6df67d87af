#include "src/opt/dead_rules.h"

#include <algorithm>

#include "src/ast/analysis.h"

namespace inflog {

void DeadRulePass::Run(const PassContext& pctx, StagePlans* plans,
                       OptCounters* counters) {
  const std::vector<uint32_t>& outputs = pctx.ctx->output_preds();
  if (outputs.empty()) return;
  const Program& program = pctx.ctx->program();

  // A predicate is needed iff it is an output or an output depends on
  // it (transitively) through any rule, positively or under negation.
  std::vector<bool> needed = ReachablePredicates(
      program.rules(), program.num_predicates(), outputs);
  for (const uint32_t pred : outputs) needed[pred] = true;

  const size_t before = plans->rules.size();
  plans->rules.erase(
      std::remove_if(plans->rules.begin(), plans->rules.end(),
                     [&](const CompiledRulePlans& c) {
                       const Rule& rule = program.rules()[c.rule_index];
                       return !needed[rule.head.predicate];
                     }),
      plans->rules.end());
  counters->rules_eliminated += before - plans->rules.size();
}

}  // namespace inflog
