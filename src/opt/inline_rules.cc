#include "src/opt/inline_rules.h"

#include <string>

#include "src/ast/analysis.h"

namespace inflog {

namespace {

/// The single inlining step: substitutes defining rule `def` (of
/// predicate `pred`) into the one consumer rule at `use_rule`,
/// body position `use_pos`.
void InlineInto(const Rule& def, Rule* consumer, size_t use_pos) {
  const std::vector<Term>& use_args = consumer->body[use_pos].args;
  // Map the definition's variables to consumer terms: head variables to
  // the call-site arguments, locals to fresh consumer variables.
  std::vector<Term> var_map(def.num_vars, Term::Var(0));
  std::vector<bool> mapped(def.num_vars, false);
  for (size_t j = 0; j < def.head.args.size(); ++j) {
    var_map[def.head.args[j].id] = use_args[j];
    mapped[def.head.args[j].id] = true;
  }
  for (uint32_t v = 0; v < def.num_vars; ++v) {
    if (mapped[v]) continue;
    const uint32_t fresh = consumer->num_vars++;
    // Keep the source name readable but unique within the consumer
    // (variable names must stay uppercase/underscore-initial).
    std::string name = v < def.var_names.size() ? def.var_names[v] : "V";
    while (true) {
      bool clash = false;
      for (const std::string& existing : consumer->var_names) {
        if (existing == name) {
          clash = true;
          break;
        }
      }
      if (!clash) break;
      name += "_i";
    }
    consumer->var_names.push_back(name);
    var_map[v] = Term::Var(fresh);
    mapped[v] = true;
  }
  auto map_term = [&](const Term& t) {
    return t.IsVariable() ? var_map[t.id] : t;
  };
  std::vector<Literal> inlined;
  inlined.reserve(def.body.size());
  for (const Literal& lit : def.body) {
    Literal copy = lit;
    for (Term& t : copy.args) t = map_term(t);
    inlined.push_back(std::move(copy));
  }
  consumer->body.erase(consumer->body.begin() + use_pos);
  consumer->body.insert(consumer->body.begin() + use_pos, inlined.begin(),
                        inlined.end());
  // The spliced-out atom may have been the only mention of some
  // consumer variable.
  CompactRuleVariables(consumer);
}

}  // namespace

uint64_t InlineSingleUseRules(const std::vector<bool>& is_output,
                              RewriteWorkspace* ws) {
  uint64_t inlined = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t pred = 0; pred < ws->names.size(); ++pred) {
      if (!ws->is_idb[pred]) continue;
      if (pred < is_output.size() && is_output[pred]) continue;
      // Exactly one defining rule with an all-distinct-variable head.
      int def_rule = -1;
      bool eligible = true;
      size_t use_rule = 0, use_pos = 0, uses = 0;
      for (size_t r = 0; r < ws->rules.size() && eligible; ++r) {
        const Rule& rule = ws->rules[r];
        if (rule.head.predicate == pred) {
          if (def_rule >= 0) eligible = false;
          def_rule = static_cast<int>(r);
          std::vector<bool> seen(rule.num_vars, false);
          for (const Term& t : rule.head.args) {
            if (!t.IsVariable() || seen[t.id]) eligible = false;
            if (t.IsVariable()) seen[t.id] = true;
          }
        }
        for (size_t i = 0; i < rule.body.size(); ++i) {
          const Literal& lit = rule.body[i];
          if (lit.predicate != pred) continue;
          if (lit.IsNegatedAtom()) {
            eligible = false;
          } else {
            use_rule = r;
            use_pos = i;
            ++uses;
          }
        }
      }
      if (!eligible || def_rule < 0 || uses != 1 ||
          use_rule == static_cast<size_t>(def_rule)) {
        continue;
      }
      if (ReachablePredicates(ws->rules, ws->names.size(), {pred})[pred]) {
        continue;  // recursive
      }
      InlineInto(ws->rules[def_rule], &ws->rules[use_rule], use_pos);
      ws->rules.erase(ws->rules.begin() + def_rule);
      ++inlined;
      changed = true;
      break;  // Restart: rule indices shifted.
    }
  }
  return inlined;
}

}  // namespace inflog
