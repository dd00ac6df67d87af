#include "src/opt/program_rewrite.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/ast/analysis.h"
#include "src/base/strings.h"
#include "src/opt/inline_rules.h"
#include "src/opt/magic.h"

namespace inflog {

RewriteWorkspace::RewriteWorkspace(const Program& program) {
  const size_t n = program.num_predicates();
  names.reserve(n);
  arities.reserve(n);
  is_idb.reserve(n);
  for (uint32_t p = 0; p < n; ++p) {
    const PredicateInfo& info = program.predicate(p);
    names.push_back(info.name);
    arities.push_back(info.arity);
    is_idb.push_back(info.is_idb);
  }
  rules = program.rules();
}

uint32_t RewriteWorkspace::AddPredicate(std::string name, size_t arity) {
  auto taken = [&](const std::string& candidate) {
    return std::find(names.begin(), names.end(), candidate) != names.end();
  };
  std::string candidate = name;
  int suffix = 2;
  while (taken(candidate)) candidate = name + "_" + std::to_string(suffix++);
  names.push_back(std::move(candidate));
  arities.push_back(arity);
  is_idb.push_back(true);
  return static_cast<uint32_t>(names.size() - 1);
}

void CompactRuleVariables(Rule* rule) {
  std::vector<uint32_t> remap(rule->num_vars, kNoPredicate);
  uint32_t next = 0;
  auto visit = [&](const Term& t) {
    if (t.IsVariable() && remap[t.id] == kNoPredicate) remap[t.id] = next++;
  };
  for (const Term& t : rule->head.args) visit(t);
  for (const Literal& lit : rule->body) {
    for (const Term& t : lit.args) visit(t);
  }
  std::vector<std::string> names(next);
  for (uint32_t v = 0; v < rule->num_vars; ++v) {
    if (remap[v] == kNoPredicate) continue;
    names[remap[v]] =
        v < rule->var_names.size() ? rule->var_names[v] : StrCat("V", v);
  }
  auto apply = [&](Term& t) {
    if (t.IsVariable()) t.id = remap[t.id];
  };
  for (Term& t : rule->head.args) apply(t);
  for (Literal& lit : rule->body) {
    for (Term& t : lit.args) apply(t);
  }
  rule->num_vars = next;
  rule->var_names = std::move(names);
}

namespace {

/// True iff some rule whose head the outputs need (an output, or a
/// predicate an output reaches over head → body edges, positive and
/// negated) negates a derived (IDB) predicate — the bail-out condition
/// for magic under either semantics and for inlining under the
/// inflationary one.
bool NeededPartNegatesIdb(const RewriteWorkspace& ws,
                          const std::vector<uint32_t>& outputs) {
  std::vector<bool> needed =
      ReachablePredicates(ws.rules, ws.names.size(), outputs);
  for (const uint32_t out : outputs) needed[out] = true;
  for (const Rule& rule : ws.rules) {
    if (!needed[rule.head.predicate]) continue;
    for (const Literal& lit : rule.body) {
      if (lit.IsNegatedAtom() && ws.is_idb[lit.predicate]) return true;
    }
  }
  return false;
}

/// Drops rules that reference a predicate which heads no rule yet is
/// not an (original) EDB predicate, to fixpoint. Such references arise
/// when magic replaces a predicate's original-name rules with adorned
/// versions while a non-needed rule still mentions the original name;
/// a positive atom over the now rule-less predicate can derive nothing
/// and the affected heads are non-needed (unspecified), so dropping is
/// sound.
void DropDanglingRules(RewriteWorkspace* ws) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<bool> has_rule(ws->names.size(), false);
    for (const Rule& rule : ws->rules) has_rule[rule.head.predicate] = true;
    std::vector<Rule> kept;
    kept.reserve(ws->rules.size());
    for (Rule& rule : ws->rules) {
      bool dangling = false;
      for (const Literal& lit : rule.body) {
        if (lit.predicate == kNoPredicate) continue;
        if (ws->is_idb[lit.predicate] && !has_rule[lit.predicate]) {
          dangling = true;
          break;
        }
      }
      if (dangling) {
        changed = true;
      } else {
        kept.push_back(std::move(rule));
      }
    }
    ws->rules = std::move(kept);
  }
}

/// Re-introduces any original-program constant the rewrite dropped via
/// a self-recursive anchor rule (derives nothing, keeps the active
/// domain — and hence the meaning of unsafe or negated rules — intact).
void AnchorDroppedConstants(const Program& original, RewriteWorkspace* ws) {
  std::set<Value> present;
  auto collect = [&](const Term& t) {
    if (t.IsConstant()) present.insert(t.id);
  };
  for (const Rule& rule : ws->rules) {
    for (const Term& t : rule.head.args) collect(t);
    for (const Literal& lit : rule.body) {
      for (const Term& t : lit.args) collect(t);
    }
  }
  std::vector<Value> missing;
  for (const Value v : original.Constants()) {
    if (present.find(v) == present.end()) missing.push_back(v);
  }
  if (missing.empty()) return;
  const uint32_t anchor =
      ws->AddPredicate("__const_anchor", missing.size());
  Rule rule;
  rule.head.predicate = anchor;
  for (const Value v : missing) rule.head.args.push_back(Term::Const(v));
  rule.body.push_back(Literal::Pos(anchor, rule.head.args));
  ws->rules.push_back(std::move(rule));
}

/// Builds a fresh Program over the original symbol table from the
/// workspace rules; predicates are registered on first reference, so
/// only referenced ones survive and IDB-ness follows the rule heads.
std::shared_ptr<Program> Materialize(const Program& original,
                                     const RewriteWorkspace& ws) {
  auto program = std::make_shared<Program>(original.shared_symbols());
  std::vector<uint32_t> id_map(ws.names.size(), kNoPredicate);
  auto map_pred = [&](uint32_t pred) {
    if (id_map[pred] == kNoPredicate) {
      Result<uint32_t> id =
          program->GetOrAddPredicate(ws.names[pred], ws.arities[pred]);
      INFLOG_CHECK(id.ok()) << id.status().ToString();
      id_map[pred] = *id;
    }
    return id_map[pred];
  };
  for (const Rule& rule : ws.rules) {
    Rule copy = rule;
    copy.head.predicate = map_pred(rule.head.predicate);
    for (Literal& lit : copy.body) {
      if (lit.predicate != kNoPredicate) lit.predicate = map_pred(lit.predicate);
    }
    const Status added = program->AddRule(std::move(copy));
    INFLOG_CHECK(added.ok()) << added.ToString();
  }
  return program;
}

}  // namespace

ProgramRewriteResult RewriteProgramForOutputs(
    const Program& program, const std::vector<std::string>& outputs,
    const OptimizerPasses& passes, RewriteSemantics semantics) {
  ProgramRewriteResult result;
  if (outputs.empty() || !(passes.magic_sets || passes.inline_rules)) {
    return result;
  }
  std::vector<uint32_t> out_ids;
  std::vector<bool> is_output(program.num_predicates(), false);
  for (const std::string& name : outputs) {
    const Result<uint32_t> id = program.FindPredicate(name);
    // Unknown / non-IDB outputs: stay inert so the unrewritten
    // evaluation reports the existing binding error.
    if (!id.ok() || !program.predicate(*id).is_idb) return result;
    if (!is_output[*id]) {
      is_output[*id] = true;
      out_ids.push_back(*id);
    }
  }

  // A non-stratifiable program must keep producing the stratified
  // evaluator's FailedPrecondition; the dangling-rule cleanup below
  // could otherwise drop the offending cycle and mask the error.
  if (semantics == RewriteSemantics::kStratified &&
      !AnalyzeProgram(program).stratifiable) {
    return result;
  }

  RewriteWorkspace ws(program);
  uint64_t rules_inlined = 0;
  if (passes.inline_rules) {
    const bool inline_ok = semantics == RewriteSemantics::kStratified ||
                           !NeededPartNegatesIdb(ws, out_ids);
    if (inline_ok) rules_inlined = InlineSingleUseRules(is_output, &ws);
  }
  uint64_t magic_rules = 0;
  // The gate is asked again of the (possibly inlined) rules.
  if (passes.magic_sets && !NeededPartNegatesIdb(ws, out_ids)) {
    magic_rules = ApplyMagicSets(out_ids, &ws);
  }
  if (rules_inlined == 0 && magic_rules == 0) return result;

  DropDanglingRules(&ws);
  // Every output must survive as an IDB predicate (the dangling-rule
  // cascade can only strip an output's rules when the output is
  // genuinely underivable, but bailing out keeps the binding contract
  // byte-identical to the unrewritten path).
  for (const uint32_t out : out_ids) {
    bool has_rule = false;
    for (const Rule& rule : ws.rules) {
      if (rule.head.predicate == out) {
        has_rule = true;
        break;
      }
    }
    if (!has_rule) return ProgramRewriteResult{};
  }
  AnchorDroppedConstants(program, &ws);

  result.program = Materialize(program, ws);
  if (semantics == RewriteSemantics::kStratified &&
      !AnalyzeProgram(*result.program).stratifiable) {
    // Defense in depth: the gates argued above keep stratifiability,
    // but a non-stratifiable rewrite must never replace a stratifiable
    // program.
    return ProgramRewriteResult{};
  }
  result.active = true;
  result.magic_rules_generated = magic_rules;
  result.rules_inlined = rules_inlined;
  return result;
}

std::vector<int> RemapToOriginalLayout(const Program& original,
                                       const Program& rewritten,
                                       IdbState* state) {
  const std::vector<uint32_t>& idb = original.idb_predicates();
  std::vector<int> map(idb.size(), -1);
  for (size_t i = 0; i < idb.size(); ++i) {
    const Result<uint32_t> id =
        rewritten.FindPredicate(original.predicate(idb[i]).name);
    if (id.ok() && rewritten.predicate(*id).is_idb) {
      map[i] = rewritten.predicate(*id).idb_index;
    }
  }
  const size_t num_shards =
      state->relations.empty() ? 1 : state->relations[0].num_shards();
  IdbState remapped = MakeEmptyIdbState(original, num_shards);
  for (size_t i = 0; i < map.size(); ++i) {
    if (map[i] >= 0) {
      remapped.relations[i] = std::move(state->relations[map[i]]);
    }
  }
  *state = std::move(remapped);
  return map;
}

}  // namespace inflog
