#include "src/ast/analysis.h"

#include <map>
#include <utility>

#include "src/ast/printer.h"
#include "src/base/strings.h"

namespace inflog {

std::vector<bool> BoundVariables(const Rule& rule) {
  std::vector<bool> bound(rule.num_vars, false);
  for (const Literal& lit : rule.body) {
    if (lit.kind != Literal::Kind::kAtom) continue;
    for (const Term& t : lit.args) {
      if (t.IsVariable()) bound[t.id] = true;
    }
  }
  // Close under equalities: x = c binds x; x = y with one side bound binds
  // the other. Iterate to a fixpoint (chains like x=y, y=z).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kEq) continue;
      const Term& a = lit.args[0];
      const Term& b = lit.args[1];
      const bool a_bound = a.IsConstant() || bound[a.id];
      const bool b_bound = b.IsConstant() || bound[b.id];
      if (a_bound && !b_bound && b.IsVariable()) {
        bound[b.id] = true;
        changed = true;
      }
      if (b_bound && !a_bound && a.IsVariable()) {
        bound[a.id] = true;
        changed = true;
      }
    }
  }
  return bound;
}

std::vector<std::vector<size_t>> ExistentialComponents(const Rule& rule) {
  // Union-find over variables: each literal joins all of its variables.
  std::vector<uint32_t> parent(rule.num_vars);
  for (uint32_t v = 0; v < rule.num_vars; ++v) parent[v] = v;
  const auto find = [&](uint32_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  const auto first_var = [](const Literal& lit) -> int64_t {
    for (const Term& t : lit.args) {
      if (t.IsVariable()) return t.id;
    }
    return -1;
  };
  for (const Literal& lit : rule.body) {
    const int64_t first = first_var(lit);
    if (first < 0) continue;
    for (const Term& t : lit.args) {
      if (t.IsVariable()) parent[find(t.id)] = find(first);
    }
  }
  std::vector<bool> in_head(rule.num_vars, false);
  for (const Term& t : rule.head.args) {
    if (t.IsVariable()) in_head[find(t.id)] = true;
  }
  std::vector<std::vector<size_t>> out;
  std::vector<int> component_of(rule.num_vars, -1);  // by root variable
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const int64_t first = first_var(rule.body[i]);
    if (first < 0) continue;  // variable-free literals stay in the rule
    const uint32_t root = find(static_cast<uint32_t>(first));
    if (in_head[root]) continue;
    if (component_of[root] < 0) {
      component_of[root] = static_cast<int>(out.size());
      out.emplace_back();
    }
    out[component_of[root]].push_back(i);
  }
  return out;
}

namespace {

/// The variables of `rule` that occur in a negated body literal but are
/// not range-restricted, in ascending variable order. The single source
/// of truth behind both the AnalyzeProgram diagnostics and the
/// CheckNegationSafety hard error — the two must never disagree on what
/// counts as negation-unsafe.
std::vector<uint32_t> NegationUnsafeVars(const Rule& rule,
                                         const std::vector<bool>& bound) {
  std::vector<bool> negated(rule.num_vars, false);
  for (const Literal& lit : rule.body) {
    if (lit.kind != Literal::Kind::kNegAtom) continue;
    for (const Term& t : lit.args) {
      if (t.IsVariable()) negated[t.id] = true;
    }
  }
  std::vector<uint32_t> out;
  for (uint32_t v = 0; v < rule.num_vars; ++v) {
    if (negated[v] && !bound[v]) out.push_back(v);
  }
  return out;
}

}  // namespace

ProgramAnalysis AnalyzeProgram(const Program& program) {
  ProgramAnalysis out;
  const size_t num_preds = program.num_predicates();

  // --- Dependency graph (deduplicated, negative-dominant). ---
  std::map<std::pair<uint32_t, uint32_t>, bool> edge_map;
  for (const Rule& rule : program.rules()) {
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kAtom &&
          lit.kind != Literal::Kind::kNegAtom) {
        continue;
      }
      auto key = std::make_pair(rule.head.predicate, lit.predicate);
      const bool neg = lit.IsNegatedAtom();
      auto [it, inserted] = edge_map.emplace(key, neg);
      if (!inserted) it->second = it->second || neg;
    }
  }
  for (const auto& [key, neg] : edge_map) {
    out.edges.push_back(DependencyEdge{key.first, key.second, neg});
  }

  // --- Stratification by relaxation (Ullman's algorithm): ---
  //   stratum(head) >= stratum(body)        for positive dependencies,
  //   stratum(head) >= stratum(body) + 1    for negative dependencies.
  // If a stratum value exceeds the number of predicates, some cycle goes
  // through a negative edge and the program is not stratifiable.
  out.stratum.assign(num_preds, 0);
  out.stratifiable = true;
  bool changed = true;
  while (changed && out.stratifiable) {
    changed = false;
    for (const auto& [key, neg] : edge_map) {
      const int need = out.stratum[key.second] + (neg ? 1 : 0);
      if (out.stratum[key.first] < need) {
        out.stratum[key.first] = need;
        changed = true;
        if (out.stratum[key.first] > static_cast<int>(num_preds)) {
          out.stratifiable = false;
          break;
        }
      }
    }
  }
  if (out.stratifiable) {
    int max_stratum = 0;
    for (int s : out.stratum) max_stratum = std::max(max_stratum, s);
    out.num_strata = max_stratum + 1;
  } else {
    out.stratum.assign(num_preds, -1);
    out.num_strata = 0;
  }

  // --- Safety (range restriction) diagnostics. ---
  out.unsafe_vars.resize(program.rules().size());
  out.negation_unsafe_vars.resize(program.rules().size());
  for (size_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    const std::vector<bool> bound = BoundVariables(rule);
    // A rule is safe when every variable appearing in the head, in a
    // negated literal, or in an inequality is range-restricted. Unbound
    // variables under negation are tracked separately: they are the ones
    // whose reading is semantics-dependent (CheckNegationSafety).
    std::vector<bool> needs(rule.num_vars, false);
    for (const Term& t : rule.head.args) {
      if (t.IsVariable()) needs[t.id] = true;
    }
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kNegAtom ||
          lit.kind == Literal::Kind::kNeq) {
        for (const Term& t : lit.args) {
          if (t.IsVariable()) needs[t.id] = true;
        }
      }
    }
    for (uint32_t v = 0; v < rule.num_vars; ++v) {
      if (needs[v] && !bound[v]) out.unsafe_vars[r].push_back(v);
    }
    out.negation_unsafe_vars[r] = NegationUnsafeVars(rule, bound);
    if (!out.unsafe_vars[r].empty()) {
      std::vector<std::string> names;
      for (uint32_t v : out.unsafe_vars[r]) names.push_back(rule.var_names[v]);
      std::string warning =
          StrCat("rule `", FormatRule(program, rule), "` is unsafe: ",
                 "variable(s) ", StrJoin(names, ", "),
                 " range over the active domain");
      if (!out.negation_unsafe_vars[r].empty()) {
        std::vector<std::string> neg_names;
        for (uint32_t v : out.negation_unsafe_vars[r]) {
          neg_names.push_back(rule.var_names[v]);
        }
        warning += StrCat("; variable(s) ", StrJoin(neg_names, ", "),
                          " occur under negation unbound, so their meaning "
                          "is semantics-dependent");
      }
      out.warnings.push_back(std::move(warning));
    }
  }
  return out;
}

Status CheckNegationSafety(const Program& program) {
  std::vector<std::string> errors;
  for (size_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    const std::vector<uint32_t> vars =
        NegationUnsafeVars(rule, BoundVariables(rule));
    if (vars.empty()) continue;
    std::vector<std::string> names;
    for (uint32_t v : vars) names.push_back(rule.var_names[v]);
    errors.push_back(
        StrCat("rule `", FormatRule(program, rule),
               "` is negation-unsafe: variable(s) ", StrJoin(names, ", "),
               " occur in a negated literal but are bound by no positive "
               "body literal"));
  }
  if (errors.empty()) return Status::OK();
  return Status::InvalidArgument(StrJoin(errors, "; "));
}

}  // namespace inflog
