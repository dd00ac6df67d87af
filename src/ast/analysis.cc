#include "src/ast/analysis.h"

#include <algorithm>
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

/// Tarjan's algorithm over `out_edges`, iterative so that a long chain
/// of rules cannot overflow the stack. A component pops only after every
/// component it reaches, so the list comes out dependency-first. The
/// depth-first search starts from `first_roots`, then from every other
/// predicate by id.
std::vector<std::vector<uint32_t>> DependencyFirstComponents(
    const std::vector<std::vector<DependencyEdge>>& out_edges,
    const std::vector<uint32_t>& first_roots) {
  const size_t n = out_edges.size();
  std::vector<std::vector<uint32_t>> components;
  std::vector<int64_t> index(n, -1);
  std::vector<int64_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack;
  int64_t counter = 0;
  struct Frame {
    uint32_t v;
    size_t edge;
  };
  std::vector<Frame> dfs;
  const auto open = [&](uint32_t v) {
    index[v] = low[v] = counter++;
    stack.push_back(v);
    on_stack[v] = true;
    dfs.push_back({v, 0});
  };
  std::vector<uint32_t> roots = first_roots;
  for (uint32_t p = 0; p < n; ++p) roots.push_back(p);
  for (const uint32_t root : roots) {
    if (index[root] != -1) continue;
    open(root);
    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      if (frame.edge < out_edges[frame.v].size()) {
        const uint32_t w = out_edges[frame.v][frame.edge++].body;
        if (index[w] == -1) {
          open(w);
        } else if (on_stack[w]) {
          low[frame.v] = std::min(low[frame.v], index[w]);
        }
        continue;
      }
      const uint32_t v = frame.v;
      dfs.pop_back();
      if (!dfs.empty()) {
        low[dfs.back().v] = std::min(low[dfs.back().v], low[v]);
      }
      if (index[v] != low[v]) continue;
      std::vector<uint32_t>& component = components.emplace_back();
      uint32_t w;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        component.push_back(w);
      } while (w != v);
      std::sort(component.begin(), component.end());
    }
  }
  return components;
}

}  // namespace

std::vector<bool> ReachablePredicates(const std::vector<Rule>& rules,
                                      size_t num_predicates,
                                      const std::vector<uint32_t>& from) {
  std::vector<std::vector<uint32_t>> body_of(num_predicates);
  for (const Rule& rule : rules) {
    for (const Literal& lit : rule.body) {
      if (lit.IsPositiveAtom() || lit.IsNegatedAtom()) {
        body_of[rule.head.predicate].push_back(lit.predicate);
      }
    }
  }
  std::vector<bool> reached(num_predicates, false);
  std::vector<uint32_t> stack = from;
  while (!stack.empty()) {
    const uint32_t p = stack.back();
    stack.pop_back();
    for (const uint32_t q : body_of[p]) {
      if (!reached[q]) {
        reached[q] = true;
        stack.push_back(q);
      }
    }
  }
  return reached;
}

ProgramAnalysis AnalyzeProgram(const Program& program) {
  ProgramAnalysis out;
  const size_t num_preds = program.num_predicates();

  // --- Dependency graph: each predicate's head → body edges in rule
  // order, and the same edges deduplicated, negative-dominant. ---
  std::vector<std::vector<DependencyEdge>> out_edges(num_preds);
  std::map<std::pair<uint32_t, uint32_t>, bool> edge_map;
  for (const Rule& rule : program.rules()) {
    for (const Literal& lit : rule.body) {
      if (!lit.IsPositiveAtom() && !lit.IsNegatedAtom()) continue;
      const bool neg = lit.IsNegatedAtom();
      out_edges[rule.head.predicate].push_back(
          DependencyEdge{rule.head.predicate, lit.predicate, neg});
      edge_map[{rule.head.predicate, lit.predicate}] |= neg;
    }
  }
  for (const auto& [key, neg] : edge_map) {
    out.edges.push_back(DependencyEdge{key.first, key.second, neg});
  }

  // --- Strata, one component at a time in dependency-first order: a
  // component takes the least stratum at or above every component it
  // reads and above every one it negates. A negative edge inside a
  // component is a cycle through negation. ---
  out.components = DependencyFirstComponents(out_edges,
                                             program.idb_predicates());
  std::vector<size_t> component_of(num_preds);
  for (size_t c = 0; c < out.components.size(); ++c) {
    for (const uint32_t p : out.components[c]) component_of[p] = c;
  }
  out.stratum.assign(num_preds, 0);
  out.stratifiable = true;
  out.num_strata = 1;
  for (size_t c = 0; c < out.components.size(); ++c) {
    int level = 0;
    for (const uint32_t p : out.components[c]) {
      for (const DependencyEdge& e : out_edges[p]) {
        if (e.negative && component_of[e.body] == c) out.stratifiable = false;
        level = std::max(level, out.stratum[e.body] + (e.negative ? 1 : 0));
      }
    }
    for (const uint32_t p : out.components[c]) out.stratum[p] = level;
    out.num_strata = std::max(out.num_strata, level + 1);
  }
  if (!out.stratifiable) {
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
