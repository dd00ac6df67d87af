// Static analysis of DATALOG¬ programs: predicate dependency graph, its
// strongly connected components, stratifiability (Chandra–Harel /
// Apt–Blair–Walker layering), and safety (range restriction) diagnostics.
//
// The dependency graph is decomposed once, by one linear pass of Tarjan's
// algorithm. The strata, which order the stratified evaluator's rules,
// and the incremental maintenance units (src/eval/incremental.h) both
// come from these components. Reachability from given predicates
// (dead-rule elimination, the rewrites' needed part, the inliner's
// recursion test) is ReachablePredicates.
//
// Stratifiability matters because the paper contrasts its proposal with the
// stratified semantics, which "cannot assign meaning to all DATALOG¬
// programs"; the analysis decides which of the two applies. Safety is
// advisory only: the paper's own programs (the toggle rule, the succinct
// input-gate rules) are unsafe and are evaluated over the active domain.

#ifndef INFLOG_AST_ANALYSIS_H_
#define INFLOG_AST_ANALYSIS_H_

#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/base/status.h"

namespace inflog {

/// One edge of the predicate dependency graph: `head` depends on `body`
/// through some rule; `negative` if through a negated literal.
struct DependencyEdge {
  uint32_t head;
  uint32_t body;
  bool negative;
};

/// Result of AnalyzeProgram.
struct ProgramAnalysis {
  /// Dependency edges, deduplicated (an edge is negative if ANY rule uses
  /// the body predicate negatively under that head).
  std::vector<DependencyEdge> edges;

  /// The strongly connected components of the dependency graph, over
  /// every predicate id, dependency-first: every edge stays inside its
  /// component or leads to an earlier one. Members ascend by id. The
  /// order is fixed by the program text: the search starts from the IDB
  /// predicates in Program::idb_predicates() order, then from the other
  /// ids, and follows each head's edges in rule order.
  std::vector<std::vector<uint32_t>> components;

  /// True iff no cycle of dependencies passes through a negative edge,
  /// that is, no negative edge lies inside a component.
  bool stratifiable = false;

  /// Stratum per predicate id. EDB predicates are stratum 0; IDB strata
  /// start at 0 as well (an IDB predicate with no negative dependencies can
  /// share stratum 0). Meaningful only if `stratifiable`.
  std::vector<int> stratum;

  /// Number of strata (max stratum + 1). Meaningful only if `stratifiable`.
  int num_strata = 0;

  /// Per-rule safety: for each rule, the list of variable indices that are
  /// not range-restricted (bound by no positive body literal, directly or
  /// through equalities). Empty inner vectors mean the rule is safe.
  std::vector<std::vector<uint32_t>> unsafe_vars;

  /// Per-rule negation safety: the subset of unsafe_vars that occurs in a
  /// negated body literal. These are the dangerous ones — an unbound
  /// variable under negation reads as "some universe element is absent",
  /// and what that means differs across the four semantics (the grounded
  /// pipelines instantiate the negated atom per universe element, the
  /// relational executor enumerates and filters), so the paper's
  /// active-domain reading is the only guard against surprises.
  /// CheckNegationSafety turns a nonempty entry into a hard error.
  std::vector<std::vector<uint32_t>> negation_unsafe_vars;

  /// Human-readable warnings (one per unsafe rule).
  std::vector<std::string> warnings;

  /// True iff every rule is safe.
  bool AllSafe() const {
    for (const auto& v : unsafe_vars) {
      if (!v.empty()) return false;
    }
    return true;
  }

  /// True iff no rule has an unbound variable under negation.
  bool NegationSafe() const {
    for (const auto& v : negation_unsafe_vars) {
      if (!v.empty()) return false;
    }
    return true;
  }
};

/// Runs all analyses over `program`.
ProgramAnalysis AnalyzeProgram(const Program& program);

/// Rejects (InvalidArgument) programs with a rule whose negated literal
/// carries a variable bound by no positive body literal (directly or
/// through the equality closure), naming every offending rule and
/// variable. OK when every rule is negation-safe. Head variables that are
/// merely unsafe (range over the active domain) do not trip this check —
/// only unbound variables under negation do. Callers opt in through
/// EvalContextOptions / EvalOptions::reject_unsafe_negation; the default
/// keeps the paper's active-domain reading available.
Status CheckNegationSafety(const Program& program);

/// The predicates that `from` reaches over one or more head → body edges
/// of `rules`, through positive and negated literals alike, as a mask
/// over `num_predicates` ids. A predicate of `from` is marked only when
/// it reaches itself, that is, when it is recursive. Takes bare rules so
/// the program rewrites can ask it of a rule set in progress.
std::vector<bool> ReachablePredicates(const std::vector<Rule>& rules,
                                      size_t num_predicates,
                                      const std::vector<uint32_t>& from);

/// Computes the range-restriction closure for one rule: variables bound by
/// positive body atoms, closed under equalities with constants or bound
/// variables. Exposed for testing.
std::vector<bool> BoundVariables(const Rule& rule);

/// The existential components of `rule`'s body. The body splits into
/// connected components by shared variables (two literals are connected
/// when they share a variable, directly or through other literals); a
/// component is existential when it has a variable and none of its
/// variables occurs in the head. Such a component only needs some
/// witness: `T(Z) :- P(X), !T(W).` has two, {P(X)} and {!T(W)}, so the
/// rule fires for every Z as soon as some P(x) holds and some T(w) does
/// not. The grounder replaces each one by an auxiliary atom, so it does
/// not enumerate the cross product of the components. Each component
/// lists its body indices ascending; components are ordered by their
/// first literal.
std::vector<std::vector<size_t>> ExistentialComponents(const Rule& rule);

}  // namespace inflog

#endif  // INFLOG_AST_ANALYSIS_H_
