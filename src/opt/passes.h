// Optimizer pass selection: which optimizer passes run between parsing
// and FixpointDriver dispatch.
//
// Two families share this selection:
//  - Plan-level passes (dce / reorder / share, src/opt/pass_manager.h)
//    run between rule lowering and fixpoint dispatch. Every plan pass
//    preserves the evaluated semantics (relations, stage sizes,
//    TupleStage) exactly; the selection only moves plan cost.
//  - Program-level rewrites (magic / inline, src/opt/program_rewrite.h)
//    run before lowering and only when output predicates are declared
//    (EvalContextOptions::output_predicates). They preserve the declared
//    output predicates' relations as SETS; non-output relations and
//    stage bookkeeping of a rewritten run are unspecified, mirroring the
//    dead-rule-elimination contract.
//
// This header is dependency-free below base/ so EvalContextOptions can
// embed the selection without the eval layer depending on the optimizer
// implementation.

#ifndef INFLOG_OPT_PASSES_H_
#define INFLOG_OPT_PASSES_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/base/result.h"

namespace inflog {

/// Per-pass enable flags for the optimizer pipeline. Program rewrites
/// run first (inline → magic), then the plan pipeline runs the enabled
/// plan passes in the fixed order dead-rule elimination → join
/// reordering → subplan sharing.
struct OptimizerPasses {
  /// Drop rules whose head predicate cannot reach any output predicate
  /// in the dependency graph. Inert unless output predicates are named
  /// (EvalContextOptions::output_predicates): with no declared outputs
  /// every IDB predicate is an output and every rule is live.
  bool eliminate_dead_rules = true;
  /// Replace the greedy bound-column atom order with a cost-based one
  /// (DP over bodies of up to kMaxDpAtoms atoms, driven by relation row
  /// counts and sampled posting-list lengths; greedy beyond that).
  bool reorder_joins = true;
  /// Compute structurally equal join prefixes shared by several plans of
  /// a stage once per stage into a cached intermediate.
  bool share_subplans = true;
  /// Magic-sets / demand transformation: adorn the program from the
  /// declared outputs' binding patterns and guard rule bodies with
  /// magic_P_α seed predicates so fixpoints only derive demanded
  /// tuples. Inert without outputs; bails out (unrewritten program)
  /// when negation would cross a magic guard. See
  /// src/opt/program_rewrite.h for the exact applicability gates.
  bool magic_sets = true;
  /// Inline single-use non-recursive predicates into their one call
  /// site (body substitution with fresh-variable renaming); the inlined
  /// rule then disappears. Inert without outputs.
  bool inline_rules = true;

  static OptimizerPasses All() { return OptimizerPasses{}; }
  static OptimizerPasses None() { return {false, false, false, false, false}; }

  bool any() const {
    return eliminate_dead_rules || reorder_joins || share_subplans ||
           magic_sets || inline_rules;
  }

  bool operator==(const OptimizerPasses& o) const {
    return eliminate_dead_rules == o.eliminate_dead_rules &&
           reorder_joins == o.reorder_joins &&
           share_subplans == o.share_subplans && magic_sets == o.magic_sets &&
           inline_rules == o.inline_rules;
  }
  bool operator!=(const OptimizerPasses& o) const { return !(*this == o); }

  /// Join reordering searches orders exhaustively (DP over subsets) up to
  /// this many positive body atoms and keeps the greedy order beyond.
  static constexpr size_t kMaxDpAtoms = 8;
};

/// Parses a pass list: "all", "none", or a comma-separated subset of
/// OptimizerPassTokens() enabling exactly the named passes.
/// InvalidArgument on unknown names.
Result<OptimizerPasses> ParseOptimizerPasses(std::string_view text);

/// Canonical rendering: "all", "none", or the comma-joined enabled pass
/// names — ParseOptimizerPasses round-trips it.
std::string OptimizerPassesName(const OptimizerPasses& passes);

/// The individual pass tokens ParseOptimizerPasses accepts (excluding
/// the "all"/"none" aggregates), in canonical rendering order (the
/// CLI's --optimize usage line lists them).
std::vector<std::string_view> OptimizerPassTokens();

}  // namespace inflog

#endif  // INFLOG_OPT_PASSES_H_
