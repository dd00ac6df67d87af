// Program-level optimizer rewrites: rule inlining and the magic-sets /
// demand transformation, both driven by the declared output predicates
// (EvalContextOptions::output_predicates, the CLI's --query).
//
// Unlike the plan-level passes (src/opt/pass_manager.h), which preserve
// relations, stage counts and tuple stages exactly, these rewrites
// replace the program before lowering and guarantee only that the
// declared output predicates' relations are preserved as SETS — the
// same contract dead-rule elimination already documents for non-output
// predicates. Without declared outputs both rewrites are inert.
//
// Applicability gates (RewriteProgramForOutputs bails out and leaves
// the program unrewritten when they fail):
//  - Magic sets requires the needed part (rules reachable from the
//    outputs in the dependency graph) to be free of negated IDB
//    literals, under either semantics: a magic guard on a rule whose
//    body negates a derived predicate would shrink the negated
//    relation and flip the negation's meaning. Negated EDB literals
//    are fine — they are constant during evaluation and never carry
//    demand.
//  - Inlining under the stratified semantics allows IDB negation
//    (unfolding a positive atom preserves the perfect model), but
//    under the inflationary semantics it also requires the needed
//    part to be free of negated IDB literals: Θ^∞ reads stage timing,
//    and collapsing a rule chain can change the stage at which a
//    negated predicate is consulted.
//
// The rewritten program mentions every constant of the original (a
// self-recursive anchor rule re-introduces any that the rewrite would
// drop), so active-domain-dependent rules keep their universe.

#ifndef INFLOG_OPT_PROGRAM_REWRITE_H_
#define INFLOG_OPT_PROGRAM_REWRITE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/eval/context.h"
#include "src/eval/idb_state.h"
#include "src/opt/passes.h"

namespace inflog {

/// Which evaluator the rewritten program will run under; decides the
/// inlining negation gate (see the header comment).
enum class RewriteSemantics { kInflationary, kStratified };

/// A mutable (catalog, rules) workspace the rewrites operate on.
/// Predicate ids are indices into names/arities; ids of the source
/// program are preserved and synthetic predicates (magic_P_α, P_α) are
/// appended, so rules can be edited without renumbering.
struct RewriteWorkspace {
  std::vector<std::string> names;
  std::vector<size_t> arities;
  /// True iff the predicate heads some rule (IDB). Synthetic predicates
  /// are IDB by construction; a predicate inlined away keeps its flag
  /// but is no longer referenced.
  std::vector<bool> is_idb;
  std::vector<Rule> rules;

  /// Builds the workspace view of `program`.
  explicit RewriteWorkspace(const Program& program);

  /// Appends a synthetic IDB predicate, uniquifying `name` against the
  /// catalog ("name", "name_2", "name_3", ...). Returns its id.
  uint32_t AddPredicate(std::string name, size_t arity);
};

/// Renumbers a rule's variables to exactly those appearing in its head
/// or body (dropping unused indices), keeping names. Rewrites that
/// splice literals out of a body call this so no rule carries a
/// variable the evaluator would have to enumerate over the universe.
void CompactRuleVariables(Rule* rule);

/// Result of RewriteProgramForOutputs.
struct ProgramRewriteResult {
  /// False = nothing rewritten; evaluate the original program.
  bool active = false;
  /// The rewritten program (set iff active). Its predicate catalog is
  /// rebuilt from the surviving rules, so callers must remap IDB state
  /// back to the original program's layout by predicate name.
  std::shared_ptr<Program> program;
  uint64_t magic_rules_generated = 0;
  uint64_t rules_inlined = 0;
};

/// Applies the enabled program rewrites (inline first, then magic) for
/// the declared outputs. Inert (active = false) when `outputs` is
/// empty, when a name is unknown or not IDB (the unrewritten
/// evaluation then reports the existing binding error), when the gates
/// above fail, or when neither rewrite changes anything.
ProgramRewriteResult RewriteProgramForOutputs(
    const Program& program, const std::vector<std::string>& outputs,
    const OptimizerPasses& passes, RewriteSemantics semantics);

/// Moves a rewritten run's `state` back into `original`'s idb_index
/// layout, matching predicates by name. Predicates the rewrite dropped
/// get empty relations (unspecified under declared outputs, matching the
/// dead-rule contract). Returns the map it used — for each original
/// idb_index the rewritten one, or -1 when dropped — so callers can move
/// their other per-predicate tables the same way.
std::vector<int> RemapToOriginalLayout(const Program& original,
                                       const Program& rewritten,
                                       IdbState* state);

/// The relational evaluators' rewrite-then-evaluate path. `eval` maps a
/// Program to Result<R>, R having `state` and `stats` members. Without
/// an active rewrite for the outputs `context` declares this is
/// eval(program). Otherwise it evaluates the rewritten program, records
/// the rewrite counters in the result's stats, moves its state back with
/// RemapToOriginalLayout, and passes the index map to `remap(map, &r)`
/// for the result's other per-predicate tables.
template <typename Eval, typename Remap>
auto EvalWithRewrites(const Program& program,
                      const EvalContextOptions& context,
                      RewriteSemantics semantics, const Eval& eval,
                      const Remap& remap) -> decltype(eval(program)) {
  const ProgramRewriteResult rewrite = RewriteProgramForOutputs(
      program, context.output_predicates, context.optimizer_passes,
      semantics);
  if (!rewrite.active) return eval(program);
  INFLOG_ASSIGN_OR_RETURN(auto result, eval(*rewrite.program));
  result.stats.opt_magic_rules_generated = rewrite.magic_rules_generated;
  result.stats.opt_rules_inlined = rewrite.rules_inlined;
  remap(RemapToOriginalLayout(program, *rewrite.program, &result.state),
        &result);
  return result;
}

}  // namespace inflog

#endif  // INFLOG_OPT_PROGRAM_REWRITE_H_
