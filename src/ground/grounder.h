// Grounder: instantiates (π, D) into a GroundProgram.
//
// Every rule is instantiated over the evaluation universe (active domain ∪
// program constants) with the paper's semantics: all variables, including
// head-only and negation-only variables, range over the universe. The EDB
// part of each instantiation (positive and negated EDB atoms, equalities
// and inequalities) is evaluated against the database; instantiations
// whose EDB part fails are dropped, and the surviving IDB literals form
// the ground rule.
//
// The EDB part runs on the relational core, the engine every other
// semantics joins with. Each part the grounder instantiates (a whole body,
// or the pieces projection splits it into, below) that has an EDB literal
// or (in)equality gets a binding rule
//   #g_k(v̄) :- <the part's EDB literals and (in)equalities>,
// where v̄ lists, by variable id, the head and IDB-literal variables those
// literals bind. The program plus these rules is the instantiation
// program: its EvalContext binds the EDB relations and the universe, and
// each binding rule is planned with PlanRule and run with ExecutePlan
// into a relation whose rows are the part's distinct bindings in the
// order the join first finds them (executor counters are not reported).
// A part without such literals has the one empty binding. Each binding is
// extended by every assignment of the part's other head and IDB-literal
// variables over the universe, enumerated as rules are emitted, so
// max_ground_rules stops a blowup after that many rules instead of after
// materializing its bindings.
//
// Existential body components (ExistentialComponents, src/ast/analysis.h:
// body parts sharing no variable with the head or the rest of the body)
// are projected first, lpopt-style (Morak & Woltran, ICLP 2012): each is
// grounded on its own into its distinct ground bodies. One that holds an
// IDB literal becomes an auxiliary 0-ary atom with one ground rule per
// body; the rule keeps the atom in its place. An EDB-only one is decided
// once, here: the rule is dropped when it has no witness, and keeps only
// its other literals otherwise. A rule left with no instance keeps no
// auxiliary rules either. Unfolding the auxiliary atom gives back the
// original rule, so the fixpoints, their count, the well-founded model
// and the stable models are unchanged on the program's predicates — but
// π_COL's toggle T(z) ← P(x), ¬T(w) grounds to 3|A| rules instead of
// |A|³.

#ifndef INFLOG_GROUND_GROUNDER_H_
#define INFLOG_GROUND_GROUNDER_H_

#include <cstdint>

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/ground/ground_program.h"
#include "src/relation/database.h"

namespace inflog {

/// Limits for the grounding phase.
struct GrounderOptions {
  /// Abort with ResourceExhausted beyond this many ground rules, the
  /// auxiliary atoms' defining rules included (the combined-complexity
  /// instances of Theorem 4 genuinely explode; this keeps benchmarks
  /// honest instead of hanging).
  uint64_t max_ground_rules = 5'000'000;
  /// If true, EDB predicates missing from the database are treated as
  /// empty relations (EvalContextOptions::allow_missing_edb).
  bool allow_missing_edb = false;

  bool operator==(const GrounderOptions&) const = default;
};

/// Grounds `program` against `database`.
Result<GroundProgram> GroundProgramFor(const Program& program,
                                       const Database& database,
                                       const GrounderOptions& options = {});

}  // namespace inflog

#endif  // INFLOG_GROUND_GROUNDER_H_
