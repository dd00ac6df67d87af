// Grounder: instantiates (π, D) into a GroundProgram.
//
// Every rule is instantiated over the evaluation universe (active domain ∪
// program constants) with the paper's semantics: all variables, including
// head-only and negation-only variables, range over the universe. The EDB
// part of each instantiation is evaluated against the database (positive
// EDB atoms drive the enumeration as joins; negated EDB atoms, equalities
// and inequalities filter); instantiations whose EDB part fails are
// dropped, and the surviving IDB literals form the ground rule.
//
// Existential body components (ExistentialComponents, src/ast/analysis.h:
// body parts sharing no variable with the head or the rest of the body)
// are projected first, lpopt-style (Morak & Woltran, ICLP 2012): each is
// grounded on its own into its distinct ground bodies. One that holds an
// IDB literal becomes an auxiliary 0-ary atom with one ground rule per
// body; the rule keeps the atom in its place. An EDB-only one is decided
// once, here: the rule is dropped when it has no witness, and keeps only
// its other literals otherwise. A rule left with no instance keeps no
// auxiliary rules either. Unfolding the auxiliary atom gives back the original rule, so the
// fixpoints, their count, the well-founded model and the stable models
// are unchanged on the program's predicates — but π_COL's toggle
// T(z) ← P(x), ¬T(w) grounds to 3|A| rules instead of |A|³.

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
  /// empty relations.
  bool allow_missing_edb = false;
};

/// Grounds `program` against `database`.
Result<GroundProgram> GroundProgramFor(const Program& program,
                                       const Database& database,
                                       const GrounderOptions& options = {});

}  // namespace inflog

#endif  // INFLOG_GROUND_GROUNDER_H_
