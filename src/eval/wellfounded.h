// Well-founded semantics via Van Gelder's alternating fixpoint.
//
// The paper's closing line of work: after showing that plain fixpoints
// are intractable, the field split between the inflationary semantics
// (this library's core) and three-valued/stable refinements of negation
// as failure. The well-founded model is the ⊆-least three-valued model:
// iterate the antimonotone operator S(I) = least model of the reduct P^I:
//
//   U₀ = ∅,  V₀ = S(U₀),  U_{k+1} = S(V_k),  V_{k+1} = S(U_{k+1});
//
// U ↑ converges to the well-founded true atoms, V ↓ to the complement of
// the false atoms; V* \ U* are the undefined atoms. On stratified
// programs the model is total and equals the stratified semantics
// (property-tested); on π₁ over cycles, the alternating atoms come out
// undefined — exactly where plain fixpoint semantics fragments into 0, 2,
// or 2ᵏ incomparable fixpoints.

#ifndef INFLOG_EVAL_WELLFOUNDED_H_
#define INFLOG_EVAL_WELLFOUNDED_H_

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/eval/idb_state.h"
#include "src/ground/grounder.h"
#include "src/relation/database.h"

namespace inflog {

/// The three-valued well-founded model.
struct WellFoundedResult {
  /// Atoms true in the well-founded model.
  IdbState true_state;
  /// Atoms undefined in the well-founded model.
  IdbState undefined_state;
  /// Number of alternating-fixpoint rounds until convergence.
  size_t rounds = 0;
  /// True iff no atom is undefined (the model is total / two-valued).
  bool total = false;
};

/// Computes the well-founded model of (π, D): grounds it, then runs
/// AlternatingFixpoint.
Result<WellFoundedResult> EvalWellFounded(
    const Program& program, const Database& database,
    const GrounderOptions& options = {});

/// Van Gelder's alternation over `ground`, a grounding of (π, D).
WellFoundedResult AlternatingFixpoint(const Program& program,
                                      const GroundProgram& ground);

}  // namespace inflog

#endif  // INFLOG_EVAL_WELLFOUNDED_H_
