// Clark completion of a ground program, encoded to CNF.
//
// S is a fixpoint of (π, D) — Θ(S) = S — iff S is a supported model of the
// grounding: an atom is true exactly when some ground rule with that head
// has a true body. That biconditional, atom by atom, is Clark's completion:
//
//    a  ↔  body₁ ∨ body₂ ∨ ... ∨ body_k     (rules with head a)
//
// Atoms heading no ground rule are false in every fixpoint and get no SAT
// variable; bodies referencing them positively are dropped, negated
// references are removed as vacuously true. Multi-literal bodies get a
// Tseitin definition variable, shared across heads when the same body
// recurs. The grounding's auxiliary atoms (projected existential body
// components, src/ground/grounder.h) are encoded like any other atom:
// the toggle T(z) ← ¬Q(u), ¬T(w) arrives as a₁ ← ¬Q(u), a₂ ← ¬T(w) and
// T(z) ← a₁, a₂, so its completion is linear in |A|, with one shared
// {a₁, a₂} body for every head (unprojected, its |A|³ instances would
// need |A|² body definitions).
//
// This is the bridge from the paper's Theorems 1–3 to the CDCL engine:
// fixpoint existence ⇔ SAT of the completion.

#ifndef INFLOG_FIXPOINT_COMPLETION_H_
#define INFLOG_FIXPOINT_COMPLETION_H_

#include <vector>

#include "src/ground/ground_program.h"
#include "src/sat/cnf.h"

namespace inflog {

/// CNF encoding of the completion plus the atom/variable correspondence.
struct CompletionEncoding {
  sat::Cnf cnf;
  /// SAT variable per ground atom id, or -1 when the atom is unsupported
  /// (false in every fixpoint).
  std::vector<int32_t> atom_vars;
  /// Number of Tseitin body-definition variables introduced.
  size_t num_body_vars = 0;

  /// Truth of every ground atom under a solver model.
  std::vector<bool> DecodeAtoms(const std::vector<bool>& model) const {
    std::vector<bool> out(atom_vars.size(), false);
    for (size_t a = 0; a < atom_vars.size(); ++a) {
      if (atom_vars[a] >= 0) out[a] = model[atom_vars[a]];
    }
    return out;
  }
};

/// Builds the completion CNF for `ground` (rules_by_head must be indexed).
CompletionEncoding EncodeCompletion(const GroundProgram& ground);

}  // namespace inflog

#endif  // INFLOG_FIXPOINT_COMPLETION_H_
