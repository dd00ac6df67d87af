// Stable model semantics (Gelfond–Lifschitz), as a filter over the
// paper's fixpoints.
//
// Every stable model is a fixpoint of Θ (a supported model), but not
// conversely: S(x) ← S(x) supports any subset of A while only ∅ is
// stable. The enumerator therefore runs the supported-model pipeline
// (ground → completion → CDCL with blocking clauses) and keeps the models
// that equal the least model of their own reduct. This is the modern
// answer-set view of the negation problem the paper posed; the
// experiments use it to situate the fixpoint/inflationary semantics
// against the XSB/DLV/clingo lineage.

#ifndef INFLOG_EVAL_STABLE_H_
#define INFLOG_EVAL_STABLE_H_

#include <vector>

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/eval/executor.h"
#include "src/eval/idb_state.h"
#include "src/fixpoint/analysis.h"
#include "src/relation/database.h"

namespace inflog {

/// Cap on the number of *supported* models one enumeration accepts: when
/// it finds one more, EnumerateStableModels fails with ResourceExhausted.
inline constexpr size_t kMaxSupportedModels = 100'000;

/// Result of stable-model enumeration.
struct StableResult {
  /// The stable models, sorted canonically (by ground-atom assignment) so
  /// the result is bit-identical whatever order the solver settings
  /// (reduction interval) find them in.
  std::vector<IdbState> models;
  /// Supported models (fixpoints) examined — ≥ models.size(); the gap is
  /// the supported-but-not-stable count (e.g. self-supported loops).
  size_t supported_examined = 0;
  /// Run counters; the sat_* block carries the CDCL statistics of the
  /// supported-model enumeration.
  EvalStats stats;
};

/// Copies a solver's CDCL counters into the sat_* block of `stats`.
void FillSatStats(const sat::SolverStats& s, EvalStats* stats);

/// Enumerates the stable models of (π, D).
Result<StableResult> EnumerateStableModels(const Program& program,
                                           const Database& database,
                                           const AnalyzeOptions& options = {});

}  // namespace inflog

#endif  // INFLOG_EVAL_STABLE_H_
