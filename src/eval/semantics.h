// The one dispatch over the paper's four semantics.
//
// Each semantics is a fixpoint construction over one (π, D): Θ^∞
// (inflationary), stratum-by-stratum least fixpoints (stratified), the
// alternating fixpoint of the reduct operator (well-founded), and the
// supported models that equal the least model of their own reduct
// (stable). EvalSemantics is the only place that picks the construction
// for a SemanticsKind: Engine::Evaluate and every full evaluation of an
// IncrementalSession (its initial run and its oracle recomputes) call it.

#ifndef INFLOG_EVAL_SEMANTICS_H_
#define INFLOG_EVAL_SEMANTICS_H_

#include <string_view>
#include <variant>

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/eval/context.h"
#include "src/eval/inflationary.h"
#include "src/eval/stable.h"
#include "src/eval/stratified.h"
#include "src/eval/wellfounded.h"
#include "src/relation/database.h"
#include "src/sat/solver.h"

namespace inflog {

/// The four semantics the engine can evaluate a program under.
enum class SemanticsKind {
  kInflationary,  ///< Θ^∞ — the paper's proposal; total and PTIME.
  kStratified,    ///< Stratum-by-stratum least fixpoints; partial.
  kWellFounded,   ///< Three-valued alternating fixpoint; total.
  kStable,        ///< Gelfond–Lifschitz answer sets; 0..2^k models.
};

/// Canonical lowercase name ("inflationary", ...), for CLIs and logs.
std::string_view SemanticsKindName(SemanticsKind kind);

/// Parses a SemanticsKindName back; InvalidArgument on unknown names.
Result<SemanticsKind> ParseSemanticsKind(std::string_view name);

/// Everything one evaluation under a SemanticsKind reads. The
/// well-founded pipeline runs at the grounder defaults.
struct SemanticsOptions {
  SemanticsKind semantics = SemanticsKind::kStratified;
  /// Semi-naive stages for the relational pipelines (inflationary,
  /// stratified); false runs the naive re-derive-everything driver.
  bool use_seminaive = true;
  /// Threads, shards, scheduler, slicing and optimizer passes of the
  /// relational pipelines. reject_unsafe_negation applies to all four
  /// semantics: the grounded pipelines build no EvalContext, so
  /// EvalSemantics checks it up front.
  EvalContextOptions context;
  /// CDCL configuration of the stable pipeline. Results are identical
  /// for every configuration (enumeration is canonicalized); only the
  /// search statistics vary.
  sat::SolverOptions sat;
};

/// Result of one evaluation: the full semantics-specific result plus a
/// uniform view of the canonical two-valued answer.
struct EvalOutcome {
  SemanticsKind kind;
  std::variant<InflationaryResult, StratifiedResult, WellFoundedResult,
               StableResult>
      detail;
  /// For kStable: one empty relation per IDB predicate, the answer when
  /// there is no stable model.
  IdbState no_model;

  /// The "true" part of the answer: Θ^∞ (inflationary), the stratified
  /// model, the well-founded true atoms, or the first stable model found
  /// (`no_model` when there is none). Always one relation per IDB
  /// predicate. Borrowed from this outcome: valid while it is alive.
  const IdbState& state() const;
  IdbState& state();

  /// The executor counters of the run (the SAT counters for the stable
  /// pipeline), or nullptr for the well-founded pipeline, which reports
  /// no counters: it runs no SAT search, and the executor counters of its
  /// grounder's binding rules are dropped. Borrowed from `detail`.
  const EvalStats* stats() const;
};

/// Evaluates (program, database) under `options.semantics`. `ground`,
/// when given, must be a grounding of (program, database) at the grounder
/// defaults: the well-founded pipeline then runs only its alternation over
/// it. The other pipelines ignore it.
Result<EvalOutcome> EvalSemantics(const Program& program,
                                  const Database& database,
                                  const SemanticsOptions& options,
                                  const GroundProgram* ground = nullptr);

}  // namespace inflog

#endif  // INFLOG_EVAL_SEMANTICS_H_
