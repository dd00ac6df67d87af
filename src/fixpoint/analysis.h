// FixpointAnalyzer: the executable form of the paper's Section 3.
//
// For a fixed program π and input database D it answers, through the
// ground-completion-CDCL pipeline:
//
//   * HasFixpoint / FindFixpoint     — Theorem 1's NP problem;
//   * UniqueFixpoint                 — Theorem 2's US problem
//                                      (two SAT calls: solve, block, solve);
//   * EnumerateFixpoints / Count     — the full fixpoint structure (the
//                                      §2 example: paths, cycles, Gₙ);
//   * LeastFixpoint                  — Theorem 3's problem, decided by the
//                                      paper's observation that a least
//                                      fixpoint exists iff the
//                                      intersection of all fixpoints is a
//                                      fixpoint. The intersection is
//                                      computed with polynomially many SAT
//                                      calls (FONP-style: first-order
//                                      combination of NP oracle answers).
//
// Every model returned by the solver is re-verified against the direct
// Θ(S) = S check, so the SAT path never silently diverges from the
// semantics.
//
// All of an analyzer's queries share one incremental CDCL solver, so
// clauses learnt by one query prune the next query's search. The first
// solve carries no query clause, so its answer — the first model, or
// UNSAT — is memoized as the first answer of every query: UniqueFixpoint
// after HasFixpoint makes one solve, not two, and on a refuted instance
// none. Each query adds its clauses under its own activation literal and
// retires that literal when it ends, so no query's clauses cut off
// another's models. Once the retired clauses outnumber the completion's,
// a root sweep collects them, so an analyzer holds at most the
// completion's count plus its last query's retired clauses, however many
// models its queries have blocked.
//
// The grounding's auxiliary atoms (projected existential components, see
// src/ground/grounder.h) are fixed by their completion once the program's
// atoms are: blocking clauses and the least-fixpoint queries range over
// the program's atoms only, so each fixpoint is found once.

#ifndef INFLOG_FIXPOINT_ANALYSIS_H_
#define INFLOG_FIXPOINT_ANALYSIS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/eval/idb_state.h"
#include "src/fixpoint/completion.h"
#include "src/ground/grounder.h"
#include "src/relation/database.h"
#include "src/sat/solver.h"

namespace inflog {

/// Limits for fixpoint analysis.
struct AnalyzeOptions {
  GrounderOptions grounder;
  /// The configuration of the analyzer's one solver. Its conflict budget
  /// (max_conflicts) therefore covers the whole analyzer, every query
  /// together: once a query has spent it, each later query that needs a
  /// conflict fails with ResourceExhausted too.
  sat::SolverOptions solver;
};

/// A grounding of (π, D) and the Clark completion of it. An analyzer holds
/// it by shared_ptr, so Engine::Evaluate can reuse the grounding of a live
/// analyzer instead of grounding again.
struct GroundCompletion {
  GroundProgram ground;
  CompletionEncoding encoding;
};

/// Three-way answer for unique-fixpoint queries (the class US asks for
/// "exactly one accepting computation").
enum class UniqueStatus { kNoFixpoint, kUnique, kMultiple };

/// Outcome of the least-fixpoint decision.
struct LeastFixpointOutcome {
  bool has_fixpoint = false;  ///< (π, D) has at least one fixpoint.
  bool has_least = false;     ///< The intersection is itself a fixpoint.
  /// The coordinatewise intersection of all fixpoints (meaningful iff
  /// has_fixpoint). When has_least, this is the least fixpoint.
  IdbState intersection;
  /// SAT oracle calls used (the FONP flavor of Theorem 3 made concrete):
  /// the first answer, memoized or not, then one per query clause. The
  /// rounds follow the models found, and on one solver those depend on
  /// what earlier queries learnt, so the count can differ after them; it
  /// stays within [1, |C₀|+1].
  size_t sat_calls = 0;
};

struct StableResult;

/// Per-(π, D) analyzer. Holds the grounding and its completion, and one
/// incremental CDCL solver over the encoding, built at the first query and
/// shared by every later one. Move-only.
class FixpointAnalyzer {
 public:
  /// Grounds and encodes. `program` and `database` must outlive the
  /// analyzer.
  static Result<FixpointAnalyzer> Create(const Program* program,
                                         const Database* database,
                                         AnalyzeOptions options = {});

  /// Does (π, D) have any fixpoint?
  Result<bool> HasFixpoint();

  /// Some fixpoint, or nullopt when none exists: always the first one
  /// this analyzer found, whatever ran before.
  Result<std::optional<IdbState>> FindFixpoint();

  /// Up to `limit` fixpoints (0 = all). The returned set is sorted
  /// canonically (by ground-atom assignment), so a full enumeration is
  /// identical across solver settings (reduction interval) and earlier
  /// queries; with a nonzero `limit`, *which* fixpoints are found first
  /// remains solver-dependent.
  Result<std::vector<IdbState>> EnumerateFixpoints(size_t limit = 0);

  /// Number of fixpoints, counted by enumeration up to `limit`
  /// (ResourceExhausted beyond it).
  Result<uint64_t> CountFixpoints(uint64_t limit = 1'000'000);

  /// None / exactly one / more than one fixpoint.
  Result<UniqueStatus> UniqueFixpoint();

  /// Decides least-fixpoint existence per Theorem 3.
  Result<LeastFixpointOutcome> LeastFixpoint();

  /// Direct semantic check Θ(state) = state (independent of SAT).
  Result<bool> VerifyFixpoint(const IdbState& state) const;

  const GroundProgram& ground() const { return grounding_->ground; }
  const CompletionEncoding& encoding() const { return grounding_->encoding; }
  /// The grounding and completion, for Engine::Evaluate to share
  /// (Engine::MakeAnalyzer keeps a weak reference to it).
  const std::shared_ptr<const GroundCompletion>& grounding() const {
    return grounding_;
  }

  /// The solver's counters: every query on this analyzer so far, zeros
  /// before the first.
  sat::SolverStats sat_stats() const {
    return solver_ == nullptr ? sat::SolverStats{} : solver_->stats();
  }

 private:
  // The stable pipeline filters the supported models ForEachModel finds.
  friend Result<StableResult> EnumerateStableModels(const Program&,
                                                    const Database&,
                                                    const AnalyzeOptions&);

  FixpointAnalyzer(const Program* program, const Database* database,
                   AnalyzeOptions options,
                   std::shared_ptr<const GroundCompletion> grounding)
      : program_(program),
        database_(database),
        options_(std::move(options)),
        grounding_(std::move(grounding)) {}

  /// Clause blocking the given assignment of the program's atoms.
  sat::Clause BlockingClause(const std::vector<bool>& atoms) const;

  /// The solve → decode → block loop behind every query. Visits models
  /// until they run out or `limit` were visited (0 = no limit), and
  /// returns how many it visited: fewer than `limit` means no model is
  /// left unvisited. The first model is the memoized first answer, made
  /// by the analyzer's first solve, which builds the solver. Each model's
  /// atom assignment goes to `visit` (when given) and, unless it was the
  /// `limit`-th, is blocked by `block(atoms)` (BlockingClause when `block`
  /// is null) before the next solve; an empty block leaves no model to
  /// find. The query adds each block as block ∨ ¬act, over an activation
  /// variable act allocated at its first block, and solves assuming act;
  /// on every exit the unit ¬act retires the blocks: they are then
  /// satisfied at the root and no later query sees them. Before a query
  /// adds its first block, once the blocks retired since the last sweep
  /// outnumber the completion's clauses, Solver::Simplify collects them
  /// and the learnt clauses that rest on them; each sweep's pass over the
  /// completion is paid for by as many retired blocks. ResourceExhausted
  /// when a solve hits the conflict budget or the stop flag; such a solve
  /// memoizes nothing.
  Result<uint64_t> ForEachModel(
      uint64_t limit,
      const std::function<void(const std::vector<bool>&)>& visit = nullptr,
      const std::function<sat::Clause(const std::vector<bool>&)>& block =
          nullptr);

  /// Decodes an atom assignment and verifies it with Θ(S) = S.
  Result<IdbState> DecodeModel(const std::vector<bool>& atoms) const;

  const Program* program_;
  const Database* database_;
  AnalyzeOptions options_;
  std::shared_ptr<const GroundCompletion> grounding_;
  std::unique_ptr<sat::Solver> solver_;  // built at the first query
  uint64_t unswept_blocks_ = 0;  // blocks added since the last Simplify
  // The first solve's answer, memoized once a solve ends kSat or kUnsat:
  // the first model's atoms, or nullopt when there is none.
  bool first_known_ = false;
  std::optional<std::vector<bool>> first_model_;
};

}  // namespace inflog

#endif  // INFLOG_FIXPOINT_ANALYSIS_H_
