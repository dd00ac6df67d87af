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
// The grounding's auxiliary atoms (projected existential components, see
// src/ground/grounder.h) are fixed by their completion once the program's
// atoms are: blocking clauses, the least-fixpoint queries and variable
// freezing all range over the program's atoms only, so each fixpoint is
// found once and preprocessing is free to eliminate the auxiliaries.

#ifndef INFLOG_FIXPOINT_ANALYSIS_H_
#define INFLOG_FIXPOINT_ANALYSIS_H_

#include <cstdint>
#include <functional>
#include <optional>
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
  sat::SolverOptions solver;
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
  /// the first solve, then one per query clause. A query clause that the
  /// solver refutes as it is added counts too; its answer is UNSAT.
  size_t sat_calls = 0;
};

struct StableResult;

/// Per-(π, D) analyzer. Holds the grounding and its completion; each query
/// runs a fresh CDCL solver over the encoding.
class FixpointAnalyzer {
 public:
  /// Grounds and encodes. `program` and `database` must outlive the
  /// analyzer.
  static Result<FixpointAnalyzer> Create(const Program* program,
                                         const Database* database,
                                         AnalyzeOptions options = {});

  /// Does (π, D) have any fixpoint?
  Result<bool> HasFixpoint() const;

  /// Some fixpoint, or nullopt when none exists.
  Result<std::optional<IdbState>> FindFixpoint() const;

  /// Up to `limit` fixpoints (0 = all). The returned set is sorted
  /// canonically (by ground-atom assignment), so a full enumeration is
  /// identical across solver settings (preprocessing, reduction
  /// interval); with a nonzero `limit`, *which* fixpoints are found first
  /// remains solver-dependent.
  Result<std::vector<IdbState>> EnumerateFixpoints(size_t limit = 0) const;

  /// Number of fixpoints, counted by enumeration up to `limit`
  /// (ResourceExhausted beyond it).
  Result<uint64_t> CountFixpoints(uint64_t limit = 1'000'000) const;

  /// None / exactly one / more than one fixpoint.
  Result<UniqueStatus> UniqueFixpoint() const;

  /// Decides least-fixpoint existence per Theorem 3.
  Result<LeastFixpointOutcome> LeastFixpoint() const;

  /// Direct semantic check Θ(state) = state (independent of SAT).
  Result<bool> VerifyFixpoint(const IdbState& state) const;

  const GroundProgram& ground() const { return ground_; }
  const CompletionEncoding& encoding() const { return encoding_; }

  /// SAT statistics accumulated across every query on this analyzer.
  const sat::SolverStats& sat_stats() const { return sat_stats_; }

 private:
  // The stable pipeline filters the supported models ForEachModel finds.
  friend Result<StableResult> EnumerateStableModels(const Program&,
                                                    const Database&,
                                                    const AnalyzeOptions&);

  FixpointAnalyzer(const Program* program, const Database* database,
                   AnalyzeOptions options)
      : program_(program), database_(database), options_(options) {}

  /// Fresh solver pre-loaded with the completion; the variable of every
  /// program atom is frozen so blocking clauses stay sound under
  /// preprocessing.
  sat::Solver MakeSolver() const;

  /// Clause blocking the given assignment of the program's atoms.
  sat::Clause BlockingClause(const std::vector<bool>& atoms) const;

  /// The solve → decode → block loop behind every query. A fresh solver
  /// solves until the models run out or `limit` models were found (0 = no
  /// limit); each model's atom assignment goes to `visit` (when given) and
  /// is then blocked, except the `limit`-th when `block_last` is false.
  /// The clause that blocks a model is `block(atoms)`, BlockingClause when
  /// `block` is null. Returns whether the models ran out: a solve was
  /// UNSAT or a block was empty or closed the formula, so no model is
  /// left unvisited. The solver's counters are added to sat_stats_ on
  /// every exit; ResourceExhausted when a solve hits the conflict budget
  /// or the stop flag.
  Result<bool> ForEachModel(
      uint64_t limit, bool block_last,
      const std::function<void(const std::vector<bool>&)>& visit = nullptr,
      const std::function<sat::Clause(const std::vector<bool>&)>& block =
          nullptr) const;

  /// Decodes an atom assignment and verifies it with Θ(S) = S.
  Result<IdbState> DecodeModel(const std::vector<bool>& atoms) const;

  const Program* program_;
  const Database* database_;
  AnalyzeOptions options_;
  GroundProgram ground_;
  CompletionEncoding encoding_;
  mutable sat::SolverStats sat_stats_;
};

}  // namespace inflog

#endif  // INFLOG_FIXPOINT_ANALYSIS_H_
