// CNF preprocessing front-end for the CDCL solver.
//
// Simplifies a root-level clause database before search:
//
//   * tautology and duplicate-literal cleanup, duplicate-clause removal;
//   * boolean constraint propagation (root BCP) to fixpoint;
//   * pure-literal elimination;
//   * NiVER-style bounded variable elimination (Subbarayan & Pradhan):
//     a variable is resolved away only when the resolvents hold no more
//     literals than the clauses they replace.
//
// Every transformation computes an exact existential projection: the set
// of models restricted to the surviving variables is unchanged. Frozen
// variables are exempt from elimination (BCP may still fix them), so a
// caller that will reference a variable later — blocking clauses over the
// completion's atom variables, assumptions — freezes it and stays sound,
// including under model enumeration.
//
// Eliminated variables are reconstructed by Extend(): the clauses removed
// at each elimination are replayed in reverse order, flipping the
// eliminated variable wherever a saved clause would otherwise be false.
// A model of the simplified formula so extends to a model of the
// original one.

#ifndef INFLOG_SAT_PREPROCESS_H_
#define INFLOG_SAT_PREPROCESS_H_

#include <cstdint>
#include <vector>

#include "src/sat/cnf.h"

namespace inflog {
namespace sat {

/// Counters of one Run.
struct PreprocessStats {
  uint64_t units_propagated = 0;   ///< Root literals fixed by BCP.
  uint64_t pure_eliminated = 0;    ///< Variables removed as pure.
  uint64_t bve_eliminated = 0;     ///< Variables resolved away by NiVER.
  uint64_t clauses_removed = 0;    ///< Net clause count drop (input after
                                   ///< normalization minus output).
  uint64_t tautologies_removed = 0;
  uint64_t duplicates_removed = 0;
  uint64_t rounds = 0;
};

/// One-shot preprocessor over a clause database in a fixed variable
/// numbering (eliminated variables keep their indices; they simply stop
/// occurring in the output clauses).
class Preprocessor {
 public:
  explicit Preprocessor(int32_t num_vars);

  /// Marks `v` as not eliminable (still fixable by BCP).
  void FreezeVar(Var v);

  /// Simplifies `clauses` (consumed). Returns false when the database is
  /// unsatisfiable at the root. Callable once.
  bool Run(std::vector<Clause> clauses);

  /// Simplified clauses; valid after Run. No clause mentions an
  /// eliminated or root-forced variable.
  const std::vector<Clause>& clauses() const { return out_clauses_; }

  /// By var: -1 free, else the root-forced value (0/1).
  const std::vector<int8_t>& forced() const { return forced_; }

  bool IsEliminated(Var v) const { return eliminated_[v] != 0; }

  /// Extends `model` (by var; -1 unassigned) over the eliminated and
  /// forced variables so it satisfies the original clause database.
  /// Surviving variables must already carry their solver values.
  void Extend(std::vector<int8_t>* model) const;

  const PreprocessStats& stats() const { return stats_; }

 private:
  // One elimination record: `lit` was removed; for BVE, `saved` holds the
  // original clauses containing the variable (either polarity) to replay
  // during reconstruction. Pure literals need no clauses: setting the
  // literal true satisfies everything that was removed.
  struct Elimination {
    Lit lit;
    bool pure = false;
    std::vector<Clause> saved;
  };

  int8_t LitValueAtRoot(Lit l) const {
    const int8_t f = forced_[l.var()];
    if (f < 0) return -1;
    return (f == 1) != l.negated() ? 1 : 0;
  }

  bool PropagateUnits();  // returns false on root conflict
  bool EliminatePure();   // returns true when something changed
  bool EliminateByResolution(bool* unsat);

  void RemoveClause(uint32_t idx);
  bool AddDerivedClause(Clause clause, bool* unsat);
  void DetachVar(Var v, std::vector<Clause>* saved);

  PreprocessStats stats_;
  int32_t num_vars_;
  std::vector<int8_t> frozen_;
  std::vector<int8_t> eliminated_;
  std::vector<int8_t> forced_;

  // Live clause database with per-literal occurrence lists (clause ids;
  // stale ids are skipped via alive_).
  std::vector<Clause> db_;
  std::vector<int8_t> alive_;
  std::vector<std::vector<uint32_t>> occur_;  // by literal code
  std::vector<uint32_t> occur_count_;         // live occurrences, by code
  std::vector<Var> unit_queue_;

  std::vector<Elimination> eliminations_;
  std::vector<Clause> out_clauses_;
  bool ran_ = false;
};

}  // namespace sat
}  // namespace inflog

#endif  // INFLOG_SAT_PREPROCESS_H_
