// CDCL SAT solver (MiniSat/Glucose-style).
//
// Conflict-driven clause learning with two-literal watches over a
// contiguous clause arena, first-UIP conflict analysis, LBD-scored
// learnt-clause database reduction, VSIDS variable activities with phase
// saving, Luby restarts, incremental clause addition, and solving under
// assumptions.
//
// This is the NP engine behind the paper's Theorems 1–3: fixpoint
// existence, uniqueness and least-fixpoint queries are all answered
// through Clark-completion encodings solved here. It is also used as the
// independent satisfiability oracle for the Example 1 reduction tests.
//
// Incremental use: a caller adds temporary clauses as clause ∨ ¬act,
// solves assuming act, and retires them with the unit ¬act. Retired
// clauses are satisfied at the root; Simplify collects them.

#ifndef INFLOG_SAT_SOLVER_H_
#define INFLOG_SAT_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/sat/arena.h"
#include "src/sat/cnf.h"

namespace inflog {
namespace sat {

/// Outcome of a Solve call.
enum class SolveResult {
  kSat,
  kUnsat,
  kUnknown,  ///< Conflict budget exhausted or stop flag raised.
};

/// The conflict budget, the stop flag and the one search setting a caller
/// picks. Everything else (Luby restarts every 100 conflicts, VSIDS decay
/// 0.95, learnt-DB reduction growing by 300 conflicts per pass) is fixed
/// in solver.cc.
struct SolverOptions {
  /// Abort with kUnknown after this many conflicts (0 = unlimited).
  uint64_t max_conflicts = 0;

  /// Conflicts before the first LBD-scored learnt-clause database
  /// reduction; 0 = the default (2000). Reductions are checked at
  /// restarts; glue <= 2 clauses and the better half by (LBD, activity)
  /// survive, and the arena is garbage-collected after each one.
  uint64_t reduce_base = 0;

  /// Cooperative cancellation: when set and the pointee becomes true, the
  /// search returns kUnknown at the next conflict or decision.
  const std::atomic<bool>* stop = nullptr;
};

/// Run statistics.
struct SolverStats {
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t restarts = 0;
  uint64_t learned_clauses = 0;
  uint64_t deleted_clauses = 0;   ///< Learnts ReduceDB or Simplify dropped.
  uint64_t db_reductions = 0;     ///< ReduceDB passes (each ends in a GC).

  void Add(const SolverStats& o) {
    conflicts += o.conflicts;
    decisions += o.decisions;
    propagations += o.propagations;
    restarts += o.restarts;
    learned_clauses += o.learned_clauses;
    deleted_clauses += o.deleted_clauses;
    db_reductions += o.db_reductions;
  }
};

/// Incremental CDCL solver.
class Solver {
 public:
  explicit Solver(SolverOptions options = {});

  /// Allocates a fresh variable and returns it.
  Var NewVar();

  /// Number of allocated variables.
  int32_t num_vars() const { return static_cast<int32_t>(assigns_.size()); }

  /// Adds a clause (callable between Solve calls). Returns false when the
  /// solver is already in an unsatisfiable root state.
  bool AddClause(Clause clause);

  /// Loads every clause of `cnf` (allocating variables as needed).
  bool AddCnf(const Cnf& cnf);

  /// Decides satisfiability under the given assumption literals.
  SolveResult Solve(const std::vector<Lit>& assumptions = {});

  /// Root sweep (callable between Solve calls): propagates at the root,
  /// then drops every clause the root assignment satisfies and compacts
  /// the arena. Returns false when the root state is unsatisfiable.
  bool Simplify();

  /// Model access after kSat: the value of `v` in the satisfying
  /// assignment.
  bool ModelValue(Var v) const {
    INFLOG_CHECK(v >= 0 && static_cast<size_t>(v) < model_.size());
    return model_[v] == 1;
  }

  /// The model as a bool vector indexed by var.
  std::vector<bool> Model() const {
    std::vector<bool> m(model_.size());
    for (size_t i = 0; i < model_.size(); ++i) m[i] = model_[i] == 1;
    return m;
  }

  const SolverStats& stats() const { return stats_; }

  /// True while the root state is consistent (no empty clause derived).
  bool ok() const { return ok_; }

  /// Live learnt-clause count (ReduceDB observability for tests).
  size_t num_learnts() const { return learnts_.size(); }
  /// Arena buffer size in words (GC observability for tests).
  size_t arena_words() const { return arena_.words(); }

 private:
  static constexpr int8_t kUndef = -1;
  static constexpr double kVarDecay = 0.95;  // VSIDS activity decay

  struct Watch {
    ClauseRef clause;
    Lit blocker;
  };

  // Assignment access.
  int8_t VarValue(Var v) const { return assigns_[v]; }
  /// -1 unassigned, 1 literal true, 0 literal false.
  int8_t LitValue(Lit l) const {
    const int8_t a = assigns_[l.var()];
    if (a == kUndef) return kUndef;
    return (a == 1) != l.negated() ? 1 : 0;
  }

  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  void NewDecisionLevel() { trail_lim_.push_back(trail_.size()); }

  void AttachClause(ClauseRef cref);
  void DetachClause(ClauseRef cref);
  void Enqueue(Lit l, ClauseRef reason);
  ClauseRef Propagate();  // kNullClauseRef = no conflict
  void Analyze(ClauseRef conflict, Clause* learnt, int* backtrack_level,
               uint32_t* lbd);
  uint32_t ComputeLbd(const Lit* lits, uint32_t size);
  void CancelUntil(int level);
  void BumpVar(Var v);
  void BumpClause(ClauseRef cref);
  void DecayActivities() {
    var_inc_ /= kVarDecay;
    cla_inc_ *= 1.001f;
  }
  Lit PickBranchLit();

  void ReduceDB();
  void RemoveRootSatisfied(std::vector<ClauseRef>* list);
  void GarbageCollect();
  bool StopRequested() const {
    return options_.stop != nullptr &&
           options_.stop->load(std::memory_order_relaxed);
  }

  // Activity-ordered decision heap (max-heap on activity_).
  bool HeapLess(Var a, Var b) const { return activity_[a] < activity_[b]; }
  void HeapInsert(Var v);
  void HeapSiftUp(size_t i);
  void HeapSiftDown(size_t i);
  Var HeapPopMax();
  bool HeapContains(Var v) const { return heap_pos_[v] >= 0; }

  static uint64_t Luby(uint64_t i);

  SolverOptions options_;
  SolverStats stats_;
  bool ok_ = true;

  ClauseArena arena_;
  std::vector<ClauseRef> clauses_;  // problem clauses
  std::vector<ClauseRef> learnts_;
  std::vector<std::vector<Watch>> watches_;  // by literal code
  std::vector<int8_t> assigns_;              // by var
  std::vector<int> levels_;                  // by var
  std::vector<ClauseRef> reasons_;           // by var
  std::vector<double> activity_;             // by var
  std::vector<int8_t> phase_;                // by var (saved polarity)
  std::vector<char> seen_;                   // by var (analyze scratch)
  std::vector<int> lbd_seen_;                // by level (ComputeLbd scratch)
  std::vector<Lit> trail_;
  std::vector<size_t> trail_lim_;
  size_t qhead_ = 0;
  double var_inc_ = 1.0;
  float cla_inc_ = 1.0f;

  uint64_t reduce_conflicts_ = 0;  // conflicts at the last reduction

  std::vector<Var> heap_;
  std::vector<int32_t> heap_pos_;  // by var; -1 = not in heap

  std::vector<int8_t> model_;
};

}  // namespace sat
}  // namespace inflog

#endif  // INFLOG_SAT_SOLVER_H_
