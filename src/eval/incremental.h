// Incremental view maintenance by DRed, so an update costs O(delta)
// instead of O(database).
//
// An IncrementalSession pins one (program, database, semantics) triple,
// evaluates it once from scratch, and then maintains the materialized IDB
// state under batches of EDB inserts and deletes (ApplyUpdate). The
// program's IDB predicates are decomposed into *units* — the strongly
// connected components of the predicate dependency graph that
// AnalyzeProgram finds (src/ast/analysis.h), processed in its
// dependency-first order, which refines the stratification — and every
// affected unit is maintained by DRed (delete-and-rederive;
// Gupta, Mumick & Subrahmanian, SIGMOD 1993): (1) overdelete — propagate
// deletions through the unit's rules over the frozen old unit state, as a
// seeded semi-naive fixpoint over synthesized "P~del" companion
// predicates; (2) prune the candidates from the state (Relation::Erase
// tombstones); (3) rederive — re-prove pruned tuples from the surviving
// state, again a seeded fixpoint; (4) insert — seed the unit's own rules
// with the inserted-input triggers and close under the original rules.
// Phases 1, 3 and 4 run one routine: the seed rules' plans, trigger
// literal first, then RunSemiNaive resumed from what they derived
// (SemiNaiveOptions::initial_deltas), on the parallel stage dispatch of
// RelationalConsequence, so phase cost is O(delta), not O(state). A
// non-recursive unit is the degenerate case: its overdelete has no
// propagation rules, nothing closes, and its phases are the seed passes
// alone.
//
// Companion predicates ("P~del", "P~rm", and the net-delta views "P~dn",
// "P~in") exist only in per-phase synthesized programs; they are bound to
// small temporary relations through EvalContext::CreateWithOverrides —
// the database never owns a copy, and the session state's relations are
// std::move()d between the real program's idb_index space and a phase
// program's without copying rows.
//
// Semantics gating: the stratified semantics is maintained incrementally;
// the inflationary semantics is maintained incrementally iff the program
// is positive (where it coincides with the least fixpoint — on
// non-positive programs the inflationary result is stage-sensitive, and
// deletion can change stage structure non-locally). The well-founded and
// stable semantics, and updates that grow the universe under unsafe
// (enumerating) rules, fall back to a full recompute — counted in
// EvalStats::incremental_oracle_runs. The from-scratch recompute also
// serves as a cross-check oracle (IncrementalOptions::verify /
// EvalOptions::verify_incremental): after every maintained update the
// state is compared against a fresh evaluation and any mismatch is an
// Internal error.

#ifndef INFLOG_EVAL_INCREMENTAL_H_
#define INFLOG_EVAL_INCREMENTAL_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/ast/analysis.h"
#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/base/status.h"
#include "src/base/thread_pool.h"
#include "src/eval/context.h"
#include "src/eval/executor.h"
#include "src/eval/idb_state.h"
#include "src/eval/semantics.h"
#include "src/relation/database.h"

namespace inflog {

/// One batch of external (EDB) changes, applied atomically: deletes are
/// netted against inserts first (a tuple both deleted and re-inserted is
/// a no-op), so the maintained state only ever sees net deltas.
struct UpdateBatch {
  std::vector<std::pair<std::string, Tuple>> inserts;
  std::vector<std::pair<std::string, Tuple>> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
};

/// What one ApplyUpdate did.
struct UpdateResult {
  /// True when the update was served by a full recompute (grounded
  /// semantics, non-positive inflationary program, or universe growth
  /// under unsafe rules) instead of incremental maintenance.
  bool used_oracle = false;
  /// Names of the relations whose contents this update actually changed:
  /// the EDB relations with a non-empty net delta plus the IDB
  /// predicates whose maintained state moved. The oracle path reports
  /// conservatively (every updated EDB name plus every IDB predicate).
  /// Sorted, deduplicated. The serving layer keys snapshot copy-reuse
  /// and cache invalidation off this list.
  std::vector<std::string> changed_relations;
  /// The update's counters: the incremental_* block plus the executor
  /// work the maintenance phases ran.
  EvalStats stats;
};

/// Parses one update line into a batch: a sequence of `+Rel(c1,...,cn)`
/// (insert) and `-Rel(c1,...,cn)` (delete), each atom written as a fact
/// without its period (src/ast/parser.h has the syntax); constants are
/// interned into `symbols`. A comment runs to the end of the line; a
/// blank line is an empty batch. The CLI's --apply-updates and --serve
/// modes read their update lines with this.
Result<UpdateBatch> ParseUpdateLine(std::string_view line,
                                    SymbolTable* symbols);

/// Which semantics an IncrementalSession maintains.
using MaintainedSemantics = SemanticsKind;

/// Options for an incremental session: those of its full evaluations
/// (initial run, oracle recomputes), which run through EvalSemantics,
/// plus the oracle switch. Maintenance phases always run semi-naive, and
/// take threads / shards / scheduler / slicing from `context` too. The
/// session maintains every IDB predicate, so it ignores
/// `context.output_predicates`.
struct IncrementalOptions : SemanticsOptions {
  /// Cross-check every maintained update against a from-scratch
  /// evaluation; mismatches fail ApplyUpdate with an Internal error.
  bool verify = false;
};

/// A materialized evaluation kept consistent under EDB updates.
class IncrementalSession {
 public:
  /// Evaluates (program, *database) under the requested semantics and
  /// prepares the maintenance machinery (unit decomposition). `program` and
  /// `database` must outlive the session; the session mutates *database*
  /// in ApplyUpdate and nothing else may (a concurrent mutation leaves
  /// the maintained state stale).
  static Result<std::unique_ptr<IncrementalSession>> Create(
      const Program& program, Database* database,
      const IncrementalOptions& options = {});

  /// Applies one batch: nets and applies the EDB changes (inserts run
  /// through Database::AddFact so new constants join the universe;
  /// deletes through Relation::Erase), then maintains every affected IDB
  /// unit in dependency order. Update tuples must name EDB relations
  /// known to the program or present in the database — unknown relation
  /// names are NotFound, updating an IDB relation or mismatching an
  /// arity is InvalidArgument, and the batch is rejected before any
  /// mutation. After a non-OK ApplyUpdate the session may be
  /// inconsistent; discard it.
  Result<UpdateResult> ApplyUpdate(const UpdateBatch& batch);

  /// The maintained IDB state (valid until the next ApplyUpdate).
  const IdbState& state() const { return state_; }

  /// Compacts every EDB and maintained IDB relation whose dead-row share
  /// exceeds `threshold` (dead / (dead + live), relations with at least
  /// `min_rows` physical rows only). Returns the number of relations
  /// compacted. Valid between updates (no delta ranges outstanding);
  /// the serving layer calls this on its periodic compaction schedule.
  size_t CompactDeadRelations(double threshold, size_t min_rows = 64);

  /// Counters accumulated across every ApplyUpdate of the session.
  const EvalStats& cumulative_stats() const { return cumulative_; }

  /// True when updates are maintained incrementally rather than by full
  /// recompute (stratified, or inflationary on a positive program).
  bool incremental_capable() const { return capable_; }

  const Program& program() const { return *program_; }

 private:
  /// One maintenance unit: an IDB component of `analysis_`, with the
  /// rules whose heads it owns. Units are stored in the analysis's
  /// dependency-first order.
  struct Unit {
    std::vector<uint32_t> preds;  ///< Predicate ids (real program).
    std::vector<size_t> rules;    ///< Indices into program.rules().
  };

  /// Net EDB/IDB delta of one predicate within one update: the tuples
  /// that left (`del`) and the tuples that arrived (`ins`), each a small
  /// unsharded relation the phase programs bind as companion predicates.
  struct PredDelta {
    explicit PredDelta(size_t arity) : del(arity), ins(arity) {}
    Relation del;
    Relation ins;
    bool any() const { return del.size() + ins.size() > 0; }
  };

  IncrementalSession(const Program& program, Database* database,
                     const IncrementalOptions& options);

  Status Init();
  Result<IdbState> ComputeFullState(EvalStats* stats);
  Status FullRecompute(EvalStats* stats);
  EvalContextOptions PhaseOptions() const;

  Status MaintainDRed(const Unit& unit,
                      std::map<uint32_t, PredDelta>* changed,
                      EvalStats* stats);

  const Program* program_;
  Database* database_;
  IncrementalOptions options_;
  ProgramAnalysis analysis_;
  bool capable_ = false;
  bool all_safe_ = false;
  size_t num_shards_ = 1;
  std::vector<Unit> units_;
  IdbState state_;
  EvalStats cumulative_;
  /// Pool shared by every maintenance phase of the session
  /// (SemiNaiveOptions::pool_cache).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace inflog

#endif  // INFLOG_EVAL_INCREMENTAL_H_
