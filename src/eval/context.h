// EvalContext: binds a program's predicates to concrete relations for one
// evaluation run. Join lookups are served by the relations' own built-in
// per-column indexes (see Relation::EqualRows); the context only decides
// whether the executor may use them (use_join_indexes).
//
// Resolution per predicate:
//   * EDB predicates read the database relation of the same name (error at
//     creation if it is missing or has the wrong arity, unless
//     allow_missing_edb is set, in which case it reads an empty relation);
//   * "fixed" IDB predicates read from a caller-supplied state that does
//     not evolve during the run (used by the stratified evaluator for
//     lower strata, and by Θ when checking a candidate fixpoint);
//   * "dynamic" IDB predicates read from the evolving IdbState passed to
//     each execution and participate in semi-naive deltas.
//
// The evaluation universe is the database's active domain plus all
// constants mentioned by the program (Section 2 of the paper lets
// variables range over the elements appearing in the database; program
// constants are added so rules like G(Z,1) ← . are meaningful even when 1
// appears in no fact).

#ifndef INFLOG_EVAL_CONTEXT_H_
#define INFLOG_EVAL_CONTEXT_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/eval/idb_state.h"
#include "src/opt/passes.h"
#include "src/relation/database.h"

namespace inflog {

/// How a parallel fixpoint stage partitions its delta rows across the
/// thread pool. All schedulers produce bit-identical relations, stage
/// sizes, and executor stats (tests/parallel_determinism_test.cc).
enum class StageScheduler {
  /// Cut the per-shard delta ranges into equal-row slices up front (about
  /// four per thread) and claim them from a shared counter. Cheap and
  /// predictable, but a slice whose rows hide most of the stage's join
  /// work serializes the stage on one thread.
  kStatic,
  /// Work stealing: one chunk per delta plan, dealt to per-worker deques;
  /// idle workers steal, and oversized chunks split in half while anyone
  /// is hungry (down to 2 × min_slice_rows), so pathologically skewed
  /// stages keep every worker busy (ThreadPool::ParallelForDynamic).
  kStealing,
  /// Per-stage choice between the two (the default): before fan-out the
  /// stage estimates each static task's join work (delta rows weighted by
  /// the probed posting-list lengths, sampled) and flips to kStealing
  /// only when the estimates' coefficient of variation exceeds
  /// EvalContextOptions::kDefaultStealVariance — skewed stages get the
  /// stealing machinery, uniform ones skip its overhead. The decisions are
  /// surfaced as EvalStats::auto_{static,stealing}_stages.
  kAuto,
};

/// Canonical lowercase name ("auto" / "static" / "stealing"), for CLIs
/// and logs.
std::string_view StageSchedulerName(StageScheduler scheduler);

/// Parses a StageSchedulerName back; InvalidArgument on unknown names.
Result<StageScheduler> ParseStageScheduler(std::string_view name);

/// Options controlling predicate binding.
struct EvalContextOptions {
  /// If true, EDB predicates missing from the database are bound to empty
  /// relations instead of failing.
  bool allow_missing_edb = false;
  /// If true, kMatch ops with bound columns are served by the relations'
  /// built-in per-column indexes; if false, every match is a scan. The
  /// scan path is kept as the ablation baseline (bench E7) and as the
  /// oracle for index-correctness tests.
  bool use_join_indexes = true;
  /// Worker threads for relational fixpoint stages. 1 (the default) runs
  /// the exact serial path; 0 means hardware concurrency; N > 1 partitions
  /// each stage into (rule plan × delta slice) tasks over a
  /// base::ThreadPool with a worker-ordered merge, so results, stage
  /// sizes, and stats are bit-identical to the serial run
  /// (tests/parallel_determinism_test.cc holds this).
  size_t num_threads = 1;
  /// Hash shards per dynamic IDB relation (rounded up to a power of two,
  /// clamped to kMaxShards). 1 (the default) is the unsharded layout; 0
  /// picks the smallest power of two ≥ the resolved thread count, so the
  /// shard-parallel stage merge has one shard per worker. Results, stage
  /// sizes, and stats are identical for every (threads, shards)
  /// combination.
  size_t num_shards = 1;
  /// How parallel stages partition their delta rows (inert when
  /// num_threads == 1). kAuto (the default) picks per stage between the
  /// static slicer and work stealing from the estimated slice-work
  /// variance; the explicit kinds pin one machinery. Results are
  /// identical under every choice.
  StageScheduler scheduler = StageScheduler::kAuto;
  /// Minimum delta rows worth a stage task of their own: stages with
  /// fewer total input rows run serially, static slices never go below
  /// it, the stealing scheduler stops splitting chunks at twice this
  /// size, and delta plans with fewer rows are batched together into one
  /// task. 0 picks kDefaultMinSliceRows. Results are identical for every
  /// value; this only moves the parallelism/overhead tradeoff.
  size_t min_slice_rows = 0;
  /// If true, binding fails (InvalidArgument) when any rule carries a
  /// negated literal over a variable bound by no positive body literal
  /// (CheckNegationSafety in src/ast/analysis.h). Off by default: the
  /// paper's own programs use such rules under the active-domain
  /// reading, where every free variable ranges over the universe.
  bool reject_unsafe_negation = false;
  /// Which plan-optimizer passes run between rule lowering and fixpoint
  /// dispatch (src/opt/pass_manager.h). OptimizerPasses::None()
  /// reproduces the greedy plans exactly; every selection yields the same
  /// relations, stage count, stage sizes, and tuple stages.
  OptimizerPasses optimizer_passes;
  /// IDB predicate names the caller will actually read ("queried"
  /// predicates). Empty (the default) means all of them. When non-empty,
  /// dead-rule elimination may drop rules that cannot contribute to any
  /// listed predicate — so the relations of *unlisted* predicates are
  /// then unspecified. Binding fails on names that are unknown or not
  /// IDB.
  std::vector<std::string> output_predicates;

  /// Upper bound on the shard count (keeps per-probe shard loops cheap).
  static constexpr size_t kMaxShards = 64;
  /// Default for min_slice_rows (the pre-tunable hard constant).
  static constexpr size_t kDefaultMinSliceRows = 64;
  /// kAuto's flip threshold: a stage switches to work stealing when the
  /// coefficient of variation (stddev / mean) of its estimated per-task
  /// work exceeds this. At CV 1.0 the work hidden in the outlier tasks
  /// rivals the whole rest of the stage, the point where stealing's
  /// chunk staging pays for itself (bench E11 sits far above, uniform
  /// stages far below).
  static constexpr double kDefaultStealVariance = 1.0;
};

/// `options.num_threads` with 0 resolved to the hardware concurrency.
size_t ResolvedNumThreads(const EvalContextOptions& options);

/// `options.num_shards` resolved: 0 becomes the smallest power of two ≥
/// ResolvedNumThreads(options); any value is rounded up to a power of two
/// and clamped to kMaxShards. Callers that build IdbStates before an
/// EvalContext exists (the stratified evaluator) use this to match the
/// context's layout.
size_t ResolvedNumShards(const EvalContextOptions& options);

/// `options.min_slice_rows` with 0 resolved to kDefaultMinSliceRows.
size_t ResolvedMinSliceRows(const EvalContextOptions& options);

/// Per-run binding of predicates to relations plus the index cache.
class EvalContext {
 public:
  /// Creates a context in which every IDB predicate is dynamic.
  static Result<EvalContext> Create(const Program& program,
                                    const Database& database,
                                    const EvalContextOptions& options = {});

  /// Creates a context where only the IDB predicates with
  /// `dynamic_idb[idb_index]` set evolve; the rest read `fixed_state`.
  /// `fixed_state` must outlive the context.
  static Result<EvalContext> CreateWithFixed(
      const Program& program, const Database& database,
      std::vector<bool> dynamic_idb, const IdbState* fixed_state,
      const EvalContextOptions& options = {});

  /// Creates a context for a synthesized program (the incremental
  /// maintainer's per-phase rule sets) in which individual predicates are
  /// bound to caller-supplied relations: `overrides[pred]`, when non-null,
  /// becomes predicate `pred`'s relation regardless of its EDB/IDB
  /// classification — which is how a body-only companion predicate (a
  /// delta set, a frozen original) reads a temp or maintained relation
  /// without the database ever owning a copy. Overridden EDB predicates
  /// need not exist in the database; non-overridden predicates bind as in
  /// Create (every IDB predicate dynamic). `overrides` is indexed by
  /// predicate id and may be shorter than num_predicates(); the pointed-to
  /// relations must outlive the context.
  static Result<EvalContext> CreateWithOverrides(
      const Program& program, const Database& database,
      std::vector<const Relation*> overrides,
      const EvalContextOptions& options = {});

  /// The relation predicate `pred` reads from, given the evolving state.
  const Relation& Resolve(uint32_t pred, const IdbState& state) const;

  /// True iff `pred` is a dynamic IDB predicate in this run.
  bool IsDynamic(uint32_t pred) const;

  /// The evaluation universe (active domain ∪ program constants).
  const std::vector<Value>& universe() const { return universe_; }

  const Program& program() const { return *program_; }
  const Database& database() const { return *database_; }

  /// True iff kMatch ops should use the relations' built-in column
  /// indexes (EvalContextOptions::use_join_indexes).
  bool use_join_indexes() const { return use_join_indexes_; }

  /// Resolved thread count for fixpoint stages (≥ 1; an option of 0 has
  /// already been replaced by the hardware concurrency).
  size_t num_threads() const { return num_threads_; }

  /// Resolved shard count for dynamic IDB relations (a power of two ≥ 1);
  /// states evaluated under this context must be built with it
  /// (MakeEmptyIdbState(program, num_shards())).
  size_t num_shards() const { return num_shards_; }

  /// The stage scheduler for parallel fixpoint stages.
  StageScheduler scheduler() const { return scheduler_; }

  /// Resolved minimum slice size (≥ 1; an option of 0 has already been
  /// replaced by EvalContextOptions::kDefaultMinSliceRows).
  size_t min_slice_rows() const { return min_slice_rows_; }

  /// The plan-optimizer pass selection for this run.
  const OptimizerPasses& optimizer_passes() const { return optimizer_passes_; }

  /// Resolved EvalContextOptions::output_predicates as predicate ids,
  /// in option order. Empty means every IDB predicate is an output.
  const std::vector<uint32_t>& output_preds() const { return output_preds_; }

 private:
  EvalContext(const Program& program, const Database& database)
      : program_(&program), database_(&database) {}

  Status Bind(const EvalContextOptions& options);

  struct PredBinding {
    enum class Kind { kEdb, kFixedIdb, kDynamicIdb };
    Kind kind = Kind::kEdb;
    const Relation* fixed = nullptr;  // kEdb / kFixedIdb
    int dyn_index = -1;               // kDynamicIdb
  };

  const Program* program_;
  const Database* database_;
  std::vector<PredBinding> bindings_;   // by predicate id
  std::vector<bool> dynamic_idb_;       // by idb_index
  std::vector<const Relation*> overrides_;  // by predicate id; may be short
  const IdbState* fixed_state_ = nullptr;
  std::vector<Value> universe_;
  bool use_join_indexes_ = true;
  size_t num_threads_ = 1;
  size_t num_shards_ = 1;
  StageScheduler scheduler_ = StageScheduler::kAuto;
  size_t min_slice_rows_ = EvalContextOptions::kDefaultMinSliceRows;
  OptimizerPasses optimizer_passes_;
  std::vector<uint32_t> output_preds_;
  // Relations for EDB predicates bound as empty (allow_missing_edb).
  std::vector<std::unique_ptr<Relation>> empties_;
};

}  // namespace inflog

#endif  // INFLOG_EVAL_CONTEXT_H_
