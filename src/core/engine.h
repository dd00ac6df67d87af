// Engine: the one-stop public API of the library.
//
// Wraps the full pipeline — parse program text, load facts, analyze
// (EDB/IDB, stratifiability, safety), evaluate under any of the four
// semantics, and run fixpoint analysis — behind a single object sharing
// one symbol table. This is the interface the examples and downstream
// users program against; the lower-level modules remain usable directly.
//
// Typical use:
//
//   inflog::Engine engine;
//   INFLOG_RETURN_IF_ERROR(engine.LoadProgramText(
//       "T(X) :- E(Y,X), !T(Y)."));
//   INFLOG_RETURN_IF_ERROR(engine.LoadDatabaseText("E(1,2). E(2,3)."));
//   auto result = engine.Evaluate(            // Θ^∞, total semantics
//       inflog::SemanticsKind::kInflationary);
//   auto analyzer = engine.MakeAnalyzer();        // Section 3 questions
//   auto unique = analyzer->UniqueFixpoint();     // US-complete question

#ifndef INFLOG_CORE_ENGINE_H_
#define INFLOG_CORE_ENGINE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/ast/analysis.h"
#include "src/ast/parser.h"
#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/eval/incremental.h"
#include "src/eval/semantics.h"
#include "src/eval/stratified.h"
#include "src/fixpoint/analysis.h"
#include "src/opt/passes.h"
#include "src/relation/database.h"
#include "src/serve/serving.h"

namespace inflog {

/// Options of Evaluate, BeginIncremental and BeginServing, resolved for
/// each by ResolveEvalOptions.
struct EvalOptions {
  /// Worker threads for the relational fixpoint stages (1 = the exact
  /// serial path, 0 = hardware concurrency). The grounded pipelines
  /// (well-founded, stable) are unaffected — their results never depend
  /// on it.
  size_t num_threads = 1;
  /// Hash shards per IDB relation for the relational fixpoint stages
  /// (1 = unsharded, 0 = auto: one shard per resolved thread). Results
  /// are identical for every (threads, shards) combination.
  size_t num_shards = 1;
  /// How parallel fixpoint stages partition their delta rows: kAuto (the
  /// default — per stage, pick the static slicer or work stealing from
  /// the estimated slice-work variance), kStatic (up-front equal-row
  /// slices) or kStealing (per-worker deques with dynamic chunk
  /// splitting, for skewed stages). Inert at num_threads == 1 and for the
  /// grounded pipelines. Results are identical under every scheduler.
  StageScheduler scheduler = StageScheduler::kAuto;
  /// Minimum delta rows per stage task (serial cutoff, static slice
  /// floor, stealing split grain, tiny-plan batching threshold); 0 = the
  /// built-in default (64). Results are identical for every value.
  size_t min_slice_rows = 0;
  /// If true, Evaluate, BeginIncremental and BeginServing fail with
  /// InvalidArgument when a rule has an unbound variable under negation
  /// (CheckNegationSafety) instead of evaluating it under the
  /// active-domain reading. Applies to all four semantics.
  bool reject_unsafe_negation = false;
  /// Which plan-optimizer passes run between rule lowering and fixpoint
  /// dispatch (default: all), on the relational pipelines (inflationary,
  /// stratified); inert for the grounded pipelines. Results are identical
  /// for every selection.
  OptimizerPasses optimizer_passes = OptimizerPasses::All();
  /// Queried/output IDB predicate names. Empty (the default) means every
  /// IDB predicate is an output. When non-empty and dead-rule elimination
  /// is enabled, rules unreachable from these predicates are dropped, so
  /// only the listed predicates' relations are specified. Evaluate fails
  /// with InvalidArgument on names that are unknown or not IDB. Sessions
  /// (BeginIncremental, BeginServing) maintain every IDB and ignore it.
  std::vector<std::string> output_predicates;
  /// Cross-check every incrementally maintained ApplyUpdate against a
  /// from-scratch evaluation (the recompute oracle); a mismatch fails the
  /// update with an Internal error. Consulted by BeginIncremental and
  /// BeginServing only — expensive (each update costs a full evaluation),
  /// meant for tests and the E13 oracle sweeps.
  bool verify_incremental = false;
  /// Serving-layer tuning (query cache, periodic compaction, update
  /// coalescing). Consulted by BeginServing only; the query answers are
  /// bit-identical for every setting.
  serve::ServingTuning serving;
  /// CDCL solver configuration for the SAT-backed stable pipeline
  /// (learnt-clause reduction interval, conflict budget, stop flag).
  /// Results are identical for every configuration — enumeration is
  /// canonicalized — only the search statistics vary.
  sat::SolverOptions sat;
  /// Only `stratified.use_seminaive` is read (false runs the stratified
  /// pipeline on the naive driver); its context is ignored, the knobs
  /// above being the only context settings.
  StratifiedOptions stratified;
};

/// The one EvalOptions → IncrementalOptions mapping: Evaluate runs
/// EvalSemantics with the result, BeginIncremental and BeginServing
/// create their session with it.
IncrementalOptions ResolveEvalOptions(SemanticsKind kind,
                                      const EvalOptions& options);

/// Facade over the parsing, evaluation and analysis pipeline.
class Engine {
 public:
  /// Creates an engine with a fresh shared symbol table and empty
  /// database.
  Engine();

  /// Parses and installs a DATALOG¬ program (replaces any previous one).
  Status LoadProgramText(std::string_view text);

  /// Installs an already-built program. Its symbol table must be this
  /// engine's (use symbols()).
  Status LoadProgram(Program program);

  /// Parses facts / @universe declarations into the database (additive).
  Status LoadDatabaseText(std::string_view text);

  /// The shared symbol table (pass to builders that intern constants).
  std::shared_ptr<SymbolTable> symbols() const { return symbols_; }

  /// Mutable database access for programmatic fact loading.
  Database* mutable_database() { return &database_; }
  const Database& database() const { return database_; }

  /// The loaded program; FailedPrecondition before LoadProgram*.
  Result<const Program*> program() const;

  /// Static analysis of the loaded program.
  Result<ProgramAnalysis> Analyze() const;

  /// Human-readable summary: rules, EDB/IDB split, strata, warnings.
  Result<std::string> Describe() const;

  // --- Semantics (Section 4 and baselines). ---

  /// Evaluates the loaded program under `kind` (EvalSemantics). The
  /// stratified semantics fails on non-stratifiable programs; the other
  /// three are total. `detail` carries each semantics' own result. The
  /// well-founded pipeline reuses the grounding of the newest MakeAnalyzer
  /// built at the grounder defaults while that analyzer is alive and the
  /// database has not changed since; otherwise it grounds again. Safe to
  /// call from several threads at once.
  Result<EvalOutcome> Evaluate(SemanticsKind kind,
                               const EvalOptions& options = {}) const;

  // --- Incremental view maintenance. ---

  /// Evaluates the loaded program once under `kind` and switches the
  /// engine into incremental mode: subsequent ApplyUpdate calls maintain
  /// the materialized result in O(delta) (DRed, unit by unit) instead of
  /// re-evaluating.
  /// Replaces any previous session; a failed call leaves the sessions
  /// as they were. The relational semantics maintain
  /// incrementally (inflationary requires a positive program); the
  /// grounded semantics recompute per update but share the same API.
  Status BeginIncremental(SemanticsKind kind, const EvalOptions& options = {});

  /// Applies one batch of EDB changes to the database and brings the
  /// maintained state up to date. In serving mode this also publishes
  /// the next epoch snapshot and advances the query cache.
  /// FailedPrecondition before BeginIncremental/BeginServing.
  Result<UpdateResult> ApplyUpdate(const UpdateBatch& batch);

  /// Convenience overload building the batch in place.
  Result<UpdateResult> ApplyUpdate(
      std::vector<std::pair<std::string, Tuple>> inserts,
      std::vector<std::pair<std::string, Tuple>> deletes);

  /// The maintained IDB state (valid until the next ApplyUpdate or
  /// EndIncremental). FailedPrecondition when no session is active.
  Result<const IdbState*> IncrementalState() const;

  /// Counters accumulated across the session's updates.
  Result<const EvalStats*> IncrementalStats() const;

  bool HasIncrementalSession() const { return incremental_ != nullptr; }

  /// Drops the incremental session (the database keeps every applied
  /// update). Loading a new program or database text also drops it: the
  /// session borrows the engine's program and the text loaders mutate
  /// state behind its back.
  void EndIncremental() { incremental_.reset(); }

  // --- Serving (epoch snapshots + concurrent readers). ---

  /// Evaluates the loaded program once under `kind` and switches the
  /// engine into serving mode: the materialized result is published as
  /// epoch snapshot 0, ApplyUpdate maintains it incrementally and
  /// publishes the next epoch, and any number of threads may Open pinned
  /// snapshots and Query them concurrently with the writer. Replaces any
  /// previous serving or incremental session; a failed call leaves the
  /// sessions as they were. Tuning (query cache,
  /// periodic compaction, update coalescing) comes from
  /// `options.serving`.
  Status BeginServing(SemanticsKind kind, const EvalOptions& options = {});

  /// Pins the current epoch snapshot; the epoch stays alive while the
  /// handle does. Safe from any thread. FailedPrecondition when no
  /// serving session is active.
  Result<serve::SnapshotHandle> Open() const;

  /// Parses and evaluates one `?...` query line against `snap` (from
  /// Open), consulting the serving cache. Safe from any thread.
  Result<serve::QueryOutcome> Query(std::string_view line,
                                    const serve::SnapshotHandle& snap) const;

  /// Convenience: Open() + Query against the current epoch.
  Result<serve::QueryOutcome> Query(std::string_view line) const;

  /// The serving session, for callers that drive coalescing/flush or
  /// read the registry directly. FailedPrecondition when inactive.
  Result<serve::ServingSession*> serving() const;

  bool HasServingSession() const { return serving_ != nullptr; }

  /// Drops the serving session. Outstanding snapshot handles stay valid
  /// (they own their sealed state); only publication stops.
  void EndServing() { serving_.reset(); }

  // --- Fixpoint analysis (Section 3). ---

  /// Builds a fixpoint analyzer for the loaded (program, database). The
  /// analyzer borrows the engine's program and database: keep the engine
  /// alive while using it. The engine keeps a weak reference to the
  /// analyzer's grounding for Evaluate to reuse; it never keeps a
  /// grounding alive on its own.
  Result<FixpointAnalyzer> MakeAnalyzer(AnalyzeOptions options = {}) const;

  /// Looks up an IDB relation by predicate name inside a state produced
  /// by one of the semantics.
  Result<const Relation*> RelationOf(const IdbState& state,
                                     std::string_view predicate) const;

 private:
  // The grounding of the newest analyzer built at the grounder defaults,
  // held weakly, with the database generation it read. Loading a program
  // drops it. The mutex lets const callers on several threads share it;
  // the record sits behind a pointer so the engine stays movable.
  struct AnalyzerGrounding {
    std::mutex mu;
    std::weak_ptr<const GroundCompletion> grounding;
    DatabaseGeneration generation;
  };

  /// The recorded grounding when it is still alive and the database is in
  /// the state it read.
  std::shared_ptr<const GroundCompletion> LiveGrounding() const;
  void DropGrounding();

  std::shared_ptr<SymbolTable> symbols_;
  Database database_;
  std::optional<Program> program_;
  std::unique_ptr<IncrementalSession> incremental_;
  std::unique_ptr<serve::ServingSession> serving_;
  std::unique_ptr<AnalyzerGrounding> analyzer_grounding_ =
      std::make_unique<AnalyzerGrounding>();
};

}  // namespace inflog

#endif  // INFLOG_CORE_ENGINE_H_
