#include "src/core/engine.h"

#include "src/base/strings.h"

namespace inflog {

Engine::Engine()
    : symbols_(std::make_shared<SymbolTable>()), database_(symbols_) {}

Status Engine::LoadProgramText(std::string_view text) {
  INFLOG_ASSIGN_OR_RETURN(Program program, ParseProgram(text, symbols_));
  incremental_.reset();  // the sessions borrow the program being replaced
  serving_.reset();
  DropGrounding();
  program_.emplace(std::move(program));
  return Status::OK();
}

Status Engine::LoadProgram(Program program) {
  if (program.shared_symbols() != symbols_) {
    return Status::InvalidArgument(
        "program was built over a different symbol table; construct it "
        "with Engine::symbols()");
  }
  incremental_.reset();  // the sessions borrow the program being replaced
  serving_.reset();
  DropGrounding();
  program_.emplace(std::move(program));
  return Status::OK();
}

Status Engine::LoadDatabaseText(std::string_view text) {
  incremental_.reset();  // facts added behind ApplyUpdate go unmaintained
  serving_.reset();
  return ParseDatabaseInto(text, &database_);
}

Result<const Program*> Engine::program() const {
  if (!program_.has_value()) {
    return Status::FailedPrecondition("no program loaded");
  }
  return &*program_;
}

Result<ProgramAnalysis> Engine::Analyze() const {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  return AnalyzeProgram(*p);
}

Result<std::string> Engine::Describe() const {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  const ProgramAnalysis analysis = AnalyzeProgram(*p);
  std::string out = StrCat("program with ", p->rules().size(), " rule(s)\n");
  out += p->ToString();
  out += "EDB:";
  for (uint32_t pred : p->edb_predicates()) {
    out += StrCat(" ", p->predicate(pred).name, "/",
                  p->predicate(pred).arity);
  }
  out += "\nIDB:";
  for (uint32_t pred : p->idb_predicates()) {
    out += StrCat(" ", p->predicate(pred).name, "/",
                  p->predicate(pred).arity);
  }
  out += StrCat("\npositive DATALOG: ", p->IsPositive() ? "yes" : "no");
  out += StrCat("\nstratifiable: ", analysis.stratifiable ? "yes" : "no");
  if (analysis.stratifiable) {
    out += StrCat(" (", analysis.num_strata, " strata)");
  }
  out += "\n";
  for (const std::string& warning : analysis.warnings) {
    out += StrCat("warning: ", warning, "\n");
  }
  return out;
}

IncrementalOptions ResolveEvalOptions(SemanticsKind kind,
                                      const EvalOptions& options) {
  IncrementalOptions resolved;
  resolved.semantics = kind;
  // The stratified pipeline is the only one whose naive driver EvalOptions
  // reaches.
  resolved.use_seminaive =
      kind != SemanticsKind::kStratified || options.stratified.use_seminaive;
  resolved.verify = options.verify_incremental;
  resolved.context.num_threads = options.num_threads;
  resolved.context.num_shards = options.num_shards;
  resolved.context.scheduler = options.scheduler;
  resolved.context.min_slice_rows = options.min_slice_rows;
  resolved.context.reject_unsafe_negation = options.reject_unsafe_negation;
  resolved.context.optimizer_passes = options.optimizer_passes;
  resolved.context.output_predicates = options.output_predicates;
  resolved.sat = options.sat;
  return resolved;
}

Result<EvalOutcome> Engine::Evaluate(SemanticsKind kind,
                                     const EvalOptions& options) const {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  // Held for the call: the analyzer may go away meanwhile.
  const std::shared_ptr<const GroundCompletion> grounding =
      kind == SemanticsKind::kWellFounded ? LiveGrounding() : nullptr;
  return EvalSemantics(*p, database_, ResolveEvalOptions(kind, options),
                       grounding == nullptr ? nullptr : &grounding->ground);
}

std::shared_ptr<const GroundCompletion> Engine::LiveGrounding() const {
  std::lock_guard<std::mutex> lock(analyzer_grounding_->mu);
  if (analyzer_grounding_->generation != database_.generation()) {
    return nullptr;
  }
  return analyzer_grounding_->grounding.lock();
}

void Engine::DropGrounding() {
  std::lock_guard<std::mutex> lock(analyzer_grounding_->mu);
  analyzer_grounding_->grounding.reset();
}

Status Engine::BeginIncremental(SemanticsKind kind,
                                const EvalOptions& options) {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  INFLOG_ASSIGN_OR_RETURN(
      incremental_,
      IncrementalSession::Create(*p, &database_,
                                 ResolveEvalOptions(kind, options)));
  serving_.reset();  // both sessions borrow the same live database
  return Status::OK();
}

Status Engine::BeginServing(SemanticsKind kind, const EvalOptions& options) {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  INFLOG_ASSIGN_OR_RETURN(
      serving_,
      serve::ServingSession::Create(*p, &database_,
                                    ResolveEvalOptions(kind, options),
                                    options.serving));
  incremental_.reset();  // both sessions borrow the same live database
  return Status::OK();
}

Result<serve::SnapshotHandle> Engine::Open() const {
  if (serving_ == nullptr) {
    return Status::FailedPrecondition(
        "no serving session; call BeginServing first");
  }
  return serving_->Pin();
}

Result<serve::QueryOutcome> Engine::Query(
    std::string_view line, const serve::SnapshotHandle& snap) const {
  if (serving_ == nullptr) {
    return Status::FailedPrecondition(
        "no serving session; call BeginServing first");
  }
  return serving_->Query(line, snap);
}

Result<serve::QueryOutcome> Engine::Query(std::string_view line) const {
  if (serving_ == nullptr) {
    return Status::FailedPrecondition(
        "no serving session; call BeginServing first");
  }
  return serving_->Query(line);
}

Result<serve::ServingSession*> Engine::serving() const {
  if (serving_ == nullptr) {
    return Status::FailedPrecondition(
        "no serving session; call BeginServing first");
  }
  return serving_.get();
}

Result<UpdateResult> Engine::ApplyUpdate(const UpdateBatch& batch) {
  if (serving_ != nullptr) return serving_->ApplyUpdate(batch);
  if (incremental_ == nullptr) {
    return Status::FailedPrecondition(
        "no incremental session; call BeginIncremental first");
  }
  return incremental_->ApplyUpdate(batch);
}

Result<UpdateResult> Engine::ApplyUpdate(
    std::vector<std::pair<std::string, Tuple>> inserts,
    std::vector<std::pair<std::string, Tuple>> deletes) {
  UpdateBatch batch;
  batch.inserts = std::move(inserts);
  batch.deletes = std::move(deletes);
  return ApplyUpdate(batch);
}

Result<const IdbState*> Engine::IncrementalState() const {
  if (serving_ != nullptr) return &serving_->incremental().state();
  if (incremental_ == nullptr) {
    return Status::FailedPrecondition("no incremental session");
  }
  return &incremental_->state();
}

Result<const EvalStats*> Engine::IncrementalStats() const {
  if (serving_ != nullptr) return &serving_->incremental().cumulative_stats();
  if (incremental_ == nullptr) {
    return Status::FailedPrecondition("no incremental session");
  }
  return &incremental_->cumulative_stats();
}

Result<FixpointAnalyzer> Engine::MakeAnalyzer(AnalyzeOptions options) const {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  // EvalSemantics grounds at the grounder defaults, so only a grounding
  // built at them can stand in for its own.
  const bool shareable = options.grounder == GrounderOptions{};
  INFLOG_ASSIGN_OR_RETURN(
      FixpointAnalyzer analyzer,
      FixpointAnalyzer::Create(p, &database_, std::move(options)));
  if (shareable) {
    std::lock_guard<std::mutex> lock(analyzer_grounding_->mu);
    analyzer_grounding_->grounding = analyzer.grounding();
    analyzer_grounding_->generation = database_.generation();
  }
  return analyzer;
}

Result<const Relation*> Engine::RelationOf(
    const IdbState& state, std::string_view predicate) const {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  INFLOG_ASSIGN_OR_RETURN(const uint32_t pred, p->FindPredicate(predicate));
  const int idb = p->predicate(pred).idb_index;
  if (idb < 0) {
    return Status::InvalidArgument(
        StrCat(predicate, " is a database relation, not IDB"));
  }
  if (static_cast<size_t>(idb) >= state.relations.size()) {
    return Status::InvalidArgument("state does not match the program");
  }
  return &state.relations[idb];
}

}  // namespace inflog
