#include "src/core/engine.h"

#include "src/base/strings.h"

namespace inflog {

std::string_view SemanticsKindName(SemanticsKind kind) {
  switch (kind) {
    case SemanticsKind::kInflationary:
      return "inflationary";
    case SemanticsKind::kStratified:
      return "stratified";
    case SemanticsKind::kWellFounded:
      return "wellfounded";
    case SemanticsKind::kStable:
      return "stable";
  }
  INFLOG_CHECK(false) << "bad SemanticsKind";
  return "";
}

Result<SemanticsKind> ParseSemanticsKind(std::string_view name) {
  for (SemanticsKind kind :
       {SemanticsKind::kInflationary, SemanticsKind::kStratified,
        SemanticsKind::kWellFounded, SemanticsKind::kStable}) {
    if (name == SemanticsKindName(kind)) return kind;
  }
  return Status::InvalidArgument(
      StrCat("unknown semantics: ", std::string(name),
             " (expected inflationary|stratified|wellfounded|stable)"));
}

Engine::Engine()
    : symbols_(std::make_shared<SymbolTable>()), database_(symbols_) {}

Status Engine::LoadProgramText(std::string_view text) {
  INFLOG_ASSIGN_OR_RETURN(Program program, ParseProgram(text, symbols_));
  incremental_.reset();  // the sessions borrow the program being replaced
  serving_.reset();
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

const IdbState& EvalOutcome::state() const {
  switch (kind) {
    case SemanticsKind::kInflationary:
      return std::get<InflationaryResult>(detail).state;
    case SemanticsKind::kStratified:
      return std::get<StratifiedResult>(detail).state;
    case SemanticsKind::kWellFounded:
      return std::get<WellFoundedResult>(detail).true_state;
    case SemanticsKind::kStable: {
      const std::vector<IdbState>& models =
          std::get<StableResult>(detail).models;
      static const IdbState kNoModel;
      return models.empty() ? kNoModel : models.front();
    }
  }
  INFLOG_CHECK(false) << "bad SemanticsKind";
  static const IdbState kUnreachable;
  return kUnreachable;
}

const EvalStats* EvalOutcome::stats() const {
  switch (kind) {
    case SemanticsKind::kInflationary:
      return &std::get<InflationaryResult>(detail).stats;
    case SemanticsKind::kStratified:
      return &std::get<StratifiedResult>(detail).stats;
    case SemanticsKind::kStable:
      // The stable pipeline bypasses the executor but carries the CDCL
      // counters of its supported-model enumeration.
      return &std::get<StableResult>(detail).stats;
    case SemanticsKind::kWellFounded:
      return nullptr;  // grounded pipeline, bypasses the executor
  }
  return nullptr;
}

namespace {

/// Copies EvalOptions' top-level knobs, which are authoritative over the
/// nested per-semantics copies, into an evaluator's context options.
/// Output predicates are left to the caller.
void ApplyContextOptions(const EvalOptions& options,
                         EvalContextOptions* context) {
  context->num_threads = options.num_threads;
  context->num_shards = options.num_shards;
  context->scheduler = options.scheduler;
  context->min_slice_rows = options.min_slice_rows;
  context->reject_unsafe_negation = options.reject_unsafe_negation;
  context->optimizer_passes = options.optimizer_passes;
}

/// The shared EvalOptions -> IncrementalOptions mapping of
/// BeginIncremental and BeginServing.
IncrementalOptions MakeIncrementalOptions(SemanticsKind kind,
                                          const EvalOptions& options) {
  IncrementalOptions opts;
  switch (kind) {
    case SemanticsKind::kInflationary:
      opts.semantics = MaintainedSemantics::kInflationary;
      opts.use_seminaive = options.inflationary.use_seminaive;
      break;
    case SemanticsKind::kStratified:
      opts.semantics = MaintainedSemantics::kStratified;
      opts.use_seminaive = options.stratified.use_seminaive;
      break;
    case SemanticsKind::kWellFounded:
      opts.semantics = MaintainedSemantics::kWellFounded;
      break;
    case SemanticsKind::kStable:
      opts.semantics = MaintainedSemantics::kStable;
      break;
  }
  opts.verify = options.verify_incremental;
  // Output predicates stay empty: the maintainer keeps every IDB.
  ApplyContextOptions(options, &opts.context);
  opts.wellfounded = options.wellfounded;
  opts.stable = options.stable;
  opts.stable.analyze.solver = options.sat;
  return opts;
}

}  // namespace

Result<EvalOutcome> Engine::Evaluate(SemanticsKind kind,
                                     const EvalOptions& options) const {
  if (options.reject_unsafe_negation) {
    // Checked here for every semantics: the grounded pipelines never
    // build an EvalContext, so they would otherwise accept such rules
    // silently (the relational pipelines re-check through their context).
    INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
    INFLOG_RETURN_IF_ERROR(CheckNegationSafety(*p));
  }
  EvalOutcome out;
  out.kind = kind;
  switch (kind) {
    case SemanticsKind::kInflationary: {
      InflationaryOptions opts = options.inflationary;
      ApplyContextOptions(options, &opts.context);
      opts.context.output_predicates = options.output_predicates;
      INFLOG_ASSIGN_OR_RETURN(InflationaryResult r, Inflationary(opts));
      out.detail = std::move(r);
      return out;
    }
    case SemanticsKind::kStratified: {
      StratifiedOptions opts = options.stratified;
      ApplyContextOptions(options, &opts.context);
      opts.context.output_predicates = options.output_predicates;
      INFLOG_ASSIGN_OR_RETURN(StratifiedResult r, Stratified(opts));
      out.detail = std::move(r);
      return out;
    }
    case SemanticsKind::kWellFounded: {
      INFLOG_ASSIGN_OR_RETURN(WellFoundedResult r,
                              WellFounded(options.wellfounded));
      out.detail = std::move(r);
      return out;
    }
    case SemanticsKind::kStable: {
      StableOptions opts = options.stable;
      opts.analyze.solver = options.sat;
      INFLOG_ASSIGN_OR_RETURN(StableResult r, StableModels(opts));
      out.detail = std::move(r);
      return out;
    }
  }
  return Status::InvalidArgument("bad SemanticsKind");
}

Result<InflationaryResult> Engine::Inflationary(
    const InflationaryOptions& options) const {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  return EvalInflationary(*p, database_, options);
}

Result<StratifiedResult> Engine::Stratified(
    const StratifiedOptions& options) const {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  return EvalStratified(*p, database_, options);
}

Result<WellFoundedResult> Engine::WellFounded(
    const GrounderOptions& options) const {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  return EvalWellFounded(*p, database_, options);
}

Result<StableResult> Engine::StableModels(
    const StableOptions& options) const {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  return EnumerateStableModels(*p, database_, options);
}

Status Engine::BeginIncremental(SemanticsKind kind,
                                const EvalOptions& options) {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  if (options.reject_unsafe_negation) {
    INFLOG_RETURN_IF_ERROR(CheckNegationSafety(*p));
  }
  serving_.reset();  // both sessions borrow the same live database
  INFLOG_ASSIGN_OR_RETURN(
      incremental_,
      IncrementalSession::Create(*p, &database_,
                                 MakeIncrementalOptions(kind, options)));
  return Status::OK();
}

Status Engine::BeginServing(SemanticsKind kind, const EvalOptions& options) {
  INFLOG_ASSIGN_OR_RETURN(const Program* p, program());
  if (options.reject_unsafe_negation) {
    INFLOG_RETURN_IF_ERROR(CheckNegationSafety(*p));
  }
  incremental_.reset();  // both sessions borrow the same live database
  INFLOG_ASSIGN_OR_RETURN(
      serving_,
      serve::ServingSession::Create(*p, &database_,
                                    MakeIncrementalOptions(kind, options),
                                    options.serving));
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
  return FixpointAnalyzer::Create(p, &database_, std::move(options));
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
