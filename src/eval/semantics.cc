#include "src/eval/semantics.h"

#include "src/ast/analysis.h"
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

IdbState& EvalOutcome::state() {
  switch (kind) {
    case SemanticsKind::kInflationary:
      return std::get<InflationaryResult>(detail).state;
    case SemanticsKind::kStratified:
      return std::get<StratifiedResult>(detail).state;
    case SemanticsKind::kWellFounded:
      return std::get<WellFoundedResult>(detail).true_state;
    case SemanticsKind::kStable: {
      std::vector<IdbState>& models = std::get<StableResult>(detail).models;
      return models.empty() ? no_model : models.front();
    }
  }
  INFLOG_CHECK(false) << "bad SemanticsKind";
  return no_model;
}

const IdbState& EvalOutcome::state() const {
  return const_cast<EvalOutcome*>(this)->state();
}

const EvalStats* EvalOutcome::stats() const {
  switch (kind) {
    case SemanticsKind::kInflationary:
      return &std::get<InflationaryResult>(detail).stats;
    case SemanticsKind::kStratified:
      return &std::get<StratifiedResult>(detail).stats;
    case SemanticsKind::kStable:
      // The CDCL counters of the supported-model enumeration; the
      // executor counters of the grounder's binding rules are dropped.
      return &std::get<StableResult>(detail).stats;
    case SemanticsKind::kWellFounded:
      return nullptr;  // no SAT search; the grounder's counters are dropped
  }
  return nullptr;
}

Result<EvalOutcome> EvalSemantics(const Program& program,
                                  const Database& database,
                                  const SemanticsOptions& options,
                                  const GroundProgram* ground) {
  if (options.context.reject_unsafe_negation) {
    // Checked here for every semantics: the grounded pipelines never
    // build an EvalContext, so they would otherwise accept such rules
    // silently (the relational pipelines re-check through their context).
    INFLOG_RETURN_IF_ERROR(CheckNegationSafety(program));
  }
  switch (options.semantics) {
    case SemanticsKind::kInflationary: {
      InflationaryOptions opts;
      opts.use_seminaive = options.use_seminaive;
      opts.context = options.context;
      INFLOG_ASSIGN_OR_RETURN(InflationaryResult r,
                              EvalInflationary(program, database, opts));
      return EvalOutcome{options.semantics, std::move(r), {}};
    }
    case SemanticsKind::kStratified: {
      StratifiedOptions opts;
      opts.use_seminaive = options.use_seminaive;
      opts.context = options.context;
      INFLOG_ASSIGN_OR_RETURN(StratifiedResult r,
                              EvalStratified(program, database, opts));
      return EvalOutcome{options.semantics, std::move(r), {}};
    }
    case SemanticsKind::kWellFounded: {
      if (ground != nullptr) {
        return EvalOutcome{options.semantics,
                           AlternatingFixpoint(program, *ground), {}};
      }
      INFLOG_ASSIGN_OR_RETURN(WellFoundedResult r,
                              EvalWellFounded(program, database));
      return EvalOutcome{options.semantics, std::move(r), {}};
    }
    case SemanticsKind::kStable: {
      AnalyzeOptions analyze;
      analyze.solver = options.sat;
      INFLOG_ASSIGN_OR_RETURN(
          StableResult r, EnumerateStableModels(program, database, analyze));
      return EvalOutcome{options.semantics, std::move(r),
                         MakeEmptyIdbState(program)};
    }
  }
  return Status::InvalidArgument("bad SemanticsKind");
}

}  // namespace inflog
