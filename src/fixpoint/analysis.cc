#include "src/fixpoint/analysis.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/base/strings.h"
#include "src/eval/theta.h"

namespace inflog {

namespace {

// The error of a solve that ended kUnknown: on the stop flag when it was
// raised, on the conflict budget otherwise.
Status SearchStopped(const sat::SolverOptions& options) {
  return Status::ResourceExhausted(
      options.stop != nullptr && options.stop->load(std::memory_order_relaxed)
          ? "SAT search stopped"
          : "SAT conflict budget exhausted");
}

}  // namespace

Result<FixpointAnalyzer> FixpointAnalyzer::Create(const Program* program,
                                                  const Database* database,
                                                  AnalyzeOptions options) {
  INFLOG_CHECK(program != nullptr && database != nullptr);
  auto grounding = std::make_shared<GroundCompletion>();
  INFLOG_ASSIGN_OR_RETURN(
      grounding->ground,
      GroundProgramFor(*program, *database, options.grounder));
  grounding->encoding = EncodeCompletion(grounding->ground);
  return FixpointAnalyzer(program, database, std::move(options),
                          std::move(grounding));
}

Result<IdbState> FixpointAnalyzer::DecodeModel(
    const std::vector<bool>& atoms) const {
  IdbState state = ground().DecodeState(*program_, atoms);
  INFLOG_ASSIGN_OR_RETURN(const bool is_fixpoint, VerifyFixpoint(state));
  if (!is_fixpoint) {
    return Status::Internal(
        "SAT model of the completion is not a fixpoint of Θ; "
        "encoding bug");
  }
  return state;
}

sat::Clause FixpointAnalyzer::BlockingClause(
    const std::vector<bool>& atoms) const {
  sat::Clause clause;
  for (size_t a = 0; a < encoding().atom_vars.size(); ++a) {
    const int32_t var = encoding().atom_vars[a];
    if (var < 0 || ground().IsAuxiliary(a)) continue;
    clause.push_back(atoms[a] ? sat::Neg(var) : sat::Pos(var));
  }
  return clause;
}

Result<uint64_t> FixpointAnalyzer::ForEachModel(
    uint64_t limit,
    const std::function<void(const std::vector<bool>&)>& visit,
    const std::function<sat::Clause(const std::vector<bool>&)>& block) {
  if (!first_known_) {
    if (solver_ == nullptr) {
      solver_ = std::make_unique<sat::Solver>(options_.solver);
      solver_->AddCnf(encoding().cnf);
    }
    const sat::SolveResult res = solver_->Solve();
    if (res == sat::SolveResult::kUnknown) {
      return SearchStopped(options_.solver);
    }
    first_known_ = true;
    if (res == sat::SolveResult::kSat) {
      first_model_ = encoding().DecodeAtoms(solver_->Model());
    }
  }
  if (!first_model_.has_value()) return uint64_t{0};

  sat::Var act = -1;
  uint64_t visited = 0;
  Status status;
  std::vector<bool> atoms = *first_model_;
  while (true) {
    if (visit) visit(atoms);
    if (++visited == limit) break;
    sat::Clause clause = block ? block(atoms) : BlockingClause(atoms);
    if (clause.empty()) break;
    if (act < 0) {
      // Every block added before this query is retired: collect them once
      // they outnumber the completion's clauses.
      if (unswept_blocks_ > encoding().cnf.clauses.size()) {
        solver_->Simplify();
        unswept_blocks_ = 0;
      }
      act = solver_->NewVar();
    }
    // A block false at the root reduces to the unit ¬act, and the solve
    // under act then answers UNSAT.
    clause.push_back(sat::Neg(act));
    solver_->AddClause(std::move(clause));
    ++unswept_blocks_;
    const sat::SolveResult res = solver_->Solve({sat::Pos(act)});
    if (res != sat::SolveResult::kSat) {
      if (res == sat::SolveResult::kUnknown) {
        status = SearchStopped(options_.solver);
      }
      break;
    }
    atoms = encoding().DecodeAtoms(solver_->Model());
  }
  if (act >= 0) solver_->AddClause({sat::Neg(act)});
  if (!status.ok()) return status;
  return visited;
}

Result<bool> FixpointAnalyzer::HasFixpoint() {
  INFLOG_ASSIGN_OR_RETURN(const uint64_t found, ForEachModel(/*limit=*/1));
  return found > 0;
}

Result<std::optional<IdbState>> FixpointAnalyzer::FindFixpoint() {
  INFLOG_ASSIGN_OR_RETURN(const uint64_t found, ForEachModel(/*limit=*/1));
  if (found == 0) return std::optional<IdbState>();
  INFLOG_ASSIGN_OR_RETURN(IdbState state, DecodeModel(*first_model_));
  return std::optional<IdbState>(std::move(state));
}

Result<std::vector<IdbState>> FixpointAnalyzer::EnumerateFixpoints(
    size_t limit) {
  std::vector<std::vector<bool>> found;
  INFLOG_RETURN_IF_ERROR(
      ForEachModel(limit, [&found](const std::vector<bool>& atoms) {
        found.push_back(atoms);
      }).status());
  // Canonical order: a full enumeration is then identical whatever the
  // solver configuration found the models in.
  std::sort(found.begin(), found.end());
  std::vector<IdbState> fixpoints;
  fixpoints.reserve(found.size());
  for (const std::vector<bool>& atoms : found) {
    INFLOG_ASSIGN_OR_RETURN(IdbState state, DecodeModel(atoms));
    fixpoints.push_back(std::move(state));
  }
  return fixpoints;
}

Result<uint64_t> FixpointAnalyzer::CountFixpoints(uint64_t limit) {
  // One model past the limit is the overflow witness; a limit of
  // UINT64_MAX wraps to 0, no limit, which it is.
  INFLOG_ASSIGN_OR_RETURN(const uint64_t count, ForEachModel(limit + 1));
  if (count > limit) {
    return Status::ResourceExhausted(StrCat("more than ", limit, " fixpoints"));
  }
  return count;
}

Result<UniqueStatus> FixpointAnalyzer::UniqueFixpoint() {
  // Two SAT calls at most: solve, block, solve; the first is memoized.
  INFLOG_ASSIGN_OR_RETURN(const uint64_t count, ForEachModel(/*limit=*/2));
  if (count == 0) return UniqueStatus::kNoFixpoint;
  return count == 1 ? UniqueStatus::kUnique : UniqueStatus::kMultiple;
}

Result<LeastFixpointOutcome> FixpointAnalyzer::LeastFixpoint() {
  // Candidate C := the atoms true in every model found so far. Each
  // further model must make some atom of C false; when none can, C is
  // exactly the intersection of all fixpoints. C only shrinks, so each
  // round's clause implies the previous round's and stays in the solver
  // until the query ends. Each round ends the search or strictly shrinks
  // C, so at most |C₀|+1 SAT calls run.
  LeastFixpointOutcome out;
  out.sat_calls = 1;
  std::vector<bool> candidate(encoding().atom_vars.size(), true);
  INFLOG_ASSIGN_OR_RETURN(
      const uint64_t found,
      ForEachModel(
          /*limit=*/0, /*visit=*/nullptr, [&](const std::vector<bool>& atoms) {
            sat::Clause some_false;
            for (size_t a = 0; a < atoms.size(); ++a) {
              candidate[a] = candidate[a] && atoms[a];
              if (candidate[a] && !ground().IsAuxiliary(a)) {
                some_false.push_back(sat::Neg(encoding().atom_vars[a]));
              }
            }
            if (!some_false.empty()) ++out.sat_calls;
            return some_false;
          }));
  out.has_fixpoint = found > 0;
  if (!out.has_fixpoint) return out;

  out.intersection = ground().DecodeState(*program_, candidate);
  // Theorem 3's observation: a least fixpoint exists iff the intersection
  // of all fixpoints is itself a fixpoint.
  INFLOG_ASSIGN_OR_RETURN(out.has_least, VerifyFixpoint(out.intersection));
  return out;
}

Result<bool> FixpointAnalyzer::VerifyFixpoint(const IdbState& state) const {
  EvalContextOptions ctx_options;
  ctx_options.allow_missing_edb = options_.grounder.allow_missing_edb;
  INFLOG_ASSIGN_OR_RETURN(
      EvalContext ctx,
      EvalContext::Create(*program_, *database_, ctx_options));
  ThetaOperator theta(&ctx);
  return theta.IsFixpoint(state);
}

}  // namespace inflog
