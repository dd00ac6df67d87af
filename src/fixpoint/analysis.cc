#include "src/fixpoint/analysis.h"

#include <algorithm>
#include <atomic>

#include "src/base/strings.h"
#include "src/eval/theta.h"

namespace inflog {
namespace {

/// The error for a search that ended kUnknown: the stop flag when it was
/// raised, the conflict budget otherwise.
Status UnknownAnswer(const sat::SolverOptions& options) {
  if (options.stop != nullptr &&
      options.stop->load(std::memory_order_relaxed)) {
    return Status::ResourceExhausted("SAT search stopped");
  }
  return Status::ResourceExhausted("SAT conflict budget exhausted");
}

}  // namespace

Result<FixpointAnalyzer> FixpointAnalyzer::Create(const Program* program,
                                                  const Database* database,
                                                  AnalyzeOptions options) {
  INFLOG_CHECK(program != nullptr && database != nullptr);
  FixpointAnalyzer analyzer(program, database, options);
  INFLOG_ASSIGN_OR_RETURN(
      analyzer.ground_,
      GroundProgramFor(*program, *database, options.grounder));
  analyzer.encoding_ = EncodeCompletion(analyzer.ground_);
  return analyzer;
}

sat::Solver FixpointAnalyzer::MakeSolver() const {
  sat::Solver solver(options_.solver);
  solver.AddCnf(encoding_.cnf);
  // Blocking clauses and activation assumptions reference the program's
  // atom variables after the first Solve: freeze them so preprocessing
  // cannot eliminate them (elimination is an exact existential
  // projection, so the model set over the frozen variables is unchanged).
  for (size_t a = 0; a < encoding_.atom_vars.size(); ++a) {
    const int32_t var = encoding_.atom_vars[a];
    if (var >= 0 && !ground_.IsAuxiliary(a)) solver.FreezeVar(var);
  }
  return solver;
}

Result<IdbState> FixpointAnalyzer::DecodeModel(
    const std::vector<bool>& atoms) const {
  IdbState state = ground_.DecodeState(*program_, atoms);
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
  for (size_t a = 0; a < encoding_.atom_vars.size(); ++a) {
    const int32_t var = encoding_.atom_vars[a];
    if (var < 0 || ground_.IsAuxiliary(a)) continue;
    clause.push_back(atoms[a] ? sat::Neg(var) : sat::Pos(var));
  }
  return clause;
}

Result<bool> FixpointAnalyzer::ForEachModel(
    uint64_t limit, bool block_last,
    const std::function<void(const std::vector<bool>&)>& visit) const {
  sat::Solver solver = MakeSolver();
  uint64_t models = 0;
  bool ran_out = false;
  sat::SolveResult res = sat::SolveResult::kSat;
  while (limit == 0 || models < limit) {
    res = solver.Solve();
    if (res != sat::SolveResult::kSat) {
      ran_out = res == sat::SolveResult::kUnsat;
      break;
    }
    const std::vector<bool> atoms = encoding_.DecodeAtoms(solver.Model());
    if (visit) visit(atoms);
    if (++models == limit && !block_last) break;
    // A block that leaves no clause to add (no atoms) or closes the
    // formula at the root ends the enumeration: every model was seen.
    const sat::Clause block = BlockingClause(atoms);
    if (block.empty() || !solver.AddClause(block)) {
      ran_out = true;
      break;
    }
  }
  sat_stats_.Add(solver.stats());
  if (res == sat::SolveResult::kUnknown) return UnknownAnswer(options_.solver);
  return ran_out;
}

Result<bool> FixpointAnalyzer::HasFixpoint() const {
  // One solve: the models ran out before the first iff there is none.
  INFLOG_ASSIGN_OR_RETURN(const bool none,
                          ForEachModel(/*limit=*/1, /*block_last=*/false));
  return !none;
}

Result<std::optional<IdbState>> FixpointAnalyzer::FindFixpoint() const {
  std::vector<bool> first;
  INFLOG_ASSIGN_OR_RETURN(
      const bool none,
      ForEachModel(/*limit=*/1, /*block_last=*/false,
                   [&first](const std::vector<bool>& atoms) {
                     first = atoms;
                   }));
  if (none) return std::optional<IdbState>();
  INFLOG_ASSIGN_OR_RETURN(IdbState state, DecodeModel(first));
  return std::optional<IdbState>(std::move(state));
}

Result<std::vector<IdbState>> FixpointAnalyzer::EnumerateFixpoints(
    size_t limit) const {
  std::vector<std::vector<bool>> found;
  INFLOG_RETURN_IF_ERROR(
      ForEachModel(limit, /*block_last=*/true,
                   [&found](const std::vector<bool>& atoms) {
                     found.push_back(atoms);
                   })
          .status());
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

Result<uint64_t> FixpointAnalyzer::CountFixpoints(uint64_t limit) const {
  // One model past the limit, left unblocked, is the overflow witness; a
  // limit of UINT64_MAX wraps to 0, no limit, which it is.
  uint64_t count = 0;
  INFLOG_RETURN_IF_ERROR(
      ForEachModel(limit + 1, /*block_last=*/false,
                   [&count](const std::vector<bool>&) { ++count; })
          .status());
  if (count > limit) {
    return Status::ResourceExhausted(StrCat("more than ", limit, " fixpoints"));
  }
  return count;
}

Result<UniqueStatus> FixpointAnalyzer::UniqueFixpoint() const {
  // Two SAT calls at most: solve, block, solve.
  uint64_t count = 0;
  INFLOG_RETURN_IF_ERROR(
      ForEachModel(/*limit=*/2, /*block_last=*/false,
                   [&count](const std::vector<bool>&) { ++count; })
          .status());
  if (count == 0) return UniqueStatus::kNoFixpoint;
  return count == 1 ? UniqueStatus::kUnique : UniqueStatus::kMultiple;
}

Result<LeastFixpointOutcome> FixpointAnalyzer::LeastFixpoint() const {
  LeastFixpointOutcome out;
  sat::Solver solver = MakeSolver();
  sat::SolveResult res = solver.Solve();
  ++out.sat_calls;
  if (res == sat::SolveResult::kUnknown) {
    sat_stats_.Add(solver.stats());
    return UnknownAnswer(options_.solver);
  }
  if (res == sat::SolveResult::kUnsat) {
    sat_stats_.Add(solver.stats());
    return out;  // no fixpoint at all
  }
  out.has_fixpoint = true;

  // Candidate C := atoms true in the first model; then repeatedly ask for
  // a fixpoint missing part of C and intersect. When no such model exists,
  // C is exactly the intersection of all fixpoints. Each round either
  // terminates or strictly shrinks C, so at most |C₀|+1 SAT calls run.
  // (Activation variables are created after the first Solve, so the
  // preprocessor never sees — and cannot eliminate — them.)
  std::vector<bool> candidate = encoding_.DecodeAtoms(solver.Model());
  while (true) {
    sat::Clause ask;
    const sat::Var activation = solver.NewVar();
    ask.push_back(sat::Neg(activation));
    for (size_t a = 0; a < candidate.size(); ++a) {
      if (candidate[a] && !ground_.IsAuxiliary(a)) {
        ask.push_back(sat::Neg(encoding_.atom_vars[a]));
      }
    }
    if (ask.size() == 1) break;  // candidate already empty
    solver.AddClause(ask);
    res = solver.Solve({sat::Pos(activation)});
    ++out.sat_calls;
    if (res == sat::SolveResult::kUnknown) {
      sat_stats_.Add(solver.stats());
      return UnknownAnswer(options_.solver);
    }
    // Deactivate the query clause for subsequent rounds.
    const bool found = res == sat::SolveResult::kSat;
    std::vector<bool> model_atoms;
    if (found) model_atoms = encoding_.DecodeAtoms(solver.Model());
    solver.AddClause({sat::Neg(activation)});
    if (!found) break;
    for (size_t a = 0; a < candidate.size(); ++a) {
      candidate[a] = candidate[a] && model_atoms[a];
    }
  }
  sat_stats_.Add(solver.stats());

  out.intersection = ground_.DecodeState(*program_, candidate);
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
