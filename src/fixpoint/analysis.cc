#include "src/fixpoint/analysis.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/eval/theta.h"

namespace inflog {

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

sat::PortfolioSolver FixpointAnalyzer::MakeSolver() const {
  sat::PortfolioSolver solver(options_.solver);
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

Result<bool> FixpointAnalyzer::HasFixpoint() const {
  sat::PortfolioSolver solver = MakeSolver();
  const sat::SolveResult res = solver.Solve();
  sat_stats_.Add(solver.stats());
  if (res == sat::SolveResult::kUnknown) {
    return Status::ResourceExhausted("SAT conflict budget exhausted");
  }
  return res == sat::SolveResult::kSat;
}

Result<std::optional<IdbState>> FixpointAnalyzer::FindFixpoint() const {
  sat::PortfolioSolver solver = MakeSolver();
  const sat::SolveResult res = solver.Solve();
  sat_stats_.Add(solver.stats());
  if (res == sat::SolveResult::kUnknown) {
    return Status::ResourceExhausted("SAT conflict budget exhausted");
  }
  if (res == sat::SolveResult::kUnsat) {
    return std::optional<IdbState>();
  }
  INFLOG_ASSIGN_OR_RETURN(IdbState state,
                          DecodeModel(encoding_.DecodeAtoms(solver.Model())));
  return std::optional<IdbState>(std::move(state));
}

Result<std::vector<IdbState>> FixpointAnalyzer::EnumerateFixpoints(
    size_t limit) const {
  sat::PortfolioSolver solver = MakeSolver();
  std::vector<std::vector<bool>> found;
  while (limit == 0 || found.size() < limit) {
    const sat::SolveResult res = solver.Solve();
    if (res == sat::SolveResult::kUnknown) {
      sat_stats_.Add(solver.stats());
      return Status::ResourceExhausted("SAT conflict budget exhausted");
    }
    if (res == sat::SolveResult::kUnsat) break;
    std::vector<bool> atoms = encoding_.DecodeAtoms(solver.Model());
    const sat::Clause block = BlockingClause(atoms);
    found.push_back(std::move(atoms));
    if (block.empty() || !solver.AddClause(block)) break;
  }
  sat_stats_.Add(solver.stats());
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
  sat::PortfolioSolver solver = MakeSolver();
  uint64_t count = 0;
  while (true) {
    const sat::SolveResult res = solver.Solve();
    if (res == sat::SolveResult::kUnknown) {
      sat_stats_.Add(solver.stats());
      return Status::ResourceExhausted("SAT conflict budget exhausted");
    }
    if (res == sat::SolveResult::kUnsat) {
      sat_stats_.Add(solver.stats());
      return count;
    }
    ++count;
    if (count > limit) {
      sat_stats_.Add(solver.stats());
      return Status::ResourceExhausted(
          StrCat("more than ", limit, " fixpoints"));
    }
    const sat::Clause block =
        BlockingClause(encoding_.DecodeAtoms(solver.Model()));
    if (block.empty() || !solver.AddClause(block)) {
      sat_stats_.Add(solver.stats());
      return count;
    }
  }
}

Result<UniqueStatus> FixpointAnalyzer::UniqueFixpoint() const {
  sat::PortfolioSolver solver = MakeSolver();
  sat::SolveResult res = solver.Solve();
  if (res == sat::SolveResult::kUnknown) {
    sat_stats_.Add(solver.stats());
    return Status::ResourceExhausted("SAT conflict budget exhausted");
  }
  if (res == sat::SolveResult::kUnsat) {
    sat_stats_.Add(solver.stats());
    return UniqueStatus::kNoFixpoint;
  }
  const sat::Clause block =
      BlockingClause(encoding_.DecodeAtoms(solver.Model()));
  if (block.empty() || !solver.AddClause(block)) {
    sat_stats_.Add(solver.stats());
    return UniqueStatus::kUnique;  // no atoms at all: the empty state only
  }
  res = solver.Solve();
  sat_stats_.Add(solver.stats());
  if (res == sat::SolveResult::kUnknown) {
    return Status::ResourceExhausted("SAT conflict budget exhausted");
  }
  return res == sat::SolveResult::kSat ? UniqueStatus::kMultiple
                                       : UniqueStatus::kUnique;
}

Result<LeastFixpointOutcome> FixpointAnalyzer::LeastFixpoint() const {
  LeastFixpointOutcome out;
  sat::PortfolioSolver solver = MakeSolver();
  sat::SolveResult res = solver.Solve();
  ++out.sat_calls;
  if (res == sat::SolveResult::kUnknown) {
    sat_stats_.Add(solver.stats());
    return Status::ResourceExhausted("SAT conflict budget exhausted");
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
      return Status::ResourceExhausted("SAT conflict budget exhausted");
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
