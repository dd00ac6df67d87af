#include "src/fixpoint/analysis.h"

#include <algorithm>
#include <atomic>

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

sat::Solver FixpointAnalyzer::MakeSolver() const {
  sat::Solver solver(options_.solver);
  solver.AddCnf(encoding_.cnf);
  // Blocking clauses reference the program's atom variables after the
  // first Solve: freeze them so preprocessing cannot eliminate them
  // (elimination is an exact existential projection, so the model set
  // over the frozen variables is unchanged).
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
    const std::function<void(const std::vector<bool>&)>& visit,
    const std::function<sat::Clause(const std::vector<bool>&)>& block)
    const {
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
    const sat::Clause clause = block ? block(atoms) : BlockingClause(atoms);
    if (clause.empty() || !solver.AddClause(clause)) {
      ran_out = true;
      break;
    }
  }
  sat_stats_.Add(solver.stats());
  if (res != sat::SolveResult::kUnknown) return ran_out;
  // The search ended kUnknown: the stop flag when it was raised, the
  // conflict budget otherwise.
  const std::atomic<bool>* stop = options_.solver.stop;
  return Status::ResourceExhausted(
      stop != nullptr && stop->load(std::memory_order_relaxed)
          ? "SAT search stopped"
          : "SAT conflict budget exhausted");
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
  // Candidate C := the atoms true in every model found so far. Each
  // further model must make some atom of C false; when none can, C is
  // exactly the intersection of all fixpoints. C only shrinks, so each
  // round's clause implies the previous round's and stays in the
  // solver. Each round ends the search or strictly shrinks C, so at most
  // |C₀|+1 SAT calls run.
  LeastFixpointOutcome out;
  out.sat_calls = 1;
  std::vector<bool> candidate;
  INFLOG_RETURN_IF_ERROR(
      ForEachModel(
          /*limit=*/0, /*block_last=*/true, /*visit=*/nullptr,
          [&](const std::vector<bool>& atoms) {
            if (!out.has_fixpoint) candidate = atoms;
            out.has_fixpoint = true;
            sat::Clause some_false;
            for (size_t a = 0; a < atoms.size(); ++a) {
              candidate[a] = candidate[a] && atoms[a];
              if (candidate[a] && !ground_.IsAuxiliary(a)) {
                some_false.push_back(sat::Neg(encoding_.atom_vars[a]));
              }
            }
            if (!some_false.empty()) ++out.sat_calls;
            return some_false;
          })
          .status());
  if (!out.has_fixpoint) return out;

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
