#include "src/eval/stable.h"

#include <algorithm>

#include "src/eval/reduct.h"

namespace inflog {

void FillSatStats(const sat::SolverStats& s, EvalStats* stats) {
  stats->sat_conflicts = s.conflicts;
  stats->sat_decisions = s.decisions;
  stats->sat_propagations = s.propagations;
  stats->sat_restarts = s.restarts;
  stats->sat_learned = s.learned_clauses;
  stats->sat_deleted = s.deleted_clauses;
}

Result<StableResult> EnumerateStableModels(const Program& program,
                                           const Database& database,
                                           const AnalyzeOptions& options) {
  INFLOG_ASSIGN_OR_RETURN(
      FixpointAnalyzer analyzer,
      FixpointAnalyzer::Create(&program, &database, options));
  const GroundProgram& ground = analyzer.ground();

  // Enumerate supported models at the SAT level so the stability filter
  // runs on atom vectors. One model past the cap is the overflow witness.
  StableResult out;
  std::vector<std::vector<bool>> stable_atoms;
  INFLOG_ASSIGN_OR_RETURN(
      const uint64_t supported,
      analyzer.ForEachModel(
          kMaxSupportedModels + 1, [&](const std::vector<bool>& atoms) {
            // Gelfond–Lifschitz check: S is stable iff S = LM(P^S).
            if (LeastModelOfReduct(ground, atoms) == atoms) {
              stable_atoms.push_back(atoms);
            }
          }));
  if (supported > kMaxSupportedModels) {
    return Status::ResourceExhausted("supported-model budget exhausted");
  }
  out.supported_examined = supported;
  // Canonical order: the model list is then identical whatever order the
  // solver configuration produced the supported models in.
  std::sort(stable_atoms.begin(), stable_atoms.end());
  out.models.reserve(stable_atoms.size());
  for (const std::vector<bool>& atoms : stable_atoms) {
    out.models.push_back(ground.DecodeState(program, atoms));
  }
  FillSatStats(analyzer.sat_stats(), &out.stats);
  return out;
}

}  // namespace inflog
