#include "src/eval/wellfounded.h"

#include "src/eval/fixpoint_driver.h"
#include "src/eval/reduct.h"

namespace inflog {

Result<WellFoundedResult> EvalWellFounded(const Program& program,
                                          const Database& database,
                                          const GrounderOptions& options) {
  INFLOG_ASSIGN_OR_RETURN(const GroundProgram ground,
                          GroundProgramFor(program, database, options));
  return AlternatingFixpoint(program, ground);
}

WellFoundedResult AlternatingFixpoint(const Program& program,
                                      const GroundProgram& ground) {
  const size_t num_atoms = ground.atoms.size();

  // Van Gelder's alternating iteration U_{k+1} = S(S(U_k)) through the
  // shared driver; each step reports how many atoms U gained (U is
  // ⊆-increasing, so 0 new atoms means the alternation has converged).
  WellFoundedResult out;
  std::vector<bool> under(num_atoms, false);  // U: definitely true
  std::vector<bool> over;                     // V: possibly true
  FixpointDriver::Iterate([&](size_t) -> size_t {
    ++out.rounds;
    over = LeastModelOfReduct(ground, under);
    std::vector<bool> next_under = LeastModelOfReduct(ground, over);
    size_t gained = 0;
    for (size_t a = 0; a < num_atoms; ++a) {
      if (next_under[a] != under[a]) ++gained;
    }
    under = std::move(next_under);
    return gained;
  });

  out.true_state = ground.DecodeState(program, under);
  std::vector<bool> undefined(num_atoms, false);
  out.total = true;
  for (size_t a = 0; a < num_atoms; ++a) {
    if (over[a] && !under[a]) {
      undefined[a] = true;
      out.total = false;
    }
  }
  out.undefined_state = ground.DecodeState(program, undefined);
  return out;
}

}  // namespace inflog
