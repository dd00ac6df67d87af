#include "src/eval/reduct.h"

#include "src/eval/fixpoint_driver.h"

namespace inflog {

std::vector<bool> LeastModelOfReduct(const GroundProgram& ground,
                                     const std::vector<bool>& assumed_true) {
  GroundConsequence consequence(ground, assumed_true);
  FixpointDriver::Iterate(
      [&](size_t stage) { return consequence.Step(stage); });
  return std::move(consequence).TakeModel();
}

}  // namespace inflog
