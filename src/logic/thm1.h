// The Theorem 1 compiler: ∃SO sentences → DATALOG¬ programs.
//
// Given Ψ = ∃S̄ φ defining an NP collection C (Fagin), produce the fixed
// program π_C with: one choice rule Sⱼ(ū) ← Sⱼ(ū) per second-order
// relation (including the function-graph relations introduced by
// Skolemization), one rule Q(x̄) ← θᵢ(x̄, ȳ) per disjunct of the Skolem
// normal form, and the guarded toggle T(z) ← ¬Q(ū), ¬T(w). Then for every
// database D:   D ∈ C  ⇔  (π_C, D) has a fixpoint.
//
// The toggle's components ¬Q(ū) and ¬T(w) are existential: the grounder
// replaces each by an auxiliary atom (src/ground/grounder.h), so the
// toggle costs |A|^|ū| + 2|A| ground rules instead of |A|^(|ū|+2).

#ifndef INFLOG_LOGIC_THM1_H_
#define INFLOG_LOGIC_THM1_H_

#include <memory>
#include <string>

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/logic/transform.h"

namespace inflog {
namespace logic {

/// The compiler's output: the normal form it went through, the program
/// text, and the parsed program.
struct Thm1Compilation {
  SkolemNormalForm snf;
  std::string program_text;
  Program program;

  explicit Thm1Compilation(Program p) : program(std::move(p)) {}
};

/// Compiles `sentence` into π_C over `symbols`. The satisfiability
/// predicate is named Q<suffix> and the toggle T<suffix>, with a suffix
/// chosen to avoid clashes with the sentence's relation names.
Result<Thm1Compilation> CompileEsoToDatalog(
    const EsoSentence& sentence, std::shared_ptr<SymbolTable> symbols,
    const SnfOptions& options = {});

}  // namespace logic
}  // namespace inflog

#endif  // INFLOG_LOGIC_THM1_H_
