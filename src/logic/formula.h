// First-order and existential second-order formulas over a relational
// vocabulary.
//
// This is the proof machinery of the paper made executable: Fagin's
// theorem connects NP collections to ∃SO sentences (Theorem 1 compiles
// these to DATALOG¬ programs via Skolem normal form), the fixpoint
// formula φ_π of Section 3 characterizes the fixpoints of a program in
// first-order terms, and FO+IFP (Gurevich–Shelah) is the logic whose
// existential fragment Proposition 1 identifies with Inflationary DATALOG.
//
// Variables and predicates are identified by name; transformations
// generate fresh names as needed. Formulas are immutable and shared
// through FormulaPtr.

#ifndef INFLOG_LOGIC_FORMULA_H_
#define INFLOG_LOGIC_FORMULA_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/logging.h"

namespace inflog {
namespace logic {

/// A first-order term: a variable or a constant (by name; constants are
/// interned against the database's symbol table at evaluation time).
struct FoTerm {
  bool is_var;
  std::string name;

  static FoTerm Var(std::string name) { return FoTerm{true, std::move(name)}; }
  static FoTerm Const(std::string name) {
    return FoTerm{false, std::move(name)};
  }
  bool operator==(const FoTerm& o) const {
    return is_var == o.is_var && name == o.name;
  }
};

struct Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// A first-order formula node.
struct Formula {
  enum class Kind {
    kAtom,    ///< pred(args)
    kEq,      ///< t₁ = t₂ (args has two terms)
    kTrue,    ///< ⊤
    kFalse,   ///< ⊥
    kNot,     ///< ¬ children[0]
    kAnd,     ///< ⋀ children (empty = ⊤)
    kOr,      ///< ⋁ children (empty = ⊥)
    kExists,  ///< ∃ vars children[0]
    kForall,  ///< ∀ vars children[0]
  };

  Kind kind;
  std::string pred;            // kAtom
  std::vector<FoTerm> args;    // kAtom / kEq
  std::vector<FormulaPtr> children;
  std::vector<std::string> vars;  // kExists / kForall

  /// Renders with ∃/∀/∧/∨/¬ symbols, for debugging and goldens.
  std::string ToString() const;
};

// --- Constructors. ---

FormulaPtr Atom(std::string pred, std::vector<FoTerm> args);
FormulaPtr Eq(FoTerm lhs, FoTerm rhs);
FormulaPtr True();
FormulaPtr False();
FormulaPtr Not(FormulaPtr f);
FormulaPtr And(std::vector<FormulaPtr> children);
FormulaPtr Or(std::vector<FormulaPtr> children);
FormulaPtr Implies(FormulaPtr a, FormulaPtr b);
FormulaPtr Iff(FormulaPtr a, FormulaPtr b);
FormulaPtr Exists(std::vector<std::string> vars, FormulaPtr body);
FormulaPtr Forall(std::vector<std::string> vars, FormulaPtr body);

/// Capture-avoiding substitution of variables by terms.
FormulaPtr SubstituteVars(
    const FormulaPtr& f,
    const std::vector<std::pair<std::string, FoTerm>>& subst);

/// A second-order relation variable.
struct RelVar {
  std::string name;
  size_t arity;
};

/// An existential second-order sentence ∃S₁...∃S_m φ (φ first-order, its
/// free relation names drawn from the database vocabulary and the Sᵢ).
struct EsoSentence {
  std::vector<RelVar> so_vars;
  FormulaPtr matrix;

  std::string ToString() const;
};

}  // namespace logic
}  // namespace inflog

#endif  // INFLOG_LOGIC_FORMULA_H_
