// Ground programs: the propositional residue of (π, D).
//
// The grounder instantiates every rule over the evaluation universe,
// evaluates away the EDB and (in)equality literals through the relational
// planner and executor (grounder.h), and keeps the IDB literals as ground
// atoms. What remains — ground rules with positive and negated IDB body
// atoms — is the object on which fixpoint analysis (Clark completion /
// supported models), the well-founded semantics, and the stable-model
// check all operate.
//
// Atoms are numbered in the order the grounder first meets them: per
// rule, per binding in the order the join first finds it, the head and
// then the IDB literals in body order. The numbering orders the CNF's
// variables and every model vector, so a grounder change that moves it
// can move the SAT search and the order of enumerated models.
//
// Besides the program's own IDB atoms, a grounding holds auxiliary atoms:
// one per existential body component the grounder projected (see
// grounder.h), defined by that component's ground rules. They are
// ordinary atoms to the completion, the alternating fixpoint and the
// reduct; DecodeState drops them, and the analyzer never blocks on
// them, because their definition fixes their value.
//
// Bodies are interned: rules whose variables do not all occur in the
// head share one GroundBody record, and a rule is just a (head atom,
// body id) pair, so the completion encoder writes one Tseitin definition
// per body. Interning alone would leave the toggle T(z) ← ¬Q(u), ¬T(w)
// at |A|³ rules over |A|² bodies; projection takes it to 3|A| rules
// that share one {a₁, a₂} body across the |A| heads.

#ifndef INFLOG_GROUND_GROUND_PROGRAM_H_
#define INFLOG_GROUND_GROUND_PROGRAM_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/program.h"
#include "src/eval/idb_state.h"
#include "src/relation/tuple.h"

namespace inflog {

/// The predicate id of auxiliary atoms. Their args are (rule index,
/// component index), naming the projected component.
inline constexpr uint32_t kAuxiliaryPredicate = kNoPredicate;

/// A ground IDB atom: predicate id plus a constant tuple.
struct GroundAtom {
  uint32_t predicate;
  Tuple args;
};

/// Dense numbering of the ground IDB atoms seen during grounding.
class AtomTable {
 public:
  /// Returns the id of (pred, args), interning it if new.
  uint32_t GetOrAdd(uint32_t predicate, TupleView args);

  /// Returns the id of (pred, args), or -1 if never interned.
  int64_t Find(uint32_t predicate, TupleView args) const;

  size_t size() const { return atoms_.size(); }
  const GroundAtom& atom(uint32_t id) const {
    INFLOG_CHECK(id < atoms_.size());
    return atoms_[id];
  }

 private:
  /// The id of (pred, args) among the atoms with this hash, or -1.
  int64_t Lookup(size_t hash, uint32_t predicate, TupleView args) const;

  std::vector<GroundAtom> atoms_;
  /// Atom ids by hash of (pred, args): the args are stored once, in
  /// atoms_, and a lookup allocates nothing.
  std::unordered_multimap<size_t, uint32_t> ids_;
};

/// One ground rule body: positive and negated IDB atoms (sorted,
/// deduplicated atom ids). The EDB part has already been checked true.
/// A body may hold an atom both positively and negatively: it is false in
/// every total interpretation, but undefined in the well-founded model
/// when the atom is, so it is kept.
struct GroundBody {
  std::vector<uint32_t> pos;
  std::vector<uint32_t> neg;

  bool empty() const { return pos.empty() && neg.empty(); }
};

/// Dense numbering of distinct ground bodies.
class BodyTable {
 public:
  /// Interns a canonical (sorted/deduplicated) body.
  uint32_t GetOrAdd(const GroundBody& body);

  size_t size() const { return bodies_.size(); }
  const GroundBody& body(uint32_t id) const {
    INFLOG_CHECK(id < bodies_.size());
    return bodies_[id];
  }

 private:
  std::vector<GroundBody> bodies_;
  /// Body ids by hash: each body is stored once, in bodies_, and a lookup
  /// allocates nothing.
  std::unordered_multimap<size_t, uint32_t> ids_;
};

/// One ground rule: head ← bodies.body(body).
struct GroundRule {
  uint32_t head;
  uint32_t body;
};

/// The grounding of (π, D).
struct GroundProgram {
  AtomTable atoms;
  BodyTable bodies;
  std::vector<GroundRule> rules;

  /// rule indices by head atom id (atoms with no entry are unsupported and
  /// false in every fixpoint).
  std::vector<std::vector<uint32_t>> rules_by_head;

  const GroundBody& RuleBody(const GroundRule& rule) const {
    return bodies.body(rule.body);
  }

  /// True iff atom `id` is an auxiliary atom (no program predicate).
  bool IsAuxiliary(uint32_t id) const {
    return atoms.atom(id).predicate == kAuxiliaryPredicate;
  }

  /// Rebuilds rules_by_head from `rules`.
  void IndexHeads();

  /// Decodes a set of true atoms (by atom id) into an IdbState for
  /// `program` (all other atoms false; auxiliary atoms are dropped).
  IdbState DecodeState(const Program& program,
                       const std::vector<bool>& true_atoms) const;

  /// Debug rendering "Pred(a,b) :- Pred2(c), !Pred3(d)." per rule; the
  /// auxiliary atom of rule r's component c renders as "#exists(r,c)".
  std::string ToString(const Program& program) const;
};

}  // namespace inflog

#endif  // INFLOG_GROUND_GROUND_PROGRAM_H_
