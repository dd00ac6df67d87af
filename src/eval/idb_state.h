// IdbState: a value assignment for a program's nondatabase (IDB) relations.
//
// This is the object the paper's operator Θ maps: "a sequence S = (S₁,...,
// S_m) of relations on A whose arities match those of the nondatabase
// relations of π". Relations are ordered by the program's dense idb_index.

#ifndef INFLOG_EVAL_IDB_STATE_H_
#define INFLOG_EVAL_IDB_STATE_H_

#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/relation/relation.h"
#include "src/relation/tuple.h"

namespace inflog {

/// The IDB relation values, indexed by Program idb_index.
struct IdbState {
  std::vector<Relation> relations;

  /// Coordinatewise set equality — the paper's fixpoint condition compares
  /// states with this.
  bool operator==(const IdbState& other) const {
    return relations == other.relations;
  }
  bool operator!=(const IdbState& other) const { return !(*this == other); }

  /// Coordinatewise subset test (the partial order under which least
  /// fixpoints are defined).
  bool IsSubsetOf(const IdbState& other) const {
    if (relations.size() != other.relations.size()) return false;
    for (size_t i = 0; i < relations.size(); ++i) {
      if (!relations[i].IsSubsetOf(other.relations[i])) return false;
    }
    return true;
  }

  /// Total number of tuples across all relations.
  size_t TotalTuples() const {
    size_t n = 0;
    for (const Relation& r : relations) n += r.size();
    return n;
  }
};

/// An empty state with one relation per IDB predicate of `program`, with
/// matching arities, each hash-sharded `num_shards` ways (1 = the
/// unsharded layout; pass EvalContext::num_shards() to match the context
/// a fixpoint run will evaluate under).
IdbState MakeEmptyIdbState(const Program& program, size_t num_shards = 1);

/// Coordinatewise intersection of two states (used by the least-fixpoint
/// test of Theorem 3).
IdbState IntersectStates(const IdbState& a, const IdbState& b);

/// Renders "Pred = {tuples}" lines in idb_index order.
std::string IdbStateToString(const Program& program, const IdbState& state);

}  // namespace inflog

#endif  // INFLOG_EVAL_IDB_STATE_H_
