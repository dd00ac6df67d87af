// Serve queries: the point/join query language of the serving layer.
//
// A query is one line, `?` followed by a comma-separated conjunction of
// atoms over EDB or IDB predicates:
//
//   ?E(1,2)              — point query: is the tuple there? (true/false)
//   ?T(1,X)              — selection: every X with T(1,X)
//   ?E(X,Y), T(Y,Z)      — conjunctive join over snapshot relations
//   ?R(X,_,X)            — `_` matches anything and is not output
//
// Terms are read by the program and fact lexer (src/ast/parser.h): an
// identifier starting with an uppercase letter (or `_`) is a variable; a
// lowercase identifier, a digit string or a 'quoted' name is a constant.
// Results are the distinct bindings of the named variables in
// first-appearance order, rendered in the same canonical sorted `{...}`
// form Relation::ToString uses — so serve-mode output diffs cleanly
// against batch-mode relation printouts.
//
// Parsing resolves constants against a *frozen* snapshot symbol table
// (lookup only, never interning): a constant the epoch has never seen
// simply matches nothing. The canonical cache key renames variables to
// $0,$1,... in appearance order and spells constants as facts do
// (AppendConstant), so alpha-equivalent queries share one cache entry
// across epochs and a quoted constant such as '$0' or 'a,b' never shares
// a key with a variable or with two constants.

#ifndef INFLOG_SERVE_QUERY_H_
#define INFLOG_SERVE_QUERY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/serve/snapshot.h"

namespace inflog {
namespace serve {

/// One term of a query atom: a variable (dense id, appearance order) or a
/// constant (kNoValue when the snapshot's table does not know the name —
/// such an atom matches nothing at this epoch).
struct ServeTerm {
  bool is_var = false;
  uint32_t var = 0;       ///< is_var: dense variable id.
  Value constant = kNoValue;  ///< !is_var: interned id or kNoValue.
};

/// One positive atom `Pred(t1,...,tn)`.
struct ServeAtom {
  std::string predicate;
  std::vector<ServeTerm> terms;
};

/// A parsed query, ready to evaluate against any snapshot whose symbol
/// table extends the one it was parsed with.
struct ServeQuery {
  std::vector<ServeAtom> atoms;
  uint32_t num_vars = 0;
  /// Dense ids of the *named* variables, in first-appearance order (the
  /// output columns). `_` terms get ids past these and are projected away.
  std::vector<uint32_t> output_vars;
  std::vector<std::string> output_names;  ///< Parallel to output_vars.
  /// Canonical cache key: variables renamed positionally, constants
  /// spelled as facts spell them.
  std::string key;
  /// Sorted, deduplicated predicate names the query reads — its cache
  /// support set.
  std::vector<std::string> support;

  /// True for a fully ground query (no variables): the answer is a truth
  /// value, not a set.
  bool ground() const { return num_vars == 0; }
};

/// Parses a `?...` query line. `symbols` is used for constant lookup only
/// (never interning) — pass the pinned snapshot's frozen table.
Result<ServeQuery> ParseServeQuery(std::string_view line,
                                   const SymbolTable& symbols);

/// A query's answer at one epoch.
struct ServeAnswer {
  bool ground = false;
  bool truth = false;           ///< ground queries only
  std::vector<Tuple> rows;      ///< sorted distinct output bindings
  /// "true"/"false" for ground queries, canonical "{...}" otherwise.
  std::string rendered;
};

/// Evaluates `query` against `snapshot` by index-nested-loop join over
/// the sealed relations (atoms in written order; bound columns probe the
/// per-shard postings, unbound atoms scan). Deterministic: shard-major
/// ascending row order, output sorted. Pure reads only — safe from any
/// number of threads concurrently. NotFound when an atom names a
/// relation neither the program nor the snapshot knows; InvalidArgument
/// on arity mismatch.
Result<ServeAnswer> EvalServeQuery(const ServeQuery& query,
                                   const Program& program,
                                   const DatabaseSnapshot& snapshot);

}  // namespace serve
}  // namespace inflog

#endif  // INFLOG_SERVE_QUERY_H_
