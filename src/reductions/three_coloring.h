// Lemma 1 of the paper: the fixed DATALOG¬ program π_COL that has a
// fixpoint on a database E exactly when the graph E represents is
// 3-colorable.
//
//   R(x) ← R(x)   B(x) ← B(x)   G(x) ← G(x)      (choice of coloring)
//   P(x) ← E(x,y), R(x), R(y)   (+B, +G)         (monochrome edges)
//   P(x) ← G(x), B(x)           (+BR, +RG)       (doubly colored nodes)
//   P(x) ← ¬R(x), ¬B(x), ¬G(x)                   (uncolored nodes)
//   T(z) ← P(x), ¬T(w)                           (guarded toggle)
//
// A fixpoint exists iff some choice of (R, B, G) leaves P empty — iff the
// graph is 3-colorable. This program is the explicit half of Theorem 4;
// src/reductions/succinct.h lifts it to circuit-presented graphs.
//
// The toggle's body components P(x) and ¬T(w) share no variable with the
// head or each other. The grounder projects each to an auxiliary atom
// (src/ground/grounder.h), so π_COL grounds in size linear in |A| plus
// the edges.

#ifndef INFLOG_REDUCTIONS_THREE_COLORING_H_
#define INFLOG_REDUCTIONS_THREE_COLORING_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/eval/idb_state.h"
#include "src/graphs/digraph.h"
#include "src/relation/database.h"

namespace inflog {

/// The fixed program π_COL in concrete syntax (E is the EDB).
std::string PiColText();

/// Parses π_COL over `symbols`.
Program PiColProgram(std::shared_ptr<SymbolTable> symbols);

/// Reads the coloring out of a π_COL fixpoint: colors[v] ∈ {0,1,2} for
/// R/B/G. Fails if some vertex is uncolored or doubly colored (cannot
/// happen in a genuine fixpoint).
Result<std::vector<int>> DecodeColoring(const Program& pi_col,
                                        const Database& db, size_t num_vertices,
                                        const IdbState& fixpoint);

/// Checks that `colors` is a proper 3-coloring of `g` (edge directions
/// ignored).
bool IsProperColoring(const Digraph& g, const std::vector<int>& colors);

}  // namespace inflog

#endif  // INFLOG_REDUCTIONS_THREE_COLORING_H_
