// Proposition 2: the distance query
//   D(x, y, x*, y*) — "is there a path x→y no longer than every path
//   x*→y*?"
// is computable in Inflationary DATALOG (via two synchronized transitive
// closures and a carrier reading off the stages) but NOT by any DATALOG
// program, and the very same rules under the stratified semantics compute
// a different query, TC(x,y) ∧ ¬TC(x*,y*).
//
// This example runs both semantics on the same program and the same
// graph, prints where they diverge, and verifies the inflationary answer
// against a BFS oracle.

#include <iostream>

#include "src/core/engine.h"
#include "src/graphs/digraph.h"

namespace {

constexpr char kDistanceProgram[] = R"(
S1(X,Y) :- E(X,Y).
S1(X,Y) :- E(X,Z), S1(Z,Y).
S2(X,Y) :- E(X,Y).
S2(X,Y) :- E(X,Z), S2(Z,Y).
S3(X,Y,Xs,Ys) :- E(X,Y), !S2(Xs,Ys).
S3(X,Y,Xs,Ys) :- E(X,Z), S1(Z,Y), !S2(Xs,Ys).
)";

int Fail(const inflog::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

}  // namespace

int main() {
  // A small asymmetric graph: a path with a shortcut.
  inflog::Digraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.AddEdge(0, 3);  // shortcut: d(0,3) = 1, d(0,4) = 2

  inflog::Engine engine;
  if (auto s = engine.LoadProgramText(kDistanceProgram); !s.ok()) {
    return Fail(s);
  }
  inflog::GraphToDatabase(g, "E", engine.mutable_database());

  std::cout << "graph: " << g.ToString() << "\n\n";

  auto inflationary = engine.Evaluate(inflog::SemanticsKind::kInflationary);
  if (!inflationary.ok()) return Fail(inflationary.status());
  auto stratified = engine.Evaluate(inflog::SemanticsKind::kStratified);
  if (!stratified.ok()) return Fail(stratified.status());

  auto inf_s3 = engine.RelationOf(inflationary->state(), "S3");
  auto str_s3 = engine.RelationOf(stratified->state(), "S3");
  if (!inf_s3.ok() || !str_s3.ok()) return Fail(inf_s3.status());

  std::cout << "inflationary S3 size: " << (*inf_s3)->size()
            << "   (distance query D)\n"
            << "stratified  S3 size: " << (*str_s3)->size()
            << "   (TC(x,y) & !TC(x*,y*))\n\n";

  // Verify the inflationary S3 against BFS, and show a few divergences.
  const auto dist = inflog::BfsAllPairs(g);
  auto d = [&](size_t u, size_t v) -> int {
    if (u != v) return dist[u][v];
    int best = -1;
    for (uint32_t w : g.Successors(u)) {
      if (dist[w][u] >= 0 && (best < 0 || 1 + dist[w][u] < best)) {
        best = 1 + dist[w][u];
      }
    }
    return best;
  };
  const inflog::SymbolTable& symbols = *engine.symbols();
  size_t mismatches = 0, divergences_shown = 0;
  for (size_t x = 0; x < 5; ++x) {
    for (size_t y = 0; y < 5; ++y) {
      for (size_t xs = 0; xs < 5; ++xs) {
        for (size_t ys = 0; ys < 5; ++ys) {
          const int dxy = d(x, y), dst = d(xs, ys);
          const bool expect = dxy >= 0 && (dst < 0 || dxy <= dst);
          const inflog::Tuple t{
              symbols.Find(std::to_string(x)),
              symbols.Find(std::to_string(y)),
              symbols.Find(std::to_string(xs)),
              symbols.Find(std::to_string(ys))};
          const bool got = (*inf_s3)->Contains(t);
          if (got != expect) ++mismatches;
          const bool strat_got = (*str_s3)->Contains(t);
          if (got != strat_got && divergences_shown < 5) {
            ++divergences_shown;
            std::cout << "divergence at (x=" << x << ",y=" << y
                      << ",x*=" << xs << ",y*=" << ys << "): d(x,y)=" << dxy
                      << ", d(x*,y*)=" << dst
                      << "  inflationary=" << (got ? "in" : "out")
                      << "  stratified=" << (strat_got ? "in" : "out")
                      << "\n";
          }
        }
      }
    }
  }
  std::cout << "\nBFS-oracle mismatches for the inflationary semantics: "
            << mismatches << (mismatches == 0 ? "  (all verified)" : "!!")
            << "\n";
  std::cout << "\nThe distance query is not monotone, hence not DATALOG-"
               "expressible;\nthe stage-synchronized negation of "
               "Inflationary DATALOG captures it.\n";
  return mismatches == 0 ? 0 : 1;
}
