// The Section 2 example as a tour: the fixpoint structure of
//   π₁ = T(x) ← E(y,x), ¬T(y)
// across the paper's graph families — unique on paths Lₙ, none on odd
// cycles, two on even cycles, and 2ᵏ pairwise-incomparable fixpoints
// (with no least one) on Gₖ, the disjoint union of k copies of C₄.

#include <cstdio>
#include <iostream>

#include "src/base/strings.h"
#include "src/core/engine.h"
#include "src/graphs/digraph.h"

namespace {

struct Row {
  std::string family;
  size_t fixpoints;
  bool unique;
  bool least;
};

inflog::Result<Row> Analyze(const std::string& name,
                            const inflog::Digraph& graph) {
  inflog::Engine engine;
  INFLOG_RETURN_IF_ERROR(engine.LoadProgramText("T(X) :- E(Y,X), !T(Y)."));
  inflog::GraphToDatabase(graph, "E", engine.mutable_database());
  INFLOG_ASSIGN_OR_RETURN(inflog::FixpointAnalyzer analyzer,
                          engine.MakeAnalyzer());
  INFLOG_ASSIGN_OR_RETURN(const uint64_t count, analyzer.CountFixpoints());
  INFLOG_ASSIGN_OR_RETURN(const inflog::UniqueStatus unique,
                          analyzer.UniqueFixpoint());
  INFLOG_ASSIGN_OR_RETURN(const inflog::LeastFixpointOutcome least,
                          analyzer.LeastFixpoint());
  return Row{name, count, unique == inflog::UniqueStatus::kUnique,
             least.has_least};
}

}  // namespace

int main() {
  std::cout << "Fixpoint structure of pi1 = T(x) <- E(y,x), !T(y)\n"
            << "(Kolaitis & Papadimitriou, Section 2)\n\n";
  std::printf("%-12s %10s %8s %7s\n", "database", "fixpoints", "unique",
              "least");
  std::printf("%-12s %10s %8s %7s\n", "--------", "---------", "------",
              "-----");

  auto print = [](const inflog::Result<Row>& row) {
    if (!row.ok()) {
      std::cerr << "error: " << row.status().ToString() << "\n";
      std::exit(1);
    }
    std::printf("%-12s %10zu %8s %7s\n", row->family.c_str(),
                row->fixpoints, row->unique ? "yes" : "no",
                row->least ? "yes" : "no");
  };

  for (size_t n : {3u, 4u, 5u, 8u}) {
    print(Analyze(inflog::StrCat("L", n), inflog::PathGraph(n)));
  }
  for (size_t n : {3u, 5u, 7u}) {
    print(Analyze(inflog::StrCat("C", n), inflog::CycleGraph(n)));
  }
  for (size_t n : {4u, 6u, 8u}) {
    print(Analyze(inflog::StrCat("C", n), inflog::CycleGraph(n)));
  }
  for (size_t k : {1u, 2u, 3u, 4u, 5u, 6u}) {
    print(Analyze(inflog::StrCat("G", k),
                  inflog::DisjointCycles(k, 4)));
  }

  std::cout << "\nReadings:\n"
            << "  * paths: a unique fixpoint (the even 1-based "
               "positions);\n"
            << "  * odd cycles: no fixpoint at all;\n"
            << "  * even cycles: two incomparable fixpoints;\n"
            << "  * G_k: 2^k pairwise-incomparable fixpoints and no "
               "least one —\n"
            << "    exponentially many in the size of the database.\n";
  return 0;
}
