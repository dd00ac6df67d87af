// Quickstart: load a DATALOG¬ program and a database, inspect the
// analysis, evaluate the inflationary semantics, and ask the Section 3
// fixpoint questions.
//
// The program is the paper's π₁:  T(x) ← E(y,x), ¬T(y)  — "x has a
// predecessor outside T" — whose fixpoint structure motivates the whole
// paper.

#include <cstdio>
#include <iostream>
#include <variant>

#include "src/core/engine.h"

namespace {

int Fail(const inflog::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

}  // namespace

int main() {
  inflog::Engine engine;

  // --- Load π₁ and a 6-vertex path 1→2→...→6. ---
  if (auto s = engine.LoadProgramText("T(X) :- E(Y,X), !T(Y).\n"); !s.ok()) {
    return Fail(s);
  }
  if (auto s = engine.LoadDatabaseText(
          "E(1,2). E(2,3). E(3,4). E(4,5). E(5,6).\n");
      !s.ok()) {
    return Fail(s);
  }

  auto description = engine.Describe();
  if (!description.ok()) return Fail(description.status());
  std::cout << "== program ==\n" << *description << "\n";

  // --- Inflationary semantics (Section 4): total, PTIME. ---
  auto inflationary = engine.Evaluate(inflog::SemanticsKind::kInflationary);
  if (!inflationary.ok()) return Fail(inflationary.status());
  auto t_rel = engine.RelationOf(inflationary->state(), "T");
  if (!t_rel.ok()) return Fail(t_rel.status());
  std::cout << "== inflationary semantics ==\n"
            << "T = " << (*t_rel)->ToString(*engine.symbols()) << "\n"
            << "stages: "
            << std::get<inflog::InflationaryResult>(inflationary->detail)
                   .num_stages
            << "\n\n";

  // --- Fixpoint analysis (Section 3): NP/US/FONP questions. ---
  auto analyzer = engine.MakeAnalyzer();
  if (!analyzer.ok()) return Fail(analyzer.status());

  auto fixpoints = analyzer->EnumerateFixpoints();
  if (!fixpoints.ok()) return Fail(fixpoints.status());
  std::cout << "== fixpoints of (pi1, L6) ==\n"
            << "count: " << fixpoints->size() << "\n";
  for (const inflog::IdbState& fp : *fixpoints) {
    auto rel = engine.RelationOf(fp, "T");
    if (!rel.ok()) return Fail(rel.status());
    std::cout << "  T = " << (*rel)->ToString(*engine.symbols()) << "\n";
  }

  auto unique = analyzer->UniqueFixpoint();
  if (!unique.ok()) return Fail(unique.status());
  std::cout << "unique fixpoint: "
            << (*unique == inflog::UniqueStatus::kUnique ? "yes" : "no")
            << "\n";

  auto least = analyzer->LeastFixpoint();
  if (!least.ok()) return Fail(least.status());
  std::cout << "least fixpoint exists: "
            << (least->has_least ? "yes" : "no") << "  (decided with "
            << least->sat_calls << " SAT calls)\n\n";

  // --- The same program under the other semantics. ---
  auto wf = engine.Evaluate(inflog::SemanticsKind::kWellFounded);
  if (!wf.ok()) return Fail(wf.status());
  auto wf_t = engine.RelationOf(wf->state(), "T");
  const bool total = std::get<inflog::WellFoundedResult>(wf->detail).total;
  std::cout << "== well-founded model ==\n"
            << "T(true) = " << (*wf_t)->ToString(*engine.symbols())
            << "  total: " << (total ? "yes" : "no") << "\n";

  auto stable = engine.Evaluate(inflog::SemanticsKind::kStable);
  if (!stable.ok()) return Fail(stable.status());
  std::cout << "stable models: "
            << std::get<inflog::StableResult>(stable->detail).models.size()
            << "\n";

  auto stratified = engine.Evaluate(inflog::SemanticsKind::kStratified);
  std::cout << "stratified semantics: "
            << (stratified.ok() ? "defined"
                                : stratified.status().ToString())
            << "\n";
  std::cout << "\n(pi1 is not stratifiable; the inflationary semantics "
               "still gives it a meaning — the paper's point.)\n";
  return 0;
}
