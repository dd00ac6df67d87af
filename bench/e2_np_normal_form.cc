// E2 — Theorem 1 / Example 1: fixpoint existence as an NP normal form.
//
// Series regenerated:
//   * π_SAT fixpoint decision time on random 3-CNF instances D(I), across
//     variable counts and clause/variable ratios (through the ~4.26 phase
//     transition);
//   * the direct CDCL decision on the same CNF as the baseline — the gap
//     is the grounding + completion overhead of going through DATALOG¬;
//   * the generic Theorem-1 compiler applied to the Example 1 ∃SO
//     sentence, as a second implementation of the same reduction.
// Shape expected: both curves grow with instance size; hard instances
// cluster at the phase transition; who wins is always the direct CDCL
// (the reduction costs a polynomial grounding overhead), by roughly the
// ground-rules / clauses ratio.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/fixpoint/analysis.h"
#include "src/logic/thm1.h"
#include "src/reductions/sat_db.h"
#include "src/sat/solver.h"

namespace inflog {
namespace {

using logic::And;
using logic::Atom;
using logic::EsoSentence;
using logic::Exists;
using logic::Forall;
using logic::FoTerm;
using logic::Not;
using logic::Or;
using logic::RelVar;

FoTerm V(const char* name) { return FoTerm::Var(name); }

void BM_PiSatFixpoint(benchmark::State& state) {
  const int num_vars = state.range(0);
  const double ratio = state.range(1) / 10.0;
  Rng rng(num_vars * 1000 + state.range(1));
  const sat::Cnf cnf = bench::Random3Sat(num_vars, ratio, &rng);
  auto symbols = std::make_shared<SymbolTable>();
  Program pi_sat = PiSatProgram(symbols);
  Database db = SatToDatabase(cnf, symbols);
  bool has = false;
  double ground_rules = 0, atoms = 0;
  for (auto _ : state) {
    auto analyzer = FixpointAnalyzer::Create(&pi_sat, &db);
    INFLOG_CHECK(analyzer.ok());
    auto result = analyzer->HasFixpoint();
    INFLOG_CHECK(result.ok());
    has = *result;
    ground_rules = static_cast<double>(analyzer->ground().rules.size());
    atoms = static_cast<double>(analyzer->ground().atoms.size());
  }
  // Cross-check against the direct CDCL oracle.
  sat::Solver oracle;
  oracle.AddCnf(cnf);
  INFLOG_CHECK(has == (oracle.Solve() == sat::SolveResult::kSat));
  state.counters["vars"] = num_vars;
  state.counters["clauses"] = static_cast<double>(cnf.clauses.size());
  state.counters["ground_rules"] = ground_rules;
  state.counters["ground_atoms"] = atoms;
  state.counters["satisfiable"] = has ? 1 : 0;
}
BENCHMARK(BM_PiSatFixpoint)
    ->Args({8, 30})
    ->Args({8, 43})
    ->Args({8, 55})
    ->Args({12, 43})
    ->Args({16, 43})
    ->Args({16, 55})
    ->Unit(benchmark::kMillisecond);

void BM_DirectCdclBaseline(benchmark::State& state) {
  const int num_vars = state.range(0);
  const double ratio = state.range(1) / 10.0;
  Rng rng(num_vars * 1000 + state.range(1));
  const sat::Cnf cnf = bench::Random3Sat(num_vars, ratio, &rng);
  for (auto _ : state) {
    sat::Solver solver;
    solver.AddCnf(cnf);
    benchmark::DoNotOptimize(solver.Solve());
  }
  state.counters["vars"] = num_vars;
  state.counters["clauses"] = static_cast<double>(cnf.clauses.size());
}
BENCHMARK(BM_DirectCdclBaseline)
    ->Args({8, 43})
    ->Args({12, 43})
    ->Args({16, 43})
    ->Unit(benchmark::kMillisecond);

/// The Example 1 sentence compiled by the generic Theorem-1 pipeline.
EsoSentence SatSentence() {
  EsoSentence psi;
  psi.so_vars = {RelVar{"S", 1}};
  psi.matrix = Forall(
      {"x"},
      Exists({"y"},
             Or({Atom("V", {V("x")}),
                 And({Not(Atom("S", {V("x")})),
                      Atom("P", {V("x"), V("y")}), Atom("S", {V("y")})}),
                 And({Not(Atom("S", {V("x")})),
                      Atom("N", {V("x"), V("y")}),
                      Not(Atom("S", {V("y")}))})})));
  return psi;
}

void BM_Thm1CompiledSat(benchmark::State& state) {
  const int num_vars = state.range(0);
  Rng rng(num_vars * 77 + 5);
  const sat::Cnf cnf = bench::Random3Sat(num_vars, 4.3, &rng);
  auto symbols = std::make_shared<SymbolTable>();
  Database db = SatToDatabase(cnf, symbols);
  auto compiled = logic::CompileEsoToDatalog(SatSentence(), symbols);
  INFLOG_CHECK(compiled.ok());
  bool has = false;
  for (auto _ : state) {
    auto analyzer = FixpointAnalyzer::Create(&compiled->program, &db);
    INFLOG_CHECK(analyzer.ok());
    auto result = analyzer->HasFixpoint();
    INFLOG_CHECK(result.ok());
    has = *result;
  }
  sat::Solver oracle;
  oracle.AddCnf(cnf);
  INFLOG_CHECK(has == (oracle.Solve() == sat::SolveResult::kSat));
  state.counters["vars"] = num_vars;
  state.counters["program_rules"] =
      static_cast<double>(compiled->program.rules().size());
}
BENCHMARK(BM_Thm1CompiledSat)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace inflog
