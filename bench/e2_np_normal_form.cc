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

// --- CDCL preprocessing ablation: the same instances solved raw and
// with the preprocessing front-end. Every iteration cross-checks its
// verdict against the raw configuration's, so a speedup can never come
// from a changed answer. ---

struct SatConfig {
  const char* name;
  bool preprocess;
};

constexpr SatConfig kSatConfigs[] = {
    {"raw", false},
    {"preprocess", true},
};

/// A random 3-CNF core extended with definitional variables: each original
/// clause (a ∨ b ∨ c) is split through a fresh d with d ↔ (a ∨ b) and
/// (d ∨ c). The extension preserves satisfiability, doubles the variable
/// count with NiVER-eliminable definitions, and models the Tseitin-style
/// encodings the completion pipeline emits.
sat::Cnf DefinitionalExtension(const sat::Cnf& core) {
  sat::Cnf out;
  out.num_vars = core.num_vars;
  for (const sat::Clause& clause : core.clauses) {
    if (clause.size() != 3) {
      out.AddClause(clause);
      continue;
    }
    const sat::Var d = out.NewVar();
    const sat::Lit a = clause[0], b = clause[1], c = clause[2];
    out.AddClause({sat::Neg(d), a, b});         // d → (a ∨ b)
    out.AddClause({~a, sat::Pos(d)});           // a → d
    out.AddClause({~b, sat::Pos(d)});           // b → d
    out.AddClause({sat::Pos(d), c});            // d ∨ c
  }
  return out;
}

void BM_CdclAblation(benchmark::State& state) {
  const int num_vars = state.range(0);
  const SatConfig& cfg = kSatConfigs[state.range(1)];
  Rng rng(num_vars * 2027 + 11);
  const sat::Cnf cnf =
      DefinitionalExtension(bench::Random3Sat(num_vars, 4.3, &rng));
  // The reference verdict, from the raw configuration.
  sat::SolveResult expected;
  {
    sat::Solver s;
    s.AddCnf(cnf);
    expected = s.Solve();
  }
  sat::SolverStats stats;
  for (auto _ : state) {
    sat::SolverOptions opts;
    opts.preprocess = cfg.preprocess;
    sat::Solver solver(opts);
    solver.AddCnf(cnf);
    const sat::SolveResult got = solver.Solve();
    INFLOG_CHECK(got == expected) << cfg.name;  // ablation cross-check
    stats = solver.stats();
  }
  state.SetLabel(cfg.name);
  state.counters["vars"] = num_vars;
  state.counters["clauses"] = static_cast<double>(cnf.clauses.size());
  state.counters["preprocess"] = cfg.preprocess ? 1 : 0;
  state.counters["conflicts"] = static_cast<double>(stats.conflicts);
  state.counters["learned"] = static_cast<double>(stats.learned_clauses);
  state.counters["deleted"] = static_cast<double>(stats.deleted_clauses);
  state.counters["pre_vars_eliminated"] =
      static_cast<double>(stats.preprocess_vars_eliminated);
  state.counters["satisfiable"] =
      expected == sat::SolveResult::kSat ? 1 : 0;
}
BENCHMARK(BM_CdclAblation)
    ->ArgsProduct({{60, 90, 120}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace inflog
