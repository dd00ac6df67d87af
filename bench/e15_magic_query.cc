// E15 — goal-directed point queries: the magic-sets ablation.
//
// Two recursive workloads, each as a --optimize=dce,reorder /
// --optimize=dce,reorder,magic pair with the queried predicate
// cross-checked against an --optimize=none evaluation every iteration:
//   * MagicChainTC: transitive closure over many disjoint 64-edge
//     chains with the query TC(c0, Y) anchored in one chain. The plan
//     passes still materialize every chain's closure (~L²/2 tuples per
//     chain); the magic rewrite derives only the demanded chain's
//     suffixes — the classic bound-argument win.
//   * MagicSameGeneration: the textbook same-generation program over a
//     complete binary tree, queried from one leaf. Unoptimized, every
//     same-level pair is derived (quadratic in the level width); the
//     magic cone only touches the query leaf's ancestors and their
//     levels.
// Shape expected: the magic/plan-passes ratio grows with the number of
// chains (resp. the tree depth) since the demanded fraction shrinks;
// opt_magic_rules_generated on the magic series certifies the rewrite
// fired and not just a plan pass.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "src/base/strings.h"
#include "src/core/engine.h"
#include "src/eval/inflationary.h"

namespace inflog {
namespace {

/// dce,reorder — the strongest selection without program rewrites.
OptimizerPasses PlanPasses() {
  OptimizerPasses passes = OptimizerPasses::None();
  passes.eliminate_dead_rules = true;
  passes.reorder_joins = true;
  return passes;
}

/// dce,reorder,magic.
OptimizerPasses PlanPassesPlusMagic() {
  OptimizerPasses passes = PlanPasses();
  passes.magic_sets = true;
  return passes;
}

// --- Series 1: chain transitive closure, one bound source. ---

constexpr char kChainTc[] =
    "TC(X,Y) :- E(X,Y).\n"
    "TC(X,Z) :- TC(X,Y), E(Y,Z).\n"
    "Q(Y) :- TC(c0,Y).\n";

constexpr size_t kChainLength = 64;

/// `num_chains` disjoint chains of kChainLength edges; the query
/// constant c0 heads chain 0.
Database ChainDb(size_t num_chains, std::shared_ptr<SymbolTable> symbols) {
  Database db(std::move(symbols));
  auto vertex = [](size_t chain, size_t pos) {
    if (chain == 0 && pos == 0) return std::string("c0");
    return StrCat("v", chain, "_", pos);
  };
  for (size_t c = 0; c < num_chains; ++c) {
    for (size_t p = 0; p < kChainLength; ++p) {
      INFLOG_CHECK(
          db.AddFactNamed("E", {vertex(c, p), vertex(c, p + 1)}).ok());
    }
  }
  return db;
}

void RunChainTc(benchmark::State& state, const OptimizerPasses& passes) {
  const size_t num_chains = state.range(0);
  auto symbols = std::make_shared<SymbolTable>();
  Program p = bench::MustProgram(kChainTc, symbols);
  Database db = ChainDb(num_chains, symbols);

  InflationaryOptions baseline_opts;
  baseline_opts.context.optimizer_passes = OptimizerPasses::None();
  auto baseline = EvalInflationary(p, db, baseline_opts);
  INFLOG_CHECK(baseline.ok());
  const int q_idb = p.predicate(*p.FindPredicate("Q")).idb_index;
  const auto expected = baseline->state.relations[q_idb].SortedTuples();
  INFLOG_CHECK(expected.size() == kChainLength);

  InflationaryOptions options;
  options.context.optimizer_passes = passes;
  options.context.output_predicates = {"Q"};
  double magic_rules = 0, derived = 0;
  for (auto _ : state) {
    auto result = EvalInflationary(p, db, options);
    INFLOG_CHECK(result.ok());
    INFLOG_CHECK(result->state.relations[q_idb].SortedTuples() == expected)
        << "magic changed the query answer";
    magic_rules =
        static_cast<double>(result->stats.opt_magic_rules_generated);
    derived = static_cast<double>(result->stats.derivations);
  }
  state.counters["edb_rows"] = static_cast<double>(num_chains * kChainLength);
  state.counters["magic_rules"] = magic_rules;
  state.counters["derivations"] = derived;
}

void BM_MagicChainTcPlanPasses(benchmark::State& state) {
  RunChainTc(state, PlanPasses());
}
BENCHMARK(BM_MagicChainTcPlanPasses)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_MagicChainTcMagic(benchmark::State& state) {
  RunChainTc(state, PlanPassesPlusMagic());
}
BENCHMARK(BM_MagicChainTcMagic)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// --- Series 2: same generation over a complete binary tree. ---

constexpr char kSameGeneration[] =
    "SG(X,Y) :- Flat(X,Y).\n"
    "SG(X,Z) :- Up(X,U), SG(U,V), Dn(V,Z).\n"
    "Q(Y) :- SG(c0,Y).\n";

/// Complete binary tree of `depth` levels below the root: Up = child to
/// parent, Dn = parent to child, Flat = sibling pairs (both orders).
/// The query constant c0 is the leftmost leaf. Nodes are numbered
/// heap-style (root 1, children 2i and 2i+1).
Database TreeDb(size_t depth, std::shared_ptr<SymbolTable> symbols) {
  Database db(std::move(symbols));
  const size_t leftmost_leaf = size_t(1) << depth;
  auto node = [&](size_t i) {
    if (i == leftmost_leaf) return std::string("c0");
    return StrCat("n", i);
  };
  for (size_t i = 2; i < (size_t(1) << (depth + 1)); ++i) {
    INFLOG_CHECK(db.AddFactNamed("Up", {node(i), node(i / 2)}).ok());
    INFLOG_CHECK(db.AddFactNamed("Dn", {node(i / 2), node(i)}).ok());
    if ((i & 1) == 0) {
      INFLOG_CHECK(db.AddFactNamed("Flat", {node(i), node(i + 1)}).ok());
      INFLOG_CHECK(db.AddFactNamed("Flat", {node(i + 1), node(i)}).ok());
    }
  }
  return db;
}

void RunSameGeneration(benchmark::State& state,
                       const OptimizerPasses& passes) {
  const size_t depth = state.range(0);
  auto symbols = std::make_shared<SymbolTable>();
  Program p = bench::MustProgram(kSameGeneration, symbols);
  Database db = TreeDb(depth, symbols);

  InflationaryOptions baseline_opts;
  baseline_opts.context.optimizer_passes = OptimizerPasses::None();
  auto baseline = EvalInflationary(p, db, baseline_opts);
  INFLOG_CHECK(baseline.ok());
  const int q_idb = p.predicate(*p.FindPredicate("Q")).idb_index;
  const auto expected = baseline->state.relations[q_idb].SortedTuples();
  // Every other leaf is same-generation with c0.
  INFLOG_CHECK(expected.size() == (size_t(1) << depth) - 1);

  InflationaryOptions options;
  options.context.optimizer_passes = passes;
  options.context.output_predicates = {"Q"};
  double magic_rules = 0, derived = 0;
  for (auto _ : state) {
    auto result = EvalInflationary(p, db, options);
    INFLOG_CHECK(result.ok());
    INFLOG_CHECK(result->state.relations[q_idb].SortedTuples() == expected)
        << "magic changed the query answer";
    magic_rules =
        static_cast<double>(result->stats.opt_magic_rules_generated);
    derived = static_cast<double>(result->stats.derivations);
  }
  state.counters["tree_depth"] = static_cast<double>(depth);
  state.counters["magic_rules"] = magic_rules;
  state.counters["derivations"] = derived;
}

void BM_MagicSameGenerationPlanPasses(benchmark::State& state) {
  RunSameGeneration(state, PlanPasses());
}
BENCHMARK(BM_MagicSameGenerationPlanPasses)->Arg(6)->Arg(8)->Arg(9)
    ->Unit(benchmark::kMillisecond);

void BM_MagicSameGenerationMagic(benchmark::State& state) {
  RunSameGeneration(state, PlanPassesPlusMagic());
}
BENCHMARK(BM_MagicSameGenerationMagic)->Arg(6)->Arg(8)->Arg(9)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace inflog
