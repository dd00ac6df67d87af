// Random-program differential fuzzer for the optimizer (ISSUE: magic
// sets + rule inlining). For a few hundred generated workloads, every
// optimizer selection — including the program rewrites — must produce
// set-identical results on the queried predicates, under both
// relational semantics, and stay stable across the {threads × shards ×
// scheduler} execution grid. A third suite replays a generated update
// stream through the incremental path under --optimize=all with the
// recompute oracle armed.
//
// The baseline is --optimize=none with NO declared outputs (every IDB
// relation fully specified); rewritten runs declare the generated
// outputs, so the comparison checks exactly the outputs-as-sets
// contract of src/opt/passes.h.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/strings.h"
#include "src/core/engine.h"
#include "tests/program_generator.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

using testing::GeneratedProgram;
using testing::GeneratorOptions;
using testing::TuplesOf;

/// Queried-predicate name → sorted tuples (as symbol names).
using QueryResults =
    std::map<std::string, std::vector<std::vector<std::string>>>;

/// One from-scratch evaluation of the workload; returns the queried
/// predicates' relations.
Result<QueryResults> EvalWith(const GeneratedProgram& gen, SemanticsKind kind,
                              const EvalOptions& options) {
  Engine engine;
  INFLOG_RETURN_IF_ERROR(engine.LoadProgramText(gen.program_text));
  INFLOG_RETURN_IF_ERROR(engine.LoadDatabaseText(gen.facts_text));
  INFLOG_ASSIGN_OR_RETURN(const EvalOutcome outcome,
                          engine.Evaluate(kind, options));
  QueryResults out;
  for (const std::string& name : gen.outputs) {
    INFLOG_ASSIGN_OR_RETURN(const Relation* rel,
                            engine.RelationOf(outcome.state(), name));
    out[name] = TuplesOf(*engine.symbols(), *rel);
  }
  return out;
}

std::string Describe(const GeneratedProgram& gen) {
  std::string out = "--- program ---\n" + gen.program_text +
                    "--- facts ---\n" + gen.facts_text + "--- outputs:";
  for (const std::string& name : gen.outputs) out += " " + name;
  return out + "\n";
}

/// The optimizer selections the differential sweep compares against the
/// unoptimized baseline. Exercises each pass alone, the rewrites
/// together, and a rewrite stacked on a plan pass.
const char* const kSelections[] = {
    "all",   "dce",    "reorder",      "share",
    "magic", "inline", "magic,inline", "dce,magic",
};

GeneratorOptions OptionsForSeed(int seed) {
  GeneratorOptions gopt;
  // Mix negation-free and constant-free workloads into the pool:
  // negation-free seeds let magic specialize deeper programs,
  // constant-free seeds make the point-query rule impossible so the
  // rewrite must stay sound on all-free outputs.
  gopt.allow_negation = (seed % 3) != 0;
  if (seed % 5 == 0) gopt.constant_probability = 0;
  return gopt;
}

class OptimizerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerFuzz, SelectionsAgreeOnQueriedPredicates) {
  const int seed = GetParam();
  Rng rng(seed * 9176 + 11);
  const GeneratedProgram gen =
      testing::GenerateProgram(&rng, OptionsForSeed(seed));

  for (const SemanticsKind kind :
       {SemanticsKind::kInflationary, SemanticsKind::kStratified}) {
    EvalOptions baseline_options;
    baseline_options.optimizer_passes = OptimizerPasses::None();
    const auto baseline = EvalWith(gen, kind, baseline_options);
    ASSERT_TRUE(baseline.ok())
        << baseline.status().ToString() << "\n" << Describe(gen);

    for (const char* selection : kSelections) {
      const auto passes = ParseOptimizerPasses(selection);
      ASSERT_TRUE(passes.ok()) << selection;
      EvalOptions options;
      options.optimizer_passes = *passes;
      options.output_predicates = gen.outputs;
      const auto got = EvalWith(gen, kind, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString() << "\nselection="
                            << selection << " semantics="
                            << SemanticsKindName(kind) << "\n"
                            << Describe(gen);
      EXPECT_EQ(*got, *baseline)
          << "selection=" << selection
          << " semantics=" << SemanticsKindName(kind) << "\n"
          << Describe(gen);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerFuzz, ::testing::Range(0, 220));

class OptimizerFuzzExecution : public ::testing::TestWithParam<int> {};

// The rewritten programs must stay deterministic across the execution
// grid: parallel threads, sharded relations, every stage scheduler.
TEST_P(OptimizerFuzzExecution, RewriteStableAcrossShardsAndSchedulers) {
  const int seed = GetParam();
  Rng rng(seed * 40503 + 7);
  const GeneratedProgram gen =
      testing::GenerateProgram(&rng, OptionsForSeed(seed));

  for (const SemanticsKind kind :
       {SemanticsKind::kInflationary, SemanticsKind::kStratified}) {
    EvalOptions baseline_options;
    baseline_options.optimizer_passes = OptimizerPasses::None();
    const auto baseline = EvalWith(gen, kind, baseline_options);
    ASSERT_TRUE(baseline.ok())
        << baseline.status().ToString() << "\n" << Describe(gen);

    for (const char* selection : {"all", "magic,inline"}) {
      const auto passes = ParseOptimizerPasses(selection);
      ASSERT_TRUE(passes.ok()) << selection;
      for (const size_t shards : {1u, 2u, 8u}) {
        for (const StageScheduler scheduler :
             {StageScheduler::kStatic, StageScheduler::kStealing,
              StageScheduler::kAuto}) {
          EvalOptions options;
          options.optimizer_passes = *passes;
          options.output_predicates = gen.outputs;
          options.num_threads = 2;
          options.num_shards = shards;
          options.scheduler = scheduler;
          const auto got = EvalWith(gen, kind, options);
          ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n"
                                << Describe(gen);
          EXPECT_EQ(*got, *baseline)
              << "selection=" << selection << " shards=" << shards
              << " scheduler=" << static_cast<int>(scheduler)
              << " semantics=" << SemanticsKindName(kind) << "\n"
              << Describe(gen);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerFuzzExecution,
                         ::testing::Range(0, 40));

class OptimizerFuzzIncremental : public ::testing::TestWithParam<int> {};

// A generated E-fact update stream through the incremental path under
// --optimize=all. Two oracles per update: verify_incremental re-runs the
// session's own evaluation from scratch inside ApplyUpdate, and the
// explicit check below recomputes the queried predicates on a FRESH
// engine with declared outputs — so the maintained (rewrite-inert)
// state is also diffed against the magic/inline-rewritten one.
TEST_P(OptimizerFuzzIncremental, UpdateStreamMatchesRecomputeOracle) {
  const int seed = GetParam();
  Rng rng(seed * 70921 + 3);
  GeneratorOptions gopt = OptionsForSeed(seed);
  gopt.unary_edb = false;  // the update stream only touches E/2
  GeneratedProgram gen = testing::GenerateProgram(&rng, gopt);

  // Track the exact E rows so inserts add absent facts, deletes remove
  // present ones, and the oracle can rebuild the database as text.
  std::set<std::pair<int, int>> edges;
  while (edges.size() < 12) {
    edges.emplace(rng.Uniform(gopt.domain_size),
                  rng.Uniform(gopt.domain_size));
  }
  auto facts_text = [&] {
    std::string text;
    for (const auto& [u, v] : edges) {
      text += "E(c" + std::to_string(u) + ",c" + std::to_string(v) + ").\n";
    }
    return text;
  };
  gen.facts_text = facts_text();

  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText(gen.program_text).ok())
      << Describe(gen);
  // A rare roll can produce a program that never references E; there is
  // nothing to update then.
  if (!engine.program().value()->FindPredicate("E").ok()) {
    GTEST_SKIP() << "generated program does not reference E";
  }
  ASSERT_TRUE(engine.LoadDatabaseText(gen.facts_text).ok());

  EvalOptions session_options;
  session_options.optimizer_passes = OptimizerPasses::All();
  session_options.verify_incremental = true;
  ASSERT_TRUE(
      engine.BeginIncremental(SemanticsKind::kStratified, session_options)
          .ok())
      << Describe(gen);

  auto fact = [&](const std::pair<int, int>& e) {
    Tuple t{engine.symbols()->Intern(StrCat("c", e.first)),
            engine.symbols()->Intern(StrCat("c", e.second))};
    return std::make_pair(std::string("E"), std::move(t));
  };
  for (int step = 0; step < 6; ++step) {
    std::vector<std::pair<std::string, Tuple>> inserts;
    std::vector<std::pair<std::string, Tuple>> deletes;
    // Deletes are drawn BEFORE the inserts land in `edges`: the engine
    // nets a same-batch insert+delete of one tuple to "insert wins",
    // which would diverge from this tracking set.
    const int num_deletes = static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < num_deletes && !edges.empty(); ++i) {
      auto it = edges.begin();
      std::advance(it, rng.Uniform(edges.size()));
      deletes.push_back(fact(*it));
      edges.erase(it);
    }
    const int num_inserts = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < num_inserts; ++i) {
      const std::pair<int, int> e{rng.Uniform(gopt.domain_size),
                                  rng.Uniform(gopt.domain_size)};
      if (edges.insert(e).second) inserts.push_back(fact(e));
    }
    const auto update = engine.ApplyUpdate(std::move(inserts),
                                           std::move(deletes));
    ASSERT_TRUE(update.ok())
        << update.status().ToString() << "\nstep=" << step << "\n"
        << Describe(gen);

    // Recompute oracle with the rewrites ACTIVE on the mutated database.
    gen.facts_text = facts_text();
    EvalOptions rewrite_options;
    rewrite_options.optimizer_passes = OptimizerPasses::All();
    rewrite_options.output_predicates = gen.outputs;
    const auto rewritten =
        EvalWith(gen, SemanticsKind::kStratified, rewrite_options);
    ASSERT_TRUE(rewritten.ok())
        << rewritten.status().ToString() << "\nstep=" << step << "\n"
        << Describe(gen);
    const auto state = engine.IncrementalState();
    ASSERT_TRUE(state.ok());
    const Program& program = *engine.program().value();
    for (const std::string& name : gen.outputs) {
      EXPECT_EQ(TuplesOf(*engine.symbols(),
                         testing::IdbRelation(program, **state, name)),
                rewritten->at(name))
          << "step=" << step << " predicate=" << name << "\n"
          << Describe(gen);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerFuzzIncremental,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace inflog
