// Parallel-determinism tests: the partitioned, shard-merged fixpoint
// stage against the serial path.
//
// EvalContextOptions::num_threads > 1 splits every stage into (rule plan
// × delta slice) tasks over a base::ThreadPool; num_shards > 1
// hash-shards the IDB relations so both stage merges (task stagings into
// stage buffers, stage buffers into the state) run as shard-wise
// ParallelFors with no serial merge. The ordered shard-wise merge
// reproduces the serial execution order within every shard, so:
//
//   * for a fixed shard count, relations are bit-identical — row ids
//     included — across every thread count;
//   * across shard counts, the relations are equal as sets (sharding
//     changes only where a row lives), and stage counts, stage_sizes,
//     per-tuple stages (TupleStage) and every counter of the
//     sweep-invariant EvalStats groups are bit-identical.
//
// These tests hold both invariants over {1,2,4,8} threads × {1,2,8}
// shards × {static, stealing, auto} stage schedulers on all four
// semantics, on the randomized programs of index_correctness_test.cc.
// The stealing scheduler (ThreadPool::ParallelForDynamic) may execute a
// stage's delta rows in any order and any partition, but folds the chunk
// outputs by their deterministic (plan, first row) key, so the same
// bit-identity must hold — including on adversarially skewed inputs
// where every IDB tuple hashes into one shard (HotShardSkew below). The
// auto scheduler picks one of the two machineries per stage from the
// estimated slice-work variance; whichever it picks, the same fold key
// applies, so its results must be bit-identical too (and the
// AutoSchedulerTest cases below pin which machinery it picks on a
// uniform and on a hub-skewed workload, via the decision counters).
//
// Data-race coverage: configure a build-tsan tree with
// -DCMAKE_BUILD_TYPE=RelWithDebInfo, -DCMAKE_CXX_FLAGS=-fsanitize=thread
// and -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread, build it, and run this
// binary with the relation/executor tests:
//
//   ctest --test-dir build-tsan -R 'Parallel|Relation|Executor'
//
// The CI workflow runs the same job (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/core/engine.h"
#include "src/eval/inflationary.h"
#include "src/eval/stratified.h"
#include "src/graphs/digraph.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

const size_t kThreadCounts[] = {1, 2, 4, 8};
const size_t kShardCounts[] = {1, 2, 8};
const StageScheduler kSchedulers[] = {StageScheduler::kStatic,
                                      StageScheduler::kStealing,
                                      StageScheduler::kAuto};

/// A database of random facts over `num_symbols` constants for the EDB
/// relations A/2, B/2, C/2, D/2 and S/1 (mirrors index_correctness_test).
Database RandomFactDb(uint64_t seed, size_t num_symbols, size_t num_facts) {
  Database db;
  Rng rng(seed);
  auto sym = [&](uint64_t i) { return std::to_string(i); };
  for (size_t i = 0; i < num_symbols; ++i) db.AddUniverseSymbol(sym(i));
  const std::vector<std::string> rels = {"A", "B", "C", "D"};
  for (size_t f = 0; f < num_facts; ++f) {
    const std::string& rel = rels[rng.Uniform(rels.size())];
    INFLOG_CHECK(db.AddFactNamed(rel, {sym(rng.Uniform(num_symbols)),
                                       sym(rng.Uniform(num_symbols))})
                     .ok());
  }
  for (size_t i = 0; i < num_symbols; ++i) {
    if (rng.Bernoulli(0.4)) INFLOG_CHECK(db.AddFactNamed("S", {sym(i)}).ok());
  }
  for (const std::string& rel : rels) {
    INFLOG_CHECK(db.DeclareRelation(rel, 2).ok());
  }
  INFLOG_CHECK(db.DeclareRelation("S", 1).ok());
  return db;
}

/// Join-heavy rules with negation — single- and multi-column keys all
/// appear in the compiled plans, so the index-intersection path and the
/// slicing path are both exercised.
constexpr char kJoinProgram[] =
    "J(X,Z) :- A(X,Y), B(Y,Z).\n"
    "K(X,W) :- J(X,Z), C(Z,W), !D(X,W).\n"
    "L(X) :- K(X,X).\n"
    "M(X,Y) :- J(X,Y), J(Y,X), !L(X).\n";

/// Row-by-row equality: for a fixed shard count, every thread count must
/// reproduce the reference's per-shard insertion order, not just the same
/// set (stage bookkeeping reads off per-shard row ids). Row(i) linearizes
/// shards in shard-major order, so global row-for-row equality between
/// equal-shard-count states is exactly per-shard row identity.
void ExpectSameRows(const IdbState& reference, const IdbState& candidate) {
  ASSERT_EQ(reference.relations.size(), candidate.relations.size());
  for (size_t i = 0; i < reference.relations.size(); ++i) {
    const Relation& a = reference.relations[i];
    const Relation& b = candidate.relations[i];
    ASSERT_EQ(a.num_shards(), b.num_shards()) << "relation " << i;
    ASSERT_EQ(a.size(), b.size()) << "relation " << i;
    for (size_t r = 0; r < a.size(); ++r) {
      ASSERT_TRUE(TupleEq()(a.Row(r), b.Row(r)))
          << "relation " << i << " row " << r << " differs";
    }
  }
}

/// Set equality plus canonical order: the cross-shard-count invariant
/// (sharding moves rows between shards but cannot change the set).
void ExpectSameSets(const IdbState& reference, const IdbState& candidate) {
  ASSERT_EQ(reference.relations.size(), candidate.relations.size());
  for (size_t i = 0; i < reference.relations.size(); ++i) {
    EXPECT_EQ(reference.relations[i].SortedTuples(),
              candidate.relations[i].SortedTuples())
        << "relation " << i;
  }
}

/// Every counter of the sweep-invariant groups must be identical: the
/// partition decides where work runs, never what runs. Only the partition
/// and serving groups record the configuration itself.
void ExpectSameStats(const EvalStats& reference, const EvalStats& candidate,
                     const std::string& config) {
  for (const EvalCounter& c : kEvalCounters) {
    if (c.group == StatsGroup::kPartition ||
        c.group == StatsGroup::kServing) {
      continue;
    }
    EXPECT_EQ(reference.*c.field, candidate.*c.field)
        << c.name << " " << config;
  }
}

std::string ConfigName(size_t threads, size_t shards,
                       StageScheduler scheduler = StageScheduler::kStatic) {
  return "threads=" + std::to_string(threads) +
         " shards=" + std::to_string(shards) + " scheduler=" +
         std::string(StageSchedulerName(scheduler));
}

class ParallelDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDeterminism, InflationaryMatchesSerialBitForBit) {
  Database db = RandomFactDb(7000 + GetParam(), 14, 120);
  Program program = testing::MustProgram(kJoinProgram, db.shared_symbols());

  InflationaryOptions serial_opts;
  serial_opts.context.num_threads = 1;
  serial_opts.context.num_shards = 1;
  auto serial = EvalInflationary(program, db, serial_opts);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->stats.parallel_tasks, 0u);

  for (size_t shards : kShardCounts) {
    // Per-shard-count reference: the threads=1 run at this shard count.
    // Every thread count must then match it row for row.
    InflationaryOptions ref_opts;
    ref_opts.context.num_threads = 1;
    ref_opts.context.num_shards = shards;
    auto reference = EvalInflationary(program, db, ref_opts);
    ASSERT_TRUE(reference.ok());
    ExpectSameSets(serial->state, reference->state);

    for (size_t threads : kThreadCounts) {
      for (StageScheduler scheduler : kSchedulers) {
        const std::string config = ConfigName(threads, shards, scheduler);
        InflationaryOptions par_opts;
        par_opts.context.num_threads = threads;
        par_opts.context.num_shards = shards;
        par_opts.context.scheduler = scheduler;
        auto parallel = EvalInflationary(program, db, par_opts);
        ASSERT_TRUE(parallel.ok()) << config;

        ExpectSameRows(reference->state, parallel->state);
        ExpectSameSets(serial->state, parallel->state);
        EXPECT_EQ(serial->num_stages, parallel->num_stages) << config;
        EXPECT_EQ(serial->stage_sizes, parallel->stage_sizes) << config;
        ExpectSameStats(serial->stats, parallel->stats, config);
        if (threads > 1) {
          EXPECT_GT(parallel->stats.parallel_tasks, 0u) << config;
        } else {
          EXPECT_EQ(parallel->stats.parallel_tasks, 0u) << config;
          EXPECT_EQ(parallel->stats.slices, 0u) << config;
        }
        if (scheduler == StageScheduler::kStatic || threads == 1) {
          // Stealing only: chunks can move between workers.
          EXPECT_EQ(parallel->stats.steals, 0u) << config;
          EXPECT_EQ(parallel->stats.splits, 0u) << config;
        }

        // The stage at which each tuple entered — the semantics
        // Proposition 2 reads distances off — is configuration-invariant
        // too.
        for (size_t i = 0; i < serial->state.relations.size(); ++i) {
          for (const Tuple& t : serial->state.relations[i].SortedTuples()) {
            EXPECT_EQ(serial->TupleStage(i, t), parallel->TupleStage(i, t))
                << config << " relation " << i;
          }
        }
      }
    }
  }
}

TEST_P(ParallelDeterminism, NaiveDriverMatchesSerial) {
  // use_seminaive=false takes the full-plan (per-rule task) partition at
  // every stage instead of delta slicing.
  Database db = RandomFactDb(7100 + GetParam(), 12, 100);
  Program program = testing::MustProgram(kJoinProgram, db.shared_symbols());

  InflationaryOptions serial_opts;
  serial_opts.use_seminaive = false;
  serial_opts.context.num_threads = 1;
  auto serial = EvalInflationary(program, db, serial_opts);
  ASSERT_TRUE(serial.ok());

  for (size_t shards : kShardCounts) {
    for (size_t threads : kThreadCounts) {
      for (StageScheduler scheduler : kSchedulers) {
        const std::string config = ConfigName(threads, shards, scheduler);
        InflationaryOptions par_opts;
        par_opts.use_seminaive = false;
        par_opts.context.num_threads = threads;
        par_opts.context.num_shards = shards;
        par_opts.context.scheduler = scheduler;
        auto parallel = EvalInflationary(program, db, par_opts);
        ASSERT_TRUE(parallel.ok()) << config;
        ExpectSameSets(serial->state, parallel->state);
        EXPECT_EQ(serial->num_stages, parallel->num_stages) << config;
        EXPECT_EQ(serial->stage_sizes, parallel->stage_sizes) << config;
        EXPECT_EQ(serial->stats.derivations, parallel->stats.derivations)
            << config;
      }
    }
  }
}

TEST_P(ParallelDeterminism, TransitiveClosureManyStagesManySlices) {
  // Larger delta ranges so stages genuinely split into several row
  // windows — at 2/8 shards, windows that may span shard boundaries —
  // with a shard-parallel merge on every stage.
  Rng rng(8000 + GetParam());
  const size_t n = 48;
  const Digraph g = RandomDigraph(n, 3.0 / n, &rng);
  Database db;
  GraphToDatabase(g, "E", &db);
  Program program = testing::MustProgram(
      "T(X,Y) :- E(X,Y).\n"
      "T(X,Z) :- T(X,Y), E(Y,Z).\n",
      db.shared_symbols());

  InflationaryOptions serial_opts;
  serial_opts.context.num_threads = 1;
  auto serial = EvalInflationary(program, db, serial_opts);
  ASSERT_TRUE(serial.ok());

  for (size_t shards : kShardCounts) {
    for (size_t threads : kThreadCounts) {
      for (StageScheduler scheduler : kSchedulers) {
        const std::string config = ConfigName(threads, shards, scheduler);
        InflationaryOptions par_opts;
        par_opts.context.num_threads = threads;
        par_opts.context.num_shards = shards;
        par_opts.context.scheduler = scheduler;
        auto parallel = EvalInflationary(program, db, par_opts);
        ASSERT_TRUE(parallel.ok()) << config;
        ExpectSameSets(serial->state, parallel->state);
        EXPECT_EQ(serial->num_stages, parallel->num_stages) << config;
        EXPECT_EQ(serial->stage_sizes, parallel->stage_sizes) << config;
        ExpectSameStats(serial->stats, parallel->stats, config);
      }
    }
  }
}

/// Random facts for A/2 and S/1 as parser text, so engines (which own
/// their symbol table) can load them directly.
std::string RandomFactText(uint64_t seed, size_t num_symbols,
                           size_t num_facts) {
  Rng rng(seed);
  // Guarantee both EDB relations exist whatever the seed draws.
  std::string text = "S(0).\n";
  for (size_t f = 0; f < num_facts; ++f) {
    text += "A(" + std::to_string(rng.Uniform(num_symbols)) + "," +
            std::to_string(rng.Uniform(num_symbols)) + ").\n";
  }
  for (size_t i = 0; i < num_symbols; ++i) {
    if (rng.Bernoulli(0.4)) text += "S(" + std::to_string(i) + ").\n";
  }
  return text;
}

TEST_P(ParallelDeterminism, AllFourSemanticsThroughEngine) {
  // The unified entry point: every semantics must answer identically for
  // every (threads, shards) combination (well-founded and stable run the
  // grounded pipeline, where both knobs are inert by design — asserted
  // all the same).
  const std::string program_text =
      "R(X) :- S(X).\n"
      "R(Y) :- R(X), A(X,Y).\n"
      "U(X,Y) :- A(X,Y), !R(X).\n";
  const std::string fact_text = RandomFactText(7300 + GetParam(), 8, 24);
  for (SemanticsKind kind :
       {SemanticsKind::kInflationary, SemanticsKind::kStratified,
        SemanticsKind::kWellFounded, SemanticsKind::kStable}) {
    Engine engine;
    ASSERT_TRUE(engine.LoadProgramText(program_text).ok());
    ASSERT_TRUE(engine.LoadDatabaseText(fact_text).ok());

    EvalOptions serial_opts;
    serial_opts.num_threads = 1;
    serial_opts.num_shards = 1;
    auto serial = engine.Evaluate(kind, serial_opts);
    ASSERT_TRUE(serial.ok()) << SemanticsKindName(kind);

    for (size_t shards : kShardCounts) {
      for (size_t threads : kThreadCounts) {
        for (StageScheduler scheduler : kSchedulers) {
          const std::string config =
              std::string(SemanticsKindName(kind)) + " " +
              ConfigName(threads, shards, scheduler);
          EvalOptions par_opts;
          par_opts.num_threads = threads;
          par_opts.num_shards = shards;
          par_opts.scheduler = scheduler;
          auto parallel = engine.Evaluate(kind, par_opts);
          ASSERT_TRUE(parallel.ok()) << config;
          ExpectSameSets(serial->state(), parallel->state());
          if (serial->stats() != nullptr) {
            ExpectSameStats(*serial->stats(), *parallel->stats(), config);
          }
          if (kind == SemanticsKind::kStable) {
            const auto& sm = std::get<StableResult>(serial->detail);
            const auto& pm = std::get<StableResult>(parallel->detail);
            ASSERT_EQ(sm.models.size(), pm.models.size()) << config;
            for (size_t m = 0; m < sm.models.size(); ++m) {
              EXPECT_EQ(sm.models[m], pm.models[m])
                  << config << " stable model " << m;
            }
          }
        }
      }
    }
  }
}

TEST_P(ParallelDeterminism, StratifiedMatchesSerial) {
  Rng rng(9000 + GetParam());
  const size_t n = 16;
  const Digraph g = RandomDigraph(n, 2.0 / n, &rng);
  Database db;
  GraphToDatabase(g, "E", &db);
  ASSERT_TRUE(db.AddFactNamed("S", {"0"}).ok());
  Program program = testing::MustProgram(
      "R(X) :- S(X).\n"
      "R(Y) :- R(X), E(X,Y).\n"
      "U(X,Y) :- E(X,Y), !R(X).\n",
      db.shared_symbols());

  StratifiedOptions serial_opts;
  serial_opts.context.num_threads = 1;
  auto serial = EvalStratified(program, db, serial_opts);
  ASSERT_TRUE(serial.ok());

  for (size_t shards : kShardCounts) {
    for (size_t threads : kThreadCounts) {
      const std::string config = ConfigName(threads, shards);
      StratifiedOptions par_opts;
      par_opts.context.num_threads = threads;
      par_opts.context.num_shards = shards;
      auto parallel = EvalStratified(program, db, par_opts);
      ASSERT_TRUE(parallel.ok()) << config;
      ExpectSameSets(serial->state, parallel->state);
      EXPECT_EQ(serial->num_strata, parallel->num_strata) << config;
      ExpectSameStats(serial->stats, parallel->stats, config);
    }
  }
}

TEST_P(ParallelDeterminism, AutoShardsMatchExplicit) {
  // num_shards = 0 resolves to one shard per resolved thread; whatever it
  // picks, results must equal the unsharded serial run.
  Database db = RandomFactDb(7600 + GetParam(), 10, 80);
  Program program = testing::MustProgram(kJoinProgram, db.shared_symbols());

  InflationaryOptions serial_opts;
  serial_opts.context.num_threads = 1;
  auto serial = EvalInflationary(program, db, serial_opts);
  ASSERT_TRUE(serial.ok());

  InflationaryOptions auto_opts;
  auto_opts.context.num_threads = 4;
  auto_opts.context.num_shards = 0;  // auto
  auto parallel = EvalInflationary(program, db, auto_opts);
  ASSERT_TRUE(parallel.ok());
  ExpectSameSets(serial->state, parallel->state);
  EXPECT_EQ(serial->stage_sizes, parallel->stage_sizes);
  ExpectSameStats(serial->stats, parallel->stats, "auto shards");
  for (const Relation& rel : parallel->state.relations) {
    EXPECT_EQ(rel.num_shards(), 4u);
  }
}

/// A program with one unary IDB predicate R whose tuples the skew tests
/// force into a single hash shard.
constexpr char kSkewProgram[] =
    "R(X) :- S(X).\n"
    "R(Y) :- R(X), A(X,Y).\n"
    "U(X,Y) :- A(X,Y), !R(X).\n";

/// "Dom(c0). Dom(c1). ..." — pins the interning order of every candidate
/// symbol, so candidate Values (and therefore the shard of every unary
/// tuple over them) are identical in any engine that loads the same
/// program text plus a fact text starting with this block.
std::string DomBlock(size_t num_candidates) {
  std::string text;
  for (size_t i = 0; i < num_candidates; ++i) {
    text += "Dom(c" + std::to_string(i) + ").\n";
  }
  return text;
}

/// The candidate names whose unary tuple (value) hashes into shard 0 of a
/// 2^shard_bits-sharded relation, computed through a scout engine that
/// interns exactly like the test engines below.
std::vector<std::string> HotShardSymbols(size_t num_candidates,
                                         uint32_t shard_bits) {
  Engine scout;
  INFLOG_CHECK(scout.LoadProgramText(kSkewProgram).ok());
  INFLOG_CHECK(scout.LoadDatabaseText(DomBlock(num_candidates)).ok());
  std::vector<std::string> hot;
  for (size_t i = 0; i < num_candidates; ++i) {
    const std::string name = StrCat("c", i);
    const Value v = scout.symbols()->Find(name);
    INFLOG_CHECK(v != kNoValue);
    const Tuple tuple{v};
    if (ShardOfHash(HashTuple(tuple), shard_bits) == 0) hot.push_back(name);
  }
  return hot;
}

TEST_P(ParallelDeterminism, HotShardSkewStealingMatchesSerial) {
  // Adversarial skew: every R tuple hashes into shard 0, so at 8 shards
  // the per-shard delta histogram is maximally skewed — the exact case
  // the stealing scheduler exists for. All four semantics must still
  // answer bit-identically to serial across the full sweep.
  const size_t kCandidates = 160;
  const std::vector<std::string> hot = HotShardSymbols(kCandidates, 3);
  ASSERT_GE(hot.size(), 8u);  // ~1/8 of candidates expected

  // A chain through every hot symbol (many stages) plus random extra
  // edges (wide deltas), seeded from the chain head.
  Rng rng(7900 + GetParam());
  std::string facts = DomBlock(kCandidates);
  facts += "S(" + hot[0] + ").\n";
  for (size_t i = 0; i + 1 < hot.size(); ++i) {
    facts += "A(" + hot[i] + "," + hot[i + 1] + ").\n";
  }
  for (size_t k = 0; k < 2 * hot.size(); ++k) {
    facts += "A(" + hot[rng.Uniform(hot.size())] + "," +
             hot[rng.Uniform(hot.size())] + ").\n";
  }

  for (SemanticsKind kind :
       {SemanticsKind::kInflationary, SemanticsKind::kStratified,
        SemanticsKind::kWellFounded, SemanticsKind::kStable}) {
    Engine engine;
    ASSERT_TRUE(engine.LoadProgramText(kSkewProgram).ok());
    ASSERT_TRUE(engine.LoadDatabaseText(facts).ok());

    EvalOptions serial_opts;
    serial_opts.num_threads = 1;
    serial_opts.num_shards = 1;
    auto serial = engine.Evaluate(kind, serial_opts);
    ASSERT_TRUE(serial.ok()) << SemanticsKindName(kind);

    if (kind == SemanticsKind::kInflationary) {
      // Verify the adversarial claim itself: at 8 shards, R lives
      // entirely in shard 0.
      EvalOptions sharded_opts;
      sharded_opts.num_threads = 1;
      sharded_opts.num_shards = 8;
      auto sharded = engine.Evaluate(kind, sharded_opts);
      ASSERT_TRUE(sharded.ok());
      auto r = engine.RelationOf(sharded->state(), "R");
      ASSERT_TRUE(r.ok());
      ASSERT_EQ((*r)->size(), hot.size());
      for (size_t s = 1; s < 8; ++s) {
        ASSERT_EQ((*r)->ShardSize(s), 0u) << "shard " << s;
      }
    }

    for (size_t shards : kShardCounts) {
      for (size_t threads : kThreadCounts) {
        const std::string config =
            std::string(SemanticsKindName(kind)) + " skew " +
            ConfigName(threads, shards, StageScheduler::kStealing);
        EvalOptions par_opts;
        par_opts.num_threads = threads;
        par_opts.num_shards = shards;
        par_opts.scheduler = StageScheduler::kStealing;
        // A tiny slice floor so even these small deltas genuinely fan
        // out and split (results are invariant to it).
        par_opts.min_slice_rows = 2;
        auto parallel = engine.Evaluate(kind, par_opts);
        ASSERT_TRUE(parallel.ok()) << config;
        ExpectSameSets(serial->state(), parallel->state());
        if (serial->stats() != nullptr) {
          ExpectSameStats(*serial->stats(), *parallel->stats(), config);
        }
      }
    }
  }
}

TEST(SerialPathTest, SerialRunsAllocateNoTaskScaffolding) {
  // num_threads == 1 dispatches straight to the serial stage body: no
  // tasks, no slices, no pool — whatever the scheduler and cutoff say —
  // and the stats are identical across every such configuration.
  Database db = RandomFactDb(4242, 12, 150);
  Program program = testing::MustProgram(kJoinProgram, db.shared_symbols());

  InflationaryOptions base;
  base.context.num_threads = 1;
  auto reference = EvalInflationary(program, db, base);
  ASSERT_TRUE(reference.ok());

  for (StageScheduler scheduler : kSchedulers) {
    for (size_t min_slice : {size_t{1}, size_t{16}, size_t{1 << 20}}) {
      const std::string config =
          "serial scheduler=" +
          std::string(StageSchedulerName(scheduler)) +
          " min_slice_rows=" + std::to_string(min_slice);
      InflationaryOptions opts;
      opts.context.num_threads = 1;
      opts.context.scheduler = scheduler;
      opts.context.min_slice_rows = min_slice;
      auto serial = EvalInflationary(program, db, opts);
      ASSERT_TRUE(serial.ok()) << config;
      EXPECT_EQ(serial->stats.parallel_tasks, 0u) << config;
      EXPECT_EQ(serial->stats.slices, 0u) << config;
      EXPECT_EQ(serial->stats.steals, 0u) << config;
      EXPECT_EQ(serial->stats.splits, 0u) << config;
      ExpectSameRows(reference->state, serial->state);
      EXPECT_EQ(reference->stage_sizes, serial->stage_sizes) << config;
      ExpectSameStats(reference->stats, serial->stats, config);
    }
  }
}

TEST(SerialPathTest, CutoffFallbackMatchesSerialExactly) {
  // With the cutoff above every stage's work, a multi-threaded run takes
  // the serial body per stage: identical results and zero fan-out stats.
  Database db = RandomFactDb(4243, 12, 150);
  Program program = testing::MustProgram(kJoinProgram, db.shared_symbols());

  InflationaryOptions base;
  base.context.num_threads = 1;
  auto reference = EvalInflationary(program, db, base);
  ASSERT_TRUE(reference.ok());

  for (StageScheduler scheduler : kSchedulers) {
    InflationaryOptions opts;
    opts.context.num_threads = 4;
    opts.context.scheduler = scheduler;
    opts.context.min_slice_rows = 1 << 20;
    auto capped = EvalInflationary(program, db, opts);
    ASSERT_TRUE(capped.ok());
    EXPECT_EQ(capped->stats.parallel_tasks, 0u);
    EXPECT_EQ(capped->stats.slices, 0u);
    ExpectSameRows(reference->state, capped->state);
    ExpectSameStats(reference->stats, capped->stats, "capped cutoff");
  }
}

TEST(AutoSchedulerTest, UniformWorkloadPicksStatic) {
  // Transitive closure over a sparse random digraph: per delta row the
  // probed posting list is one vertex's out-degree — i.i.d. and small —
  // so the estimated work of the static partition's slices is
  // near-uniform and the auto scheduler must keep the static slicer on
  // every parallel stage (stealing's chunk machinery would be pure
  // overhead here).
  Rng rng(424242);
  const size_t n = 48;
  const Digraph g = RandomDigraph(n, 3.0 / n, &rng);
  Database db;
  GraphToDatabase(g, "E", &db);
  Program program = testing::MustProgram(
      "T(X,Y) :- E(X,Y).\n"
      "T(X,Z) :- T(X,Y), E(Y,Z).\n",
      db.shared_symbols());

  InflationaryOptions serial_opts;
  serial_opts.context.num_threads = 1;
  auto serial = EvalInflationary(program, db, serial_opts);
  ASSERT_TRUE(serial.ok());

  InflationaryOptions opts;
  opts.context.num_threads = 4;
  opts.context.scheduler = StageScheduler::kAuto;
  opts.context.min_slice_rows = 16;  // low floor so stages genuinely fan out
  auto result = EvalInflationary(program, db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.auto_static_stages, 0u);
  EXPECT_EQ(result->stats.auto_stealing_stages, 0u);
  // Stealing never ran, so its bookkeeping stays zero.
  EXPECT_EQ(result->stats.steals, 0u);
  EXPECT_EQ(result->stats.splits, 0u);
  EXPECT_EQ(result->stats.parks, 0u);
  ExpectSameSets(serial->state, result->state);
  EXPECT_EQ(serial->stage_sizes, result->stage_sizes);
  ExpectSameStats(serial->stats, result->stats, "auto uniform");
}

TEST(AutoSchedulerTest, HotShardHubSkewPicksStealing) {
  // Miniature of bench E11: every R tuple hashes into shard 0 and a few
  // hub rows inside the leading slice window hide most of the probe
  // fan-out, so the estimated slice work has coefficient of variation
  // well above the default threshold and the auto scheduler must flip
  // the skewed stage to stealing.
  constexpr char kProgram[] =
      "R(Y) :- Seed(X), E0(X,Y).\n"
      "P(X,Y) :- R(X), Big(X,Y).\n";
  constexpr size_t kRows = 256;       // R tuples, all hashing into shard 0
  constexpr size_t kHubWindow = 64;   // leading R rows holding the hubs
  constexpr size_t kHubStride = 8;    // one hub per 8 rows in the window
  constexpr size_t kHubFanout = 512;  // Big rows per hub (1 elsewhere)

  Database db;
  std::vector<std::string> hot;
  for (size_t i = 0; hot.size() < kRows; ++i) {
    std::string name = StrCat("h", i);
    const Value v = db.shared_symbols()->Intern(name);
    if (ShardOfHash(HashTuple(Tuple{v}), 3) == 0) {
      hot.push_back(std::move(name));
    }
  }
  ASSERT_TRUE(db.AddFactNamed("Seed", {"s"}).ok());
  for (const std::string& name : hot) {
    ASSERT_TRUE(db.AddFactNamed("E0", {"s", name}).ok());
  }
  for (size_t i = 0; i < hot.size(); ++i) {
    const bool hub = i < kHubWindow && i % kHubStride == 0;
    const size_t fanout = hub ? kHubFanout : 1;
    for (size_t j = 0; j < fanout; ++j) {
      ASSERT_TRUE(
          db.AddFactNamed("Big", {hot[i], StrCat("t", j)}).ok());
    }
  }
  Program program = testing::MustProgram(kProgram, db.shared_symbols());

  InflationaryOptions serial_opts;
  serial_opts.context.num_threads = 1;
  auto serial = EvalInflationary(program, db, serial_opts);
  ASSERT_TRUE(serial.ok());

  InflationaryOptions opts;
  opts.context.num_threads = 4;
  opts.context.num_shards = 8;
  opts.context.scheduler = StageScheduler::kAuto;
  opts.context.min_slice_rows = 16;
  auto result = EvalInflationary(program, db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats.auto_stealing_stages, 1u);
  ExpectSameSets(serial->state, result->state);
  EXPECT_EQ(serial->stage_sizes, result->stage_sizes);
  ExpectSameStats(serial->stats, result->stats, "auto skew");
}

TEST(AutoSchedulerTest, TinyDeltaPlansAreBatched) {
  // A rule-heavy copy chain: from stage 2 on, most compiled delta plans
  // scan an empty or nearly empty delta. The partition must coalesce
  // those tiny plans into shared tasks (batched_plans) instead of paying
  // one staging relation per plan — under every scheduler, with results
  // still bit-identical to serial.
  Rng rng(515151);
  const size_t n = 24;
  const Digraph g = RandomDigraph(n, 2.5 / n, &rng);
  Database db;
  GraphToDatabase(g, "E", &db);
  std::string text = "C1(X,Y) :- E(X,Y).\n";
  for (int k = 2; k <= 8; ++k) {
    text += StrCat("C", k, "(X,Y) :- C", k - 1, "(X,Y).\n");
  }
  Program program = testing::MustProgram(text, db.shared_symbols());

  InflationaryOptions serial_opts;
  serial_opts.context.num_threads = 1;
  auto serial = EvalInflationary(program, db, serial_opts);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->stats.batched_plans, 0u);  // serial path: no partition

  for (StageScheduler scheduler : kSchedulers) {
    const std::string config =
        "batching scheduler=" + std::string(StageSchedulerName(scheduler));
    InflationaryOptions opts;
    opts.context.num_threads = 2;
    opts.context.scheduler = scheduler;
    opts.context.min_slice_rows = 8;
    auto result = EvalInflationary(program, db, opts);
    ASSERT_TRUE(result.ok()) << config;
    EXPECT_GT(result->stats.batched_plans, 0u) << config;
    ExpectSameRows(serial->state, result->state);
    EXPECT_EQ(serial->stage_sizes, result->stage_sizes) << config;
    ExpectSameStats(serial->stats, result->stats, config);
  }
}

TEST_P(ParallelDeterminism, OptimizerSweepMatchesGreedyPlans) {
  // The plan-optimizer pipeline must preserve the determinism contract
  // twice over. At a fixed pass selection, the {threads × shards ×
  // scheduler} sweep stays bit-identical — rows at a fixed shard count,
  // sets and stats across shard counts, and the opt_* counters
  // everywhere (they are pure functions of program, database and pass
  // selection). And across pass selections, the answer itself —
  // relations, stage count, stage sizes, per-tuple stages — equals the
  // unoptimized greedy plans' exactly.
  Database db = RandomFactDb(8600 + GetParam(), 14, 120);
  Program program = testing::MustProgram(kJoinProgram, db.shared_symbols());

  InflationaryOptions greedy_opts;
  greedy_opts.context.num_threads = 1;
  greedy_opts.context.optimizer_passes = OptimizerPasses::None();
  auto greedy = EvalInflationary(program, db, greedy_opts);
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(greedy->stats.opt_plans_reordered, 0u);
  EXPECT_EQ(greedy->stats.opt_subplans_shared, 0u);
  EXPECT_EQ(greedy->stats.opt_rules_eliminated, 0u);

  InflationaryOptions opt_serial_opts;  // optimizer_passes defaults to all
  opt_serial_opts.context.num_threads = 1;
  auto opt_serial = EvalInflationary(program, db, opt_serial_opts);
  ASSERT_TRUE(opt_serial.ok());

  ExpectSameSets(greedy->state, opt_serial->state);
  EXPECT_EQ(greedy->num_stages, opt_serial->num_stages);
  EXPECT_EQ(greedy->stage_sizes, opt_serial->stage_sizes);
  for (size_t i = 0; i < greedy->state.relations.size(); ++i) {
    for (const Tuple& t : greedy->state.relations[i].SortedTuples()) {
      EXPECT_EQ(greedy->TupleStage(i, t), opt_serial->TupleStage(i, t))
          << "relation " << i;
    }
  }

  for (size_t shards : kShardCounts) {
    InflationaryOptions ref_opts;
    ref_opts.context.num_threads = 1;
    ref_opts.context.num_shards = shards;
    auto reference = EvalInflationary(program, db, ref_opts);
    ASSERT_TRUE(reference.ok());

    for (size_t threads : kThreadCounts) {
      for (StageScheduler scheduler : kSchedulers) {
        const std::string config =
            "optimized " + ConfigName(threads, shards, scheduler);
        InflationaryOptions par_opts;
        par_opts.context.num_threads = threads;
        par_opts.context.num_shards = shards;
        par_opts.context.scheduler = scheduler;
        auto parallel = EvalInflationary(program, db, par_opts);
        ASSERT_TRUE(parallel.ok()) << config;

        ExpectSameRows(reference->state, parallel->state);
        ExpectSameSets(greedy->state, parallel->state);
        EXPECT_EQ(greedy->num_stages, parallel->num_stages) << config;
        EXPECT_EQ(greedy->stage_sizes, parallel->stage_sizes) << config;
        ExpectSameStats(opt_serial->stats, parallel->stats, config);
        EXPECT_EQ(opt_serial->stats.opt_rules_eliminated,
                  parallel->stats.opt_rules_eliminated)
            << config;
        EXPECT_EQ(opt_serial->stats.opt_plans_reordered,
                  parallel->stats.opt_plans_reordered)
            << config;
        EXPECT_EQ(opt_serial->stats.opt_subplans_shared,
                  parallel->stats.opt_subplans_shared)
            << config;
        EXPECT_EQ(opt_serial->stats.opt_shared_prefixes,
                  parallel->stats.opt_shared_prefixes)
            << config;
        EXPECT_EQ(opt_serial->stats.opt_shared_rows,
                  parallel->stats.opt_shared_rows)
            << config;
      }
    }
  }
}

/// An edge as a pair of constant names — engine-independent (each engine
/// re-interns them), so one stream drives many sweep configurations.
using Edge = std::pair<std::string, std::string>;

/// A random initial edge set plus a deterministic stream of mixed
/// insert/delete batches over it (deletes drawn from the initial edges so
/// they mostly hit; inserts random, so some duplicate existing rows — the
/// netting paths all fire).
struct UpdateStream {
  std::string facts;
  std::vector<std::pair<std::vector<Edge>, std::vector<Edge>>> batches;
};

UpdateStream RandomUpdateStream(uint64_t seed) {
  Rng rng(seed);
  const size_t n = 12;
  auto sym = [&](uint64_t i) { return std::to_string(i); };
  UpdateStream s;
  std::vector<Edge> edges;
  for (size_t i = 0; i < 30; ++i) {
    edges.emplace_back(sym(rng.Uniform(n)), sym(rng.Uniform(n)));
    s.facts += "E(" + edges.back().first + "," + edges.back().second + ").\n";
  }
  for (size_t b = 0; b < 5; ++b) {
    std::vector<Edge> ins, del;
    for (size_t k = 0; k < 2; ++k) {
      del.push_back(edges[rng.Uniform(edges.size())]);
      ins.emplace_back(sym(rng.Uniform(n)), sym(rng.Uniform(n)));
    }
    s.batches.emplace_back(std::move(ins), std::move(del));
  }
  return s;
}

TEST_P(ParallelDeterminism, IncrementalMaintenanceMatchesScratchAcrossSweep) {
  // The incremental maintainer rides the same parallel stage machinery as
  // the fixpoint drivers, so it owes the same contract: at a fixed shard
  // count the maintained state is row-identical across every (threads,
  // scheduler) configuration, and every configuration's state equals a
  // from-scratch evaluation of the post-update database as a set. Run the
  // sweep on a recursive-plus-negation stratified program (recursive and
  // non-recursive units both maintained) and a positive inflationary one.
  const UpdateStream stream = RandomUpdateStream(8800 + GetParam());
  struct Case {
    SemanticsKind kind;
    const char* program;
  };
  const Case cases[] = {
      {SemanticsKind::kStratified,
       "T(X,Y) :- E(X,Y).\n"
       "T(X,Z) :- T(X,Y), E(Y,Z).\n"
       "N(X,Y) :- E(X,Y), !T(Y,X).\n"},
      {SemanticsKind::kInflationary,
       "T(X,Y) :- E(X,Y).\n"
       "T(X,Z) :- T(X,Y), E(Y,Z).\n"
       "D(X) :- T(X,X).\n"},
  };
  for (const Case& c : cases) {
    // Runs the whole stream through a fresh engine's incremental session,
    // cross-checks the result against a from-scratch evaluation of the
    // mutated database, and returns the maintained state.
    const auto run = [&](const EvalOptions& options,
                         const std::string& config) -> IdbState {
      Engine engine;
      INFLOG_CHECK(engine.LoadProgramText(c.program).ok());
      INFLOG_CHECK(engine.LoadDatabaseText(stream.facts).ok());
      INFLOG_CHECK(engine.BeginIncremental(c.kind, options).ok());
      const auto to_updates = [&](const std::vector<Edge>& edges) {
        std::vector<std::pair<std::string, Tuple>> out;
        for (const Edge& e : edges) {
          out.push_back({"E", Tuple{engine.symbols()->Intern(e.first),
                                    engine.symbols()->Intern(e.second)}});
        }
        return out;
      };
      for (const auto& [ins, del] : stream.batches) {
        auto r = engine.ApplyUpdate(to_updates(ins), to_updates(del));
        INFLOG_CHECK(r.ok()) << config << ": " << r.status().ToString();
        // Both programs are safe, so even universe-growing inserts stay
        // on the incremental path.
        EXPECT_FALSE(r->used_oracle) << config;
      }
      auto state = engine.IncrementalState();
      INFLOG_CHECK(state.ok());
      IdbState maintained = **state;
      auto scratch = engine.Evaluate(c.kind, options);
      INFLOG_CHECK(scratch.ok()) << config << ": "
                                 << scratch.status().ToString();
      ExpectSameSets(scratch->state(), maintained);
      return maintained;
    };

    for (size_t shards : kShardCounts) {
      EvalOptions ref_opts;
      ref_opts.num_threads = 1;
      ref_opts.num_shards = shards;
      const IdbState reference =
          run(ref_opts, std::string(SemanticsKindName(c.kind)) +
                            " incremental reference shards=" +
                            std::to_string(shards));
      for (size_t threads : kThreadCounts) {
        for (StageScheduler scheduler : kSchedulers) {
          const std::string config =
              std::string(SemanticsKindName(c.kind)) + " incremental " +
              ConfigName(threads, shards, scheduler);
          EvalOptions opts;
          opts.num_threads = threads;
          opts.num_shards = shards;
          opts.scheduler = scheduler;
          const IdbState maintained = run(opts, config);
          ExpectSameRows(reference, maintained);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism, ::testing::Range(0, 6));

}  // namespace
}  // namespace inflog
