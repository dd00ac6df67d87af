// Tests for the serving layer (src/serve/): query parsing and canonical
// cache keys, point/join evaluation against sealed snapshots, epoch
// publication with copy reuse, the delta-invalidated query cache, update
// coalescing, periodic compaction, the Engine serving API, and the
// snapshot-isolation sweep — N reader threads querying pinned snapshots
// while a writer applies an update stream, every reader answer
// cross-checked against a from-scratch evaluation of its pinned epoch,
// across {1,2,8} shards x 3 schedulers (the configuration the CI TSan
// job replays under the sanitizer).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/ast/parser.h"
#include "src/base/strings.h"
#include "src/core/engine.h"
#include "src/eval/incremental.h"
#include "src/eval/stratified.h"
#include "src/serve/cache.h"
#include "src/serve/query.h"
#include "src/serve/serving.h"
#include "src/serve/snapshot.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

// Two independent strata: T depends on E only, U on S only — so updates
// to one side must leave the other side's sealed relations and cache
// entries untouched.
constexpr std::string_view kTwoIslandProgram = R"(
T(X,Y) :- E(X,Y).
T(X,Z) :- T(X,Y), E(Y,Z).
U(X) :- S(X).
)";
constexpr std::string_view kTwoIslandFacts =
    "E(1,2). E(2,3). E(3,4). S(7). S(8).";

class ServingTest : public ::testing::Test {
 protected:
  void Load(std::string_view program, std::string_view facts) {
    engine_ = std::make_unique<Engine>();
    ASSERT_TRUE(engine_->LoadProgramText(program).ok());
    ASSERT_TRUE(engine_->LoadDatabaseText(facts).ok());
  }

  void Begin(SemanticsKind kind = SemanticsKind::kStratified,
             const serve::ServingTuning& tuning = {}) {
    EvalOptions options;
    options.serving = tuning;
    auto s = engine_->BeginServing(kind, options);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  serve::ServingSession* Session() {
    auto serving = engine_->serving();
    INFLOG_CHECK(serving.ok());
    return *serving;
  }

  Value V(const std::string& name) {
    return engine_->symbols()->Intern(name);
  }

  std::pair<std::string, Tuple> Fact(std::string rel,
                                     const std::vector<std::string>& args) {
    Tuple t;
    for (const std::string& a : args) t.push_back(V(a));
    return {std::move(rel), std::move(t)};
  }

  /// Applies one batch of named-constant inserts/deletes.
  void Update(const std::vector<std::pair<std::string, Tuple>>& inserts,
              const std::vector<std::pair<std::string, Tuple>>& deletes) {
    UpdateBatch batch;
    batch.inserts = inserts;
    batch.deletes = deletes;
    auto result = engine_->ApplyUpdate(batch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  /// The rendered answer of `line` against the current epoch.
  std::string Answer(const std::string& line) {
    auto outcome = engine_->Query(line);
    INFLOG_CHECK(outcome.ok()) << outcome.status().ToString();
    return outcome->answer.rendered;
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(ServingTest, ParseQueryCanonicalKey) {
  SymbolTable symbols;
  symbols.Intern("1");
  auto q = serve::ParseServeQuery("?T(X,Y), E(Y,Z)", symbols);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->key, "T($0,$1),E($1,$2)");
  EXPECT_EQ(q->support, (std::vector<std::string>{"E", "T"}));
  EXPECT_EQ(q->output_names, (std::vector<std::string>{"X", "Y", "Z"}));
  EXPECT_FALSE(q->ground());

  // Alpha-equivalent spelling shares the key.
  auto q2 = serve::ParseServeQuery("? T(A,B) , E(B,C) ", symbols);
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->key, q->key);

  // `_` stays `_` in the key (it is not an output) and repeats are fresh.
  auto q3 = serve::ParseServeQuery("?T(1,_), T(_,X)", symbols);
  ASSERT_TRUE(q3.ok());
  EXPECT_EQ(q3->key, "T(1,_),T(_,$0)");
  EXPECT_EQ(q3->output_names, (std::vector<std::string>{"X"}));
  EXPECT_EQ(q3->support, (std::vector<std::string>{"T"}));

  auto ground = serve::ParseServeQuery("?E(1,1)", symbols);
  ASSERT_TRUE(ground.ok());
  EXPECT_TRUE(ground->ground());
}

TEST_F(ServingTest, ParseQueryErrors) {
  SymbolTable symbols;
  EXPECT_FALSE(serve::ParseServeQuery("T(X)", symbols).ok());  // no '?'
  EXPECT_FALSE(serve::ParseServeQuery("?", symbols).ok());
  EXPECT_FALSE(serve::ParseServeQuery("?T", symbols).ok());     // no '('
  EXPECT_FALSE(serve::ParseServeQuery("?T(X", symbols).ok());   // open
  EXPECT_FALSE(serve::ParseServeQuery("?T(X,)", symbols).ok()); // empty term
  EXPECT_FALSE(serve::ParseServeQuery("?T(X) garbage", symbols).ok());
  EXPECT_FALSE(serve::ParseServeQuery("?T(X),", symbols).ok());
  // Trailing comments are fine.
  EXPECT_TRUE(serve::ParseServeQuery("?T(X)  # trailing", symbols).ok());
}

TEST_F(ServingTest, QuotedConstantKeysNeverCollide) {
  SymbolTable symbols;
  const auto key = [&](std::string_view line) {
    auto q = serve::ParseServeQuery(line, symbols);
    INFLOG_CHECK(q.ok()) << q.status().ToString();
    return q->key;
  };
  // A quoted constant is the constant: 'c' and c share one key.
  EXPECT_EQ(key("?E('c')"), "E(c)");
  EXPECT_EQ(key("?E(c)"), "E(c)");
  // A name that does not read back bare keeps its quotes, so it shares
  // no key with a variable or with two constants.
  EXPECT_EQ(key("?E('$0')"), "E('$0')");
  EXPECT_EQ(key("?E(X)"), "E($0)");
  EXPECT_EQ(key("?E('X')"), "E('X')");
  EXPECT_EQ(key("?E('a,b')"), "E('a,b')");
  auto one = serve::ParseServeQuery("?E('a,b')", symbols);
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->atoms[0].terms.size(), 1u);
  EXPECT_TRUE(one->ground());
  // Whitespace before '(' and the fact file's comments are fine.
  EXPECT_EQ(key("? E (c) % comment"), "E(c)");
  EXPECT_EQ(key("?E(c) // comment"), "E(c)");
}

// Facts, update lines and queries spell constants one way: E('c') is the
// fact E(c), and 'Foo' is a constant, not a variable.
constexpr std::string_view kQuotedFacts = "E('c'). E(d). E('Foo').";

TEST_F(ServingTest, QuotedConstantsAnswerAsTheFacts) {
  Load("P(X) :- E(X).", kQuotedFacts);
  Begin();
  EXPECT_EQ(Answer("?E('c')"), "true");
  EXPECT_EQ(Answer("?E(c)"), "true");
  EXPECT_EQ(Answer("?E('Foo')"), "true");
  EXPECT_EQ(Answer("?E(X)"), "{(c), (d), ('Foo')}");
  auto batch = ParseUpdateLine("-E('c')", engine_->symbols().get());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  auto applied = engine_->ApplyUpdate(*batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->stats.incremental_edb_deleted, 1u);
  EXPECT_EQ(Answer("?E(X)"), "{(d), ('Foo')}");
  EXPECT_EQ(Answer("?P(X)"), "{(d), ('Foo')}");
  EXPECT_EQ(Answer("?E('c')"), "false");
}

TEST_F(ServingTest, DollarIsNotATermButQuotedDollarIsAConstant) {
  for (const bool cache : {true, false}) {
    SCOPED_TRACE(cache ? "cache on" : "cache off");
    Load("P(X) :- E(X).", kQuotedFacts);
    serve::ServingTuning tuning;
    tuning.cache = cache;
    Begin(SemanticsKind::kStratified, tuning);
    EXPECT_EQ(Answer("?E('$0')"), "false");  // cold cache
    EXPECT_EQ(Answer("?E(X)"), "{(c), (d), ('Foo')}");
    EXPECT_EQ(Answer("?E('$0')"), "false");  // warm cache
    const auto dollar = engine_->Query("?E($0)");
    ASSERT_FALSE(dollar.ok());
    EXPECT_EQ(dollar.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(ServingTest, ServingGroundAndJoinQueries) {
  Load(kTwoIslandProgram, kTwoIslandFacts);
  Begin();
  EXPECT_EQ(Answer("?E(1,2)"), "true");
  EXPECT_EQ(Answer("?E(2,1)"), "false");
  EXPECT_EQ(Answer("?T(1,4)"), "true");
  // A constant the symbol table has never seen matches nothing.
  EXPECT_EQ(Answer("?E(99,98)"), "false");
  EXPECT_EQ(Answer("?T(1,X)"), "{(2), (3), (4)}");
  EXPECT_EQ(Answer("?U(X)"), "{(7), (8)}");
  EXPECT_EQ(Answer("?T(X,_)"), "{(1), (2), (3)}");
  EXPECT_EQ(Answer("?E(X,Y), E(Y,Z)"), "{(1,2,3), (2,3,4)}");
  // Repeated variables constrain within and across atoms.
  EXPECT_EQ(Answer("?T(X,X)"), "{}");
}

TEST_F(ServingTest, ServingQueryMatchesBatchRendering) {
  // The serve rendering of a whole IDB predicate must be byte-identical
  // to the batch evaluator's relation printout — the CI smoke job diffs
  // exactly this.
  Load(kTwoIslandProgram, kTwoIslandFacts);
  Begin();
  auto outcome = engine_->Evaluate(SemanticsKind::kStratified);
  ASSERT_TRUE(outcome.ok());
  auto program = engine_->program();
  ASSERT_TRUE(program.ok());
  for (const std::string name : {"T", "U"}) {
    auto rel = engine_->RelationOf(outcome->state(), name);
    ASSERT_TRUE(rel.ok());
    const std::string arity2 = "?" + name + "(X,Y)";
    const std::string arity1 = "?" + name + "(X)";
    const std::string query = (*rel)->arity() == 2 ? arity2 : arity1;
    EXPECT_EQ(Answer(query), (*rel)->ToString(*engine_->symbols()));
  }
}

TEST_F(ServingTest, WideQueryWithRepeatedVariableMatchesBatch) {
  // An 18-ary R whose last column repeats the first: the query binds 17
  // distinct variables in one atom and must answer what W, the batch
  // evaluator's copy of the same selection, holds.
  constexpr size_t kWidth = 17;
  std::string vars;
  for (size_t i = 0; i < kWidth; ++i) {
    vars += StrCat(i == 0 ? "" : ",", "X", i);
  }
  std::string facts;
  for (size_t row = 0; row < 6; ++row) {
    std::string args;
    for (size_t i = 0; i < kWidth; ++i) {
      args += StrCat(i == 0 ? "" : ",", row + i);
    }
    // Even rows close the repetition, odd rows break it.
    facts += StrCat("R(", args, ",", row % 2 == 0 ? row : 99, ").\n");
  }
  Load(StrCat("W(", vars, ") :- R(", vars, ",X0)."), facts);
  Begin();
  auto outcome = engine_->Evaluate(SemanticsKind::kStratified);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto w = engine_->RelationOf(outcome->state(), "W");
  ASSERT_TRUE(w.ok());
  ASSERT_EQ((*w)->size(), 3u);
  const std::string batch = (*w)->ToString(*engine_->symbols());
  EXPECT_EQ(Answer(StrCat("?R(", vars, ",X0)")), batch);
  EXPECT_EQ(Answer(StrCat("?W(", vars, ")")), batch);
}

TEST_F(ServingTest, ServingQueryErrors) {
  Load(kTwoIslandProgram, kTwoIslandFacts);
  Begin();
  auto unknown = engine_->Query("?Nope(X)");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  auto arity = engine_->Query("?E(X)");
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServingTest, ServingSnapshotCopyReuse) {
  Load(kTwoIslandProgram, kTwoIslandFacts);
  Begin();
  auto before = engine_->Open();
  ASSERT_TRUE(before.ok());
  Update({Fact("E", {"4", "5"})}, {});
  auto after = engine_->Open();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*before)->epoch() + 1, (*after)->epoch());
  // The untouched island is shared by pointer; the touched one is not.
  EXPECT_EQ((*before)->edb().at("S").get(), (*after)->edb().at("S").get());
  EXPECT_NE((*before)->edb().at("E").get(), (*after)->edb().at("E").get());
  auto program = engine_->program();
  ASSERT_TRUE(program.ok());
  auto t_before = (*before)->Find(**program, "T");
  auto t_after = (*after)->Find(**program, "T");
  auto u_before = (*before)->Find(**program, "U");
  auto u_after = (*after)->Find(**program, "U");
  ASSERT_TRUE(t_before.ok() && t_after.ok() && u_before.ok() &&
              u_after.ok());
  EXPECT_EQ(*u_before, *u_after);
  EXPECT_NE(*t_before, *t_after);
}

TEST_F(ServingTest, ServingCacheHitsOnRepeatedQuery) {
  Load(kTwoIslandProgram, kTwoIslandFacts);
  Begin();
  const std::string first = Answer("?T(1,X)");
  const std::string second = Answer("?T(1,X)");
  const std::string alpha = Answer("?T(1,Q)");  // same canonical key
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, alpha);
  const EvalStats stats = Session()->stats();
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.serve_queries, 3u);
}

TEST_F(ServingTest, ServingCachePreciseInvalidation) {
  Load(kTwoIslandProgram, kTwoIslandFacts);
  Begin();
  Answer("?U(X)");    // support {U}
  Answer("?T(1,X)");  // support {T}
  Answer("?S(X)");    // support {S}
  // Touch the E/T island only.
  Update({Fact("E", {"4", "5"})}, {});
  const EvalStats before = Session()->stats();
  // The T entry died; the U and S entries survived the epoch bump.
  EXPECT_EQ(before.cache_invalidations, 1u);
  EXPECT_EQ(Answer("?U(X)"), "{(7), (8)}");
  EXPECT_EQ(Answer("?S(X)"), "{(7), (8)}");
  EXPECT_EQ(Answer("?T(1,X)"), "{(2), (3), (4), (5)}");
  const EvalStats after = Session()->stats();
  EXPECT_EQ(after.cache_hits, before.cache_hits + 2);
  EXPECT_EQ(after.cache_invalidations, 1u);
}

TEST_F(ServingTest, ServingCacheDisabled) {
  Load(kTwoIslandProgram, kTwoIslandFacts);
  serve::ServingTuning tuning;
  tuning.cache = false;
  Begin(SemanticsKind::kStratified, tuning);
  const std::string first = Answer("?T(1,X)");
  EXPECT_EQ(first, Answer("?T(1,X)"));
  const EvalStats stats = Session()->stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.serve_queries, 2u);
}

TEST_F(ServingTest, ServingCacheLateInsertCannotResurrect) {
  serve::QueryCache cache;
  serve::ServeAnswer stale;
  stale.rendered = "{(stale)}";
  // The cache advanced to epoch 2 with a delta that would have killed
  // this entry; a reader still pinned to epoch 1 must not seed it.
  const std::vector<std::string> touched = {"T"};
  cache.Advance(&touched, 2);
  cache.Insert("T($0)", 1, {"T"}, stale);
  EXPECT_EQ(cache.size(), 0u);
  // And an insert at the current epoch is accepted.
  cache.Insert("T($0)", 2, {"T"}, stale);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ServingTest, ServingEpochVisibility) {
  Load(kTwoIslandProgram, kTwoIslandFacts);
  Begin();
  auto old_snap = engine_->Open();
  ASSERT_TRUE(old_snap.ok());
  Update({Fact("E", {"4", "5"})}, {});
  // The retired pin answers from its own epoch, the fresh pin from the
  // new one; the cache cannot leak across (entries are epoch-tagged).
  auto old_answer = engine_->Query("?T(1,X)", *old_snap);
  ASSERT_TRUE(old_answer.ok());
  EXPECT_EQ(old_answer->answer.rendered, "{(2), (3), (4)}");
  EXPECT_EQ(Answer("?T(1,X)"), "{(2), (3), (4), (5)}");
  auto old_again = engine_->Query("?T(1,X)", *old_snap);
  ASSERT_TRUE(old_again.ok());
  EXPECT_EQ(old_again->answer.rendered, "{(2), (3), (4)}");
}

TEST_F(ServingTest, ServingUpdateCoalescing) {
  Load(kTwoIslandProgram, kTwoIslandFacts);
  serve::ServingTuning tuning;
  tuning.update_batch = 3;
  Begin(SemanticsKind::kStratified, tuning);
  serve::ServingSession* session = Session();
  const uint64_t epoch0 = session->epoch();

  UpdateBatch ins;
  ins.inserts.push_back(Fact("E", {"4", "5"}));
  UpdateBatch del;
  del.deletes.push_back(Fact("E", {"4", "5"}));
  // Two lines buffer without publishing...
  auto r1 = session->Enqueue(ins);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->has_value());
  auto r2 = session->Enqueue(del);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->has_value());
  EXPECT_EQ(session->epoch(), epoch0);
  // ...the third flushes the window as ONE batch. Within a window the
  // documented netting applies: deletes first, inserts win — so the
  // +E(4,5) survives its own window's -E(4,5).
  UpdateBatch more;
  more.inserts.push_back(Fact("E", {"5", "6"}));
  auto r3 = session->Enqueue(more);
  ASSERT_TRUE(r3.ok());
  ASSERT_TRUE(r3->has_value());
  EXPECT_EQ(session->epoch(), epoch0 + 1);
  EXPECT_EQ(Answer("?E(4,5)"), "true");
  EXPECT_EQ(Answer("?T(1,X)"), "{(2), (3), (4), (5), (6)}");
  const EvalStats stats = session->stats();
  EXPECT_EQ(stats.serve_updates, 3u);
  EXPECT_EQ(stats.serve_batched_updates, 3u);
  EXPECT_EQ(stats.serve_epochs_published, 2u);  // epoch 0 + one flush

  // A partial window flushes on demand.
  auto r4 = session->Enqueue(ins);
  ASSERT_TRUE(r4.ok());
  EXPECT_FALSE(r4->has_value());
  auto flushed = session->Flush();
  ASSERT_TRUE(flushed.ok());
  EXPECT_TRUE(flushed->has_value());
  auto empty = session->Flush();
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());
}

TEST_F(ServingTest, ServingPeriodicCompaction) {
  // A delete-heavy stream: with the threshold at 0 nothing compacts;
  // with a low threshold the dead rows are reclaimed — and the answers
  // are identical either way.
  const std::string_view program = "T(X,Y) :- E(X,Y).";
  std::string facts;
  for (int i = 0; i < 200; ++i) {
    facts += "E(a" + std::to_string(i) + ",b). ";
  }
  for (const double threshold : {0.0, 0.1}) {
    Load(program, facts);
    serve::ServingTuning tuning;
    tuning.compact_threshold = threshold;
    Begin(SemanticsKind::kStratified, tuning);
    for (int i = 0; i < 150; ++i) {
      Update({}, {Fact("E", {StrCat("a", i), "b"})});
    }
    const EvalStats stats = Session()->stats();
    if (threshold == 0.0) {
      EXPECT_EQ(stats.serve_compactions, 0u);
    } else {
      EXPECT_GT(stats.serve_compactions, 0u);
    }
    EXPECT_EQ(Answer("?E(a199,b)"), "true");
    EXPECT_EQ(Answer("?E(a0,b)"), "false");
    EXPECT_EQ(Answer("?T(a150,Y)"), "{(b)}");
    auto state = engine_->IncrementalState();
    ASSERT_TRUE(state.ok());
    EXPECT_EQ((*state)->relations[0].size(), 50u);
  }
}

TEST_F(ServingTest, ServingOracleFallbackInvalidatesEverything) {
  // Well-founded maintenance recomputes per update; the cache must treat
  // that as "everything changed" (conservative changed_relations).
  Load("T(X) :- E(X), !S(X).\nU(X) :- S(X).", "E(1). E(2). S(2).");
  Begin(SemanticsKind::kWellFounded);
  EXPECT_EQ(Answer("?U(X)"), "{(2)}");
  EXPECT_EQ(Answer("?T(X)"), "{(1)}");
  UpdateBatch batch;
  batch.inserts.push_back(Fact("E", {"3"}));
  auto result = engine_->ApplyUpdate(batch);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_oracle);
  // Both entries died even though the update only touched E.
  EXPECT_EQ(Session()->stats().cache_invalidations, 2u);
  EXPECT_EQ(Answer("?U(X)"), "{(2)}");
  EXPECT_EQ(Answer("?T(X)"), "{(1), (3)}");
  EXPECT_EQ(Session()->stats().cache_hits, 0u);
}

TEST_F(ServingTest, ServingEngineApiLifecycle) {
  Load(kTwoIslandProgram, kTwoIslandFacts);
  // Everything fails before BeginServing...
  EXPECT_FALSE(engine_->Open().ok());
  EXPECT_FALSE(engine_->Query("?E(1,2)").ok());
  EXPECT_FALSE(engine_->serving().ok());
  EXPECT_FALSE(engine_->HasServingSession());
  Begin();
  EXPECT_TRUE(engine_->HasServingSession());
  EXPECT_EQ(Answer("?E(1,2)"), "true");
  // ApplyUpdate routes through the serving session and the maintained
  // state is reachable through the incremental accessors.
  Update({Fact("S", {"9"})}, {});
  EXPECT_EQ(Answer("?U(X)"), "{(7), (8), (9)}");
  ASSERT_TRUE(engine_->IncrementalState().ok());
  // A pinned handle survives EndServing (it owns its sealed state).
  auto snap = engine_->Open();
  ASSERT_TRUE(snap.ok());
  engine_->EndServing();
  EXPECT_FALSE(engine_->HasServingSession());
  EXPECT_FALSE(engine_->Query("?E(1,2)").ok());
  EXPECT_EQ((*snap)->epoch(), 1u);
  auto program = engine_->program();
  ASSERT_TRUE(program.ok());
  auto rel = (*snap)->Find(**program, "U");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 3u);
  // Loading new text drops the session.
  Begin();
  ASSERT_TRUE(engine_->LoadDatabaseText("E(8,9).").ok());
  EXPECT_FALSE(engine_->HasServingSession());
}

TEST_F(ServingTest, ServingRegistryCounters) {
  Load(kTwoIslandProgram, kTwoIslandFacts);
  Begin();
  const serve::SnapshotRegistry& registry = Session()->registry();
  EXPECT_EQ(registry.epochs_published(), 1u);
  EXPECT_EQ(registry.live_snapshots(), 1);
  {
    auto pinned = engine_->Open();
    ASSERT_TRUE(pinned.ok());
    Update({Fact("E", {"4", "5"})}, {});
    EXPECT_EQ(registry.epochs_published(), 2u);
    // The pinned epoch 0 is still alive alongside the current epoch 1.
    EXPECT_EQ(registry.live_snapshots(), 2);
  }
  // Dropping the last handle retires the old epoch.
  EXPECT_EQ(registry.live_snapshots(), 1);
  EXPECT_GE(registry.pins(), 1u);
  // Per-snapshot stats freeze the counters at seal time.
  auto snap = engine_->Open();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->stats().serve_updates, 1u);
}

// The snapshot-isolation sweep (the TSan satellite): readers pin
// snapshots and query them while the writer streams updates; afterwards
// every pinned epoch is re-evaluated from scratch (via
// DatabaseSnapshot::ToDatabase) and each recorded answer re-derived
// against the rebuilt epoch must match byte-for-byte.
TEST_F(ServingTest, ServingConcurrentReadersSeeConsistentSnapshots) {
  const std::vector<std::string> queries = {
      "?T(1,X)", "?E(X,Y), T(Y,Z)", "?T(1,9)", "?U(X)", "?T(X,_)"};
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    for (const StageScheduler scheduler :
         {StageScheduler::kStatic, StageScheduler::kStealing,
          StageScheduler::kAuto}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " scheduler="
                   << static_cast<int>(scheduler));
      auto symbols = std::make_shared<SymbolTable>();
      Program program = testing::MustProgram(kTwoIslandProgram, symbols);
      Database database(symbols);
      {
        auto parsed = ParseDatabaseInto(kTwoIslandFacts, &database);
        ASSERT_TRUE(parsed.ok());
      }
      IncrementalOptions options;
      options.semantics = MaintainedSemantics::kStratified;
      options.context.num_threads = 2;
      options.context.num_shards = shards;
      options.context.scheduler = scheduler;
      auto session =
          serve::ServingSession::Create(program, &database, options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();

      struct Record {
        serve::SnapshotHandle snap;
        std::vector<std::string> answers;  // parallel to `queries`
      };
      constexpr size_t kReaders = 4;
      std::vector<std::vector<Record>> records(kReaders);
      std::atomic<bool> done{false};
      std::vector<std::thread> readers;
      readers.reserve(kReaders);
      for (size_t r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
          // Keep reading until the writer is done AND this reader has
          // sampled a few epochs — on a loaded box the writer can finish
          // before a reader's first slice otherwise.
          while (!done.load(std::memory_order_acquire) ||
                 records[r].size() < 3) {
            Record record;
            record.snap = (*session)->Pin();
            for (const std::string& q : queries) {
              auto outcome = (*session)->Query(q, record.snap);
              INFLOG_CHECK(outcome.ok()) << outcome.status().ToString();
              record.answers.push_back(outcome->answer.rendered);
            }
            records[r].push_back(std::move(record));
          }
        });
      }
      // The writer: grow a chain, cut it, regrow — every epoch differs.
      SymbolTable* syms = symbols.get();
      const auto edge = [&](const std::string& a, const std::string& b) {
        return std::make_pair(std::string("E"),
                              Tuple{syms->Intern(a), syms->Intern(b)});
      };
      const std::vector<UpdateBatch> stream = [&] {
        std::vector<UpdateBatch> s(6);
        s[0].inserts = {edge("4", "5")};
        s[1].inserts = {edge("5", "6")};
        s[2].deletes = {edge("2", "3")};
        s[3].inserts = {edge("2", "3")};
        s[4].deletes = {edge("1", "2")};
        s[5].inserts = {edge("1", "2"), edge("6", "7")};
        return s;
      }();
      for (const UpdateBatch& batch : stream) {
        auto result = (*session)->ApplyUpdate(batch);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::this_thread::yield();  // let readers interleave with epochs
      }
      done.store(true, std::memory_order_release);
      for (std::thread& t : readers) t.join();

      // Oracle pass: one from-scratch evaluation per distinct epoch.
      std::map<uint64_t, Record*> by_epoch;
      size_t total_records = 0;
      for (auto& reader_records : records) {
        for (Record& record : reader_records) {
          ++total_records;
          Record*& slot = by_epoch[record.snap->epoch()];
          if (slot == nullptr) {
            slot = &record;
            continue;
          }
          // Two readers at the same epoch must agree byte-for-byte.
          EXPECT_EQ(record.answers, slot->answers)
              << "epoch " << record.snap->epoch();
        }
      }
      EXPECT_GT(total_records, 0u);
      for (auto& [epoch, record] : by_epoch) {
        auto oracle_db = record->snap->ToDatabase();
        ASSERT_TRUE(oracle_db.ok()) << oracle_db.status().ToString();
        StratifiedOptions scratch;  // serial, unsharded: the baseline
        auto fresh = EvalStratified(program, *oracle_db, scratch);
        ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
        serve::SnapshotRegistry oracle_registry;
        oracle_registry.Publish(program, *oracle_db, fresh->state,
                                /*changed_relations=*/nullptr, EvalStats{});
        const serve::SnapshotHandle oracle_snap = oracle_registry.Pin();
        for (size_t q = 0; q < queries.size(); ++q) {
          auto parsed =
              serve::ParseServeQuery(queries[q], oracle_snap->symbols());
          ASSERT_TRUE(parsed.ok());
          auto expected =
              serve::EvalServeQuery(*parsed, program, *oracle_snap);
          ASSERT_TRUE(expected.ok()) << expected.status().ToString();
          EXPECT_EQ(record->answers[q], expected->rendered)
              << "epoch " << epoch << " query " << queries[q];
        }
      }
    }
  }
}

}  // namespace
}  // namespace inflog
