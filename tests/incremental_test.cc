// Tests for incremental view maintenance (src/eval/incremental.h): DRed
// on non-recursive units (duplicate derivations, multi-rule support,
// negation across strata) and on recursive ones (alternate-path
// rederivation, cycle-disconnecting deletes), the oracle fallbacks
// (grounded semantics, non-positive inflationary programs, universe
// growth under active-domain negation), batch netting, error paths, and
// the ParseUpdateLine format. Every maintained state is cross-checked
// against a from-scratch evaluation of the mutated database — the same
// oracle EvalOptions::verify_incremental applies per update.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/base/strings.h"
#include "src/core/engine.h"
#include "src/eval/incremental.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

using testing::MustDatabase;
using testing::TuplesOf;

class IncrementalTest : public ::testing::Test {
 protected:
  /// Loads program + database text into a fresh engine.
  void Load(std::string_view program, std::string_view facts) {
    engine_ = std::make_unique<Engine>();
    ASSERT_TRUE(engine_->LoadProgramText(program).ok());
    ASSERT_TRUE(engine_->LoadDatabaseText(facts).ok());
  }

  Value V(const std::string& name) { return engine_->symbols()->Intern(name); }

  /// One (relation, tuple) update entry with named constants.
  std::pair<std::string, Tuple> Fact(std::string rel,
                                     const std::vector<std::string>& args) {
    Tuple t;
    for (const std::string& a : args) t.push_back(V(a));
    return {std::move(rel), std::move(t)};
  }

  /// The maintained state must equal a from-scratch evaluation of the
  /// (already mutated) database under the session's semantics.
  void ExpectMatchesScratch(SemanticsKind kind) {
    auto state = engine_->IncrementalState();
    ASSERT_TRUE(state.ok());
    auto fresh = engine_->Evaluate(kind);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ASSERT_EQ((*state)->relations.size(), fresh->state().relations.size());
    for (size_t i = 0; i < fresh->state().relations.size(); ++i) {
      EXPECT_EQ(TuplesOf(*engine_->symbols(), (*state)->relations[i]),
                TuplesOf(*engine_->symbols(), fresh->state().relations[i]))
          << "relation " << i;
    }
  }

  /// The tuples of IDB predicate `name` in the maintained state.
  std::vector<std::vector<std::string>> Maintained(std::string_view name) {
    auto state = engine_->IncrementalState();
    INFLOG_CHECK(state.ok());
    auto program = engine_->program();
    INFLOG_CHECK(program.ok());
    return TuplesOf(*engine_->symbols(),
                    testing::IdbRelation(**program, **state, name));
  }

  std::unique_ptr<Engine> engine_;
};

// --- Non-recursive units. ---

TEST_F(IncrementalTest, CountingInsertAndDelete) {
  Load("P(X,Z) :- A(X,Y), B(Y,Z).", "A(1,2). B(2,3).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());
  EXPECT_EQ(Maintained("P"),
            (std::vector<std::vector<std::string>>{{"1", "3"}}));

  auto r = engine_->ApplyUpdate({Fact("A", {"5", "2"})}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->used_oracle);
  EXPECT_EQ(r->stats.incremental_dred_units, 1u);
  EXPECT_EQ(r->stats.incremental_idb_inserted, 1u);
  ExpectMatchesScratch(SemanticsKind::kStratified);

  r = engine_->ApplyUpdate({}, {Fact("B", {"2", "3"})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.incremental_idb_deleted, 2u);
  EXPECT_TRUE(Maintained("P").empty());
  ExpectMatchesScratch(SemanticsKind::kStratified);
}

TEST_F(IncrementalTest, CountingKeepsTuplesWithSurvivingDerivations) {
  // P(1) has two derivations (through Y=2 and Y=3): deleting one support
  // must not delete the tuple. DRed prunes it and re-derives it through
  // the other, so it nets out: neither P nor the downstream Q changed,
  // and Q's unit is not maintained at all.
  Load("P(X) :- A(X,Y).\nQ(X) :- P(X).", "A(1,2). A(1,3).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());

  auto r = engine_->ApplyUpdate({}, {Fact("A", {"1", "2"})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Maintained("P"), (std::vector<std::vector<std::string>>{{"1"}}));
  EXPECT_EQ(r->stats.incremental_idb_deleted, 0u);
  EXPECT_EQ(r->stats.incremental_rederived, 1u);
  EXPECT_EQ(r->stats.incremental_dred_units, 1u);
  EXPECT_EQ(r->changed_relations, (std::vector<std::string>{"A"}));

  r = engine_->ApplyUpdate({}, {Fact("A", {"1", "3"})});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(Maintained("P").empty());
  ExpectMatchesScratch(SemanticsKind::kStratified);
}

TEST_F(IncrementalTest, CountingSumsSupportAcrossRules) {
  // The same tuple derived by two different rules: each rule contributes
  // its own derivations to the count.
  Load("P(X) :- A(X,Y).\nP(X) :- B(X,Y).", "A(1,7). B(1,8).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());

  auto r = engine_->ApplyUpdate({}, {Fact("A", {"1", "7"})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Maintained("P"), (std::vector<std::vector<std::string>>{{"1"}}));

  r = engine_->ApplyUpdate({}, {Fact("B", {"1", "8"})});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(Maintained("P").empty());
  ExpectMatchesScratch(SemanticsKind::kStratified);
}

TEST_F(IncrementalTest, CountingAcrossNegation) {
  // Q lives in a lower stratum than P; inserting A(2,2) derives Q(2),
  // which must *retract* P(2) through the negation — and deleting it must
  // bring P(2) back.
  Load("Q(X) :- A(X,X).\nP(X) :- S(X), !Q(X).", "S(1). S(2). A(1,3).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());
  EXPECT_EQ(Maintained("P"),
            (std::vector<std::vector<std::string>>{{"1"}, {"2"}}));

  auto r = engine_->ApplyUpdate({Fact("A", {"2", "2"})}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->used_oracle);
  EXPECT_EQ(Maintained("P"), (std::vector<std::vector<std::string>>{{"1"}}));
  ExpectMatchesScratch(SemanticsKind::kStratified);

  r = engine_->ApplyUpdate({}, {Fact("A", {"2", "2"})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Maintained("P"),
            (std::vector<std::vector<std::string>>{{"1"}, {"2"}}));
  ExpectMatchesScratch(SemanticsKind::kStratified);
}

// --- Recursive units. ---

constexpr char kTc[] = "T(X,Y) :- E(X,Y).\nT(X,Z) :- T(X,Y), E(Y,Z).";

TEST_F(IncrementalTest, DRedRederivesThroughAlternatePath) {
  // Two paths 1→4; deleting an edge of one must keep every closure tuple
  // the other still supports (the over-deletion is rederived back).
  Load(kTc, "E(1,2). E(2,4). E(1,3). E(3,4). E(4,5).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());

  auto r = engine_->ApplyUpdate({}, {Fact("E", {"2", "4"})});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->used_oracle);
  EXPECT_EQ(r->stats.incremental_dred_units, 1u);
  EXPECT_GT(r->stats.incremental_rederived, 0u);
  // (1,4) and (1,5) survive via 1→3→4; only (2,4) and (2,5) die.
  EXPECT_EQ(r->stats.incremental_idb_deleted, 2u);
  ExpectMatchesScratch(SemanticsKind::kStratified);
}

TEST_F(IncrementalTest, DRedCycleDisconnectingDelete) {
  // A 4-cycle's closure is all 16 pairs; removing one edge leaves the
  // chain closure (6 pairs). The deleted edge supported *every* tuple
  // transitively through the cycle, so DRed must prune deep and rederive
  // precisely the chain part.
  Load(kTc, "E(1,2). E(2,3). E(3,4). E(4,1).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());
  EXPECT_EQ(Maintained("T").size(), 16u);

  auto r = engine_->ApplyUpdate({}, {Fact("E", {"4", "1"})});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->used_oracle);
  EXPECT_EQ(Maintained("T").size(), 6u);
  ExpectMatchesScratch(SemanticsKind::kStratified);

  // Reconnect: insertion seeds must regrow the full cyclic closure.
  r = engine_->ApplyUpdate({Fact("E", {"4", "1"})}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Maintained("T").size(), 16u);
  ExpectMatchesScratch(SemanticsKind::kStratified);
}

TEST_F(IncrementalTest, MixedBatchOnRecursiveAndNonRecursiveUnits) {
  // One update batch touching a non-recursive unit (D) and a recursive
  // one (T) at once, with both an insert and a delete.
  Load("T(X,Y) :- E(X,Y).\nT(X,Z) :- T(X,Y), E(Y,Z).\nD(X) :- T(X,X).",
       "E(1,2). E(2,1). E(2,3).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());
  EXPECT_EQ(Maintained("D"),
            (std::vector<std::vector<std::string>>{{"1"}, {"2"}}));

  auto r = engine_->ApplyUpdate({Fact("E", {"3", "1"})},
                                {Fact("E", {"2", "1"})});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->used_oracle);
  EXPECT_EQ(r->stats.incremental_dred_units, 2u);
  // The cycle now runs 1→2→3→1: everyone still reaches themselves.
  EXPECT_EQ(Maintained("D"),
            (std::vector<std::vector<std::string>>{{"1"}, {"2"}, {"3"}}));
  ExpectMatchesScratch(SemanticsKind::kStratified);
}

// --- Netting and no-ops. ---

TEST_F(IncrementalTest, EmptyDeltaIsANoOp) {
  Load(kTc, "E(1,2). E(2,3).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());

  // Inserting a present fact and deleting an absent one both net to
  // nothing; the update must not touch any unit.
  auto r = engine_->ApplyUpdate({Fact("E", {"1", "2"})},
                                {Fact("E", {"7", "8"})});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->used_oracle);
  EXPECT_EQ(r->stats.incremental_edb_inserted, 0u);
  EXPECT_EQ(r->stats.incremental_edb_deleted, 0u);
  EXPECT_EQ(r->stats.incremental_dred_units, 0u);
  ExpectMatchesScratch(SemanticsKind::kStratified);

  // A fully empty batch is legal too.
  r = engine_->ApplyUpdate({}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.incremental_edb_inserted, 0u);
}

TEST_F(IncrementalTest, InsertWinsOverDeleteOfTheSameTuple) {
  Load(kTc, "E(1,2).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());

  // The same absent tuple both inserted and deleted in one batch:
  // inserts win, so E(2,3) lands and T grows.
  auto r = engine_->ApplyUpdate({Fact("E", {"2", "3"})},
                                {Fact("E", {"2", "3"})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.incremental_edb_inserted, 1u);
  EXPECT_EQ(r->stats.incremental_edb_deleted, 0u);
  EXPECT_EQ(Maintained("T").size(), 3u);
  ExpectMatchesScratch(SemanticsKind::kStratified);
}

// --- Fallbacks. ---

TEST_F(IncrementalTest, InflationaryPositiveMaintainsIncrementally) {
  Load(kTc, "E(1,2). E(2,3).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kInflationary).ok());

  auto r = engine_->ApplyUpdate({Fact("E", {"3", "4"})}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->used_oracle);
  ExpectMatchesScratch(SemanticsKind::kInflationary);

  r = engine_->ApplyUpdate({}, {Fact("E", {"2", "3"})});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->used_oracle);
  ExpectMatchesScratch(SemanticsKind::kInflationary);
}

TEST_F(IncrementalTest, InflationaryWithNegationFallsBackToOracle) {
  // Θ^∞ of a non-positive program is not maintainable by DRed
  // (the inflationary union is order-sensitive); every update must run
  // the recompute oracle and still land on the right state.
  Load("T(X) :- E(Y,X), !T(Y).", "E(1,2). E(2,3).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kInflationary).ok());

  auto r = engine_->ApplyUpdate({Fact("E", {"3", "4"})}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->used_oracle);
  EXPECT_EQ(r->stats.incremental_oracle_runs, 1u);
  ExpectMatchesScratch(SemanticsKind::kInflationary);
}

TEST_F(IncrementalTest, GroundedSemanticsFallBackToOracle) {
  Load("W(X) :- E(X,Y), !W(Y).", "E(1,2). E(2,3).");
  for (SemanticsKind kind :
       {SemanticsKind::kWellFounded, SemanticsKind::kStable}) {
    ASSERT_TRUE(engine_->BeginIncremental(kind).ok());
    auto r = engine_->ApplyUpdate({Fact("E", {"3", "4"})}, {});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->used_oracle);
    ExpectMatchesScratch(kind);
    // Undo so the second semantics starts from the same database.
    ASSERT_TRUE(engine_->ApplyUpdate({}, {Fact("E", {"3", "4"})}).ok());
  }
}

TEST_F(IncrementalTest, StableOracleRecomputeCarriesSatCounters) {
  // The win-move game on a cycle: the recompute behind each update of a
  // stable session runs the CDCL search for its models, and that search's
  // counters belong to the update and to the session's totals.
  Load("W(X) :- M(X,Y), !W(Y).", "M(1,2). M(2,3). M(3,4). M(4,1).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStable).ok());
  auto r = engine_->ApplyUpdate({Fact("M", {"1", "3"})}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->used_oracle);
  EXPECT_GT(r->stats.sat_propagations, 0u);
  auto cumulative = engine_->IncrementalStats();
  ASSERT_TRUE(cumulative.ok());
  EXPECT_EQ((*cumulative)->sat_propagations, r->stats.sat_propagations);
  ExpectMatchesScratch(SemanticsKind::kStable);
}

TEST_F(IncrementalTest, UniverseGrowthUnderActiveDomainNegationUsesOracle) {
  // Y is bound only under negation: the rule reads Y over the active
  // domain, so an update that grows the universe can change matches far
  // from the delta — the maintainer must recompute. An update over known
  // constants stays incremental.
  Load("P(X,Y) :- S(X), !R(X,Y).", "S(1). R(1,1). @universe 1 2.");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());

  auto r = engine_->ApplyUpdate({Fact("R", {"1", "2"})}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->used_oracle);
  ExpectMatchesScratch(SemanticsKind::kStratified);

  r = engine_->ApplyUpdate({Fact("S", {"9"})}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->used_oracle);
  ExpectMatchesScratch(SemanticsKind::kStratified);
}

TEST_F(IncrementalTest, VerifyIncrementalCrossChecksEveryUpdate) {
  Load(kTc, "E(1,2). E(2,3). E(3,1).");
  EvalOptions options;
  options.verify_incremental = true;
  ASSERT_TRUE(
      engine_->BeginIncremental(SemanticsKind::kStratified, options).ok());
  ASSERT_TRUE(engine_->ApplyUpdate({Fact("E", {"3", "4"})}, {}).ok());
  ASSERT_TRUE(engine_->ApplyUpdate({}, {Fact("E", {"3", "1"})}).ok());
  ASSERT_TRUE(engine_->ApplyUpdate({Fact("E", {"3", "1"})},
                                   {Fact("E", {"1", "2"})})
                  .ok());
  ExpectMatchesScratch(SemanticsKind::kStratified);
}

// --- Session lifecycle and error paths. ---

TEST_F(IncrementalTest, ApplyUpdateRequiresASession) {
  Load(kTc, "E(1,2).");
  auto r = engine_->ApplyUpdate({Fact("E", {"2", "3"})}, {});
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(engine_->HasIncrementalSession());
}

TEST_F(IncrementalTest, LoadingDropsTheSession) {
  Load(kTc, "E(1,2).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());
  EXPECT_TRUE(engine_->HasIncrementalSession());
  ASSERT_TRUE(engine_->LoadDatabaseText("E(9,9).").ok());
  EXPECT_FALSE(engine_->HasIncrementalSession());
}

TEST_F(IncrementalTest, RejectsUnknownAndDerivedRelations) {
  Load(kTc, "E(1,2).");
  ASSERT_TRUE(engine_->BeginIncremental(SemanticsKind::kStratified).ok());

  EXPECT_FALSE(engine_->ApplyUpdate({Fact("Nope", {"1"})}, {}).ok());
  EXPECT_FALSE(engine_->ApplyUpdate({Fact("T", {"1", "2"})}, {}).ok());
  EXPECT_FALSE(engine_->ApplyUpdate({Fact("E", {"1"})}, {}).ok());  // arity

  // A failed batch must not have half-applied: the state is untouched.
  ExpectMatchesScratch(SemanticsKind::kStratified);
}

// --- ParseUpdateLine. ---

TEST(ParseUpdateLineTest, ParsesInsertsDeletesAndComments) {
  auto symbols = std::make_shared<SymbolTable>();
  auto batch = ParseUpdateLine("+E(a,b) -E(c) +F(x, y)", symbols.get());
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->inserts.size(), 2u);
  ASSERT_EQ(batch->deletes.size(), 1u);
  EXPECT_EQ(batch->inserts[0].first, "E");
  EXPECT_EQ(batch->inserts[0].second,
            (Tuple{symbols->Intern("a"), symbols->Intern("b")}));
  EXPECT_EQ(batch->deletes[0].first, "E");
  EXPECT_EQ(batch->inserts[1].first, "F");

  auto empty = ParseUpdateLine("   # just a comment", symbols.get());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  auto trailing = ParseUpdateLine("+E(a,b)  # add an edge", symbols.get());
  ASSERT_TRUE(trailing.ok());
  EXPECT_EQ(trailing->inserts.size(), 1u);
}

TEST(ParseUpdateLineTest, RejectsMalformedTokens) {
  auto symbols = std::make_shared<SymbolTable>();
  EXPECT_FALSE(ParseUpdateLine("E(a,b)", symbols.get()).ok());   // no sign
  EXPECT_FALSE(ParseUpdateLine("+E(a,b", symbols.get()).ok());   // no ')'
  EXPECT_FALSE(ParseUpdateLine("+E a,b)", symbols.get()).ok());  // no '('
  EXPECT_FALSE(ParseUpdateLine("+(a)", symbols.get()).ok());     // no name
  EXPECT_FALSE(ParseUpdateLine("+E(a,)", symbols.get()).ok());   // bad arg
}

TEST(ParseUpdateLineTest, QuotedConstantsNameTheFactsValues) {
  Database db = MustDatabase("E('c'). E('Foo').");
  SymbolTable* symbols = &db.symbols();
  const Value c = symbols->Find("c");
  const Value foo = symbols->Find("Foo");
  ASSERT_NE(c, kNoValue);
  ASSERT_NE(foo, kNoValue);
  const size_t interned = symbols->size();
  auto batch =
      ParseUpdateLine("-E('c') +E('c') +E (c) % comment", symbols);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->deletes.size(), 1u);
  ASSERT_EQ(batch->inserts.size(), 2u);
  EXPECT_EQ(batch->deletes[0].second, Tuple{c});
  EXPECT_EQ(batch->inserts[0].second, Tuple{c});
  EXPECT_EQ(batch->inserts[1].second, Tuple{c});
  auto quoted = ParseUpdateLine("-E('Foo') // comment", symbols);
  ASSERT_TRUE(quoted.ok()) << quoted.status().ToString();
  EXPECT_EQ(quoted->deletes[0].second, Tuple{foo});
  EXPECT_EQ(symbols->size(), interned);  // nothing new was interned
}

TEST(ParseUpdateLineTest, RejectsVariablesAndBareSymbolsAsFactsDo) {
  auto symbols = std::make_shared<SymbolTable>();
  const auto fact = ParseDatabase("E(Foo).");
  const auto update = ParseUpdateLine("+E(Foo)", symbols.get());
  ASSERT_FALSE(fact.ok());
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(update.status().message().find("facts must be ground"),
            std::string::npos)
      << update.status().ToString();
  // Names the lexer does not read as one constant must be quoted.
  for (const char* name : {"$0", "-1", "1.5", "a-b"}) {
    EXPECT_FALSE(
        ParseUpdateLine(StrCat("+E(", name, ")"), symbols.get()).ok())
        << name;
    auto quoted = ParseUpdateLine(StrCat("+E('", name, "')"), symbols.get());
    ASSERT_TRUE(quoted.ok()) << name;
    EXPECT_EQ(quoted->inserts[0].second, Tuple{symbols->Find(name)});
  }
}

}  // namespace
}  // namespace inflog
