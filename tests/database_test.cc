// Database snapshot/merge coverage under mixed-arity predicates.
//
// The evaluators snapshot databases by value (Database's copy semantics:
// relation rows transfer, lazily built column indexes do not) and merge
// fact sets additively (ParseDatabaseInto / AddFact on a live database,
// and Database::MergeFrom for whole-database unions). These paths were
// previously exercised only indirectly through the semantics tests; this
// file pins them down directly with relations of arity 0 through 3, and
// pins the order of the evaluation universe (Database::UniverseWith).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/relation/database.h"
#include "src/relation/relation.h"

namespace inflog {
namespace {

/// A database holding one relation of each arity 0..3 over a few symbols.
Database MixedArityDb() {
  Database db;
  INFLOG_CHECK(db.AddFact("Flag", Tuple{}).ok());  // arity 0
  INFLOG_CHECK(db.AddFactNamed("V", {"a"}).ok());
  INFLOG_CHECK(db.AddFactNamed("V", {"b"}).ok());
  INFLOG_CHECK(db.AddFactNamed("E", {"a", "b"}).ok());
  INFLOG_CHECK(db.AddFactNamed("E", {"b", "c"}).ok());
  INFLOG_CHECK(db.AddFactNamed("T", {"a", "b", "c"}).ok());
  return db;
}

TEST(DatabaseSnapshotTest, CopyIsDeepAcrossMixedArities) {
  Database db = MixedArityDb();
  Database snapshot = db;  // the evaluators' snapshot path

  // The snapshot sees the same relations and universe...
  for (const char* name : {"Flag", "V", "E", "T"}) {
    auto original = db.GetRelation(name);
    auto copied = snapshot.GetRelation(name);
    ASSERT_TRUE(original.ok() && copied.ok()) << name;
    EXPECT_EQ(**original, **copied) << name;
  }
  EXPECT_EQ(snapshot.universe(), db.universe());
  EXPECT_EQ(snapshot.ToString(), db.ToString());

  // ...but growing one side never leaks into the other.
  ASSERT_TRUE(snapshot.AddFactNamed("E", {"c", "d"}).ok());
  ASSERT_TRUE(db.AddFactNamed("V", {"z"}).ok());
  EXPECT_EQ((*snapshot.GetRelation("E"))->size(), 3u);
  EXPECT_EQ((*db.GetRelation("E"))->size(), 2u);
  EXPECT_EQ((*snapshot.GetRelation("V"))->size(), 2u);
  EXPECT_EQ((*db.GetRelation("V"))->size(), 3u);
  const Value d = db.symbols().Find("d");
  ASSERT_NE(d, kNoValue);  // copies share the symbol table by design
  EXPECT_TRUE(snapshot.InUniverse(d));
  EXPECT_FALSE(db.InUniverse(d));
}

TEST(DatabaseSnapshotTest, CopyAssignReplacesContents) {
  Database db = MixedArityDb();
  Database other;
  ASSERT_TRUE(other.AddFactNamed("X", {"q"}).ok());
  other = db;
  EXPECT_FALSE(other.HasRelation("X"));
  EXPECT_TRUE(other.HasRelation("T"));
  EXPECT_EQ(other.RelationNames(), db.RelationNames());
}

TEST(DatabaseMergeTest, SameSymbolTableUnionsFactsAndUniverse) {
  auto symbols = std::make_shared<SymbolTable>();
  Database a(symbols), b(symbols);
  ASSERT_TRUE(a.AddFactNamed("E", {"x", "y"}).ok());
  ASSERT_TRUE(a.AddFactNamed("V", {"x"}).ok());
  ASSERT_TRUE(b.AddFactNamed("E", {"x", "y"}).ok());  // duplicate fact
  ASSERT_TRUE(b.AddFactNamed("E", {"y", "z"}).ok());
  ASSERT_TRUE(b.AddFact("Flag", Tuple{}).ok());

  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ((*a.GetRelation("E"))->size(), 2u);
  EXPECT_EQ((*a.GetRelation("V"))->size(), 1u);
  EXPECT_EQ((*a.GetRelation("Flag"))->size(), 1u);
  EXPECT_TRUE(a.InUniverse(symbols->Find("z")));
  // b is untouched.
  EXPECT_FALSE(b.HasRelation("V"));
}

TEST(DatabaseMergeTest, CrossSymbolTableReinternsByName) {
  Database a, b;
  ASSERT_TRUE(a.AddFactNamed("E", {"x", "y"}).ok());
  // b interns in a different order, so the raw Value ids disagree.
  ASSERT_TRUE(b.AddFactNamed("V", {"q"}).ok());
  ASSERT_TRUE(b.AddFactNamed("E", {"y", "z"}).ok());

  ASSERT_TRUE(a.MergeFrom(b).ok());
  const Relation& e = **a.GetRelation("E");
  EXPECT_EQ(e.size(), 2u);
  const Value y = a.symbols().Find("y");
  const Value z = a.symbols().Find("z");
  ASSERT_NE(y, kNoValue);
  ASSERT_NE(z, kNoValue);
  EXPECT_TRUE(e.Contains(Tuple{y, z}));
  EXPECT_TRUE(a.InUniverse(a.symbols().Find("q")));
}

TEST(DatabaseMergeTest, ArityConflictIsAnError) {
  Database a, b;
  ASSERT_TRUE(a.AddFactNamed("E", {"x", "y"}).ok());
  ASSERT_TRUE(b.AddFactNamed("E", {"x"}).ok());  // arity 1 vs 2
  EXPECT_FALSE(a.MergeFrom(b).ok());
}

TEST(DatabaseMergeTest, SelfMergeAndIdempotence) {
  Database db = MixedArityDb();
  const std::string before = db.ToString();
  ASSERT_TRUE(db.MergeFrom(db).ok());
  EXPECT_EQ(db.ToString(), before);
  Database copy = db;
  ASSERT_TRUE(db.MergeFrom(copy).ok());  // merging a snapshot adds nothing
  EXPECT_EQ(db.ToString(), before);
}

TEST(DatabaseMergeTest, SnapshotThenDivergeThenMergeBack) {
  // The full snapshot/merge round trip the evaluator layers rely on:
  // snapshot, grow both sides independently, merge one into the other.
  Database base = MixedArityDb();
  Database branch = base;
  ASSERT_TRUE(branch.AddFactNamed("E", {"c", "d"}).ok());
  ASSERT_TRUE(branch.AddFactNamed("W", {"c", "d", "a"}).ok());
  ASSERT_TRUE(base.AddFactNamed("E", {"b", "a"}).ok());

  ASSERT_TRUE(base.MergeFrom(branch).ok());
  EXPECT_EQ((*base.GetRelation("E"))->size(), 4u);  // union of both growths
  EXPECT_TRUE(base.HasRelation("W"));
  EXPECT_EQ((*base.GetRelation("T"))->size(), 1u);
  EXPECT_TRUE(base.InUniverse(base.symbols().Find("d")));
}

TEST(DatabaseUniverseTest, UniverseWithAppendsOutsideConstantsInOrder) {
  // The evaluation universe: the database's universe in insertion order,
  // then each constant outside it in the order given; constants already
  // in the universe keep their place.
  Database db;
  ASSERT_TRUE(db.AddFactNamed("E", {"b", "a"}).ok());
  db.AddUniverseSymbol("c");
  const Value a = db.symbols().Find("a");
  const Value b = db.symbols().Find("b");
  const Value c = db.symbols().Find("c");
  const Value y = db.symbols().Intern("y");
  const Value z = db.symbols().Intern("z");
  EXPECT_EQ(db.UniverseWith({z, a, y, c}),
            (std::vector<Value>{b, a, c, z, y}));
  EXPECT_EQ(db.UniverseWith({}), db.universe());
  EXPECT_FALSE(db.InUniverse(z));  // the database itself is untouched
}

TEST(DatabaseGenerationTest, EveryMutationNamesANewState) {
  Database db = MixedArityDb();
  // Taken first, so the writes below go through an old pointer.
  Relation* e = db.MutableRelation("E").value();
  std::vector<DatabaseGeneration> seen = {db.generation()};
  const auto expect_new = [&](const char* what) {
    const DatabaseGeneration now = db.generation();
    for (const DatabaseGeneration& g : seen) EXPECT_FALSE(now == g) << what;
    seen.push_back(now);
  };
  ASSERT_TRUE(db.AddFactNamed("E", {"c", "a"}).ok());
  expect_new("AddFact");
  ASSERT_TRUE(db.AddFactNamed("E", {"c", "a"}).ok());
  EXPECT_TRUE(db.generation() == seen.back()) << "a fact already present";
  const Value a = db.symbols().Find("a");
  const Value b = db.symbols().Find("b");
  ASSERT_TRUE(e->Erase(Tuple{a, b}));
  expect_new("Relation::Erase");
  ASSERT_TRUE(e->Insert(Tuple{b, a}));
  expect_new("Relation::Insert");
  // An empty relation, then two inserts, as many as E had counted at the
  // start: a version that restarted from the source's would bring the
  // sum back to the first generation.
  *e = Relation(2);
  expect_new("Relation assignment");
  ASSERT_TRUE(e->Insert(Tuple{a, a}));
  expect_new("Relation::Insert after the assignment");
  ASSERT_TRUE(e->Insert(Tuple{b, b}));
  expect_new("a second Relation::Insert after the assignment");
  ASSERT_TRUE(db.DeclareRelation("F", 1).ok());
  expect_new("DeclareRelation");
  db.AddUniverseSymbol("z");
  expect_new("a universe addition");
  // Restoring a snapshot brings back relations with the versions they
  // had, so only the assignment itself tells the states apart.
  const Database snapshot = db;
  ASSERT_TRUE(db.AddFactNamed("V", {"c"}).ok());
  expect_new("AddFact after a snapshot");
  db = snapshot;
  expect_new("copy assignment of the snapshot");
  Database moved = db;
  ASSERT_TRUE(db.AddFactNamed("V", {"c"}).ok());
  expect_new("AddFact after a second snapshot");
  db = std::move(moved);
  expect_new("move assignment of the snapshot");
  const Database copy = db;
  EXPECT_FALSE(copy.generation() == db.generation()) << "a copy";
}

}  // namespace
}  // namespace inflog
