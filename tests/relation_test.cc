// Unit tests for src/relation: symbol table, tuples, relations, built-in
// column indexes, databases.

#include <gtest/gtest.h>

#include <utility>

#include "src/relation/database.h"
#include "src/relation/relation.h"
#include "src/relation/tuple.h"
#include "src/relation/value.h"

namespace inflog {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable t;
  const Value a = t.Intern("alpha");
  EXPECT_EQ(t.Intern("alpha"), a);
  EXPECT_EQ(t.Name(a), "alpha");
  EXPECT_EQ(t.size(), 1u);
}

TEST(SymbolTableTest, FindMissing) {
  SymbolTable t;
  EXPECT_EQ(t.Find("nope"), kNoValue);
  t.Intern("yes");
  EXPECT_NE(t.Find("yes"), kNoValue);
}

TEST(SymbolTableTest, InternIntUsesDecimal) {
  SymbolTable t;
  const Value v = t.InternInt(42);
  EXPECT_EQ(t.Name(v), "42");
  EXPECT_EQ(t.Intern("42"), v);
}

TEST(TupleTest, HashIsOrderSensitive) {
  Tuple a{1, 2}, b{2, 1};
  EXPECT_NE(HashTuple(a), HashTuple(b));
  EXPECT_EQ(HashTuple(a), HashTuple(Tuple{1, 2}));
}

TEST(TupleTest, EqComparesContents) {
  EXPECT_TRUE(TupleEq()(Tuple{1, 2}, Tuple{1, 2}));
  EXPECT_FALSE(TupleEq()(Tuple{1, 2}, Tuple{1, 3}));
  EXPECT_FALSE(TupleEq()(Tuple{1}, Tuple{1, 1}));
}

TEST(RelationTest, InsertAndContains) {
  Relation r(2);
  EXPECT_TRUE(r.Insert(Tuple{1, 2}));
  EXPECT_FALSE(r.Insert(Tuple{1, 2}));  // duplicate
  EXPECT_TRUE(r.Insert(Tuple{2, 1}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(Tuple{1, 2}));
  EXPECT_FALSE(r.Contains(Tuple{3, 3}));
}

TEST(RelationTest, FindReturnsInsertionOrderRow) {
  Relation r(1);
  r.Insert(Tuple{5});
  r.Insert(Tuple{7});
  r.Insert(Tuple{6});
  EXPECT_EQ(r.Find(Tuple{5}), 0);
  EXPECT_EQ(r.Find(Tuple{6}), 2);
  EXPECT_EQ(r.Find(Tuple{9}), -1);
}

TEST(RelationTest, ArityZero) {
  Relation r(0);
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.Contains(Tuple{}));
  EXPECT_TRUE(r.Insert(Tuple{}));
  EXPECT_FALSE(r.Insert(Tuple{}));
  EXPECT_TRUE(r.Contains(Tuple{}));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, SetEqualityIgnoresOrder) {
  Relation a(1), b(1);
  a.Insert(Tuple{1});
  a.Insert(Tuple{2});
  b.Insert(Tuple{2});
  b.Insert(Tuple{1});
  EXPECT_EQ(a, b);
  b.Insert(Tuple{3});
  EXPECT_NE(a, b);
}

TEST(RelationTest, SubsetChecks) {
  Relation a(1), b(1);
  a.Insert(Tuple{1});
  b.Insert(Tuple{1});
  b.Insert(Tuple{2});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
}

TEST(RelationTest, InsertAllCountsNew) {
  Relation a(1), b(1);
  a.Insert(Tuple{1});
  b.Insert(Tuple{1});
  b.Insert(Tuple{2});
  b.Insert(Tuple{3});
  EXPECT_EQ(a.InsertAll(b), 2u);
  EXPECT_EQ(a.size(), 3u);
}

TEST(RelationTest, VersionBumpsOnlyOnNewTuples) {
  Relation r(1);
  const uint64_t v0 = r.version();
  r.Insert(Tuple{1});
  const uint64_t v1 = r.version();
  EXPECT_GT(v1, v0);
  r.Insert(Tuple{1});
  EXPECT_EQ(r.version(), v1);
}

TEST(RelationTest, VersionGrowsAcrossAssignmentAndMoves) {
  // One object never shows a version twice, so a caller that recorded it
  // sees a whole-relation replacement too, even by a relation that has
  // counted as many mutations.
  Relation r(1);
  r.Insert(Tuple{1});
  Relation other(1);
  other.Insert(Tuple{2});
  ASSERT_EQ(other.version(), r.version());
  uint64_t seen = r.version();
  r = other;
  EXPECT_GT(r.version(), seen);
  EXPECT_TRUE(r.Contains(Tuple{2}));
  seen = r.version();
  Relation moved = std::move(r);
  EXPECT_GT(r.version(), seen);  // NOLINT(bugprone-use-after-move)
  seen = r.version();
  r = Relation(1);
  EXPECT_GT(r.version(), seen);
  seen = r.version();
  r = std::move(moved);
  EXPECT_GT(r.version(), seen);
  EXPECT_TRUE(r.Contains(Tuple{2}));
}

TEST(RelationTest, SortedTuplesCanonical) {
  Relation r(2);
  r.Insert(Tuple{3, 1});
  r.Insert(Tuple{1, 2});
  r.Insert(Tuple{1, 1});
  auto rows = r.SortedTuples();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (Tuple{1, 1}));
  EXPECT_EQ(rows[1], (Tuple{1, 2}));
  EXPECT_EQ(rows[2], (Tuple{3, 1}));
}

TEST(RelationTest, ManyTuplesStressHashing) {
  Relation r(2);
  for (Value i = 0; i < 50; ++i) {
    for (Value j = 0; j < 50; ++j) {
      EXPECT_TRUE(r.Insert(Tuple{i, j}));
    }
  }
  EXPECT_EQ(r.size(), 2500u);
  for (Value i = 0; i < 50; ++i) {
    EXPECT_TRUE(r.Contains(Tuple{i, i}));
  }
  EXPECT_FALSE(r.Contains(Tuple{50, 0}));
}

TEST(ColumnIndexTest, EqualRowsByColumn) {
  Relation r(2);
  r.Insert(Tuple{1, 10});
  r.Insert(Tuple{1, 11});
  r.Insert(Tuple{2, 10});
  EXPECT_EQ(r.EqualRows(0, 1).size(), 2u);
  EXPECT_EQ(r.EqualRows(0, 2).size(), 1u);
  EXPECT_EQ(r.EqualRows(0, 3).size(), 0u);
  EXPECT_EQ(r.EqualRows(1, 10).size(), 2u);
  EXPECT_EQ(r.EqualRows(1, 11).size(), 1u);
}

TEST(ColumnIndexTest, RowIdsAreInsertionOrder) {
  Relation r(2);
  r.Insert(Tuple{7, 1});
  r.Insert(Tuple{8, 1});
  r.Insert(Tuple{7, 2});
  auto rows = r.EqualRows(0, 7);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[1], 2u);
}

TEST(ColumnIndexTest, ExtendsAfterGrowth) {
  Relation r(2);
  r.Insert(Tuple{1, 10});
  EXPECT_EQ(r.EqualRows(0, 1).size(), 1u);  // builds the index
  r.Insert(Tuple{1, 11});
  r.Insert(Tuple{2, 10});
  EXPECT_EQ(r.EqualRows(0, 1).size(), 2u);  // catches up incrementally
  EXPECT_EQ(r.EqualRows(0, 2).size(), 1u);
}

TEST(ColumnIndexTest, CopyDropsIndexButKeepsRows) {
  Relation r(1);
  r.Insert(Tuple{4});
  EXPECT_EQ(r.EqualRows(0, 4).size(), 1u);
  Relation copy = r;
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_TRUE(copy.Contains(Tuple{4}));
  EXPECT_EQ(copy.EqualRows(0, 4).size(), 1u);  // rebuilt lazily
  copy.Insert(Tuple{5});
  EXPECT_EQ(copy.EqualRows(0, 5).size(), 1u);
  EXPECT_EQ(r.size(), 1u);  // original untouched
}

TEST(ColumnIndexTest, AgreesWithScanOnDenseData) {
  Relation r(2);
  for (Value i = 0; i < 40; ++i) {
    for (Value j = 0; j < 10; ++j) r.Insert(Tuple{i % 7, i * 10 + j});
  }
  for (Value v = 0; v < 8; ++v) {
    size_t scan = 0;
    for (size_t row = 0; row < r.size(); ++row) {
      if (r.Row(row)[0] == v) ++scan;
    }
    EXPECT_EQ(r.EqualRows(0, v).size(), scan) << "column value " << v;
  }
}

// --- Sharded relations -----------------------------------------------------

/// Oracle: count of rows with column `col` equal to `v`, by full scan
/// through the shard views.
size_t ScanCount(const Relation& r, size_t col, Value v) {
  size_t count = 0;
  for (size_t s = 0; s < r.num_shards(); ++s) {
    const Relation::ShardView view = r.shard(s);
    for (size_t row = 0; row < view.size(); ++row) {
      if (view.Row(row)[col] == v) ++count;
    }
  }
  return count;
}

TEST(ShardedRelationTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Relation(2, 0).num_shards(), 1u);
  EXPECT_EQ(Relation(2, 1).num_shards(), 1u);
  EXPECT_EQ(Relation(2, 3).num_shards(), 4u);
  EXPECT_EQ(Relation(2, 8).num_shards(), 8u);
}

TEST(ShardedRelationTest, SetBehaviorIsShardCountInvariant) {
  Relation one(2, 1), four(2, 4), eight(2, 8);
  for (Value i = 0; i < 40; ++i) {
    const Tuple t{i % 11, i % 7};
    const bool fresh = one.Insert(t);
    EXPECT_EQ(four.Insert(t), fresh);
    EXPECT_EQ(eight.Insert(t), fresh);
  }
  EXPECT_EQ(one, four);
  EXPECT_EQ(four, eight);
  EXPECT_EQ(one.SortedTuples(), four.SortedTuples());
  EXPECT_EQ(one.SortedTuples(), eight.SortedTuples());
  EXPECT_TRUE(four.Contains(Tuple{3, 3}));
  EXPECT_FALSE(four.Contains(Tuple{12, 0}));
}

TEST(ShardedRelationTest, ShardViewsPartitionRowsByHash) {
  Relation r(2, 8);
  for (Value i = 0; i < 100; ++i) r.Insert(Tuple{i, i + 1});
  size_t total = 0;
  for (size_t s = 0; s < r.num_shards(); ++s) {
    const Relation::ShardView view = r.shard(s);
    EXPECT_EQ(view.size(), r.ShardSize(s));
    total += view.size();
    for (size_t row = 0; row < view.size(); ++row) {
      // Every row sits in the shard its tuple hash names.
      EXPECT_EQ(ShardOfHash(HashTuple(view.Row(row)), ShardBitsFor(8)), s);
    }
  }
  EXPECT_EQ(total, r.size());
  // With 100 rows over 8 shards the hash should populate several shards.
  size_t populated = 0;
  for (size_t s = 0; s < r.num_shards(); ++s) {
    if (r.ShardSize(s) > 0) ++populated;
  }
  EXPECT_GT(populated, 4u);
}

TEST(ShardedRelationTest, FindRefRoundTripsAndFindLinearizes) {
  Relation r(1, 4);
  for (Value i = 0; i < 30; ++i) r.Insert(Tuple{i});
  for (Value i = 0; i < 30; ++i) {
    Relation::RowRef ref;
    ASSERT_TRUE(r.FindRef(Tuple{i}, &ref));
    EXPECT_EQ(r.RowAt(ref)[0], i);
    const int64_t global = r.Find(Tuple{i});
    ASSERT_GE(global, 0);
    EXPECT_EQ(r.Row(static_cast<size_t>(global))[0], i);
  }
  Relation::RowRef ref;
  EXPECT_FALSE(r.FindRef(Tuple{99}, &ref));
  EXPECT_EQ(r.Find(Tuple{99}), -1);
}

TEST(ShardedRelationTest, EqualRowsPerShardMatchesScan) {
  Relation r(2, 8);
  for (Value i = 0; i < 60; ++i) r.Insert(Tuple{i % 5, i});
  std::vector<std::span<const uint32_t>> spans(r.num_shards());
  for (Value v = 0; v < 6; ++v) {
    const size_t total = r.EqualRowsPerShard(0, v, spans.data());
    EXPECT_EQ(total, ScanCount(r, 0, v)) << "value " << v;
    size_t from_spans = 0;
    for (size_t s = 0; s < r.num_shards(); ++s) {
      const Relation::ShardView view = r.shard(s);
      uint32_t prev = 0;
      for (size_t k = 0; k < spans[s].size(); ++k) {
        const uint32_t row = spans[s][k];
        if (k > 0) {
          EXPECT_GT(row, prev);  // ascending local order
        }
        prev = row;
        EXPECT_EQ(view.Row(row)[0], v);
        ++from_spans;
      }
    }
    EXPECT_EQ(from_spans, total);
  }
}

TEST(ShardedRelationTest, MergeShardFromEqualsInsertAll) {
  Relation src(2, 4);
  for (Value i = 0; i < 50; ++i) src.Insert(Tuple{i % 13, i % 9});
  Relation via_insert_all(2, 4), via_shards(2, 4);
  // Pre-populate both destinations identically so the merge sees dups.
  for (Value i = 0; i < 10; ++i) {
    via_insert_all.Insert(Tuple{i, i});
    via_shards.Insert(Tuple{i, i});
  }
  const size_t added_all = via_insert_all.InsertAll(src);
  size_t added_shards = 0;
  for (size_t s = 0; s < 4; ++s) {
    added_shards += via_shards.MergeShardFrom(src, s);
  }
  EXPECT_EQ(added_all, added_shards);
  EXPECT_EQ(via_insert_all, via_shards);
  // Shard-wise merge preserves the per-shard layout exactly.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(via_insert_all.ShardSize(s), via_shards.ShardSize(s));
  }
}

TEST(ShardedRelationTest, InsertAllAcrossShardCounts) {
  Relation src(2, 8);
  for (Value i = 0; i < 40; ++i) src.Insert(Tuple{i, i % 3});
  Relation dst(2, 1);
  EXPECT_EQ(dst.InsertAll(src), 40u);
  EXPECT_EQ(dst, src);
  Relation back(2, 2);
  EXPECT_EQ(back.InsertAll(dst), 40u);
  EXPECT_EQ(back, src);
}

TEST(ShardedRelationTest, CopyDropsIndexesKeepsShards) {
  Relation r(2, 4);
  for (Value i = 0; i < 20; ++i) r.Insert(Tuple{i % 4, i});
  r.EnsureIndexed(0);
  Relation copy = r;
  EXPECT_EQ(copy.num_shards(), 4u);
  EXPECT_EQ(copy, r);
  std::vector<std::span<const uint32_t>> spans(copy.num_shards());
  EXPECT_EQ(copy.EqualRowsPerShard(0, 2, spans.data()),
            ScanCount(copy, 0, 2));  // rebuilt lazily
  copy.Insert(Tuple{100, 100});
  EXPECT_EQ(r.size(), 20u);  // original untouched
}

// --- InsertAll under rehash + incremental index extension ------------------
// (regression coverage for the bulk-insert edge cases: duplicate-heavy
// batches that force open-addressing rehashes and index catch-up in the
// same call, and the formerly undefined self-insert.)

TEST(RelationInsertAllStressTest, SelfInsertIsNoop) {
  Relation r(2, 2);
  for (Value i = 0; i < 100; ++i) r.Insert(Tuple{i, i});
  // Inserting a relation into itself used to iterate rows while growing
  // the underlying buffers (reallocation UB); it is now a guarded no-op.
  EXPECT_EQ(r.InsertAll(r), 0u);
  EXPECT_EQ(r.size(), 100u);
}

TEST(RelationInsertAllStressTest, DuplicateHeavyBulkInsertWithRehash) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    Relation r(2, shards);
    // Seed a few rows and build column 0's index so the bulk insert must
    // extend it incrementally afterwards.
    for (Value i = 0; i < 10; ++i) r.Insert(Tuple{i % 3, i});
    r.EnsureIndexed(0);

    // A duplicate-heavy batch (every tuple appears 4 times) far larger
    // than the seeded capacity: inserting it forces several slot-array
    // rehashes while the column index lags behind.
    Relation batch(2, shards == 1 ? 4 : 1);  // mismatched shard layouts too
    size_t distinct_new = 0;
    for (Value round = 0; round < 4; ++round) {
      for (Value i = 0; i < 600; ++i) {
        if (batch.Insert(Tuple{i % 3, i}) && i >= 10) ++distinct_new;
      }
    }
    const size_t added = r.InsertAll(batch);
    EXPECT_EQ(added, distinct_new) << "shards=" << shards;
    EXPECT_EQ(r.size(), 600u) << "shards=" << shards;

    // Membership, postings and canonical order must all agree with a
    // fresh scan after the rehash + index catch-up.
    std::vector<std::span<const uint32_t>> spans(r.num_shards());
    for (Value v = 0; v < 4; ++v) {
      EXPECT_EQ(r.EqualRowsPerShard(0, v, spans.data()), ScanCount(r, 0, v))
          << "shards=" << shards << " value " << v;
    }
    for (Value i = 0; i < 600; ++i) {
      EXPECT_TRUE(r.Contains(Tuple{i % 3, i})) << "shards=" << shards;
    }
    // Re-inserting the whole batch is pure duplicates.
    EXPECT_EQ(r.InsertAll(batch), 0u) << "shards=" << shards;
  }
}

TEST(RelationInsertAllStressTest, InterleavedGrowthKeepsIndexCurrent) {
  // Alternate index reads and bulk inserts so every EqualRowsPerShard
  // call extends the postings by exactly the suffix appended since the
  // previous call — across rehashes.
  Relation r(1, 2);
  std::vector<std::span<const uint32_t>> spans(r.num_shards());
  for (Value round = 0; round < 6; ++round) {
    Relation batch(1, 2);
    for (Value i = 0; i < 64; ++i) {
      batch.Insert(Tuple{round * 64 + i});
      batch.Insert(Tuple{round * 64 + i});  // in-batch duplicate
    }
    EXPECT_EQ(r.InsertAll(batch), 64u);
    for (Value probe = 0; probe <= round; ++probe) {
      EXPECT_EQ(r.EqualRowsPerShard(0, probe * 64, spans.data()), 1u);
    }
  }
  EXPECT_EQ(r.size(), 6u * 64u);
}

// --- Erase / tombstones ----------------------------------------------------
// (the deletion path the incremental maintainer relies on: rows die in
// place, physical ids never shift, CompactDead reclaims between runs.)

TEST(RelationEraseTest, EraseTombstonesInPlace) {
  Relation r(2);
  r.Insert(Tuple{1, 2});
  r.Insert(Tuple{3, 4});
  const uint64_t v_before = r.version();

  EXPECT_TRUE(r.Erase(Tuple{1, 2}));
  EXPECT_FALSE(r.Contains(Tuple{1, 2}));
  EXPECT_TRUE(r.Contains(Tuple{3, 4}));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.ShardSize(0), 2u);  // the physical row stays put
  EXPECT_EQ(r.dead_rows(), 1u);
  EXPECT_GT(r.version(), v_before);

  // The shard view still exposes the dead row; IsLive marks it.
  const Relation::ShardView view = r.shard(0);
  ASSERT_EQ(view.size(), 2u);
  size_t live = 0;
  for (size_t row = 0; row < view.size(); ++row) {
    if (view.IsLive(row)) ++live;
  }
  EXPECT_EQ(live, 1u);

  // Erasing an absent (or already dead) tuple is a no-op.
  const uint64_t v_after = r.version();
  EXPECT_FALSE(r.Erase(Tuple{9, 9}));
  EXPECT_FALSE(r.Erase(Tuple{1, 2}));
  EXPECT_EQ(r.version(), v_after);
}

TEST(RelationEraseTest, ReinsertAfterEraseAppendsFreshRow) {
  Relation r(1);
  r.Insert(Tuple{5});
  EXPECT_TRUE(r.Erase(Tuple{5}));
  EXPECT_TRUE(r.Insert(Tuple{5}));  // was dead, so this is new again
  EXPECT_TRUE(r.Contains(Tuple{5}));
  EXPECT_EQ(r.size(), 1u);
  // The tombstoned row keeps its slot; the re-insert appends.
  EXPECT_EQ(r.ShardSize(0), 2u);
  EXPECT_EQ(r.dead_rows(), 1u);
  EXPECT_FALSE(r.Insert(Tuple{5}));  // present now: duplicate
}

TEST(RelationEraseTest, FindRefSkipsDeadAndRowLinearizesLive) {
  Relation r(1);
  for (Value i = 0; i < 5; ++i) r.Insert(Tuple{i});
  ASSERT_TRUE(r.Erase(Tuple{2}));

  Relation::RowRef ref;
  EXPECT_FALSE(r.FindRef(Tuple{2}, &ref));
  EXPECT_EQ(r.Find(Tuple{2}), -1);

  // Row(i)/Find(i) linearize the surviving rows only.
  ASSERT_EQ(r.size(), 4u);
  const Value expect[] = {0, 1, 3, 4};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.Row(i)[0], expect[i]) << "live row " << i;
    EXPECT_EQ(r.Find(Tuple{expect[i]}), static_cast<int64_t>(i));
  }
}

TEST(RelationEraseTest, PostingsDropErasedRows) {
  Relation r(2);
  r.Insert(Tuple{1, 10});
  r.Insert(Tuple{1, 11});
  r.Insert(Tuple{2, 10});
  // Built index: Erase must remove the row's ids eagerly.
  EXPECT_EQ(r.EqualRows(0, 1).size(), 2u);
  ASSERT_TRUE(r.Erase(Tuple{1, 10}));
  EXPECT_EQ(r.EqualRows(0, 1).size(), 1u);
  EXPECT_EQ(r.EqualRows(1, 10).size(), 1u);

  // Unbuilt index: a column first probed after the erase must skip the
  // dead row while catching up.
  Relation fresh(2);
  fresh.Insert(Tuple{1, 10});
  fresh.Insert(Tuple{1, 11});
  ASSERT_TRUE(fresh.Erase(Tuple{1, 10}));
  EXPECT_EQ(fresh.EqualRows(1, 10).size(), 0u);
  EXPECT_EQ(fresh.EqualRows(1, 11).size(), 1u);
}

TEST(RelationEraseTest, SetOperationsIgnoreTombstones) {
  Relation a(1), b(1);
  for (Value i = 0; i < 10; ++i) a.Insert(Tuple{i});
  for (Value i = 0; i < 5; ++i) b.Insert(Tuple{i});
  for (Value i = 5; i < 10; ++i) ASSERT_TRUE(a.Erase(Tuple{i}));

  // Equality, subset, SortedTuples and InsertAll all see only live rows.
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_EQ(a.SortedTuples(), b.SortedTuples());
  Relation dst(1);
  EXPECT_EQ(dst.InsertAll(a), 5u);
  EXPECT_EQ(dst, b);
  Relation merged(1);
  EXPECT_EQ(merged.MergeShardFrom(a, 0), 5u);
  EXPECT_EQ(merged, b);
}

TEST(RelationEraseTest, CompactDeadReclaimsRows) {
  Relation r(1, 4);
  for (Value i = 0; i < 40; ++i) r.Insert(Tuple{i});
  for (Value i = 0; i < 40; i += 2) ASSERT_TRUE(r.Erase(Tuple{i}));
  EXPECT_EQ(r.size(), 20u);
  EXPECT_EQ(r.dead_rows(), 20u);

  r.CompactDead();
  EXPECT_EQ(r.size(), 20u);
  EXPECT_EQ(r.dead_rows(), 0u);
  size_t physical = 0;
  for (size_t s = 0; s < r.num_shards(); ++s) physical += r.ShardSize(s);
  EXPECT_EQ(physical, 20u);
  for (Value i = 0; i < 40; ++i) {
    EXPECT_EQ(r.Contains(Tuple{i}), i % 2 == 1) << "value " << i;
  }
  // Postings rebuild against the compacted layout.
  std::vector<std::span<const uint32_t>> spans(r.num_shards());
  EXPECT_EQ(r.EqualRowsPerShard(0, 1, spans.data()), 1u);
  EXPECT_EQ(r.EqualRowsPerShard(0, 2, spans.data()), 0u);
}

TEST(RelationEraseTest, ShardedEraseStressAgainstScan) {
  Relation r(2, 8);
  for (Value i = 0; i < 200; ++i) r.Insert(Tuple{i % 5, i});
  for (Value i = 0; i < 200; i += 3) ASSERT_TRUE(r.Erase(Tuple{i % 5, i}));

  // Postings must match a live-row scan in every shard.
  std::vector<std::span<const uint32_t>> spans(r.num_shards());
  for (Value v = 0; v < 5; ++v) {
    size_t live_scan = 0;
    for (size_t s = 0; s < r.num_shards(); ++s) {
      const Relation::ShardView view = r.shard(s);
      for (size_t row = 0; row < view.size(); ++row) {
        if (view.IsLive(row) && view.Row(row)[0] == v) ++live_scan;
      }
    }
    EXPECT_EQ(r.EqualRowsPerShard(0, v, spans.data()), live_scan)
        << "value " << v;
  }
  // Membership and re-insertion agree with the erase pattern, across the
  // probe-chain tombstones the erases left behind.
  for (Value i = 0; i < 200; ++i) {
    EXPECT_EQ(r.Contains(Tuple{i % 5, i}), i % 3 != 0) << "row " << i;
  }
  size_t reinserted = 0;
  for (Value i = 0; i < 200; i += 3) {
    if (r.Insert(Tuple{i % 5, i})) ++reinserted;
  }
  EXPECT_EQ(reinserted, 67u);  // ceil(200 / 3)
  EXPECT_EQ(r.size(), 200u);
}

TEST(DatabaseTest, AddFactDeclaresAndFillsUniverse) {
  Database db;
  const Value a = db.symbols().Intern("a");
  const Value b = db.symbols().Intern("b");
  ASSERT_TRUE(db.AddFact("E", Tuple{a, b}).ok());
  EXPECT_TRUE(db.HasRelation("E"));
  EXPECT_TRUE(db.InUniverse(a));
  EXPECT_TRUE(db.InUniverse(b));
  EXPECT_EQ(db.universe().size(), 2u);
}

TEST(DatabaseTest, ArityMismatchRejected) {
  Database db;
  const Value a = db.symbols().Intern("a");
  ASSERT_TRUE(db.AddFact("E", Tuple{a, a}).ok());
  EXPECT_FALSE(db.AddFact("E", Tuple{a}).ok());
  EXPECT_FALSE(db.DeclareRelation("E", 3).ok());
  EXPECT_TRUE(db.DeclareRelation("E", 2).ok());  // same arity: no-op
}

TEST(DatabaseTest, GetRelationMissing) {
  Database db;
  EXPECT_FALSE(db.GetRelation("nope").ok());
  EXPECT_EQ(db.GetRelation("nope").status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, UniverseDeclarationWithoutFacts) {
  Database db;
  db.AddUniverseSymbol("lonely");
  EXPECT_EQ(db.universe().size(), 1u);
  db.AddUniverseSymbol("lonely");
  EXPECT_EQ(db.universe().size(), 1u);  // idempotent
}

TEST(DatabaseTest, SharedSymbolTable) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db(symbols);
  const Value x = symbols->Intern("x");
  ASSERT_TRUE(db.AddFact("V", Tuple{x}).ok());
  EXPECT_EQ(db.symbols().Find("x"), x);
}

}  // namespace
}  // namespace inflog
