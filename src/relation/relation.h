// Relation: an append-mostly set of equal-arity tuples, hash-sharded.
//
// Storage is split into S shards (a power of two, 1 by default) keyed by
// tuple hash (ShardOfHash): each shard owns a flat row-major buffer, a
// flat open-addressing hash table of shard-local row ids (linear probing,
// power-of-two capacity), the per-row tuple-hash cache, and the lazily
// built per-column secondary indexes (hash of column value → local row
// ids) the join executor consumes. Because a tuple's shard is a pure
// function of its content, two relations with the same shard count
// partition any tuple set identically — which is what lets the fixpoint
// stage merge staging relations into the state shard-by-shard with no
// cross-shard writes (MergeShardFrom) and no serial merge step.
//
// Deletion (Erase) tombstones a row in place: the row keeps its physical
// slot in the buffer but is marked dead in a per-shard bitmap, its
// membership slot turns into a probe-chain tombstone, and its ids are
// removed from any already-built postings. Physical row ids therefore
// never shift — the delta-range bookkeeping the incremental maintainer
// shares with the fixpoint driver survives deletions — and CompactDead()
// reclaims the space once a caller knows no row ids are outstanding.
//
// Row identity is (shard, local row); both components are stable because
// shards are append-only (tombstones keep dead rows in place). ShardView
// exposes one shard's physical rows — including dead ones, which scans
// skip via IsLive — and postings to readers; the whole-relation
// Row(i)/Find(i) accessors linearize the *live* rows in shard-major order
// and exist for single-shard relations, tests and printing — their global
// ids are stable only while the relation does not change (and forever
// when num_shards() == 1 and nothing was erased, which preserves the
// pre-sharding contract).
//
// Indexes are maintained incrementally: rows only ever being appended, an
// index is brought up to date by scanning only the rows appended since it
// was last touched (skipping dead ones); Erase eagerly removes the dead
// row from postings that already cover it.
//
// Thread-safety: const methods are safe to call concurrently EXCEPT that
// EqualRows* catches a stale column index up first (a write). Callers
// that share a frozen relation across threads — the parallel fixpoint
// stage — must call EnsureIndexed(col) for every column they will probe
// before fanning out; after that, concurrent EqualRows* calls on those
// columns are lock-free pure reads until the next insertion. Mutation
// requires exclusive access, with one carve-out: MergeShardFrom touches
// only the named shard, so concurrent calls on distinct shards of the
// same relation are race-free — the shard-parallel stage merge is built
// on exactly this.

#ifndef INFLOG_RELATION_RELATION_H_
#define INFLOG_RELATION_RELATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/relation/tuple.h"
#include "src/relation/value.h"

namespace inflog {

/// A set of tuples of a fixed arity over the interned domain.
class Relation {
 private:
  struct Shard;  // defined below; forward-declared for ShardView

 public:
  /// Stable address of a row: shard plus shard-local row id.
  struct RowRef {
    uint32_t shard = 0;
    uint32_t row = 0;
  };

  /// Creates an empty relation of the given arity with `num_shards` hash
  /// shards (rounded up to a power of two; 0 is treated as 1). Arity 0 is
  /// legal: such a relation is either empty ("false") or contains the
  /// empty tuple ("true").
  explicit Relation(size_t arity, size_t num_shards = 1);

  // Copies transfer rows but not the lazily built column indexes (the copy
  // rebuilds its own on first use); moves transfer everything. Assigning
  // into a relation, or moving out of one, raises its version().
  Relation(const Relation& other) = default;
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  /// The number of columns.
  size_t arity() const { return arity_; }

  /// The number of hash shards (a power of two, ≥ 1).
  size_t num_shards() const { return shards_.size(); }

  /// The number of live tuples (summed over shards, dead rows excluded).
  size_t size() const {
    size_t n = 0;
    for (const Shard& s : shards_) n += s.size - s.num_dead;
    return n;
  }

  /// True iff the relation holds no live tuples.
  bool empty() const { return size() == 0; }

  /// Physical rows currently in shard `s` (tombstoned rows included —
  /// this is the coordinate the fixpoint delta ranges are expressed in).
  size_t ShardSize(size_t s) const {
    INFLOG_DCHECK(s < shards_.size());
    return shards_[s].size;
  }

  /// Tombstoned rows across all shards.
  size_t dead_rows() const {
    size_t n = 0;
    for (const Shard& s : shards_) n += s.num_dead;
    return n;
  }

  /// Inserts a tuple; returns true iff it was not already present.
  /// Requires tuple.size() == arity().
  bool Insert(TupleView tuple);

  /// Removes a tuple by tombstoning its row in place (physical row ids do
  /// not shift); returns true iff it was present. Requires
  /// tuple.size() == arity().
  bool Erase(TupleView tuple);

  /// Rebuilds every shard without its tombstoned rows, dropping the lazily
  /// built indexes. Invalidates RowRefs, global row ids, and any delta
  /// ranges expressed in this relation's physical offsets — callers must
  /// only compact between fixpoint runs.
  void CompactDead();

  /// Membership test. Requires tuple.size() == arity().
  bool Contains(TupleView tuple) const;

  /// Locates `tuple`; returns false if absent (or tombstoned). The RowRef
  /// is stable until CompactDead (rows are appended or tombstoned in
  /// place, never moved), which lets callers map tuples to the
  /// inflationary stage that introduced them via per-shard stage sizes.
  bool FindRef(TupleView tuple, RowRef* ref) const;

  /// Shard-major global index of `tuple` among the live rows, or -1 if
  /// absent. Stable while the relation does not change; stable forever
  /// when num_shards() == 1 and nothing was erased (insertion order, the
  /// pre-sharding contract).
  int64_t Find(TupleView tuple) const;

  /// The i-th live row in shard-major order. O(1) for single-shard
  /// relations without tombstones, O(shard rows) otherwise; bulk readers
  /// should iterate shards.
  TupleView Row(size_t i) const;

  /// The row at a stable (shard, local) address.
  TupleView RowAt(RowRef ref) const {
    INFLOG_DCHECK(ref.shard < shards_.size());
    INFLOG_DCHECK(ref.row < shards_[ref.shard].size);
    return TupleView(
        shards_[ref.shard].data.data() + size_t{ref.row} * arity_, arity_);
  }

  /// A borrowed, lock-free reader over one shard's rows and postings.
  /// Valid while the relation is alive; spans returned by its EqualRows
  /// follow the Relation::EqualRows invalidation rules.
  class ShardView {
   public:
    /// Physical rows in this shard (tombstoned rows included; full scans
    /// filter with IsLive — postings and delta ranges never name a dead
    /// row, so indexed and delta walks skip the check).
    size_t size() const { return shard_->size; }
    /// True iff local row `row` has not been tombstoned.
    bool IsLive(size_t row) const {
      return dead_ == nullptr || dead_[row] == 0;
    }
    /// The local-id `row` of this shard.
    TupleView Row(size_t row) const {
      INFLOG_DCHECK(row < shard_->size);
      return TupleView(shard_->data.data() + row * arity_, arity_);
    }

   private:
    friend class Relation;
    ShardView(const Shard* shard, size_t arity)
        : shard_(shard),
          dead_(shard->num_dead == 0 ? nullptr : shard->dead.data()),
          arity_(arity) {}
    const Shard* shard_;
    const uint8_t* dead_;
    size_t arity_;
  };

  /// Reader for shard `s`.
  ShardView shard(size_t s) const {
    INFLOG_DCHECK(s < shards_.size());
    return ShardView(&shards_[s], arity_);
  }

  /// Ids of the rows whose column `col` equals `value`, in ascending row
  /// (= insertion) order, served from the built-in secondary index (built
  /// on first use, then extended incrementally). Single-shard relations
  /// only — sharded readers use EqualRowsPerShard. The span stays valid
  /// while the relation does not grow; after an Insert/InsertAll the next
  /// EqualRows* call on the same column may reallocate it.
  std::span<const uint32_t> EqualRows(size_t col, Value value) const;

  /// Per-shard postings for column `col` equal to `value`: fills
  /// `spans[s]` (which must have num_shards() entries) with shard s's
  /// matching local row ids in ascending local order, and returns the
  /// total match count across shards. Lazily indexes `col` under the same
  /// contract as EqualRows.
  size_t EqualRowsPerShard(size_t col, Value value,
                           std::span<const uint32_t>* spans) const;

  /// Brings column `col`'s index fully up to date in every shard. Once
  /// every probed column is indexed, concurrent EqualRows* calls are
  /// data-race-free until the next insertion; the parallel fixpoint stage
  /// calls this for all key columns of a stage's plans before dispatching
  /// tasks.
  void EnsureIndexed(size_t col) const;

  /// Inserts every tuple of `other` (same arity; shard counts may
  /// differ); returns the number of tuples that were new. Inserting a
  /// relation into itself is a no-op.
  size_t InsertAll(const Relation& other);

  /// Inserts shard `s` of `other` into shard `s` of this relation and
  /// returns the number of new tuples. Requires equal arity and equal
  /// shard counts (so the shard partitions agree). Writes only shard `s`:
  /// concurrent calls on distinct shards of the same destination are
  /// race-free, which is what makes the fixpoint stage merge a shard-wise
  /// ParallelFor instead of a serial loop.
  size_t MergeShardFrom(const Relation& other, size_t s);

  /// True iff every tuple of this relation is in `other`.
  bool IsSubsetOf(const Relation& other) const;

  /// Set equality (insertion order and shard counts are ignored).
  bool operator==(const Relation& other) const;
  bool operator!=(const Relation& other) const { return !(*this == other); }

  /// Grows monotonically with every successful mutation (insert, erase,
  /// compaction, assignment into the relation, a move out of it), so one
  /// object never shows a value twice; lets callers detect change.
  uint64_t version() const {
    uint64_t v = version_base_;
    for (const Shard& s : shards_) v += s.ops;
    return v;
  }

  /// Rows in a canonical (lexicographically sorted) order, for printing
  /// and deterministic iteration in tests. Shard-count independent.
  std::vector<Tuple> SortedTuples() const;

  /// Renders "{(a,b), (c,d)}" in canonical order, each constant spelled
  /// as facts spell it (AppendConstant).
  std::string ToString(const SymbolTable& symbols) const;

 private:
  /// Slot content marking an empty open-addressing slot.
  static constexpr uint32_t kEmptySlot = static_cast<uint32_t>(-1);
  /// Slot content marking an erased entry. Probe chains walk through it
  /// (so entries displaced past it stay reachable) and insertion reuses
  /// it; rehashing drops tombstone slots along with the dead rows.
  static constexpr uint32_t kTombstoneSlot = static_cast<uint32_t>(-2);

  /// Secondary index over one column of one shard: value → local ids of
  /// rows holding it. `rows_indexed` is how many leading rows have been
  /// folded in; the shard being append-only, catching up means scanning
  /// the suffix.
  struct ColumnIndex {
    std::unordered_map<Value, std::vector<uint32_t>> postings;
    size_t rows_indexed = 0;
  };

  /// One hash shard: rows, probe cache, membership slots, indexes.
  struct Shard {
    Shard() = default;
    // Copies transfer rows but not the lazily built column indexes.
    Shard(const Shard& o)
        : data(o.data),
          row_hash(o.row_hash),
          slots(o.slots),
          dead(o.dead),
          size(o.size),
          num_dead(o.num_dead),
          slots_used(o.slots_used),
          ops(o.ops) {}
    Shard& operator=(const Shard& o) {
      if (this == &o) return *this;
      data = o.data;
      row_hash = o.row_hash;
      slots = o.slots;
      dead = o.dead;
      size = o.size;
      num_dead = o.num_dead;
      slots_used = o.slots_used;
      ops = o.ops;
      col_indexes.clear();
      return *this;
    }
    Shard(Shard&&) = default;
    Shard& operator=(Shard&&) = default;

    std::vector<Value> data;         // row-major tuple buffer
    std::vector<size_t> row_hash;    // per-row tuple hash (probe fast path)
    std::vector<uint32_t> slots;     // open-addressing table of local ids
    std::vector<uint8_t> dead;       // tombstone bitmap; empty until the
                                     // first Erase, then one flag per row
    size_t size = 0;                 // physical rows (dead ones included)
    size_t num_dead = 0;             // tombstoned rows
    size_t slots_used = 0;           // occupied + tombstone slots (load)
    uint64_t ops = 0;                // mutations, feeds version()
    // Lazily created per-column indexes. Mutable: bringing an index up to
    // date does not change the relation's observable value.
    mutable std::vector<std::unique_ptr<ColumnIndex>> col_indexes;
  };

  uint32_t ShardOf(size_t hash) const {
    return ShardOfHash(hash, shard_bits_);
  }

  /// Inserts a tuple with a precomputed hash into `shard` (which must be
  /// the hash's shard); returns true iff new.
  bool InsertIntoShard(Shard* shard, TupleView tuple, size_t hash);

  /// Doubles a shard's slot array and reinserts every local row id.
  static void RehashShard(Shard* shard, size_t new_capacity);

  /// Catches shard `s`'s index on `col` up to the shard's current size.
  /// Pure read when already current (the lock-free-reader guarantee).
  const ColumnIndex& ShardIndex(const Shard& shard, size_t col) const;

  size_t arity_;
  uint32_t shard_bits_ = 0;
  std::vector<Shard> shards_;
  // The part of version() that shards_ does not count: each assignment
  // into the object and each move out of it raises it past the old
  // version().
  uint64_t version_base_ = 0;
};

}  // namespace inflog

#endif  // INFLOG_RELATION_RELATION_H_
