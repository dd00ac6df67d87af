#include "src/relation/relation.h"

#include <algorithm>
#include <utility>

namespace inflog {
namespace {

/// Smallest power of two ≥ n (and ≥ 16).
size_t SlotCapacityFor(size_t n) {
  size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

Relation::Relation(size_t arity, size_t num_shards)
    : arity_(arity),
      shard_bits_(ShardBitsFor(num_shards == 0 ? 1 : num_shards)) {
  shards_.resize(size_t{1} << shard_bits_);
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  const uint64_t before = version();
  arity_ = other.arity_;
  shard_bits_ = other.shard_bits_;
  shards_ = other.shards_;
  version_base_ = before + 1 + other.version_base_;
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : arity_(other.arity_),
      shard_bits_(other.shard_bits_),
      shards_(std::move(other.shards_)),
      version_base_(other.version_base_) {
  other.shards_.clear();
  other.version_base_ = version() + 1;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  const uint64_t before = version();
  const uint64_t other_before = other.version();
  arity_ = other.arity_;
  shard_bits_ = other.shard_bits_;
  shards_ = std::move(other.shards_);
  version_base_ = before + 1 + other.version_base_;
  other.shards_.clear();
  other.version_base_ = other_before + 1;
  return *this;
}

void Relation::RehashShard(Shard* shard, size_t new_capacity) {
  INFLOG_DCHECK((new_capacity & (new_capacity - 1)) == 0);
  shard->slots.assign(new_capacity, kEmptySlot);
  const size_t mask = new_capacity - 1;
  for (uint32_t row = 0; row < shard->size; ++row) {
    // Dead rows keep their physical slot in the buffer but drop out of
    // the membership table (their tombstone slots are not carried over).
    if (shard->num_dead != 0 && shard->dead[row] != 0) continue;
    size_t slot = shard->row_hash[row] & mask;
    while (shard->slots[slot] != kEmptySlot) slot = (slot + 1) & mask;
    shard->slots[slot] = row;
  }
  shard->slots_used = shard->size - shard->num_dead;
}

bool Relation::InsertIntoShard(Shard* shard, TupleView tuple, size_t hash) {
  // Grow at 7/8 load so probe chains stay short. Tombstone slots count
  // toward load: they lengthen probe chains just like occupied ones.
  if (shard->slots.empty() ||
      (shard->slots_used + 1) * 8 > shard->slots.size() * 7) {
    RehashShard(shard,
                SlotCapacityFor((shard->size - shard->num_dead + 1) * 2));
  }
  const size_t mask = shard->slots.size() - 1;
  size_t slot = hash & mask;
  size_t reuse_slot = kEmptySlot;
  while (shard->slots[slot] != kEmptySlot) {
    const uint32_t row = shard->slots[slot];
    if (row == kTombstoneSlot) {
      // Remember the first reusable slot but keep probing: the tuple may
      // sit further along the chain.
      if (reuse_slot == kEmptySlot) reuse_slot = slot;
    } else if (shard->row_hash[row] == hash &&
               TupleEq()(TupleView(shard->data.data() + size_t{row} * arity_,
                                   arity_),
                         tuple)) {
      return false;
    }
    slot = (slot + 1) & mask;
  }
  if (reuse_slot != kEmptySlot) {
    slot = reuse_slot;  // tombstone turns back into an occupied slot
  } else {
    ++shard->slots_used;
  }
  shard->slots[slot] = static_cast<uint32_t>(shard->size);
  shard->data.insert(shard->data.end(), tuple.begin(), tuple.end());
  shard->row_hash.push_back(hash);
  if (!shard->dead.empty()) shard->dead.push_back(0);
  ++shard->size;
  ++shard->ops;
  return true;
}

bool Relation::Insert(TupleView tuple) {
  INFLOG_DCHECK(tuple.size() == arity_)
      << "arity mismatch: " << tuple.size() << " vs " << arity_;
  const size_t hash = HashTuple(tuple);
  return InsertIntoShard(&shards_[ShardOf(hash)], tuple, hash);
}

bool Relation::Contains(TupleView tuple) const {
  RowRef ref;
  return FindRef(tuple, &ref);
}

bool Relation::FindRef(TupleView tuple, RowRef* ref) const {
  INFLOG_DCHECK(tuple.size() == arity_);
  const size_t hash = HashTuple(tuple);
  const Shard& shard = shards_[ShardOf(hash)];
  if (shard.slots.empty()) return false;
  const size_t mask = shard.slots.size() - 1;
  size_t slot = hash & mask;
  while (shard.slots[slot] != kEmptySlot) {
    const uint32_t row = shard.slots[slot];
    if (row != kTombstoneSlot && shard.row_hash[row] == hash &&
        TupleEq()(TupleView(shard.data.data() + size_t{row} * arity_,
                            arity_),
                  tuple)) {
      ref->shard = ShardOf(hash);
      ref->row = row;
      return true;
    }
    slot = (slot + 1) & mask;
  }
  return false;
}

bool Relation::Erase(TupleView tuple) {
  INFLOG_DCHECK(tuple.size() == arity_);
  const size_t hash = HashTuple(tuple);
  Shard& shard = shards_[ShardOf(hash)];
  if (shard.slots.empty()) return false;
  const size_t mask = shard.slots.size() - 1;
  size_t slot = hash & mask;
  while (shard.slots[slot] != kEmptySlot) {
    const uint32_t row = shard.slots[slot];
    if (row != kTombstoneSlot && shard.row_hash[row] == hash &&
        TupleEq()(TupleView(shard.data.data() + size_t{row} * arity_,
                            arity_),
                  tuple)) {
      shard.slots[slot] = kTombstoneSlot;  // slots_used unchanged: the
                                           // tombstone still loads the chain
      if (shard.dead.empty()) shard.dead.assign(shard.size, 0);
      shard.dead[row] = 1;
      ++shard.num_dead;
      ++shard.ops;
      // Drop the row from every posting that already covers it; postings
      // built later skip dead rows during catch-up (ShardIndex).
      for (size_t col = 0; col < shard.col_indexes.size(); ++col) {
        ColumnIndex* index = shard.col_indexes[col].get();
        if (index == nullptr || index->rows_indexed <= row) continue;
        std::vector<uint32_t>& ids =
            index->postings[shard.data[size_t{row} * arity_ + col]];
        auto it = std::lower_bound(ids.begin(), ids.end(), row);
        if (it != ids.end() && *it == row) ids.erase(it);
      }
      return true;
    }
    slot = (slot + 1) & mask;
  }
  return false;
}

void Relation::CompactDead() {
  for (Shard& shard : shards_) {
    if (shard.num_dead == 0) continue;
    std::vector<Value> data;
    std::vector<size_t> row_hash;
    const size_t live = shard.size - shard.num_dead;
    data.reserve(live * arity_);
    row_hash.reserve(live);
    for (size_t row = 0; row < shard.size; ++row) {
      if (shard.dead[row] != 0) continue;
      const Value* begin = shard.data.data() + row * arity_;
      data.insert(data.end(), begin, begin + arity_);
      row_hash.push_back(shard.row_hash[row]);
    }
    shard.data = std::move(data);
    shard.row_hash = std::move(row_hash);
    shard.dead.clear();
    shard.size = live;
    shard.num_dead = 0;
    shard.col_indexes.clear();
    ++shard.ops;
    RehashShard(&shard, SlotCapacityFor(live * 2));
  }
}

int64_t Relation::Find(TupleView tuple) const {
  RowRef ref;
  if (!FindRef(tuple, &ref)) return -1;
  size_t offset = 0;
  for (uint32_t s = 0; s < ref.shard; ++s) {
    offset += shards_[s].size - shards_[s].num_dead;
  }
  const Shard& shard = shards_[ref.shard];
  if (shard.num_dead == 0) return static_cast<int64_t>(offset + ref.row);
  for (uint32_t row = 0; row < ref.row; ++row) {
    if (shard.dead[row] == 0) ++offset;
  }
  return static_cast<int64_t>(offset);
}

TupleView Relation::Row(size_t i) const {
  for (const Shard& shard : shards_) {
    const size_t live = shard.size - shard.num_dead;
    if (i >= live) {
      i -= live;
      continue;
    }
    if (shard.num_dead == 0) {
      return TupleView(shard.data.data() + i * arity_, arity_);
    }
    for (size_t row = 0; row < shard.size; ++row) {
      if (shard.dead[row] != 0) continue;
      if (i-- == 0) {
        return TupleView(shard.data.data() + row * arity_, arity_);
      }
    }
  }
  INFLOG_CHECK(false) << "row index out of range";
  return {};
}

const Relation::ColumnIndex& Relation::ShardIndex(const Shard& shard,
                                                  size_t col) const {
  INFLOG_DCHECK(col < arity_) << "index column out of range";
  if (shard.col_indexes.size() != arity_) shard.col_indexes.resize(arity_);
  std::unique_ptr<ColumnIndex>& index = shard.col_indexes[col];
  if (index == nullptr) index = std::make_unique<ColumnIndex>();
  // When the index is current, this is a pure read — concurrent callers on
  // a frozen relation never write (the guard below is what makes the
  // parallel stage's lock-free reads data-race-free).
  if (index->rows_indexed == shard.size) return *index;
  // Append-only: fold in just the rows added since the last call
  // (skipping any that were tombstoned before the index caught up).
  for (size_t row = index->rows_indexed; row < shard.size; ++row) {
    if (shard.num_dead != 0 && shard.dead[row] != 0) continue;
    index->postings[shard.data[row * arity_ + col]].push_back(
        static_cast<uint32_t>(row));
  }
  index->rows_indexed = shard.size;
  return *index;
}

void Relation::EnsureIndexed(size_t col) const {
  for (const Shard& shard : shards_) ShardIndex(shard, col);
}

std::span<const uint32_t> Relation::EqualRows(size_t col, Value value) const {
  // Always-on check: compiling this out would silently return only shard
  // 0's postings on a sharded relation (dropped join rows, no crash).
  // The call is not hot — the executor probes via EqualRowsPerShard.
  INFLOG_CHECK(shards_.size() == 1)
      << "EqualRows is single-shard only; use EqualRowsPerShard";
  const ColumnIndex& index = ShardIndex(shards_[0], col);
  auto it = index.postings.find(value);
  if (it == index.postings.end()) return {};
  return std::span<const uint32_t>(it->second.data(), it->second.size());
}

size_t Relation::EqualRowsPerShard(size_t col, Value value,
                                   std::span<const uint32_t>* spans) const {
  size_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ColumnIndex& index = ShardIndex(shards_[s], col);
    auto it = index.postings.find(value);
    if (it == index.postings.end()) {
      spans[s] = {};
      continue;
    }
    spans[s] =
        std::span<const uint32_t>(it->second.data(), it->second.size());
    total += it->second.size();
  }
  return total;
}

size_t Relation::InsertAll(const Relation& other) {
  INFLOG_DCHECK(other.arity_ == arity_);
  if (&other == this) return 0;  // self-union adds nothing (and iterating
                                 // a relation while growing it is UB)
  size_t added = 0;
  for (const Shard& src : other.shards_) {
    for (size_t row = 0; row < src.size; ++row) {
      if (src.num_dead != 0 && src.dead[row] != 0) continue;
      // Tuple hashes are shard-count independent; reuse the source cache.
      const size_t hash = src.row_hash[row];
      const TupleView tuple(src.data.data() + row * arity_, arity_);
      if (InsertIntoShard(&shards_[ShardOf(hash)], tuple, hash)) ++added;
    }
  }
  return added;
}

size_t Relation::MergeShardFrom(const Relation& other, size_t s) {
  INFLOG_DCHECK(other.arity_ == arity_);
  INFLOG_DCHECK(other.shards_.size() == shards_.size())
      << "shard-wise merge requires matching shard counts";
  INFLOG_DCHECK(&other != this);
  const Shard& src = other.shards_[s];
  Shard& dst = shards_[s];
  size_t added = 0;
  for (size_t row = 0; row < src.size; ++row) {
    if (src.num_dead != 0 && src.dead[row] != 0) continue;
    const TupleView tuple(src.data.data() + row * arity_, arity_);
    if (InsertIntoShard(&dst, tuple, src.row_hash[row])) ++added;
  }
  return added;
}

bool Relation::IsSubsetOf(const Relation& other) const {
  if (arity_ != other.arity_) return false;
  if (size() > other.size()) return false;
  for (const Shard& shard : shards_) {
    for (size_t row = 0; row < shard.size; ++row) {
      if (shard.num_dead != 0 && shard.dead[row] != 0) continue;
      if (!other.Contains(
              TupleView(shard.data.data() + row * arity_, arity_))) {
        return false;
      }
    }
  }
  return true;
}

bool Relation::operator==(const Relation& other) const {
  return arity_ == other.arity_ && size() == other.size() &&
         IsSubsetOf(other);
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> rows;
  rows.reserve(size());
  for (const Shard& shard : shards_) {
    for (size_t row = 0; row < shard.size; ++row) {
      if (shard.num_dead != 0 && shard.dead[row] != 0) continue;
      const Value* begin = shard.data.data() + row * arity_;
      rows.emplace_back(begin, begin + arity_);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string Relation::ToString(const SymbolTable& symbols) const {
  std::string out = "{";
  bool first = true;
  for (const Tuple& row : SortedTuples()) {
    if (!first) out += ", ";
    first = false;
    out += FormatTuple(symbols, row);
  }
  out += "}";
  return out;
}

}  // namespace inflog
