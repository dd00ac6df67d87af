// Tuples of domain values and hashing support.
//
// Relations store rows in a flat buffer; the owning Tuple type is used at
// API boundaries (insertion, enumeration results) and as hash-map keys.

#ifndef INFLOG_RELATION_TUPLE_H_
#define INFLOG_RELATION_TUPLE_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/relation/value.h"

namespace inflog {

/// An owning tuple of domain values.
using Tuple = std::vector<Value>;

/// A borrowed view of a tuple (e.g. a row inside a Relation's buffer).
using TupleView = std::span<const Value>;

/// FNV-1a style mixing over a value sequence. Stable across platforms.
inline size_t HashTuple(TupleView tuple) {
  uint64_t h = 1469598103934665603ULL;
  for (Value v : tuple) {
    h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
    h *= 1099511628211ULL;
    h ^= h >> 29;
  }
  return static_cast<size_t>(h);
}

/// Number of shard-index bits for a relation with `num_shards` shards
/// (num_shards is rounded up to a power of two by the Relation ctor).
inline uint32_t ShardBitsFor(size_t num_shards) {
  uint32_t bits = 0;
  while ((size_t{1} << bits) < num_shards) ++bits;
  return bits;
}

/// The shard a tuple with hash `hash` belongs to, out of 2^shard_bits.
/// Uses the top bits of a Fibonacci remix so the shard choice is
/// independent of the low bits that open-addressing slots consume; stable
/// across platforms (all arithmetic is explicit 64-bit).
inline uint32_t ShardOfHash(size_t hash, uint32_t shard_bits) {
  if (shard_bits == 0) return 0;
  const uint64_t mixed =
      static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ULL;
  return static_cast<uint32_t>(mixed >> (64 - shard_bits));
}

/// Transparent hash functor for Tuple/TupleView keys.
struct TupleHash {
  using is_transparent = void;
  size_t operator()(const Tuple& t) const { return HashTuple(t); }
  size_t operator()(TupleView t) const { return HashTuple(t); }
};

/// Transparent equality functor for Tuple/TupleView keys.
struct TupleEq {
  using is_transparent = void;
  bool operator()(TupleView a, TupleView b) const {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
};

/// Renders a tuple as "(a,b,c)", spelling each constant as facts do.
inline std::string FormatTuple(const SymbolTable& symbols, TupleView tuple) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ",";
    AppendConstant(symbols.Name(tuple[i]), &out);
  }
  out += ")";
  return out;
}

}  // namespace inflog

#endif  // INFLOG_RELATION_TUPLE_H_
