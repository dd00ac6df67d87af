// ClauseArena: contiguous clause storage for the CDCL hot path.
//
// Clauses live in one flat uint32_t buffer and are addressed by ClauseRef
// (an offset into that buffer), so a propagation pass walks memory
// sequentially instead of chasing one heap allocation per clause. Layout:
//
//   problem clause:  [header][lit0][lit1]...            (1 header word)
//   learnt clause:   [header][lbd][activity][lit0]...   (3 header words)
//
// The header packs the literal count with a learned bit. Learnt clauses
// carry their LBD ("glue": the number of distinct decision levels in the
// clause when it was learned — Audemard & Simon's quality measure) and a
// float activity for the deletion policy's tie-breaks.
//
// The arena never shrinks in place; the solver compacts by copying live
// clauses into a fresh arena (CopyClause) and patching its refs through
// the relocation map it builds while copying.

#ifndef INFLOG_SAT_ARENA_H_
#define INFLOG_SAT_ARENA_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/base/logging.h"
#include "src/sat/cnf.h"

namespace inflog {
namespace sat {

/// Offset of a clause inside a ClauseArena buffer.
using ClauseRef = uint32_t;
constexpr ClauseRef kNullClauseRef = 0xFFFFFFFFu;

/// Flat clause allocator. All accessors take the ref returned by Alloc.
class ClauseArena {
 public:
  /// Allocates a clause; `lits` must hold `size` >= 1 literals.
  ClauseRef Alloc(const Lit* lits, uint32_t size, bool learned,
                  uint32_t lbd) {
    INFLOG_DCHECK(size >= 1);
    const ClauseRef ref = static_cast<ClauseRef>(buffer_.size());
    buffer_.push_back((size << 2) | (learned ? kLearnedBit : 0u));
    if (learned) {
      buffer_.push_back(lbd);
      buffer_.push_back(FloatBits(0.0f));
    }
    for (uint32_t i = 0; i < size; ++i) {
      buffer_.push_back(static_cast<uint32_t>(lits[i].code));
    }
    ++num_clauses_;
    return ref;
  }

  uint32_t size(ClauseRef ref) const { return buffer_[ref] >> 2; }
  bool learned(ClauseRef ref) const {
    return (buffer_[ref] & kLearnedBit) != 0;
  }

  uint32_t lbd(ClauseRef ref) const {
    INFLOG_DCHECK(learned(ref));
    return buffer_[ref + 1];
  }
  void set_lbd(ClauseRef ref, uint32_t lbd) {
    INFLOG_DCHECK(learned(ref));
    buffer_[ref + 1] = lbd;
  }
  float activity(ClauseRef ref) const {
    INFLOG_DCHECK(learned(ref));
    return BitsFloat(buffer_[ref + 2]);
  }
  void set_activity(ClauseRef ref, float a) {
    INFLOG_DCHECK(learned(ref));
    buffer_[ref + 2] = FloatBits(a);
  }

  /// Mutable literal array of the clause (size(ref) entries).
  Lit* lits(ClauseRef ref) {
    return reinterpret_cast<Lit*>(buffer_.data() + ref + HeaderWords(ref));
  }
  const Lit* lits(ClauseRef ref) const {
    return reinterpret_cast<const Lit*>(buffer_.data() + ref +
                                        HeaderWords(ref));
  }
  Lit lit(ClauseRef ref, uint32_t i) const { return lits(ref)[i]; }

  /// Copies the clause (header metadata and literals, mark cleared) into
  /// `to`, returning its ref there. Used by the solver's GC pass.
  ClauseRef CopyClause(ClauseRef ref, ClauseArena* to) const {
    const ClauseRef nref =
        to->Alloc(lits(ref), size(ref), learned(ref),
                  learned(ref) ? lbd(ref) : 0);
    if (learned(ref)) to->set_activity(nref, activity(ref));
    return nref;
  }

  size_t num_clauses() const { return num_clauses_; }
  size_t words() const { return buffer_.size(); }

  /// Trades buffers with `other` (used to install a compacted arena).
  void Swap(ClauseArena* other) {
    buffer_.swap(other->buffer_);
    std::swap(num_clauses_, other->num_clauses_);
  }

 private:
  static constexpr uint32_t kLearnedBit = 0x1;

  uint32_t HeaderWords(ClauseRef ref) const {
    return (buffer_[ref] & kLearnedBit) ? 3 : 1;
  }

  static uint32_t FloatBits(float f) {
    uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
  }
  static float BitsFloat(uint32_t u) {
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
  }

  std::vector<uint32_t> buffer_;
  size_t num_clauses_ = 0;
};

}  // namespace sat
}  // namespace inflog

#endif  // INFLOG_SAT_ARENA_H_
