// Delta-invalidated query-result cache.
//
// Entries are keyed by the canonical query string (variables renamed
// $0,$1,... — see ParseServeQuery) and tagged with the epoch whose answer
// they hold plus the query's support set (the relations it reads). When
// the writer publishes epoch E+1 with net deltas touching relations D,
// Advance(D, E+1) erases exactly the entries whose support intersects D
// and re-tags the survivors with E+1 — their answers provably cannot have
// changed, because a serve query reads only its support relations and
// those are shared by pointer with the previous epoch.
//
// A lookup hits only when the entry's epoch equals the reader's pinned
// epoch, so a reader pinned to an older snapshot never sees a newer
// answer (and vice versa). Inserts never downgrade: an answer computed
// against an old pin is dropped if the cache has moved past that epoch.

#ifndef INFLOG_SERVE_CACHE_H_
#define INFLOG_SERVE_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/serve/query.h"

namespace inflog {
namespace serve {

/// Thread-safe (mutex-guarded) query-result cache with delta-precise
/// invalidation. One instance per serving session.
class QueryCache {
 public:
  /// The cached answer for `key` at exactly `epoch`, or nullopt. Counts a
  /// hit or a miss.
  std::optional<ServeAnswer> Lookup(const std::string& key, uint64_t epoch);

  /// Caches `answer` for `key`, valid at `epoch` with the given support
  /// set. Dropped (not an error) when the cache has already advanced
  /// past `epoch` or an entry for `key` exists at `epoch` or later — a
  /// late insert from a reader pinned to a retired epoch must not shadow
  /// fresher answers, and must not be re-tagged forward by a future
  /// Advance whose delta happens to miss its support (the invalidation
  /// that would have killed it already ran).
  void Insert(const std::string& key, uint64_t epoch,
              const std::vector<std::string>& support,
              const ServeAnswer& answer);

  /// Advances the cache to `new_epoch`: erases every entry whose support
  /// set intersects `changed_relations` (nullptr = everything changed,
  /// the oracle-recompute path) and re-tags the survivors with
  /// `new_epoch`. Writer-side, called once per published epoch.
  void Advance(const std::vector<std::string>* changed_relations,
               uint64_t new_epoch);

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t invalidations() const;
  size_t size() const;

 private:
  struct Entry {
    uint64_t epoch = 0;
    std::vector<std::string> support;  ///< sorted, from ServeQuery.
    ServeAnswer answer;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  /// The epoch of the last Advance; inserts below it are dropped.
  uint64_t current_epoch_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace serve
}  // namespace inflog

#endif  // INFLOG_SERVE_CACHE_H_
