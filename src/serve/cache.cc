#include "src/serve/cache.h"

#include <algorithm>

namespace inflog {
namespace serve {

std::optional<ServeAnswer> QueryCache::Lookup(const std::string& key,
                                              uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.epoch != epoch) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second.answer;
}

void QueryCache::Insert(const std::string& key, uint64_t epoch,
                        const std::vector<std::string>& support,
                        const ServeAnswer& answer) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch < current_epoch_) return;  // late insert from a retired pin
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.epoch >= epoch) return;
  entries_[key] = Entry{epoch, support, answer};
}

void QueryCache::Advance(const std::vector<std::string>* changed_relations,
                         uint64_t new_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  current_epoch_ = new_epoch;
  if (changed_relations == nullptr) {
    invalidations_ += entries_.size();
    entries_.clear();
    return;
  }
  std::vector<std::string> changed_sorted = *changed_relations;
  std::sort(changed_sorted.begin(), changed_sorted.end());
  for (auto it = entries_.begin(); it != entries_.end();) {
    // Both lists are sorted: linear intersection test.
    const std::vector<std::string>& support = it->second.support;
    const bool touched = std::find_first_of(
                             support.begin(), support.end(),
                             changed_sorted.begin(),
                             changed_sorted.end()) != support.end();
    if (touched) {
      ++invalidations_;
      it = entries_.erase(it);
    } else {
      it->second.epoch = new_epoch;
      ++it;
    }
  }
}

uint64_t QueryCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t QueryCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t QueryCache::invalidations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return invalidations_;
}

size_t QueryCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace serve
}  // namespace inflog
