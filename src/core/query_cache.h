// QueryCache: a small, internally-locked LRU of string-compiled queries,
// shared by every surface that accepts query strings. Serving traffic
// repeats a handful of query shapes; 32 slots covers the paper's whole
// workload several times over, and the linear scan is noise next to one
// parse + compile.
//
// A standalone Engine owns a private cache; a Collection installs one
// shared cache into every engine it creates, so a query string compiles
// once per collection rather than once per shard — the hit/miss counters
// then aggregate across the whole collection and surface in the serving
// stats snapshot.
#ifndef XPWQO_CORE_QUERY_CACHE_H_
#define XPWQO_CORE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "core/prepared_query.h"

namespace xpwqo {

class QueryCache {
 public:
  static constexpr size_t kDefaultCapacity = 32;

  explicit QueryCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  /// The cached compilation for `xpath`, or null. A hit moves the entry to
  /// the front of the LRU; a null return counts as a miss. A stale entry
  /// (PreparedQuery::stale) is dropped and misses, so the caller recompiles.
  std::shared_ptr<const PreparedQuery> Lookup(std::string_view xpath) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == xpath) {
        if (it->second->stale()) {
          entries_.erase(it);
          break;
        }
        entries_.splice(entries_.begin(), entries_, it);
        ++hits_;
        return entries_.front().second;
      }
    }
    ++misses_;
    return nullptr;
  }

  /// Inserts a fresh compilation, evicting the least-recently-used entry at
  /// capacity. Racing inserts of the same string are harmless: both
  /// compilations are valid, the loser is simply evicted earlier.
  void Insert(std::string xpath, std::shared_ptr<const PreparedQuery> query) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace_front(std::move(xpath), std::move(query));
    if (entries_.size() > capacity_) entries_.pop_back();
  }

  int64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  int64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  std::list<std::pair<std::string, std::shared_ptr<const PreparedQuery>>>
      entries_;
};

}  // namespace xpwqo

#endif  // XPWQO_CORE_QUERY_CACHE_H_
