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
// A stale entry (PreparedQuery::stale) recompiles, and engines rebind a
// stale held plan to the entry for its canonical string, so every surface
// shares one recompile.
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

  /// The compilation of `xpath` against `alphabet`: the cached one when
  /// present and not stale (a hit, moved to the front of the LRU), else a
  /// fresh one that replaces it (a miss, evicting the least-recently-used
  /// entry at capacity). Racing misses on one string are harmless: both
  /// compilations are valid, the loser is simply evicted earlier.
  StatusOr<std::shared_ptr<const PreparedQuery>> GetOrPrepare(
      std::string_view xpath, const std::shared_ptr<Alphabet>& alphabet) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->first != xpath) continue;
        if (!it->second->stale()) {
          entries_.splice(entries_.begin(), entries_, it);
          ++hits_;
          return entries_.front().second;
        }
        entries_.erase(it);
        break;
      }
      ++misses_;
    }
    XPWQO_ASSIGN_OR_RETURN(PreparedQuery query,
                           PreparedQuery::Prepare(xpath, alphabet));
    auto shared = std::make_shared<const PreparedQuery>(std::move(query));
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace_front(std::string(xpath), shared);
    if (entries_.size() > capacity_) entries_.pop_back();
    return shared;
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
