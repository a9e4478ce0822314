#ifndef URPSM_SRC_UTIL_LRU_CACHE_H_
#define URPSM_SRC_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace urpsm {

/// A fixed-capacity least-recently-used cache.
///
/// The paper (Sec. 6.1) keeps an LRU cache for shortest distance and path
/// queries shared by all compared algorithms. This reproduction queries
/// the hub labels directly instead (see README, "No shared distance
/// cache"), so nothing in `src/` uses this type any more; its deletion is
/// an open ROADMAP item. `Get` promotes the entry to most-recently-used.
/// Not thread-safe.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  /// Creates a cache holding at most `capacity` entries. A capacity of 0
  /// disables caching (every Get misses, Put is a no-op).
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;
  LruCache(LruCache&&) = default;
  LruCache& operator=(LruCache&&) = default;

  /// Returns the cached value for `key`, or nullopt on a miss.
  std::optional<V> Get(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Inserts or refreshes `key`, evicting the least-recently-used entry
  /// when at capacity.
  void Put(const K& key, V value) {
    if (capacity_ == 0) return;
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (map_.size() >= capacity_) {
      map_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(key, std::move(value));
    map_[key] = order_.begin();
  }

  /// Removes all entries but keeps hit/miss counters.
  void Clear() {
    map_.clear();
    order_.clear();
  }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

 private:
  using Entry = std::pair<K, V>;
  std::size_t capacity_;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<K, typename std::list<Entry>::iterator, Hash> map_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace urpsm

#endif  // URPSM_SRC_UTIL_LRU_CACHE_H_
