#include "serve/cache.hpp"

#include <utility>

#include "verify/repro_io.hpp"

namespace cmesolve::serve {

std::string cache_key(const verify::Scenario& sc) {
  return verify::serialize_repro(sc);
}

std::shared_ptr<const std::vector<real_t>> ResultCache::find_exact(
    const std::string& key) {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.exact_misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.exact_hits;
  return it->second->p;
}

void ResultCache::insert(const std::string& key, std::vector<real_t> p) {
  if (capacity_ == 0) return;
  auto shared = std::make_shared<const std::vector<real_t>>(std::move(p));
  std::lock_guard<std::mutex> lk(m_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->p = std::move(shared);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(shared)});
  index_.emplace(key, lru_.begin());
  ++stats_.insertions;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = lru_.size();
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  CacheStats s = stats_;
  s.entries = lru_.size();
  return s;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return lru_.size();
}

}  // namespace cmesolve::serve
