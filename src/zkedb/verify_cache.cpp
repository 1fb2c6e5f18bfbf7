#include "zkedb/verify_cache.h"

#include <algorithm>

#include "crypto/hash.h"
#include "obs/metrics.h"

namespace desword::zkedb {

namespace {

obs::Counter& cache_hits() {
  static obs::Counter& c = obs::metric("zkedb.cache.hit");
  return c;
}

obs::Counter& cache_misses() {
  static obs::Counter& c = obs::metric("zkedb.cache.miss");
  return c;
}

obs::Counter& cache_evictions() {
  static obs::Counter& c = obs::metric("zkedb.cache.evict");
  return c;
}

}  // namespace

VerifyCache::VerifyCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::optional<VerifyOutcome> VerifyCache::lookup(const Bytes& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    cache_misses().add();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second.pos);
  cache_hits().add();
  return it->second.outcome;
}

void VerifyCache::store(const Bytes& key, const VerifyOutcome& outcome) {
  if (!outcome.ok) return;  // never cache rejections (see header)
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.outcome = outcome;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{outcome, lru_.begin()});
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    cache_evictions().add();
  }
}

Bytes VerifyCache::hop_key(std::string_view task_id,
                           std::string_view participant, BytesView product_id,
                           BytesView commitment, BytesView proof_bytes,
                           std::string_view kind) {
  TaggedHasher h("zkedb/cache/hop");
  h.add_str(task_id);
  h.add_str(participant);
  h.add(product_id);
  h.add(commitment);
  h.add(proof_bytes);
  h.add_str(kind);
  return h.digest();
}

}  // namespace desword::zkedb
