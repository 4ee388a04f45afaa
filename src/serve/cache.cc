#include "serve/cache.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/metric_names.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace chainsformer {
namespace serve {
namespace {

uint64_t CacheKey(kg::EntityId entity, kg::AttributeId attribute) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(entity)) << 32) |
         static_cast<uint32_t>(attribute);
}

}  // namespace

template <typename Value>
ShardedLruCache<Value>::ShardedLruCache(size_t capacity, size_t shards)
    : per_shard_capacity_(std::max<size_t>(1, (capacity + shards - 1) /
                                                  std::max<size_t>(1, shards))),
      shards_(std::max<size_t>(1, shards)) {
  CF_CHECK(shards >= 1) << "ShardedLruCache: shards must be >= 1";
}

template <typename Value>
typename ShardedLruCache<Value>::Shard& ShardedLruCache<Value>::ShardFor(
    uint64_t key) {
  // Mixed so shard assignment does not depend on attribute id bits alone.
  return shards_[Mix64(key) % shards_.size()];
}

template <typename Value>
bool ShardedLruCache<Value>::Get(kg::EntityId entity,
                                 kg::AttributeId attribute, Value* out) {
  static auto* hits =
      metrics::MetricsRegistry::Global().GetCounter(metrics::names::kServeCacheHits);
  static auto* misses =
      metrics::MetricsRegistry::Global().GetCounter(metrics::names::kServeCacheMisses);
  const uint64_t key = CacheKey(entity, attribute);
  Shard& shard = ShardFor(key);
  {
    cf::MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Move to front (most-recently-used) and copy out.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      *out = shard.lru.front().value;
      hits->Increment();
      return true;
    }
  }
  misses->Increment();
  return false;
}

template <typename Value>
void ShardedLruCache<Value>::Put(kg::EntityId entity,
                                 kg::AttributeId attribute, Value value) {
  const uint64_t key = CacheKey(entity, attribute);
  Shard& shard = ShardFor(key);
  cf::MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  while (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
  }
  shard.lru.push_front(Entry{key, std::move(value)});
  shard.index[key] = shard.lru.begin();
}

template <typename Value>
size_t ShardedLruCache<Value>::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    cf::MutexLock lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

template class ShardedLruCache<core::BatchPrediction>;
template class ShardedLruCache<core::TreeOfChains>;

}  // namespace serve
}  // namespace chainsformer
