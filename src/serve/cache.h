#ifndef CHAINSFORMER_SERVE_CACHE_H_
#define CHAINSFORMER_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/chainsformer.h"
#include "core/ra_chain.h"
#include "kg/knowledge_graph.h"
#include "util/sync.h"

namespace chainsformer {
namespace serve {

/// Sharded LRU cache keyed by query (entity, attribute). Sound for anything
/// that is a deterministic function of the query under a frozen model: the
/// serving path caches answers (InferenceService), and a hit returns exactly
/// what a fresh computation would produce.
///
/// Thread-safety: fully thread-safe. Keys are hashed onto independent
/// shards, each protected by its own mutex, so concurrent client threads
/// rarely contend. Get() copies the value out under the shard lock.
///
/// Metrics: serve.cache_hits / serve.cache_misses counters on every Get().
///
/// Instantiated in cache.cc for the two value types below.
template <typename Value>
class ShardedLruCache {
 public:
  /// `capacity`: max entries across all shards (rounded up to a multiple of
  /// `shards`). `shards` must be >= 1; power of two recommended.
  explicit ShardedLruCache(size_t capacity, size_t shards = 16);

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Looks up (entity, attribute). On hit copies the value into `out`,
  /// marks the entry most-recently-used and returns true; on miss returns
  /// false and leaves `out` untouched.
  bool Get(kg::EntityId entity, kg::AttributeId attribute, Value* out);

  /// Inserts (or refreshes) the value for (entity, attribute), evicting the
  /// shard's least-recently-used entry when the shard is full.
  void Put(kg::EntityId entity, kg::AttributeId attribute, Value value);

  /// Entries currently resident. Intended for tests and stats output.
  size_t size() const;

 private:
  struct Entry {
    uint64_t key;
    Value value;
  };
  struct Shard {
    // One lock-order site for all shards: at most one shard lock is ever
    // held at a time (size() visits them one by one).
    mutable cf::Mutex mu{"serve.cache_shard"};
    // LRU order: front = most recent. The map points into the list.
    std::list<Entry> lru CF_GUARDED_BY(mu);
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index
        CF_GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t key);

  const size_t per_shard_capacity_;
  std::vector<Shard> shards_;
};

extern template class ShardedLruCache<core::BatchPrediction>;
extern template class ShardedLruCache<core::TreeOfChains>;

/// Trees of Chains by query (retrieval is deterministic per query,
/// ChainsFormerModel::RetrieveChains). The service no longer keeps one;
/// perfbench's layer timer still replays a ToC cache through this name.
using ShardedChainCache = ShardedLruCache<core::TreeOfChains>;

}  // namespace serve
}  // namespace chainsformer

#endif  // CHAINSFORMER_SERVE_CACHE_H_
