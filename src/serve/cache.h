#ifndef CHAINSFORMER_SERVE_CACHE_H_
#define CHAINSFORMER_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/ra_chain.h"
#include "kg/knowledge_graph.h"
#include "util/sync.h"

namespace chainsformer {
namespace serve {

/// Sharded LRU cache of retrieved (and filtered) Trees of Chains, keyed by
/// (entity, attribute). Retrieval is deterministic per query
/// (ChainsFormerModel::RetrieveChains), so a hit returns exactly the chain
/// set a fresh retrieval would produce — caching trades memory for the
/// dominant random-walk cost without affecting results.
///
/// Thread-safety: fully thread-safe. Keys are hashed onto independent
/// shards, each protected by its own mutex, so concurrent client threads
/// rarely contend. Get() copies the value out under the shard lock
/// (TreeOfChains is small: top_k chains of <= max_hops hops).
///
/// Metrics: serve.cache_hits / serve.cache_misses counters on every Get().
class ShardedChainCache {
 public:
  /// `capacity`: max entries across all shards (rounded up to a multiple of
  /// `shards`). `shards` must be >= 1; power of two recommended.
  explicit ShardedChainCache(size_t capacity, size_t shards = 16);

  ShardedChainCache(const ShardedChainCache&) = delete;
  ShardedChainCache& operator=(const ShardedChainCache&) = delete;

  /// Looks up the ToC for (entity, attribute). On hit copies it into `out`,
  /// marks the entry most-recently-used and returns true; on miss returns
  /// false and leaves `out` untouched.
  bool Get(kg::EntityId entity, kg::AttributeId attribute,
           core::TreeOfChains* out);

  /// Inserts (or refreshes) the ToC for (entity, attribute), evicting the
  /// shard's least-recently-used entry when the shard is full.
  void Put(kg::EntityId entity, kg::AttributeId attribute,
           core::TreeOfChains chains);

  /// Entries currently resident. Intended for tests and stats output.
  size_t size() const;

 private:
  struct Entry {
    uint64_t key;
    core::TreeOfChains chains;
  };
  struct Shard {
    // One lock-order site for all shards: at most one shard lock is ever
    // held at a time (size() visits them one by one).
    mutable cf::Mutex mu{"serve.cache_shard"};
    // LRU order: front = most recent. The map points into the list.
    std::list<Entry> lru CF_GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index
        CF_GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t key);

  const size_t per_shard_capacity_;
  std::vector<Shard> shards_;
};

}  // namespace serve
}  // namespace chainsformer

#endif  // CHAINSFORMER_SERVE_CACHE_H_
