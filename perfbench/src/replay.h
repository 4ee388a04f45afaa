// The traced run's in-process side: the same request stream replayed
// through the layers' public entry points, each call timed from outside.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/chainsformer.h"
#include "harness.h"
#include "logic.h"
#include "serve/service.h"
#include "spans.h"

namespace perfbench {

/// InferenceService::Predict answers of a replayed stream.
struct ServiceReplay {
  std::vector<chainsformer::serve::ServeResponse> responses;
  std::vector<uint32_t> keys;  // key of responses[i]
};

/// Builds an InferenceService with `options`, warms it with `warm_order`,
/// then replays each schedule from `threads` threads, each request taken
/// by the first free thread at its due time (one call in flight per
/// thread, as one NDJSON connection each).
ServiceReplay ReplayService(const chainsformer::core::ChainsFormerModel& model,
                            const chainsformer::serve::ServeOptions& options,
                            const std::vector<uint32_t>& warm_order,
                            const std::vector<std::vector<Arrival>>& schedules,
                            const std::vector<KeyLine>& keys, int threads,
                            SpanLog* spans, uint64_t request_base);

/// Per-call layer times of one pass over a key stream, in the order the
/// service calls the layers: ShardedChainCache::Get; on a miss
/// RetrieveChains (and, on the same query, QueryRetrieval::Retrieve and
/// HyperbolicFilter::FilterTopK separately), then ShardedChainCache::Put;
/// then StaticGraphRuntime::Predict.
struct LayerTimes {
  std::vector<double> get_us, put_us, retrieve_us, walk_us, filter_us;
  std::vector<double> predict_us;   // warm compiled forwards only
  std::vector<double> blocking_us;  // per request: the calls above, summed
  int64_t requests = 0;
  int64_t misses = 0;
  int64_t toc_chains = 0;  // chains before the filter, summed over misses
  int64_t kept_chains = 0;
  double verify_us = 0.0;  // summed first-use gates, warm-up included
  int64_t buckets = 0;
  int64_t arena_bytes = 0;
  int64_t widest_rows = 0;  // max k * padded length over live buckets
  double mean_k = 0.0;      // over warm forwards
  double mean_len = 0.0;    // padded token length, over warm forwards
};

LayerTimes TimeLayers(const chainsformer::core::ChainsFormerModel& model,
                      size_t cache_capacity, size_t cache_shards,
                      const std::vector<uint32_t>& warm_order,
                      const std::vector<uint32_t>& stream,
                      const std::vector<KeyLine>& keys, SpanLog* spans,
                      uint64_t request_base);

/// An in-process serve::Router over TcpShardBackends wrapped in a timing
/// decorator, pointed at the real shard processes, with the router
/// process's per-shard attempt budget.
struct RouterReplay {
  std::vector<std::string> responses;
  std::vector<uint32_t> keys;
  std::vector<double> handle_us;   // Router::HandleLine
  std::vector<double> forward_us;  // decorated ShardBackend::Forward, summed
  std::vector<int64_t> per_shard;  // forwards per shard
};

RouterReplay ReplayRouter(const std::vector<int>& shard_ports,
                          int forward_timeout_ms,
                          const std::vector<std::vector<Arrival>>& schedules,
                          const std::vector<KeyLine>& keys, int threads,
                          SpanLog* spans, uint64_t request_base);

/// GFLOP/s of kernels::GemmAccSerial at C[m,n] += A[m,k] B[k,n], timed over
/// at least `min_seconds`.
double GemmGflops(int64_t m, int64_t k, int64_t n, double min_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
