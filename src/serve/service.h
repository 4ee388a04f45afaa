#ifndef CHAINSFORMER_SERVE_SERVICE_H_
#define CHAINSFORMER_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/chainsformer.h"
#include "graph/quant.h"
#include "serve/cache.h"
#include "util/sync.h"

namespace chainsformer {
namespace graph {
class StaticGraphRuntime;
}  // namespace graph
}  // namespace chainsformer

namespace chainsformer {
namespace serve {

/// Accuracy gate for int8 serving: when the checkpoint's recorded
/// calibration error (QuantStore::mae_delta, normalized space) exceeds this
/// budget — or no quantized weights were loaded at all — the service
/// refuses int8, increments serve.quant_rejected, and serves fp64 instead.
/// Speed never silently buys wrong answers.
inline constexpr double kQuantErrorBudget = 0.05;

/// Tuning knobs of InferenceService. Defaults favor latency; raise
/// batch_window_us under throughput-oriented load (bench/bench_serve sweeps
/// the trade-off).
struct ServeOptions {
  /// How long the dispatcher waits after the first queued request for more
  /// requests to coalesce into the same micro-batch. 0 = dispatch
  /// immediately (still batches whatever is already queued).
  int64_t batch_window_us = 200;
  /// Upper bound on requests per micro-batch.
  int max_batch = 32;
  /// Per-request deadline. A request that cannot be answered by the model
  /// within this budget degrades to the attribute-mean fallback instead of
  /// blocking the client. <= 0 disables deadlines.
  int64_t deadline_ms = 50;
  /// Tree-of-Chains retrieval cache entries across all shards (0 disables
  /// caching).
  size_t cache_capacity = 4096;
  size_t cache_shards = 16;
  /// Worker threads the dispatcher fans a micro-batch's per-query forwards
  /// across. 1 = fully serial dispatch; 0 = one per hardware thread.
  /// Batching only beats single-request dispatch when this is > 1.
  int compute_threads = 0;
  /// Numeric mode of the static-graph Linear steps (DESIGN §6g). kInt8
  /// requires `quant` and a model whose encoder compiles, and is refused
  /// over kQuantErrorBudget.
  graph::Precision precision = graph::Precision::kFp64;
  /// Quantized weights from the checkpoint's "quant_int8" block (null when
  /// the checkpoint has none).
  std::shared_ptr<const graph::QuantStore> quant;
};

/// One answered query.
struct ServeResponse {
  double value = 0.0;
  /// True when the model did not produce this value: the query had no
  /// retrievable chains, its deadline expired, or the service is shutting
  /// down. The value then comes from the train-split attribute mean
  /// (GlobalMeanBaseline semantics) — always answer, never crash.
  bool degraded = false;
  /// "model", "empty_toc", "deadline", or "shutdown".
  std::string source;
  /// Wall time spent inside Predict() for this request.
  int64_t latency_us = 0;
  /// Size of the micro-batch this request rode in (0 when degraded before
  /// dispatch).
  int batch_size = 0;

  /// 64-bit id tying this response to its spans in the Chrome trace:
  /// the client-supplied id, or one generated from the deterministic RNG
  /// seam. Never 0.
  uint64_t trace_id = 0;
  /// Sequence number of the micro-batch that answered the request (-1 when
  /// degraded before dispatch).
  int64_t batch_id = -1;
  /// True when a duplicate (entity, attribute) request in the same batch
  /// did the forward pass for this one.
  bool dedup_collapsed = false;
  /// True when the Tree of Chains came out of the LRU cache.
  bool cache_hit = false;
  /// Numeric mode that computed this value: the runtime's serving
  /// precision, or "fp64" for degraded answers.
  const char* precision = "fp64";

  /// Per-phase breakdown of latency_us. queue/window/compute/verify are 0
  /// for requests degraded before dispatch; verify_us > 0 only when this
  /// request paid a plan bucket's first-use compile+verify gate.
  int64_t cache_us = 0;    // ToC cache lookup + (on miss) retrieval
  int64_t queue_us = 0;    // enqueue -> dispatcher wake
  int64_t window_us = 0;   // coalescing-window share of the wait
  int64_t compute_us = 0;  // forward pass of the owning micro-batch
  int64_t verify_us = 0;   // static-plan trace+compile+verify gate

  /// trace::NowNs() when Predict() finished the request, so a caller that
  /// continues the request's timeline (the NDJSON handler's serialize
  /// phase) starts it without a clock read of its own.
  uint64_t end_ns = 0;
};

/// Batching inference front-end for a loaded ChainsFormerModel.
///
/// N client threads call Predict() concurrently. Each client thread
/// retrieves the query's Tree of Chains itself (through the sharded LRU
/// cache, so hot queries skip the random-walk cost), then parks the request
/// on a queue; a single dispatcher thread groups queued requests into
/// micro-batches and answers each unique query through the
/// graph::StaticGraphRuntime (compiled plans, DESIGN §6f; the runtime
/// itself falls back to the eager tape where a plan cannot serve). Two
/// effects make the batch cheaper than dispatching its requests one at a
/// time (DESIGN §6e): duplicate (entity, attribute) requests are coalesced
/// into a single forward pass (sound because predictions are
/// deterministic; counted by serve.batch_dedup), and the remaining unique
/// queries fan out across a compute pool (ServeOptions::compute_threads)
/// when hardware threads are available.
///
/// Results are bitwise-identical to calling ChainsFormerModel::Predict on
/// the same query (DESIGN §6c batching invariance), regardless of which
/// requests share a batch.
///
/// Precondition: `model` outlives the service and is trained; it must not
/// be mutated (trained further) while the service is running.
/// Thread-safety: Predict() may be called from any thread. The destructor
/// drains in-flight requests (they complete degraded, tagged "shutdown").
class InferenceService {
 public:
  InferenceService(const core::ChainsFormerModel& model,
                   const ServeOptions& options);
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Answers one query. Blocks the calling thread until the micro-batch
  /// containing the request completes or the deadline expires; always
  /// returns a usable value (degraded fallback on any failure path).
  /// `trace_id` ties the request's spans and response together; pass 0 to
  /// have the service generate one from its deterministic RNG seam.
  ServeResponse Predict(const core::Query& query, uint64_t trace_id = 0);

  const ServeOptions& options() const { return options_; }
  /// The runtime that answers every batch; never null (the admin endpoint
  /// reads per-bucket plan stats through this).
  const graph::StaticGraphRuntime* static_runtime() const {
    return runtime_.get();
  }
  /// True when int8 was requested but the accuracy gate refused it (no
  /// quantized weights, or calibration error over kQuantErrorBudget).
  bool quant_rejected() const { return quant_rejected_; }

  /// Requests queued for the dispatcher and not yet collected into a batch.
  size_t queue_depth() const;

  /// Test seam: `hook` runs on the dispatcher thread once per collected
  /// micro-batch, after collection and before any model work on it, so a
  /// test can hold the dispatcher at a known step instead of racing a wall
  /// clock. An empty function (the default) clears it.
  void SetBatchHookForTesting(std::function<void()> hook);

 private:
  struct Pending {
    // Filled by the client thread before the request is published to the
    // queue; immutable afterwards (the queue handoff is the barrier).
    core::Query query;
    core::TreeOfChains chains;
    uint64_t trace_id = 0;
    uint64_t enqueue_ns = 0;  // trace::NowNs() at queue join
    cf::Mutex mu{"serve.pending"};
    cf::CondVar cv;
    ServeResponse response CF_GUARDED_BY(mu);
    bool done CF_GUARDED_BY(mu) = false;
  };

  void DispatchLoop();
  double Fallback(kg::AttributeId attribute) const;

  const core::ChainsFormerModel& model_;
  const ServeOptions options_;
  ShardedChainCache cache_;
  /// Train-mean fallback per attribute, precomputed so the degraded path
  /// never touches shared mutable state.
  std::vector<double> fallback_values_;

  /// Pool for intra-batch parallelism; null when compute_threads == 1.
  std::unique_ptr<ThreadPool> compute_pool_;
  /// Answers every unique query of a micro-batch.
  std::unique_ptr<graph::StaticGraphRuntime> runtime_;
  bool quant_rejected_ = false;

  /// Requests that have entered Predict() but not yet joined the queue
  /// (they are retrieving chains on their client thread). The dispatcher
  /// only opens the coalescing window when this is non-zero — with nothing
  /// on the way, waiting batch_window_us would buy no batching and cost
  /// pure latency (the uniform-workload regression; counted by
  /// serve.immediate_dispatch).
  std::atomic<int64_t> arriving_{0};

  /// Trace-id generation: a salt drawn from the deterministic RNG seam
  /// (model seed) mixed with a per-request sequence number, so ids are
  /// reproducible per process yet unique per request.
  uint64_t trace_salt_ = 0;
  std::atomic<uint64_t> trace_seq_{0};
  /// Micro-batch sequence number (response/span annotation).
  std::atomic<int64_t> batch_seq_{0};

  mutable cf::Mutex queue_mu_{"serve.queue"};
  cf::CondVar queue_cv_;
  std::deque<std::shared_ptr<Pending>> queue_ CF_GUARDED_BY(queue_mu_);
  bool shutdown_ CF_GUARDED_BY(queue_mu_) = false;
  std::function<void()> batch_hook_ CF_GUARDED_BY(queue_mu_);
  std::thread dispatcher_;
};

}  // namespace serve
}  // namespace chainsformer

#endif  // CHAINSFORMER_SERVE_SERVICE_H_
