#ifndef CHAINSFORMER_GRAPH_RUNTIME_H_
#define CHAINSFORMER_GRAPH_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/chainsformer.h"
#include "graph/executor.h"
#include "graph/plan.h"
#include "util/metrics.h"
#include "util/sync.h"

namespace chainsformer {
namespace graph {

/// Maximum |normalized compiled - normalized eager| the first-use parity
/// gate accepts from an int8 bucket. fp64 buckets keep the bitwise gate and
/// report a tolerance of 0.
inline constexpr double kInt8VerifyTolerance = 0.05;

/// Construction-time knobs for the runtime's reduced-precision serving
/// modes (DESIGN §6g).
struct RuntimeOptions {
  Precision precision = Precision::kFp64;
  // Required when precision == kInt8: the checkpoint's quantized weights
  // (rows must match this model's QuantizableLinears walk).
  std::shared_ptr<const QuantStore> quant;
};

/// Serves single-query predictions from compiled static plans with a small
/// per-geometry plan cache (DESIGN §6f). This is the serving dispatcher's one
/// way to compute a query: a model whose encoder does not compile
/// (Supports() is false) is answered by the eager PredictOnChainSets, like a
/// bucket that failed its gate or a full plan cache, and serves fp64.
///
/// Requests are bucketed by (k, padded max_len): k is exact, the token
/// length rounds up to the next multiple of two so nearby lengths share a
/// plan. The first request of a bucket traces one eager PredictOnChainSets
/// forward, compiles the plan, cross-checks the compiler's op skeleton
/// against the trace, and gates the bucket on the compiled result matching
/// the eager prediction bit-for-bit; any mismatch pins the bucket to the
/// eager path permanently (plan.verify_failures). Subsequent requests pop a
/// warmed PlanExecutor from the bucket's idle pool and run allocation-free.
///
/// Counters: plan.cache_hits / plan.cache_misses / plan.verify_failures;
/// gauge plan.arena_bytes totals the arena footprint of live plans.
///
/// Thread-safe: Predict may be called concurrently once the model is
/// trained; the model must outlive the runtime.
class StaticGraphRuntime {
 public:
  /// Per-call timing facts Predict reports back to a caller that is
  /// building a request trace (the serving layer's verify span).
  struct PredictStats {
    int64_t verify_us = 0;   // trace+compile+bitwise-verify gate, if it ran
    bool compiled = false;   // served from a warmed compiled plan
    bool bucket_miss = false;  // this call paid the bucket's first-use gate
  };

  /// Point-in-time facts about one cached plan bucket (admin endpoint).
  struct BucketStats {
    int64_t k = 0;
    int64_t max_len = 0;
    bool ready = false;
    bool eager_fallback = false;
    int64_t idle_executors = 0;
    int64_t arena_bytes = 0;
    // Numeric mode actually serving this bucket ("fp64" for a bucket the
    // parity gate pinned to the eager path) and the verify tolerance in use.
    const char* precision = "fp64";
    double verify_tolerance = 0.0;
  };

  explicit StaticGraphRuntime(const core::ChainsFormerModel& model);
  StaticGraphRuntime(const core::ChainsFormerModel& model,
                     RuntimeOptions options);

  StaticGraphRuntime(const StaticGraphRuntime&) = delete;
  StaticGraphRuntime& operator=(const StaticGraphRuntime&) = delete;

  /// True when the model's geometry compiles (Transformer chain encoder).
  /// Predict serves any other model through the eager tape.
  static bool Supports(const core::ChainsFormerModel& model);

  /// Bitwise equivalent of
  /// model.PredictOnChainSets({query}, {&chains})[0]: same value, same
  /// has_evidence, including the empty-chain-set fallback. When `stats` is
  /// non-null it is filled with this call's timing facts.
  core::BatchPrediction Predict(const core::Query& query,
                                const core::TreeOfChains& chains,
                                PredictStats* stats = nullptr) const;

  /// Snapshot of every cached plan bucket, ordered by (k, max_len).
  std::vector<BucketStats> Stats() const;

  Precision precision() const { return options_.precision; }
  double verify_tolerance() const {
    return options_.precision == Precision::kInt8 ? kInt8VerifyTolerance : 0.0;
  }

 private:
  struct Entry {
    cf::Mutex mu{"graph.plan_bucket"};
    bool ready CF_GUARDED_BY(mu) = false;
    bool eager_fallback CF_GUARDED_BY(mu) = false;
    std::shared_ptr<const Plan> plan CF_GUARDED_BY(mu);
    std::vector<std::unique_ptr<PlanExecutor>> idle CF_GUARDED_BY(mu);
  };

  core::BatchPrediction RunCompiled(Entry& entry, const core::Query& query,
                                    const core::TreeOfChains& chains) const;
  core::BatchPrediction Denormalized(const core::Query& query,
                                     float normalized) const;

  const core::ChainsFormerModel& model_;
  const bool compiles_;
  const RuntimeOptions options_;
  metrics::Counter* hits_;
  metrics::Counter* misses_;
  metrics::Counter* verify_failures_;
  metrics::Counter* verify_micros_;
  metrics::Counter* quant_fallbacks_;
  metrics::Gauge* arena_bytes_;
  mutable std::atomic<int64_t> arena_bytes_total_{0};
  mutable cf::Mutex mu_{"graph.plan_cache"};
  mutable std::map<std::pair<int64_t, int64_t>, std::shared_ptr<Entry>> plans_
      CF_GUARDED_BY(mu_);
};

}  // namespace graph
}  // namespace chainsformer

#endif  // CHAINSFORMER_GRAPH_RUNTIME_H_
