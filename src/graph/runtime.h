#ifndef CHAINSFORMER_GRAPH_RUNTIME_H_
#define CHAINSFORMER_GRAPH_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "core/chainsformer.h"
#include "graph/executor.h"
#include "graph/pattern_table.h"
#include "graph/plan.h"
#include "util/metrics.h"
#include "util/sync.h"

namespace chainsformer {
namespace graph {

/// Maximum |normalized compiled - normalized eager| the first-use parity
/// gate accepts from an int8 bucket. fp64 buckets keep the bitwise gate and
/// report a tolerance of 0.
inline constexpr double kInt8VerifyTolerance = 0.05;

/// Row-storage budget of a runtime's pattern table: 8 MiB holds 32,768
/// end-token rows at d = 64, several times the patterns a paper-scale
/// graph's test and uniform keys produce.
inline constexpr int64_t kPatternTableBytes = int64_t{8} << 20;

/// Serves single-query predictions from compiled static plans with a small
/// per-geometry plan cache and a pattern table (DESIGN §6f). This is the
/// serving dispatcher's one way to compute a query: a model whose encoder
/// does not compile (Supports() is false) is answered by the eager
/// PredictOnChainSets, like a bucket that failed its gate or a full plan
/// cache, and serves fp64.
///
/// The forward is split at the end-token gather into two programs. Each
/// chain's end-token row comes from the pattern table when its pattern was
/// seen before; the encoder program runs over this request's missed
/// patterns only, bucketed by (count rounded up to a power of two, token
/// length rounded up to a multiple of two), and its rows enter the table.
/// The reasoner program then runs over the k rows, bucketed by k.
///
/// A bucket's first use is gated against the eager model, after an
/// op-skeleton cross-check: the encoder program's rows bitwise against
/// ChainEncoder::EndTokenRows, the reasoner program's value bitwise against
/// PredictOnChainSets. At int8 both are judged by the final value, within
/// kInt8VerifyTolerance in normalized space. A bucket that fails pins to the
/// eager path permanently (plan.verify_failures) and the request writes
/// nothing into the table. A bucket holds only its immutable Plan: every
/// calling thread runs both programs, gates included, in its own
/// thread_local executor pair, so warm requests run allocation-free.
///
/// A runtime handed a QuantStore serves int8: it packs the store once and
/// every plan it compiles points into those packs (DESIGN §6g).
///
/// Counters: plan.cache_hits / plan.cache_misses count requests served by
/// warm programs / requests that paid a first-use gate; plan.pattern_hits /
/// plan.pattern_misses count chains; gauges plan.arena_bytes (live plans)
/// and plan.pattern_bytes (table rows).
///
/// Thread-safe: Predict may be called concurrently once the model is
/// trained; the model must outlive the runtime.
class StaticGraphRuntime {
 public:
  /// Per-call timing facts Predict reports back to a caller that is
  /// building a request trace (the serving layer's verify span).
  struct PredictStats {
    int64_t verify_us = 0;   // first-use gate time, if one ran
    bool compiled = false;   // served from warmed compiled programs
    bool bucket_miss = false;  // this call paid a bucket's first-use gate
  };

  /// Point-in-time facts about one cached program bucket (admin endpoint).
  struct BucketStats {
    const char* program = "reasoner";  // "encoder" or "reasoner"
    int64_t k = 0;        // chains per run (the encoder's padded count)
    int64_t max_len = 0;  // encoder token length; 0 for the reasoner
    bool ready = false;
    bool eager_fallback = false;
    int64_t arena_bytes = 0;  // the plan's own arena
    // Numeric mode actually serving this bucket ("fp64" for a bucket the
    // parity gate pinned to the eager path) and the verify tolerance in use.
    const char* precision = "fp64";
    double verify_tolerance = 0.0;
  };

  /// Point-in-time size of the pattern table.
  struct PatternTableStats {
    int64_t rows = 0;
    int64_t bytes = 0;
    int64_t capacity_bytes = 0;
    bool full = false;  // new patterns are encoded per request, not kept
  };

  /// Serves fp64, or int8 when `quant` (the checkpoint's quantized weights,
  /// rows matching this model's QuantizableLinears walk) is non-null; the
  /// store is packed here and not referenced afterwards.
  explicit StaticGraphRuntime(const core::ChainsFormerModel& model,
                              const QuantStore* quant = nullptr);

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

  /// Snapshot of every cached program bucket: encoder buckets ordered by
  /// (k, max_len), then reasoner buckets by k.
  std::vector<BucketStats> Stats() const;

  PatternTableStats pattern_table() const;

  Precision precision() const {
    return int8_ != nullptr ? Precision::kInt8 : Precision::kFp64;
  }
  double verify_tolerance() const {
    return int8_ != nullptr ? kInt8VerifyTolerance : 0.0;
  }

 private:
  // (program, chains per run, token length).
  using BucketKey = std::tuple<Program, int64_t, int64_t>;
  // A bucket is pending until its first-use gate settles it with a plan or
  // pins it to the eager path; either is final.
  struct Bucket {
    std::unique_ptr<const Plan> plan;
    bool eager_fallback = false;
  };
  /// What a request finds in a bucket.
  struct Found {
    const Plan* plan = nullptr;  // settled; lives as long as the runtime
    bool eager_fallback = false;
    bool cache_full = false;  // unseen, and the plan cache has no room
  };

  /// One request's table misses and the encoder program input they make.
  struct Misses {
    PatternMisses missed;  // missed.pattern[i]: chain's row in the output
    std::vector<const core::RAChain*> unique;  // one chain per pattern
    int64_t max_tokens = 0;  // longest token sequence among unique
  };

  core::BatchPrediction Eager(const core::Query& query,
                              const core::TreeOfChains& chains) const;
  /// Plan cache full: serve eagerly without compiling another plan.
  core::BatchPrediction PlanCacheFull(const core::Query& query,
                                      const core::TreeOfChains& chains) const;
  core::BatchPrediction Denormalized(const core::Query& query,
                                     float normalized) const;
  /// The state of the bucket for `key`, registered as pending on first
  /// sight while the plan cache has room.
  Found Find(const BucketKey& key) const;
  static BucketKey EncoderKey(const Misses& misses);
  static Misses CollectMisses(const core::TreeOfChains& chains,
                              PatternMisses missed);
  /// Runs the encoder program over the distinct missed patterns and copies
  /// each missed chain's row into `rows`. Returns the program's rows.
  const float* EncodeMisses(PlanExecutor& encoder, const Plan& plan,
                            const Misses& misses, float* rows) const;
  /// Inserts the encoder program's rows into the pattern table.
  void Remember(const Misses& misses, const float* encoded) const;
  void CountPatterns(int64_t hits, int64_t misses) const;
  /// Serves a non-empty request through its encoder and reasoner buckets.
  /// Without `gating`, returns nullopt when a bucket still waits for its
  /// first-use gate; with it (the caller holds gate_mu_, so gates run one
  /// at a time) compiles and verifies the new buckets.
  std::optional<core::BatchPrediction> Serve(const core::Query& query,
                                             const core::TreeOfChains& chains,
                                             PredictStats* stats,
                                             bool gating) const;
  /// The encoder gate: op skeleton, and at fp64 the rows bitwise, against
  /// ChainEncoder::EndTokenRows over the same patterns.
  bool VerifyEncoder(const Misses& misses, const Plan& plan,
                     const float* encoded) const;
  /// The final-value gate: bitwise at fp64, kInt8VerifyTolerance at int8.
  bool VerifyValue(const core::Query& query, int64_t k, float normalized,
                   const core::BatchPrediction& eager) const;
  void Settle(const BucketKey& key, std::unique_ptr<const Plan> plan) const;
  void Pin(const BucketKey& key) const;

  const core::ChainsFormerModel& model_;
  const bool compiles_;
  // The packed int8 weights every plan points into; null serves fp64.
  const std::shared_ptr<const Int8PackSet> int8_;
  metrics::Counter* hits_;
  metrics::Counter* misses_;
  metrics::Counter* verify_failures_;
  metrics::Counter* verify_micros_;
  metrics::Counter* quant_fallbacks_;
  metrics::Counter* pattern_hits_;
  metrics::Counter* pattern_misses_;
  metrics::Gauge* arena_bytes_;
  metrics::Gauge* pattern_bytes_;
  mutable std::atomic<int64_t> arena_bytes_total_{0};
  mutable PatternTable table_;
  // Serializes first-use gates: held through the eager forward, the
  // compilation and the compiled replay of every gate.
  mutable cf::Mutex gate_mu_{"graph.plan_gate"};
  mutable cf::Mutex mu_{"graph.plan_cache"};
  mutable std::map<BucketKey, Bucket> plans_ CF_GUARDED_BY(mu_);
};

}  // namespace graph
}  // namespace chainsformer

#endif  // CHAINSFORMER_GRAPH_RUNTIME_H_
