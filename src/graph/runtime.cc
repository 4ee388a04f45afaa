#include "graph/runtime.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "graph/trace.h"
#include "tensor/op_observer.h"
#include "util/logging.h"
#include "util/metric_names.h"
#include "util/trace.h"

namespace chainsformer {
namespace graph {
namespace {

// Plan-cache size backstop; beyond this, unseen buckets serve eagerly.
constexpr size_t kMaxPlans = 256;

// Token-length buckets are multiples of two, and the encoder's count bucket
// is a power of two: padding the sequence length or adding fully masked
// chains is bitwise-neutral (GEMM strip invariance, row independence and
// exact-zero masked-softmax rows; DESIGN §6c, §6f). The reasoner's k stays
// exact: it changes the reduction geometry.
int64_t LengthBucket(int64_t max_tokens) { return ((max_tokens + 1) / 2) * 2; }

int64_t CountBucket(int64_t chains) {
  int64_t bucket = 1;
  while (bucket < chains) bucket *= 2;
  return bucket;
}

int64_t MaxTokens(const core::TreeOfChains& chains) {
  int64_t mx = 0;
  for (const core::RAChain& c : chains) mx = std::max(mx, c.length() + 3);
  return mx;
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SkeletonMatches(const char* program,
                     const std::vector<TraceEvent>& expected,
                     const std::vector<TraceEvent>& got) {
  if (expected.size() != got.size()) {
    CF_LOG(Warning) << "static-graph " << program
                    << " trace skeleton mismatch: expected " << expected.size()
                    << " ops, traced " << got.size();
    return false;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != got[i]) {
      CF_LOG(Warning) << "static-graph " << program << " trace mismatch at op "
                      << i << ": expected " << FormatTraceEvent(expected[i])
                      << ", traced " << FormatTraceEvent(got[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

/// An executor checked out of a bucket's idle pool. The pool gets it back
/// when the lease ends if the bucket is settled by then and the pool has
/// room; an executor of a bucket that is still gating or was pinned is
/// dropped.
class StaticGraphRuntime::Lease {
 public:
  explicit Lease(std::shared_ptr<Entry> entry) : entry_(std::move(entry)) {
    std::shared_ptr<const Plan> plan;
    {
      cf::MutexLock lock(entry_->mu);
      eager_fallback_ = entry_->eager_fallback;
      if (!entry_->ready || eager_fallback_) return;
      if (!entry_->idle.empty()) {
        executor_ = std::move(entry_->idle.back());
        entry_->idle.pop_back();
        return;
      }
      plan = entry_->plan;
    }
    executor_ = std::make_unique<PlanExecutor>(std::move(plan));
  }

  ~Lease() {
    if (executor_ == nullptr) return;
    cf::MutexLock lock(entry_->mu);
    if (entry_->ready && !entry_->eager_fallback &&
        entry_->idle.size() < entry_->max_idle) {
      entry_->idle.push_back(std::move(executor_));
    }
  }

  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  bool eager_fallback() const { return eager_fallback_; }
  /// Null while the bucket waits for its first-use gate.
  PlanExecutor* executor() const { return executor_.get(); }
  Entry& entry() const { return *entry_; }

  /// Gate path: an executor over a plan the bucket does not hold yet.
  void Start(std::shared_ptr<const Plan> plan) {
    executor_ = std::make_unique<PlanExecutor>(std::move(plan));
  }

 private:
  std::shared_ptr<Entry> entry_;
  bool eager_fallback_ = false;
  std::unique_ptr<PlanExecutor> executor_;
};

StaticGraphRuntime::StaticGraphRuntime(const core::ChainsFormerModel& model)
    : StaticGraphRuntime(model, RuntimeOptions{}) {}

StaticGraphRuntime::StaticGraphRuntime(const core::ChainsFormerModel& model,
                                       RuntimeOptions options)
    : model_(model),
      compiles_(Supports(model)),
      options_(std::move(options)),
      table_(model.encoder().hidden_dim(), kPatternTableBytes) {
  auto& reg = metrics::MetricsRegistry::Global();
  hits_ = reg.GetCounter(metrics::names::kPlanCacheHits);
  misses_ = reg.GetCounter(metrics::names::kPlanCacheMisses);
  verify_failures_ = reg.GetCounter(metrics::names::kPlanVerifyFailures);
  verify_micros_ = reg.GetCounter(metrics::names::kPlanVerifyMicros);
  quant_fallbacks_ = reg.GetCounter(metrics::names::kPlanQuantFallbacks);
  pattern_hits_ = reg.GetCounter(metrics::names::kPlanPatternHits);
  pattern_misses_ = reg.GetCounter(metrics::names::kPlanPatternMisses);
  arena_bytes_ = reg.GetGauge(metrics::names::kPlanArenaBytes);
  pattern_bytes_ = reg.GetGauge(metrics::names::kPlanPatternBytes);
  CF_CHECK(options_.precision != Precision::kInt8 ||
           (compiles_ && options_.quant != nullptr))
      << "int8 serving requires a compiled encoder and the checkpoint's "
         "quantization store";
}

bool StaticGraphRuntime::Supports(const core::ChainsFormerModel& model) {
  return model.config().encoder_type == core::EncoderType::kTransformer;
}

core::BatchPrediction StaticGraphRuntime::Eager(
    const core::Query& query, const core::TreeOfChains& chains) const {
  return model_.PredictOnChainSets({query}, {&chains})[0];
}

core::BatchPrediction StaticGraphRuntime::PlanCacheFull(
    const core::Query& query, const core::TreeOfChains& chains) const {
  misses_->Increment();
  return Eager(query, chains);
}

core::BatchPrediction StaticGraphRuntime::Denormalized(
    const core::Query& query, float normalized) const {
  // Mirrors the eager finish: clamp in double, then denormalize with the
  // query attribute's training stats.
  CF_CHECK_LT(static_cast<size_t>(query.attribute),
              model_.train_stats().size());
  const kg::AttributeStats& s =
      model_.train_stats()[static_cast<size_t>(query.attribute)];
  const double clamped =
      std::clamp(static_cast<double>(normalized), -0.1, 1.1);
  core::BatchPrediction out;
  out.value = s.Denormalize(clamped);
  out.has_evidence = true;
  return out;
}

std::shared_ptr<StaticGraphRuntime::Entry> StaticGraphRuntime::Bucket(
    const BucketKey& key) const {
  cf::MutexLock lock(mu_);
  auto it = plans_.find(key);
  if (it != plans_.end()) return it->second;
  if (plans_.size() >= kMaxPlans) return nullptr;
  auto entry = std::make_shared<Entry>(
      std::get<0>(key) == Program::kEncoder ? 1 : SIZE_MAX);
  plans_.emplace(key, entry);
  return entry;
}

StaticGraphRuntime::BucketKey StaticGraphRuntime::EncoderKey(
    const Misses& misses) {
  return {Program::kEncoder,
          CountBucket(static_cast<int64_t>(misses.unique.size())),
          LengthBucket(misses.max_tokens)};
}

StaticGraphRuntime::Misses StaticGraphRuntime::CollectMisses(
    const core::TreeOfChains& chains, PatternMisses missed) {
  Misses out;
  out.missed = std::move(missed);
  out.unique.reserve(out.missed.first.size());
  for (int64_t i : out.missed.first) {
    const core::RAChain& c = chains[static_cast<size_t>(i)];
    out.unique.push_back(&c);
    out.max_tokens = std::max(out.max_tokens, c.length() + 3);
  }
  return out;
}

const float* StaticGraphRuntime::EncodeMisses(PlanExecutor& encoder,
                                              const Misses& misses,
                                              float* rows) const {
  const float* encoded = encoder.RunEncoder(misses.unique);
  const int64_t d = table_.dim();
  const PatternMisses& missed = misses.missed;
  for (size_t i = 0; i < missed.chain.size(); ++i) {
    std::memcpy(rows + missed.chain[i] * d, encoded + missed.pattern[i] * d,
                static_cast<size_t>(d) * sizeof(float));
  }
  return encoded;
}

void StaticGraphRuntime::Remember(const Misses& misses,
                                  const float* encoded) const {
  if (table_.Insert(misses.unique, encoded) > 0) {
    pattern_bytes_->Set(static_cast<double>(table_.bytes()));
  }
}

void StaticGraphRuntime::CountPatterns(int64_t hits, int64_t misses) const {
  if (hits > 0) pattern_hits_->Increment(hits);
  if (misses > 0) pattern_misses_->Increment(misses);
}

std::vector<StaticGraphRuntime::BucketStats> StaticGraphRuntime::Stats()
    const {
  std::vector<std::pair<BucketKey, std::shared_ptr<Entry>>> entries;
  {
    cf::MutexLock lock(mu_);
    entries.assign(plans_.begin(), plans_.end());
  }
  std::vector<BucketStats> out;
  out.reserve(entries.size());
  for (const auto& [key, entry] : entries) {
    BucketStats s;
    const auto& [program, chains, max_len] = key;
    s.program = program == Program::kEncoder ? "encoder" : "reasoner";
    s.k = chains;
    s.max_len = max_len;
    cf::MutexLock lock(entry->mu);
    s.ready = entry->ready;
    s.eager_fallback = entry->eager_fallback;
    s.precision = entry->eager_fallback ? PrecisionName(Precision::kFp64)
                                        : PrecisionName(options_.precision);
    s.verify_tolerance = verify_tolerance();
    s.idle_executors = static_cast<int64_t>(entry->idle.size());
    if (entry->plan != nullptr) {
      s.arena_bytes =
          entry->plan->arena_floats * static_cast<int64_t>(sizeof(float));
    }
    out.push_back(s);
  }
  return out;
}

StaticGraphRuntime::PatternTableStats StaticGraphRuntime::pattern_table()
    const {
  PatternTableStats s;
  s.rows = table_.rows();
  s.bytes = s.rows * table_.dim() * static_cast<int64_t>(sizeof(float));
  s.capacity_bytes = table_.capacity_rows() * table_.dim() *
                     static_cast<int64_t>(sizeof(float));
  s.full = s.rows >= table_.capacity_rows();
  return s;
}

core::BatchPrediction StaticGraphRuntime::Predict(
    const core::Query& query, const core::TreeOfChains& chains,
    PredictStats* stats) const {
  if (!compiles_) return Eager(query, chains);
  if (chains.empty()) {
    // Eager empty-chain-set fallback, reproduced exactly.
    CF_CHECK_LT(static_cast<size_t>(query.attribute),
                model_.train_stats().size());
    const kg::AttributeStats& s =
        model_.train_stats()[static_cast<size_t>(query.attribute)];
    core::BatchPrediction out;
    out.value = s.Denormalize(
        std::clamp(model_.FallbackNormalized(query.attribute), -0.1, 1.1));
    out.has_evidence = false;
    return out;
  }

  if (std::optional<core::BatchPrediction> served =
          Serve(query, chains, stats, /*gating=*/false)) {
    return *served;
  }
  // A bucket waits for its first-use gate.
  cf::MutexLock gate(gate_mu_);
  CF_TRACE_SCOPE("plan.verify");
  return *Serve(query, chains, stats, /*gating=*/true);
}

std::optional<core::BatchPrediction> StaticGraphRuntime::Serve(
    const core::Query& query, const core::TreeOfChains& chains,
    PredictStats* stats, bool gating) const {
  const uint64_t gate_start_ns = gating ? trace::NowNs() : 0;
  const int64_t k = static_cast<int64_t>(chains.size());
  // Under the gate lock both buckets are read afresh: an earlier gate may
  // have settled or pinned them while this call waited.
  std::shared_ptr<Entry> reasoner_entry = Bucket({Program::kReasoner, k, 0});
  if (reasoner_entry == nullptr) return PlanCacheFull(query, chains);
  Lease reasoner(std::move(reasoner_entry));
  // Checked per call so pinned buckets serve eagerly in parallel (the flag
  // is monotonic once ready).
  if (reasoner.eager_fallback()) return Eager(query, chains);
  std::shared_ptr<const Plan> reasoner_plan;
  if (reasoner.executor() == nullptr) {
    if (!gating) return std::nullopt;
    reasoner_plan = std::make_shared<const Plan>(CompileReasonerPlan(
        model_, k, options_.precision, options_.quant.get()));
    reasoner.Start(reasoner_plan);
  }

  // The table fills the reasoner's input rows; the encoder program runs
  // only over patterns it has not seen.
  float* rows = reasoner.executor()->rows();
  PatternMisses missed;  // stays unallocated when every pattern hits
  const int64_t found = table_.Lookup(chains, rows, &missed);
  const Misses misses = CollectMisses(chains, std::move(missed));
  std::optional<Lease> encoder;
  std::shared_ptr<const Plan> encoder_plan;
  if (!misses.unique.empty()) {
    const BucketKey key = EncoderKey(misses);
    std::shared_ptr<Entry> entry = Bucket(key);
    if (entry == nullptr) return PlanCacheFull(query, chains);
    encoder.emplace(std::move(entry));
    if (encoder->eager_fallback()) return Eager(query, chains);
    if (encoder->executor() == nullptr) {
      if (!gating) return std::nullopt;
      encoder_plan = std::make_shared<const Plan>(
          CompileEncoderPlan(model_, std::get<1>(key), std::get<2>(key),
                             options_.precision, options_.quant.get()));
      encoder->Start(encoder_plan);
    }
  }
  CountPatterns(found, k - found);

  if (reasoner_plan == nullptr && encoder_plan == nullptr) {
    // Warm: both buckets settled (under the gate lock, by the gate this
    // call waited behind).
    if (encoder) {
      Remember(misses, EncodeMisses(*encoder->executor(), misses, rows));
    }
    hits_->Increment();
    if (stats != nullptr) stats->compiled = true;
    return Denormalized(query, reasoner.executor()->RunReasoner(chains));
  }

  // First use of at least one bucket: run the programs, verify each new one
  // against the eager model, and serve the eager answer unless all pass.
  misses_->Increment();
  const float* encoded = nullptr;
  bool encoder_ok = true;
  if (encoder) {
    encoded = EncodeMisses(*encoder->executor(), misses, rows);
    if (encoder_plan != nullptr) {
      encoder_ok = VerifyEncoder(misses, *encoder_plan, encoded);
    }
  }
  bool reasoner_ran = false;
  bool reasoner_ok = true;
  core::BatchPrediction compiled;
  std::optional<core::BatchPrediction> eager;
  if (encoder_ok) {
    const float normalized = reasoner.executor()->RunReasoner(chains);
    reasoner_ran = true;
    compiled = Denormalized(query, normalized);
    const bool int8 = options_.precision == Precision::kInt8;
    // At fp64 a new encoder bucket is settled by its rows alone; the final
    // value gates the reasoner, and at int8 every new bucket.
    if (reasoner_plan != nullptr || int8) {
      Tracer tracer;
      {
        tensor::ScopedOpObserver scope(&tracer);
        eager = Eager(query, chains);
      }
      if (reasoner_plan != nullptr && model_.config().batched_encoder) {
        // The eager trace ran at the request's own length: the encoder
        // skeleton at (k, len), then the reasoner's at k. (The per-chain
        // encoder traces a different sequence; the value gate still holds.)
        std::vector<TraceEvent> expected =
            CompileEncoderPlan(model_, k, MaxTokens(chains)).expected_events;
        expected.insert(expected.end(), reasoner_plan->expected_events.begin(),
                        reasoner_plan->expected_events.end());
        reasoner_ok = SkeletonMatches("reasoner", expected, tracer.events());
      }
      if (!VerifyValue(query, k, normalized, *eager)) {
        reasoner_ok = false;
        if (int8) encoder_ok = false;
      }
    }
  }
  if (encoder_plan != nullptr) {
    if (encoder_ok) {
      Settle(encoder->entry(), encoder_plan);
    } else {
      Pin(encoder->entry());
    }
  }
  if (reasoner_plan != nullptr && reasoner_ran) {
    if (reasoner_ok) {
      Settle(reasoner.entry(), reasoner_plan);
    } else {
      Pin(reasoner.entry());
    }
  }
  const bool pass = encoder_ok && reasoner_ok;
  if (pass && encoder) Remember(misses, encoded);

  const int64_t gate_us =
      static_cast<int64_t>((trace::NowNs() - gate_start_ns) / 1000);
  verify_micros_->Increment(gate_us);
  if (stats != nullptr) {
    stats->verify_us = gate_us;
    stats->bucket_miss = true;
  }
  if (pass) return compiled;
  return eager ? *eager : Eager(query, chains);
}

bool StaticGraphRuntime::VerifyEncoder(const Misses& misses, const Plan& plan,
                                       const float* encoded) const {
  core::TreeOfChains unique;
  unique.reserve(misses.unique.size());
  for (const core::RAChain* c : misses.unique) unique.push_back(*c);
  Tracer tracer;
  tensor::Tensor eager;
  {
    tensor::NoGradGuard no_grad;
    tensor::ScopedOpObserver scope(&tracer);
    eager = model_.encoder().EndTokenRows(unique);
  }
  // The eager pass ran at the patterns' own count and length; compare the
  // skeleton of a plan of that geometry when the bucket padded either.
  const int64_t m = static_cast<int64_t>(unique.size());
  const bool exact = m == plan.chains && misses.max_tokens == plan.max_len;
  if (!SkeletonMatches(
          "encoder",
          exact ? plan.expected_events
                : CompileEncoderPlan(model_, m, misses.max_tokens)
                      .expected_events,
          tracer.events())) {
    return false;
  }
  // Quantized rows cannot match bitwise; the final-value gate judges them.
  if (options_.precision != Precision::kFp64) return true;
  const int64_t d = plan.dim;
  if (std::memcmp(encoded, eager.data().data(),
                  static_cast<size_t>(m * d) * sizeof(float)) != 0) {
    CF_LOG(Warning) << "static-graph verify failed for encoder bucket (m="
                    << plan.chains << ", len=" << plan.max_len
                    << "): end-token rows differ from the eager encoder";
    return false;
  }
  return true;
}

bool StaticGraphRuntime::VerifyValue(const core::Query& query, int64_t k,
                                     float normalized,
                                     const core::BatchPrediction& eager) const {
  if (options_.precision == Precision::kFp64) {
    const core::BatchPrediction compiled = Denormalized(query, normalized);
    if (BitwiseEqual(compiled.value, eager.value)) return true;
    CF_LOG(Warning) << "static-graph verify failed for reasoner bucket (k="
                    << k << "): compiled " << compiled.value << " vs eager "
                    << eager.value;
    return false;
  }
  // Tolerance-based parity gate, compared in normalized space so the budget
  // is attribute-scale-free. A fail pins the new buckets to the
  // full-precision eager path.
  const double compiled_norm =
      std::clamp(static_cast<double>(normalized), -0.1, 1.1);
  const double eager_norm =
      model_.train_stats()[static_cast<size_t>(query.attribute)].Normalize(
          eager.value);
  if (std::abs(compiled_norm - eager_norm) <= kInt8VerifyTolerance) {
    return true;
  }
  quant_fallbacks_->Increment();
  CF_LOG(Warning) << "static-graph " << PrecisionName(options_.precision)
                  << " parity gate failed: |" << compiled_norm << " - "
                  << eager_norm << "| > " << kInt8VerifyTolerance
                  << " (normalized) at k=" << k
                  << "; serving fp64 eager for the new buckets";
  return false;
}

void StaticGraphRuntime::Settle(Entry& entry,
                                std::shared_ptr<const Plan> plan) const {
  const int64_t bytes =
      plan->arena_floats * static_cast<int64_t>(sizeof(float));
  {
    cf::MutexLock lock(entry.mu);
    entry.plan = std::move(plan);
    entry.ready = true;
  }
  const int64_t total =
      arena_bytes_total_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  arena_bytes_->Set(static_cast<double>(total));
}

void StaticGraphRuntime::Pin(Entry& entry) const {
  verify_failures_->Increment();
  cf::MutexLock lock(entry.mu);
  entry.eager_fallback = true;
  entry.ready = true;
}

}  // namespace graph
}  // namespace chainsformer
