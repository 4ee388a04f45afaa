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

/// The calling thread's executors. Like the GEMM's per-thread pack buffer
/// (tensor/kernels.cc), they live as long as the thread and grow to the
/// largest plans it has run, in any runtime.
ExecutorPair& ThreadExecutors() {
  thread_local ExecutorPair executors;
  return executors;
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

StaticGraphRuntime::StaticGraphRuntime(const core::ChainsFormerModel& model,
                                       const QuantStore* quant)
    : model_(model),
      compiles_(Supports(model)),
      int8_(quant != nullptr ? PackQuantStore(model, *quant) : nullptr),
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

StaticGraphRuntime::Found StaticGraphRuntime::Find(
    const BucketKey& key) const {
  cf::MutexLock lock(mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    if (plans_.size() >= kMaxPlans) return Found{.cache_full = true};
    plans_.emplace(key, Bucket{});
    return Found{};
  }
  return Found{.plan = it->second.plan.get(),
               .eager_fallback = it->second.eager_fallback};
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
    out.max_tokens = std::max(out.max_tokens, c.num_tokens());
  }
  return out;
}

const float* StaticGraphRuntime::EncodeMisses(PlanExecutor& encoder,
                                              const Plan& plan,
                                              const Misses& misses,
                                              float* rows) const {
  const float* encoded = encoder.RunEncoder(plan, misses.unique);
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
  std::vector<BucketStats> out;
  cf::MutexLock lock(mu_);
  out.reserve(plans_.size());
  for (const auto& [key, bucket] : plans_) {
    BucketStats s;
    const auto& [program, chains, max_len] = key;
    s.program = program == Program::kEncoder ? "encoder" : "reasoner";
    s.k = chains;
    s.max_len = max_len;
    s.ready = bucket.plan != nullptr || bucket.eager_fallback;
    s.eager_fallback = bucket.eager_fallback;
    s.precision = PrecisionName(bucket.eager_fallback ? Precision::kFp64
                                                      : precision());
    s.verify_tolerance = verify_tolerance();
    if (bucket.plan != nullptr) {
      s.arena_bytes =
          bucket.plan->arena_floats * static_cast<int64_t>(sizeof(float));
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
  ExecutorPair& executors = ThreadExecutors();
  // Under the gate lock both buckets are read afresh: an earlier gate may
  // have settled or pinned them while this call waited.
  const BucketKey reasoner_key{Program::kReasoner, k, 0};
  const Found reasoner = Find(reasoner_key);
  if (reasoner.cache_full) return PlanCacheFull(query, chains);
  // Checked per call so pinned buckets serve eagerly in parallel.
  if (reasoner.eager_fallback) return Eager(query, chains);
  std::unique_ptr<const Plan> new_reasoner;
  if (reasoner.plan == nullptr) {
    if (!gating) return std::nullopt;
    new_reasoner =
        std::make_unique<const Plan>(CompileReasonerPlan(model_, k, int8_));
  }
  const Plan& reasoner_plan = new_reasoner ? *new_reasoner : *reasoner.plan;

  // The table fills the reasoner's input rows; the encoder program runs
  // only over patterns it has not seen.
  float* rows = executors.reasoner.Rows(reasoner_plan);
  PatternMisses missed;  // stays unallocated when every pattern hits
  const int64_t found = table_.Lookup(chains, rows, &missed);
  const Misses misses = CollectMisses(chains, std::move(missed));
  BucketKey encoder_key;
  const Plan* encoder_plan = nullptr;
  std::unique_ptr<const Plan> new_encoder;
  if (!misses.unique.empty()) {
    encoder_key = EncoderKey(misses);
    const Found encoder = Find(encoder_key);
    if (encoder.cache_full) return PlanCacheFull(query, chains);
    if (encoder.eager_fallback) return Eager(query, chains);
    encoder_plan = encoder.plan;
    if (encoder_plan == nullptr) {
      if (!gating) return std::nullopt;
      new_encoder = std::make_unique<const Plan>(
          CompileEncoderPlan(model_, std::get<1>(encoder_key),
                             std::get<2>(encoder_key), int8_));
      encoder_plan = new_encoder.get();
    }
  }
  CountPatterns(found, k - found);

  if (new_reasoner == nullptr && new_encoder == nullptr) {
    // Warm: both buckets settled (under the gate lock, by the gate this
    // call waited behind).
    if (encoder_plan != nullptr) {
      Remember(misses, EncodeMisses(executors.encoder, *encoder_plan, misses,
                                    rows));
    }
    hits_->Increment();
    if (stats != nullptr) stats->compiled = true;
    return Denormalized(query,
                        executors.reasoner.RunReasoner(reasoner_plan, chains));
  }

  // First use of at least one bucket: run the programs, verify each new one
  // against the eager model, and serve the eager answer unless all pass.
  misses_->Increment();
  const float* encoded = nullptr;
  bool encoder_ok = true;
  if (encoder_plan != nullptr) {
    encoded = EncodeMisses(executors.encoder, *encoder_plan, misses, rows);
    if (new_encoder != nullptr) {
      encoder_ok = VerifyEncoder(misses, *new_encoder, encoded);
    }
  }
  bool reasoner_ran = false;
  bool reasoner_ok = true;
  core::BatchPrediction compiled;
  std::optional<core::BatchPrediction> eager;
  if (encoder_ok) {
    const float normalized =
        executors.reasoner.RunReasoner(reasoner_plan, chains);
    reasoner_ran = true;
    compiled = Denormalized(query, normalized);
    const bool int8 = int8_ != nullptr;
    // At fp64 a new encoder bucket is settled by its rows alone; the final
    // value gates the reasoner, and at int8 every new bucket.
    if (new_reasoner != nullptr || int8) {
      Tracer tracer;
      {
        tensor::ScopedOpObserver scope(&tracer);
        eager = Eager(query, chains);
      }
      if (new_reasoner != nullptr && model_.config().batched_encoder) {
        // The eager trace ran at the request's own length: the encoder
        // skeleton at (k, len), then the reasoner's at k. (The per-chain
        // encoder traces a different sequence; the value gate still holds.)
        std::vector<TraceEvent> expected =
            CompileEncoderPlan(model_, k, MaxTokens(chains)).expected_events;
        expected.insert(expected.end(), new_reasoner->expected_events.begin(),
                        new_reasoner->expected_events.end());
        reasoner_ok = SkeletonMatches("reasoner", expected, tracer.events());
      }
      if (!VerifyValue(query, k, normalized, *eager)) {
        reasoner_ok = false;
        if (int8) encoder_ok = false;
      }
    }
  }
  if (new_encoder != nullptr) {
    if (encoder_ok) {
      Settle(encoder_key, std::move(new_encoder));
    } else {
      Pin(encoder_key);
    }
  }
  if (new_reasoner != nullptr && reasoner_ran) {
    if (reasoner_ok) {
      Settle(reasoner_key, std::move(new_reasoner));
    } else {
      Pin(reasoner_key);
    }
  }
  const bool pass = encoder_ok && reasoner_ok;
  if (pass && encoder_plan != nullptr) Remember(misses, encoded);

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
  if (int8_ != nullptr) return true;
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
  if (int8_ == nullptr) {
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
  CF_LOG(Warning) << "static-graph " << PrecisionName(precision())
                  << " parity gate failed: |" << compiled_norm << " - "
                  << eager_norm << "| > " << kInt8VerifyTolerance
                  << " (normalized) at k=" << k
                  << "; serving fp64 eager for the new buckets";
  return false;
}

void StaticGraphRuntime::Settle(const BucketKey& key,
                                std::unique_ptr<const Plan> plan) const {
  const int64_t bytes =
      plan->arena_floats * static_cast<int64_t>(sizeof(float));
  {
    cf::MutexLock lock(mu_);
    plans_[key].plan = std::move(plan);
  }
  const int64_t total =
      arena_bytes_total_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  arena_bytes_->Set(static_cast<double>(total));
}

void StaticGraphRuntime::Pin(const BucketKey& key) const {
  verify_failures_->Increment();
  cf::MutexLock lock(mu_);
  plans_[key].eager_fallback = true;
}

}  // namespace graph
}  // namespace chainsformer
