#include "graph/runtime.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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

// Token-length buckets are multiples of two: k stays exact (it changes the
// reduction geometry), while padding the sequence length is bitwise-neutral
// (GEMM strip invariance + exact-zero masked-softmax rows; DESIGN §6f).
int64_t LengthBucket(int64_t max_tokens) { return ((max_tokens + 1) / 2) * 2; }

int64_t MaxTokens(const core::TreeOfChains& chains) {
  int64_t mx = 0;
  for (const core::RAChain& c : chains) mx = std::max(mx, c.length() + 3);
  return mx;
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

StaticGraphRuntime::StaticGraphRuntime(const core::ChainsFormerModel& model)
    : StaticGraphRuntime(model, RuntimeOptions{}) {}

StaticGraphRuntime::StaticGraphRuntime(const core::ChainsFormerModel& model,
                                       RuntimeOptions options)
    : model_(model),
      compiles_(Supports(model)),
      options_(std::move(options)) {
  auto& reg = metrics::MetricsRegistry::Global();
  hits_ = reg.GetCounter(metrics::names::kPlanCacheHits);
  misses_ = reg.GetCounter(metrics::names::kPlanCacheMisses);
  verify_failures_ = reg.GetCounter(metrics::names::kPlanVerifyFailures);
  verify_micros_ = reg.GetCounter(metrics::names::kPlanVerifyMicros);
  quant_fallbacks_ = reg.GetCounter(metrics::names::kPlanQuantFallbacks);
  arena_bytes_ = reg.GetGauge(metrics::names::kPlanArenaBytes);
  CF_CHECK(options_.precision != Precision::kInt8 ||
           (compiles_ && options_.quant != nullptr))
      << "int8 serving requires a compiled encoder and the checkpoint's "
         "quantization store";
}

bool StaticGraphRuntime::Supports(const core::ChainsFormerModel& model) {
  return model.config().encoder_type == core::EncoderType::kTransformer;
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

core::BatchPrediction StaticGraphRuntime::RunCompiled(
    Entry& entry, const core::Query& query,
    const core::TreeOfChains& chains) const {
  std::unique_ptr<PlanExecutor> ex;
  std::shared_ptr<const Plan> plan;
  {
    cf::MutexLock lock(entry.mu);
    if (!entry.idle.empty()) {
      ex = std::move(entry.idle.back());
      entry.idle.pop_back();
    } else {
      plan = entry.plan;
    }
  }
  if (ex == nullptr) ex = std::make_unique<PlanExecutor>(plan);
  const float normalized = ex->RunNormalized(chains);
  {
    cf::MutexLock lock(entry.mu);
    entry.idle.push_back(std::move(ex));
  }
  return Denormalized(query, normalized);
}

std::vector<StaticGraphRuntime::BucketStats> StaticGraphRuntime::Stats()
    const {
  std::vector<std::pair<std::pair<int64_t, int64_t>, std::shared_ptr<Entry>>>
      entries;
  {
    cf::MutexLock lock(mu_);
    entries.assign(plans_.begin(), plans_.end());
  }
  std::vector<BucketStats> out;
  out.reserve(entries.size());
  for (const auto& [key, entry] : entries) {
    BucketStats s;
    s.k = key.first;
    s.max_len = key.second;
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

core::BatchPrediction StaticGraphRuntime::Predict(
    const core::Query& query, const core::TreeOfChains& chains,
    PredictStats* stats) const {
  if (!compiles_) return model_.PredictOnChainSets({query}, {&chains})[0];
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

  const int64_t k = static_cast<int64_t>(chains.size());
  const int64_t max_tokens = MaxTokens(chains);
  const int64_t bucket = LengthBucket(max_tokens);

  std::shared_ptr<Entry> entry;
  {
    cf::MutexLock lock(mu_);
    auto it = plans_.find({k, bucket});
    if (it != plans_.end()) {
      entry = it->second;
    } else if (plans_.size() < kMaxPlans) {
      entry = std::make_shared<Entry>();
      plans_.emplace(std::make_pair(k, bucket), entry);
    }
  }
  if (entry == nullptr) {
    // Cache full: serve eagerly without compiling another plan.
    misses_->Increment();
    return model_.PredictOnChainSets({query}, {&chains})[0];
  }

  bool eager_fallback = false;
  {
    cf::MutexLock lock(entry->mu);
    eager_fallback = entry->eager_fallback;
    if (!entry->ready) {
      // Bucket miss: trace one eager forward, compile, verify, then serve
      // this request from the eager result (already computed for the gate).
      misses_->Increment();
      CF_TRACE_SCOPE("plan.verify");
      const uint64_t gate_start_ns = trace::NowNs();
      Tracer tracer;
      std::vector<core::BatchPrediction> eager;
      {
        tensor::ScopedOpObserver scope(&tracer);
        eager = model_.PredictOnChainSets({query}, {&chains});
      }
      auto plan = std::make_shared<const Plan>(CompilePlan(
          model_, k, bucket, options_.precision, options_.quant.get()));
      core::BatchPrediction serve_result = eager[0];

      bool ok = true;
      if (model_.config().batched_encoder) {
        // Cross-check the compiler's op skeleton against the recorded
        // trace. The trace ran at the actual (unpadded) length, so compare
        // against a same-length compilation when the bucket padded it.
        const std::vector<TraceEvent>& expected =
            max_tokens == bucket
                ? plan->expected_events
                : CompilePlan(model_, k, max_tokens).expected_events;
        const std::vector<TraceEvent>& got = tracer.events();
        if (expected.size() != got.size()) {
          CF_LOG(Warning) << "static-graph trace skeleton mismatch: expected "
                          << expected.size() << " ops, traced " << got.size();
          ok = false;
        } else {
          for (size_t i = 0; i < expected.size(); ++i) {
            if (expected[i] != got[i]) {
              CF_LOG(Warning)
                  << "static-graph trace mismatch at op " << i << ": expected "
                  << FormatTraceEvent(expected[i]) << ", traced "
                  << FormatTraceEvent(got[i]);
              ok = false;
              break;
            }
          }
        }
      }

      if (ok) {
        auto ex = std::make_unique<PlanExecutor>(plan);
        const float normalized = ex->RunNormalized(chains);
        const core::BatchPrediction compiled = Denormalized(query, normalized);
        bool pass;
        if (options_.precision == Precision::kFp64) {
          pass = BitwiseEqual(compiled.value, eager[0].value);
          if (!pass) {
            CF_LOG(Warning)
                << "static-graph verify failed for bucket (k=" << k
                << ", len=" << bucket << "): compiled " << compiled.value
                << " vs eager " << eager[0].value;
          }
        } else {
          // Tolerance-based parity gate, compared in normalized space so
          // the budget is attribute-scale-free. A pass serves the compiled
          // value now (warm and cold requests agree); a fail pins the
          // bucket to the full-precision eager path.
          const double compiled_norm =
              std::clamp(static_cast<double>(normalized), -0.1, 1.1);
          CF_CHECK_LT(static_cast<size_t>(query.attribute),
                      model_.train_stats().size());
          const double eager_norm =
              model_.train_stats()[static_cast<size_t>(query.attribute)]
                  .Normalize(eager[0].value);
          pass = std::abs(compiled_norm - eager_norm) <= kInt8VerifyTolerance;
          if (pass) {
            serve_result = compiled;
          } else {
            quant_fallbacks_->Increment();
            CF_LOG(Warning)
                << "static-graph " << PrecisionName(options_.precision)
                << " parity gate failed for bucket (k=" << k
                << ", len=" << bucket << "): |" << compiled_norm << " - "
                << eager_norm << "| > " << kInt8VerifyTolerance
                << " (normalized); serving fp64 eager for this bucket";
          }
        }
        if (!pass) {
          ok = false;
        } else {
          entry->plan = plan;
          entry->idle.push_back(std::move(ex));
          const int64_t total =
              arena_bytes_total_.fetch_add(
                  plan->arena_floats * static_cast<int64_t>(sizeof(float)),
                  std::memory_order_relaxed) +
              plan->arena_floats * static_cast<int64_t>(sizeof(float));
          arena_bytes_->Set(static_cast<double>(total));
        }
      }
      if (!ok) {
        verify_failures_->Increment();
        entry->eager_fallback = true;
      }
      entry->ready = true;
      const int64_t gate_us = static_cast<int64_t>(
          (trace::NowNs() - gate_start_ns) / 1000);
      verify_micros_->Increment(gate_us);
      if (stats != nullptr) {
        stats->verify_us = gate_us;
        stats->bucket_miss = true;
      }
      return serve_result;
    }
  }

  // Checked outside the lock so fallen-back buckets serve eagerly in
  // parallel (the flag is monotonic once ready).
  if (eager_fallback) {
    return model_.PredictOnChainSets({query}, {&chains})[0];
  }
  hits_->Increment();
  if (stats != nullptr) stats->compiled = true;
  return RunCompiled(*entry, query, chains);
}

}  // namespace graph
}  // namespace chainsformer
