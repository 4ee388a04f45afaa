#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "baselines/simple.h"
#include "graph/runtime.h"
#include "util/logging.h"
#include "util/metric_names.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace chainsformer {
namespace serve {
namespace {

metrics::Histogram* BatchSizeHist() {
  static auto* h =
      metrics::MetricsRegistry::Global().GetHistogram(metrics::names::kServeBatchSize);
  return h;
}
metrics::Counter* DedupCounter() {
  static auto* c =
      metrics::MetricsRegistry::Global().GetCounter(metrics::names::kServeBatchDedup);
  return c;
}
metrics::Counter* ImmediateDispatchCounter() {
  static auto* c =
      metrics::MetricsRegistry::Global().GetCounter(metrics::names::kServeImmediateDispatch);
  return c;
}

/// The series every answer updates, looked up once so the hot path does no
/// registry lookups. Each carries a sliding window: /statusz reports the
/// last minute of the same series /metrics reports since start.
struct RequestMetrics {
  metrics::Counter* requests;
  metrics::Counter* degraded;
  metrics::Counter* degraded_deadline;
  metrics::Counter* degraded_empty_toc;
  metrics::Counter* degraded_shutdown;
  metrics::Histogram* total_us;
  metrics::Histogram* cache_us;
  metrics::Histogram* queue_us;
  metrics::Histogram* window_us;
  metrics::Histogram* compute_us;
  metrics::Histogram* verify_us;
};

const RequestMetrics& Request() {
  static const RequestMetrics* m = [] {
    auto& reg = metrics::MetricsRegistry::Global();
    constexpr metrics::Window kSliding = metrics::Window::kSliding;
    return new RequestMetrics{
        reg.GetCounter(metrics::names::kServeRequests, kSliding),
        reg.GetCounter(metrics::names::kServeDegraded, kSliding),
        reg.GetCounter(metrics::names::kServeDegradedDeadline, kSliding),
        reg.GetCounter(metrics::names::kServeDegradedEmptyToc, kSliding),
        reg.GetCounter(metrics::names::kServeDegradedShutdown, kSliding),
        reg.GetHistogram(metrics::names::kServePhaseTotalUs, kSliding),
        reg.GetHistogram(metrics::names::kServePhaseCacheUs, kSliding),
        reg.GetHistogram(metrics::names::kServePhaseQueueUs, kSliding),
        reg.GetHistogram(metrics::names::kServePhaseWindowUs, kSliding),
        reg.GetHistogram(metrics::names::kServePhaseComputeUs, kSliding),
        reg.GetHistogram(metrics::names::kServePhaseVerifyUs, kSliding)};
  }();
  return *m;
}

}  // namespace

InferenceService::InferenceService(const core::ChainsFormerModel& model,
                                   const ServeOptions& options)
    : model_(model),
      options_(options),
      cache_(options.cache_capacity > 0 ? options.cache_capacity : 1,
             options.cache_shards) {
  // Precompute the per-attribute train-mean fallback once (Predict on the
  // baseline is not const, so it cannot be shared across client threads).
  baselines::GlobalMeanBaseline baseline(model.dataset());
  baseline.Train();
  const int64_t num_attributes = model.dataset().graph.num_attributes();
  fallback_values_.reserve(static_cast<size_t>(num_attributes));
  for (int64_t a = 0; a < num_attributes; ++a) {
    fallback_values_.push_back(
        baseline.Predict(kg::EntityId{0}, static_cast<kg::AttributeId>(a)));
  }
  if (options.compute_threads != 1) {
    // 0 (or negative) = one worker per hardware thread, mirroring the
    // eval_threads convention.
    compute_pool_ = std::make_unique<ThreadPool>(
        options.compute_threads > 1 ? static_cast<size_t>(options.compute_threads)
                                    : 0);
  }
  const graph::QuantStore* quant = nullptr;  // serves int8 when set
  if (options.precision == graph::Precision::kInt8) {
    // Hard accuracy gate (DESIGN §6g): int8 serving needs a compiled encoder
    // and quantized weights whose recorded calibration error fits the
    // budget. Anything else falls back to full precision with a named
    // counter — the operator asked for speed, but never at the price of
    // silently exceeding the accuracy budget.
    if (!graph::StaticGraphRuntime::Supports(model)) {
      quant_rejected_ = true;
      CF_LOG(Warning) << "serve: int8 requested but the model's encoder does "
                      << "not compile; serving fp64";
    } else if (options.quant == nullptr || options.quant->linears.empty()) {
      quant_rejected_ = true;
      CF_LOG(Warning) << "serve: int8 requested but the checkpoint has no "
                      << "quant_int8 block; serving fp64";
    } else if (options.quant->mae_delta > kQuantErrorBudget) {
      quant_rejected_ = true;
      CF_LOG(Warning) << "serve: int8 calibration error "
                      << options.quant->mae_delta << " exceeds the budget "
                      << kQuantErrorBudget << "; serving fp64";
    } else {
      quant = options.quant.get();
    }
    if (quant_rejected_) {
      metrics::MetricsRegistry::Global()
          .GetCounter(metrics::names::kServeQuantRejected)
          ->Increment();
    }
  }
  runtime_ = std::make_unique<graph::StaticGraphRuntime>(model, quant);
  // Trace-id seam: the salt comes from the model's deterministic RNG seed,
  // so a replayed process assigns the same ids in the same request order.
  trace_salt_ = Rng(static_cast<uint64_t>(model.config().seed)).Next();
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

InferenceService::~InferenceService() {
  {
    cf::MutexLock lock(queue_mu_);
    shutdown_ = true;
  }
  queue_cv_.NotifyAll();
  if (dispatcher_.joinable()) dispatcher_.join();
}

size_t InferenceService::queue_depth() const {
  cf::MutexLock lock(queue_mu_);
  return queue_.size();
}

void InferenceService::SetBatchHookForTesting(std::function<void()> hook) {
  cf::MutexLock lock(queue_mu_);
  batch_hook_ = std::move(hook);
}

double InferenceService::Fallback(kg::AttributeId attribute) const {
  const auto a = static_cast<size_t>(attribute);
  return a < fallback_values_.size() ? fallback_values_[a] : 0.0;
}

ServeResponse InferenceService::Predict(const core::Query& query,
                                        uint64_t trace_id) {
  CF_TRACE_SCOPE("serve.predict");
  // The request reads the tracer clock at its arrival, at the end of the
  // cache lookup (also its enqueue time) and at its answer; the dispatcher
  // reads it once when it collects a batch and once when the batch's
  // compute ends. Every phase boundary shares one of those reads — the
  // per-request bill bench/perf_microbench prices.
  const uint64_t start_ns = trace::NowNs();
  const bool has_deadline = options_.deadline_ms > 0;
  if (trace_id == 0) {
    // Salt ^ sequence through a bijective mixer: deterministic per process
    // (RNG seam), unique per request. Mix64 never maps two inputs to the
    // same output, so forcing the rare zero to 1 is the only collision
    // risk — and 1 is itself the image of exactly one other input.
    trace_id = Mix64(trace_salt_ ^ trace_seq_.fetch_add(1, std::memory_order_relaxed));
    if (trace_id == 0) trace_id = 1;
  }
  // Visible to the dispatcher from here until the request joins the queue
  // (or bails out): while any request is arriving, the coalescing window is
  // worth opening.
  arriving_.fetch_add(1, std::memory_order_relaxed);

  auto finish = [&](ServeResponse r) {
    r.trace_id = trace_id;
    const uint64_t end_ns = trace::NowNs();
    r.end_ns = end_ns;
    r.latency_us = static_cast<int64_t>((end_ns - start_ns) / 1000);
    // The windows reuse the end-of-request timestamp (TimeWheel::NowMs
    // shares the tracer clock), so the updates below cost one clock read
    // total, not one each — the guardrail in perf_microbench depends on it.
    const int64_t now_ms = static_cast<int64_t>(end_ns / 1'000'000);
    const RequestMetrics& m = Request();
    m.requests->IncrementAtMs(1, now_ms);
    m.total_us->ObserveAtMs(static_cast<double>(r.latency_us), now_ms);
    m.cache_us->ObserveAtMs(static_cast<double>(r.cache_us), now_ms);
    if (r.batch_id >= 0) {
      m.queue_us->ObserveAtMs(static_cast<double>(r.queue_us), now_ms);
      m.window_us->ObserveAtMs(static_cast<double>(r.window_us), now_ms);
      m.compute_us->ObserveAtMs(static_cast<double>(r.compute_us), now_ms);
      if (r.verify_us > 0) {
        m.verify_us->ObserveAtMs(static_cast<double>(r.verify_us), now_ms);
      }
    }
    if (r.degraded) {
      m.degraded->IncrementAtMs(1, now_ms);
      metrics::Counter* cause = r.source == "deadline"    ? m.degraded_deadline
                                : r.source == "empty_toc" ? m.degraded_empty_toc
                                                          : m.degraded_shutdown;
      cause->IncrementAtMs(1, now_ms);
    }
    if (trace::Enabled()) {
      trace::SpanAnnotations ann;
      ann.trace_id = trace_id;
      ann.batch_id = r.batch_id;
      ann.batch_size = r.batch_size;
      ann.dedup_collapsed = r.dedup_collapsed;
      if (r.degraded) ann.cause = r.source == "deadline" ? "deadline"
                                  : r.source == "empty_toc" ? "empty_toc"
                                                            : "shutdown";
      trace::EmitSpan("serve.request", start_ns, end_ns, ann);
    }
    return r;
  };

  // Retrieval runs on the client thread (it parallelizes across clients and
  // is the part the LRU cache can skip entirely).
  core::TreeOfChains chains;
  bool cache_hit = false;
  const bool cache_enabled = options_.cache_capacity > 0;
  if (cache_enabled && cache_.Get(query.entity, query.attribute, &chains)) {
    cache_hit = true;
  } else {
    CF_TRACE_SCOPE("serve.retrieve_miss");
    chains = model_.RetrieveChains(query);
    if (cache_enabled) cache_.Put(query.entity, query.attribute, chains);
  }
  const uint64_t cache_end_ns = trace::NowNs();
  const int64_t cache_us =
      static_cast<int64_t>((cache_end_ns - start_ns) / 1000);
  trace::EmitSpan("serve.cache_lookup", start_ns, cache_end_ns, trace_id);
  if (chains.empty()) {
    arriving_.fetch_sub(1, std::memory_order_relaxed);
    ServeResponse r;
    r.value = Fallback(query.attribute);
    r.degraded = true;
    r.source = "empty_toc";
    r.cache_hit = cache_hit;
    r.cache_us = cache_us;
    return finish(r);
  }

  auto pending = std::make_shared<Pending>();
  pending->query = query;
  pending->chains = std::move(chains);
  pending->trace_id = trace_id;
  // Queue wait runs from the end of the cache lookup, so it includes any
  // wait for the queue lock.
  pending->enqueue_ns = cache_end_ns;
  {
    cf::MutexLock lock(queue_mu_);
    arriving_.fetch_sub(1, std::memory_order_relaxed);
    if (shutdown_) {
      ServeResponse r;
      r.value = Fallback(query.attribute);
      r.degraded = true;
      r.source = "shutdown";
      r.cache_hit = cache_hit;
      r.cache_us = cache_us;
      return finish(r);
    }
    queue_.push_back(pending);
  }
  queue_cv_.NotifyOne();

  cf::MutexLock lock(pending->mu);
  if (has_deadline) {
    // The deadline counts from arrival: what the cache lookup used of it
    // is gone (the wait starts within a microsecond of cache_end_ns).
    const std::chrono::nanoseconds left =
        std::chrono::milliseconds(options_.deadline_ms) -
        std::chrono::nanoseconds(cache_end_ns - start_ns);
    pending->cv.WaitFor(pending->mu, left,
                        [&]() CF_REQUIRES(pending->mu) { return pending->done; });
  } else {
    pending->cv.Wait(pending->mu,
                     [&]() CF_REQUIRES(pending->mu) { return pending->done; });
  }
  if (!pending->done) {
    // Deadline expired while queued or mid-batch. The dispatcher may still
    // complete the request later (it holds its own reference), but this
    // client answers now with the degraded fallback.
    ServeResponse r;
    r.value = Fallback(query.attribute);
    r.degraded = true;
    r.source = "deadline";
    r.cache_hit = cache_hit;
    r.cache_us = cache_us;
    r.queue_us =
        static_cast<int64_t>((trace::NowNs() - pending->enqueue_ns) / 1000);
    return finish(r);
  }
  pending->response.cache_hit = cache_hit;
  pending->response.cache_us = cache_us;
  return finish(pending->response);
}

void InferenceService::DispatchLoop() {
  const auto window = std::chrono::microseconds(options_.batch_window_us);
  const size_t max_batch =
      options_.max_batch > 0 ? static_cast<size_t>(options_.max_batch) : 1;
  while (true) {
    std::vector<std::shared_ptr<Pending>> batch;
    bool shutting_down = false;
    uint64_t wake_ns = 0;
    bool window_opened = false;
    std::function<void()> hook;
    {
      cf::MutexLock lock(queue_mu_);
      queue_cv_.Wait(queue_mu_, [&]() CF_REQUIRES(queue_mu_) {
        return shutdown_ || !queue_.empty();
      });
      wake_ns = trace::NowNs();
      if (!queue_.empty() && options_.batch_window_us > 0 &&
          queue_.size() < max_batch && !shutdown_) {
        if (arriving_.load(std::memory_order_relaxed) > 0) {
          // Coalescing window: give the arriving clients a beat to join
          // this micro-batch before dispatching. The window also closes as
          // soon as the last arriving request has joined — anything not in
          // flight yet is waiting on this very batch's answer and cannot
          // arrive, so sleeping longer would add latency, not batch size.
          window_opened = true;
          queue_cv_.WaitFor(queue_mu_, window, [&]() CF_REQUIRES(queue_mu_) {
            return shutdown_ || queue_.size() >= max_batch ||
                   arriving_.load(std::memory_order_relaxed) == 0;
          });
        } else {
          // Nothing is on the way: waiting out the window would add pure
          // latency without growing the batch (the uniform-workload
          // regression) — dispatch what is queued right now.
          ImmediateDispatchCounter()->Increment();
        }
      }
      while (!queue_.empty() && batch.size() < max_batch) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      shutting_down = shutdown_;
      if (batch.empty() && shutting_down) return;
      hook = batch_hook_;
    }
    if (batch.empty()) continue;

    if (shutting_down) {
      // Drain without model work so the destructor never blocks on a
      // long forward pass; waiting clients get the degraded fallback.
      for (const auto& p : batch) {
        cf::MutexLock lock(p->mu);
        p->response.value = Fallback(p->query.attribute);
        p->response.degraded = true;
        p->response.source = "shutdown";
        p->done = true;
        p->cv.NotifyAll();
      }
      continue;
    }

    if (hook) hook();
    CF_TRACE_SCOPE("serve.batch");
    const int64_t batch_id = batch_seq_.fetch_add(1, std::memory_order_relaxed);
    // Without a coalescing window or a test hook in between, the batch was
    // collected the moment the dispatcher woke.
    const uint64_t collect_ns =
        window_opened || hook ? trace::NowNs() : wake_ns;
    // Coalesce duplicate requests: predictions are deterministic per
    // (entity, attribute) — the bitwise batching invariance this service is
    // built on — so N identical in-flight queries need exactly one forward
    // pass. Under skewed (hot-key) traffic this is where batching beats
    // single-request dispatch, which by construction cannot coalesce.
    std::vector<core::Query> queries;
    std::vector<const core::TreeOfChains*> chain_sets;
    std::vector<size_t> slot(batch.size());
    std::vector<bool> collapsed(batch.size(), false);
    std::unordered_map<uint64_t, size_t> unique_index;
    queries.reserve(batch.size());
    chain_sets.reserve(batch.size());
    unique_index.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto& p = batch[i];
      const uint64_t key =
          (static_cast<uint64_t>(static_cast<uint32_t>(p->query.entity)) << 32) |
          static_cast<uint32_t>(p->query.attribute);
      const auto [it, inserted] = unique_index.try_emplace(key, queries.size());
      if (inserted) {
        queries.push_back(p->query);
        chain_sets.push_back(&p->chains);
      } else {
        collapsed[i] = true;  // another request's forward answers this one
      }
      slot[i] = it->second;
    }
    if (queries.size() < batch.size()) {
      DedupCounter()->Increment(
          static_cast<int64_t>(batch.size() - queries.size()));
    }
    BatchSizeHist()->Observe(static_cast<double>(batch.size()));
    // Per-query runtime calls fanned across the compute pool.
    // Bitwise-identical to PredictOnChainSets (each compiled bucket is
    // verified on first use).
    std::vector<core::BatchPrediction> results(queries.size());
    std::vector<graph::StaticGraphRuntime::PredictStats> run_stats(
        queries.size());
    auto run_one = [&](size_t qi) {
      results[qi] =
          runtime_->Predict(queries[qi], *chain_sets[qi], &run_stats[qi]);
    };
    if (compute_pool_ != nullptr && compute_pool_->num_threads() > 1 &&
        queries.size() > 1) {
      compute_pool_->ParallelFor(queries.size(), run_one);
    } else {
      // One worker (or one query) gains nothing from the pool hop — run
      // inline on the dispatcher thread and skip the cross-thread wakeup.
      for (size_t qi = 0; qi < queries.size(); ++qi) run_one(qi);
    }
    const uint64_t compute_end_ns = trace::NowNs();
    const int64_t compute_us =
        static_cast<int64_t>((compute_end_ns - collect_ns) / 1000);
    const bool tracing = trace::Enabled();
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto& p = batch[i];
      const core::BatchPrediction& r = results[slot[i]];
      // Queue wait runs from enqueue to the dispatcher waking; requests
      // that joined during the coalescing window spent their whole wait in
      // the window instead.
      const uint64_t queue_end_ns = std::max(p->enqueue_ns, wake_ns);
      if (tracing) {
        trace::SpanAnnotations ann;
        ann.trace_id = p->trace_id;
        ann.batch_id = batch_id;
        ann.batch_size = static_cast<int>(batch.size());
        ann.dedup_collapsed = collapsed[i];
        trace::EmitSpan("serve.queue_wait", p->enqueue_ns, queue_end_ns,
                        ann);
        trace::EmitSpan("serve.batch_window", queue_end_ns, collect_ns, ann);
        trace::EmitSpan("serve.compute", collect_ns, compute_end_ns, ann);
      }
      cf::MutexLock lock(p->mu);
      p->response.value = r.value;
      p->response.degraded = !r.has_evidence;
      p->response.source = r.has_evidence ? "model" : "empty_toc";
      p->response.batch_size = static_cast<int>(batch.size());
      p->response.batch_id = batch_id;
      p->response.dedup_collapsed = collapsed[i];
      p->response.queue_us =
          static_cast<int64_t>((queue_end_ns - p->enqueue_ns) / 1000);
      p->response.window_us = collect_ns > queue_end_ns
                                  ? static_cast<int64_t>(
                                        (collect_ns - queue_end_ns) / 1000)
                                  : 0;
      p->response.compute_us = compute_us;
      p->response.verify_us = run_stats[slot[i]].verify_us;
      if (r.has_evidence) {
        p->response.precision = graph::PrecisionName(runtime_->precision());
      }
      p->done = true;
      p->cv.NotifyAll();
    }
  }
}

}  // namespace serve
}  // namespace chainsformer
