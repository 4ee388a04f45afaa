#include "replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "graph/runtime.h"
#include "serve/cache.h"
#include "serve/router.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace perfbench {

namespace cf = chainsformer;
using cf::core::Query;
using cf::core::TreeOfChains;

namespace {

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

Query QueryOf(const KeyLine& k) {
  return Query{static_cast<cf::kg::EntityId>(k.entity),
               static_cast<cf::kg::AttributeId>(k.attribute)};
}

/// Runs fn(i, thread) for i in [0, n) in order from `threads` threads: the
/// first free thread takes the next request, as the generator's connection
/// pool does.
template <typename Fn>
void OnPool(size_t n, int threads, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i, t);
    });
  }
  for (std::thread& th : pool) th.join();
}

void SleepUntilNs(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

}  // namespace

ServiceReplay ReplayService(const cf::core::ChainsFormerModel& model,
                            const cf::serve::ServeOptions& options,
                            const std::vector<uint32_t>& warm_order,
                            const std::vector<std::vector<Arrival>>& schedules,
                            const std::vector<KeyLine>& keys, int threads,
                            SpanLog* spans, uint64_t request_base) {
  cf::serve::InferenceService service(model, options);
  OnPool(warm_order.size(), threads, [&](size_t i, int) {
    service.Predict(QueryOf(keys[warm_order[i]]));
  });
  ServiceReplay out;
  uint64_t base = request_base;
  for (const std::vector<Arrival>& schedule : schedules) {
    const size_t offset = out.responses.size();
    out.responses.resize(offset + schedule.size());
    for (const Arrival& a : schedule) out.keys.push_back(a.key);
    const int64_t start_ns = NowNs() + 20000000;
    OnPool(schedule.size(), threads, [&](size_t i, int lane) {
      SleepUntilNs(start_ns + schedule[i].t_ns);
      const uint64_t request = base + i;
      const int64_t t0 = NowNs();
      cf::serve::ServeResponse r =
          service.Predict(QueryOf(keys[schedule[i].key]), request + 1);
      const int64_t t1 = NowNs();
      if (spans->enabled()) {
        // Children rebuilt from the response's own phase breakdown.
        const uint64_t root =
            spans->Add("service.predict", t0, t1, request, 0, lane);
        int64_t t = t0;
        const std::pair<const char*, int64_t> phases[] = {
            {"service.cache", r.cache_us},   {"service.queue", r.queue_us},
            {"service.window", r.window_us}, {"service.compute", r.compute_us}};
        for (const auto& [name, us] : phases) {
          spans->Add(name, t, t + us * 1000, request, root, lane);
          t += us * 1000;
        }
      }
      out.responses[offset + i] = std::move(r);
    });
    base += schedule.size();
  }
  return out;
}

LayerTimes TimeLayers(const cf::core::ChainsFormerModel& model,
                      size_t cache_capacity, size_t cache_shards,
                      const std::vector<uint32_t>& warm_order,
                      const std::vector<uint32_t>& stream,
                      const std::vector<KeyLine>& keys, SpanLog* spans,
                      uint64_t request_base) {
  cf::serve::ShardedChainCache cache(std::max<size_t>(cache_capacity, 1),
                                     cache_shards);
  const cf::graph::StaticGraphRuntime runtime(model);
  const cf::core::ChainsFormerConfig& config = model.config();
  LayerTimes out;
  int64_t warm_forwards = 0;

  auto serve_one = [&](const Query& q, bool timed, uint64_t request) {
    TreeOfChains toc;
    double blocking = 0.0;
    int64_t t0 = NowNs();
    const bool hit = cache.Get(q.entity, q.attribute, &toc);
    int64_t t1 = NowNs();
    if (timed) {
      out.get_us.push_back(Us(t1 - t0));
      blocking += Us(t1 - t0);
      spans->Add("cache.get", t0, t1, request);
    }
    if (!hit) {
      t0 = NowNs();
      toc = model.RetrieveChains(q);
      t1 = NowNs();
      if (timed) {
        ++out.misses;
        out.retrieve_us.push_back(Us(t1 - t0));
        blocking += Us(t1 - t0);
        const uint64_t parent =
            spans->Add("core.retrieve_chains", t0, t1, request);
        // RetrieveChains' two stages on the same query, with the walk seed
        // it derives (ChainsFormerModel::RetrieveChains).
        const uint64_t key =
            (static_cast<uint64_t>(static_cast<uint32_t>(q.entity)) << 32) |
            static_cast<uint32_t>(q.attribute);
        cf::Rng rng(config.seed ^ (key * 0x9E3779B97F4A7C15ull));
        const int64_t w0 = NowNs();
        const TreeOfChains walked = model.retrieval().Retrieve(q, rng);
        const int64_t w1 = NowNs();
        const TreeOfChains kept =
            model.filter().FilterTopK(walked, config.top_k, rng);
        const int64_t w2 = NowNs();
        out.walk_us.push_back(Us(w1 - w0));
        out.filter_us.push_back(Us(w2 - w1));
        out.toc_chains += static_cast<int64_t>(walked.size());
        out.kept_chains += static_cast<int64_t>(kept.size());
        spans->Add("core.walk", w0, w1, request, parent);
        spans->Add("core.filter", w1, w2, request, parent);
      }
      t0 = NowNs();
      cache.Put(q.entity, q.attribute, toc);
      t1 = NowNs();
      if (timed) {
        out.put_us.push_back(Us(t1 - t0));
        blocking += Us(t1 - t0);
        spans->Add("cache.put", t0, t1, request);
      }
    }
    cf::graph::StaticGraphRuntime::PredictStats stats;
    t0 = NowNs();
    runtime.Predict(q, toc, &stats);
    t1 = NowNs();
    out.verify_us += static_cast<double>(stats.verify_us);
    if (timed) {
      blocking += Us(t1 - t0);
      spans->Add("graph.predict", t0, t1, request);
      if (stats.compiled && !stats.bucket_miss) {
        int64_t max_tokens = 0;
        for (const auto& c : toc) max_tokens = std::max(max_tokens, c.length() + 3);
        out.predict_us.push_back(Us(t1 - t0));
        out.mean_k += static_cast<double>(toc.size());
        out.mean_len += static_cast<double>((max_tokens + 1) / 2 * 2);
        ++warm_forwards;
      }
      out.blocking_us.push_back(blocking);
      ++out.requests;
    }
  };

  for (uint32_t k : warm_order) serve_one(QueryOf(keys[k]), false, 0);
  for (size_t i = 0; i < stream.size(); ++i) {
    serve_one(QueryOf(keys[stream[i]]), true, request_base + i);
  }
  if (warm_forwards > 0) {
    out.mean_k /= static_cast<double>(warm_forwards);
    out.mean_len /= static_cast<double>(warm_forwards);
  }
  for (const auto& b : runtime.Stats()) {
    ++out.buckets;
    out.arena_bytes += b.arena_bytes;
    out.widest_rows = std::max(out.widest_rows, b.k * b.max_len);
  }
  return out;
}

namespace {

/// Per-thread facts of the Forward calls made inside one HandleLine (the
/// router forwards on the calling thread).
struct ForwardRecord {
  int64_t ns = 0;
  int64_t last_start = 0;
  int64_t last_end = 0;
};
thread_local ForwardRecord tl_forward;

/// Timing decorator around a TcpShardBackend.
class TimedBackend : public cf::serve::ShardBackend {
 public:
  TimedBackend(int port, std::atomic<int64_t>* forwards)
      : inner_("127.0.0.1", port), forwards_(forwards) {}

  bool Forward(const std::string& line, int timeout_ms,
               std::string* response) override {
    const int64_t t0 = NowNs();
    const bool ok = inner_.Forward(line, timeout_ms, response);
    const int64_t t1 = NowNs();
    tl_forward.ns += t1 - t0;
    tl_forward.last_start = t0;
    tl_forward.last_end = t1;
    forwards_->fetch_add(1, std::memory_order_relaxed);
    return ok;
  }
  // Health probes bypass the timer (they go to the inner backend's own
  // Forward), so only request forwards are counted.
  bool Probe(int timeout_ms) override { return inner_.Probe(timeout_ms); }
  std::string name() const override { return inner_.name(); }

 private:
  cf::serve::TcpShardBackend inner_;
  std::atomic<int64_t>* forwards_;
};

}  // namespace

RouterReplay ReplayRouter(const std::vector<int>& shard_ports,
                          int forward_timeout_ms,
                          const std::vector<std::vector<Arrival>>& schedules,
                          const std::vector<KeyLine>& keys, int threads,
                          SpanLog* spans, uint64_t request_base) {
  std::vector<std::atomic<int64_t>> forwards(shard_ports.size());
  std::vector<std::unique_ptr<cf::serve::ShardBackend>> backends;
  for (size_t s = 0; s < shard_ports.size(); ++s) {
    backends.push_back(
        std::make_unique<TimedBackend>(shard_ports[s], &forwards[s]));
  }
  cf::serve::RouterOptions options;
  options.forward_timeout_ms = forward_timeout_ms;
  cf::serve::Router router(std::move(backends), options);
  router.CheckNow();
  RouterReplay out;
  uint64_t base = request_base;
  for (const std::vector<Arrival>& schedule : schedules) {
    const size_t offset = out.responses.size();
    out.responses.resize(offset + schedule.size());
    out.handle_us.resize(offset + schedule.size());
    out.forward_us.resize(offset + schedule.size());
    for (const Arrival& a : schedule) out.keys.push_back(a.key);
    const int64_t start_ns = NowNs() + 20000000;
    OnPool(schedule.size(), threads, [&](size_t i, int lane) {
      SleepUntilNs(start_ns + schedule[i].t_ns);
      const uint64_t request = base + i;
      std::string line = "{\"id\": " + std::to_string(request) + ", " +
                         keys[schedule[i].key].tail;
      line.pop_back();  // the router takes a line without its '\n'
      tl_forward = ForwardRecord();
      const int64_t t0 = NowNs();
      std::string response = router.HandleLine(line);
      const int64_t t1 = NowNs();
      if (spans->enabled()) {
        const uint64_t root =
            spans->Add("router.handle_line", t0, t1, request, 0, lane);
        spans->Add("router.forward", tl_forward.last_start,
                   tl_forward.last_end, request, root, lane);
      }
      out.handle_us[offset + i] = Us(t1 - t0);
      out.forward_us[offset + i] = Us(tl_forward.ns);
      out.responses[offset + i] = std::move(response);
    });
    base += schedule.size();
  }
  for (const auto& f : forwards) out.per_shard.push_back(f.load());
  return out;
}

double GemmGflops(int64_t m, int64_t k, int64_t n, double min_seconds) {
  std::vector<float> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n)),
      c(static_cast<size_t>(m * n), 0.0f);
  for (size_t i = 0; i < a.size(); ++i) a[i] = 0.001f * static_cast<float>(i % 97);
  for (size_t i = 0; i < b.size(); ++i) b[i] = 0.002f * static_cast<float>(i % 89);
  int64_t iters = 0;
  const int64_t start = NowNs();
  int64_t now = start;
  while (now - start < static_cast<int64_t>(min_seconds * 1e9)) {
    for (int r = 0; r < 16; ++r) {
      cf::tensor::kernels::GemmAccSerial(m, k, n, a.data(), b.data(), c.data());
    }
    iters += 16;
    now = NowNs();
  }
  volatile float sink = c[0];
  (void)sink;
  return 2.0 * static_cast<double>(m * k * n) * static_cast<double>(iters) /
         (static_cast<double>(now - start));
}

}  // namespace perfbench
