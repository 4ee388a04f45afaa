// ChainsFormer inference server.
//
// Loads a CFSM checkpoint (serve::SaveModel / `chainsformer train
// --checkpoint=...`) and answers newline-delimited JSON queries, either from
// stdin or over a TCP port. Requests from concurrent clients are coalesced
// into micro-batches that ride one masked EncodeBatch pass each (DESIGN §6e).
//
// Request:  {"id": 7, "entity": "person_12", "attribute": "birth_year",
//            "trace_id": 12345}        (trace_id optional; else generated)
// Response: {"id": 7, "trace_id": "12345", "value": 1956.3,
//            "degraded": false, "source": "model", "latency_us": 412,
//            "batch_size": 5, "batch_id": 3, "dedup_collapsed": false,
//            "cache_hit": true}
// Admin:    {"cmd": "statusz"} / {"cmd": "healthz"} on the main port, or
//           GET /statusz, /metrics (Prometheus), /healthz on --admin-port.
//
// Three roles (docs/OPERATIONS.md has the topology runbook):
//   * single process (default): load the model, answer everything;
//   * shard (--shards=N --shard-index=I): same, but tag responses with the
//     shard index and count requests this shard does not own on the
//     consistent-hash ring (serve.misrouted);
//   * router (--router=host:port,host:port,...): no model at all — hash each
//     entity to its owning shard, forward, merge, degrade when shards die.
//
// Examples:
//   chainsformer_serve --checkpoint=/tmp/model.cfsm \
//       --triples=/tmp/t.tsv --numeric=/tmp/n.tsv --serve-threads=8 < q.ndjson
//   chainsformer_serve --checkpoint=/tmp/model.cfsm \
//       --triples=/tmp/t.tsv --numeric=/tmp/n.tsv --port=8471
//   chainsformer_serve --router=127.0.0.1:8471,127.0.0.1:8472 --port=8470

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "graph/quant.h"
#include "graph/runtime.h"
#include "kg/loader.h"
#include "serve/admin.h"
#include "serve/async_server.h"
#include "serve/checkpoint.h"
#include "serve/router.h"
#include "serve/service.h"
#include "tensor/checks.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/metric_names.h"
#include "util/metrics.h"
#include "util/net.h"
#include "util/string_util.h"
#include "util/trace.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace chainsformer {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: chainsformer_serve --checkpoint=PATH --triples=PATH --numeric=PATH\n"
      "  --serve-threads=N    request worker threads, >= 1 (default 4)\n"
      "  --batch-window-us=N  micro-batch coalescing window (default 200)\n"
      "  --deadline-ms=N      per-request deadline; 0 disables (default 50)\n"
      "  --max-batch=N        requests per micro-batch cap (default 32)\n"
      "  --cache-capacity=N   ToC cache entries; 0 disables (default 4096)\n"
      "  --compute-threads=N  dispatcher pool for intra-batch parallelism;\n"
      "                       1 = serial, 0 = hardware threads (default 0)\n"
      "  --precision=M        static-graph Linear precision: fp64 (default;\n"
      "                       fp32 accepted as alias) or int8 (needs a\n"
      "                       checkpoint saved with --quantize)\n"
      "  --port=N             serve NDJSON over TCP instead of stdin\n"
      "  --shards=N           entity-sharded mode: total shard count\n"
      "  --shard-index=I      ... and this process's slice [0, N)\n"
      "  --router=H:P,H:P,... run as a fan-out router over the listed shard\n"
      "                       servers (no checkpoint loaded)\n"
      "  --forward-timeout-ms=N  router per-shard attempt budget (default 250)\n"
      "  --health-period-ms=N router shard-probe cadence; 0 off (default 250)\n"
      "  --kernel-threads=N   dense kernel workers (default 1)\n"
      "  --seed=N             train/valid/test split seed (default 42)\n"
      "  observability: --metrics-json=PATH --trace-json=PATH --stats\n"
      "                 --check-mode=off|shapes|full\n"
      "  --admin-port=N       HTTP admin endpoint on 127.0.0.1 (GET /statusz\n"
      "                       JSON, /metrics Prometheus, /healthz); the same\n"
      "                       JSON answers {\"cmd\": \"statusz\"} on the main\n"
      "                       port\n"
      "  --access-log=PATH    NDJSON access log with per-request span\n"
      "                       breakdown (trace id, batch, phase latencies)\n"
      "  --access-log-every=N log every Nth request (default 1)\n");
  return 2;
}

// NDJSON request parsing rides the shared flat-object helpers
// (chainsformer::JsonField / EscapeJson in util/string_util.h) — the same
// grammar the router and the shard protocol speak.

/// Sampled structured access log: one NDJSON line per logged request with
/// the full span breakdown (--access-log / --access-log-every).
class AccessLogger {
 public:
  bool Open(const std::string& path, int64_t every) {
    every_ = every > 0 ? every : 1;
    file_ = std::fopen(path.c_str(), "a");
    if (file_ == nullptr) {
      std::fprintf(stderr, "cannot open access log %s\n", path.c_str());
      return false;
    }
    return true;
  }
  ~AccessLogger() {
    if (file_ != nullptr) std::fclose(file_);
  }
  bool enabled() const { return file_ != nullptr; }

  void Log(const std::string& entity, const std::string& attribute,
           const serve::ServeResponse& r, int64_t serialize_us) {
    if (file_ == nullptr) return;
    if (seq_.fetch_add(1, std::memory_order_relaxed) % every_ != 0) return;
    const int64_t ts_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    cf::MutexLock lock(mu_);
    std::fprintf(
        file_,
        "{\"ts_ms\": %lld, \"trace_id\": \"%llu\", \"entity\": \"%s\", "
        "\"attribute\": \"%s\", \"value\": %.17g, \"degraded\": %s, "
        "\"source\": \"%s\", \"latency_us\": %lld, \"batch_id\": %lld, "
        "\"batch_size\": %d, \"dedup_collapsed\": %s, \"cache_hit\": %s, "
        "\"phases\": {\"cache_us\": %lld, \"queue_us\": %lld, "
        "\"window_us\": %lld, \"compute_us\": %lld, \"verify_us\": %lld, "
        "\"serialize_us\": %lld}}\n",
        static_cast<long long>(ts_ms),
        static_cast<unsigned long long>(r.trace_id),
        EscapeJson(entity).c_str(), EscapeJson(attribute).c_str(), r.value,
        r.degraded ? "true" : "false", r.source.c_str(),
        static_cast<long long>(r.latency_us),
        static_cast<long long>(r.batch_id), r.batch_size,
        r.dedup_collapsed ? "true" : "false", r.cache_hit ? "true" : "false",
        static_cast<long long>(r.cache_us),
        static_cast<long long>(r.queue_us),
        static_cast<long long>(r.window_us),
        static_cast<long long>(r.compute_us),
        static_cast<long long>(r.verify_us),
        static_cast<long long>(serialize_us));
    std::fflush(file_);  // survive an unclean kill; sampled, so cheap
  }

 private:
  std::FILE* file_ = nullptr;
  int64_t every_ = 1;
  std::atomic<int64_t> seq_{0};
  cf::Mutex mu_{"tools.request_log"};
};

/// Everything the model roles' request handler needs.
struct ServeContext {
  const kg::Dataset& dataset;
  serve::InferenceService& service;
  AccessLogger* access_log = nullptr;  // null = disabled
  /// Sharded mode (--shards/--shard-index): the ring this shard shares with
  /// its router, its own index, and the shard count. null ring = unsharded.
  const serve::HashRing* ring = nullptr;
  int shard_index = -1;
};

/// Resolves one request line against the graph and answers it. Unknown
/// entities/attributes come back as {"error": ...} instead of killing the
/// connection. `{"cmd": "statusz"}` answers with the admin status document
/// instead of a prediction.
std::string HandleLine(const ServeContext& ctx, const std::string& line) {
  std::string id, entity_name, attribute_name, cmd;
  if (JsonField(line, "cmd", &cmd)) {
    if (cmd == "statusz") return serve::StatusJson(&ctx.service);
    if (cmd == "healthz") {
      // The router's liveness probe on the main port: proves the full
      // request path (listener → worker → this handler), not just that the
      // admin thread is alive.
      std::string r = "{\"ok\": true";
      if (ctx.ring != nullptr) {
        r += ", \"shard_index\": " + std::to_string(ctx.shard_index) +
             ", \"shards\": " + std::to_string(ctx.ring->num_shards());
      }
      return r + "}";
    }
    return "{\"error\": \"unknown cmd: " + EscapeJson(cmd) + "\"}";
  }
  const bool has_id = JsonField(line, "id", &id);
  auto error = [&](const std::string& message) {
    std::string r = "{";
    if (has_id) r += "\"id\": " + JsonNumberOrString(id) + ", ";
    return r + "\"error\": \"" + EscapeJson(message) + "\"}";
  };
  if (!JsonField(line, "entity", &entity_name) ||
      !JsonField(line, "attribute", &attribute_name)) {
    return error("request needs \"entity\" and \"attribute\"");
  }
  const kg::EntityId entity = ctx.dataset.graph.FindEntity(entity_name);
  if (entity < 0) return error("unknown entity: " + entity_name);
  const kg::AttributeId attribute =
      ctx.dataset.graph.FindAttribute(attribute_name);
  if (attribute < 0) return error("unknown attribute: " + attribute_name);

  if (ctx.ring != nullptr && ctx.ring->Owner(entity_name) != ctx.shard_index) {
    // Still answered (every shard holds the full model — only the cache
    // working set is partitioned), but counted: a nonzero serve.misrouted
    // rate means the router and shard disagree on the ring geometry.
    static auto* misrouted = metrics::MetricsRegistry::Global().GetCounter(
        metrics::names::kServeMisrouted);
    misrouted->Increment();
  }

  const serve::ServeResponse resp =
      ctx.service.Predict({entity, attribute}, ParseTraceId(line));

  // Serialize phase: the last span of the request's timeline, starting
  // where Predict() ended. The trace id is stringified in the response for
  // the same 2^53 reason as in the Chrome trace.
  const uint64_t ser_start_ns = resp.end_ns;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"trace_id\": \"%llu\", \"value\": %.17g, "
                "\"degraded\": %s, \"source\": \"%s\", "
                "\"precision\": \"%s\", "
                "\"latency_us\": %lld, \"batch_size\": %d, "
                "\"batch_id\": %lld, \"dedup_collapsed\": %s, "
                "\"cache_hit\": %s}",
                static_cast<unsigned long long>(resp.trace_id), resp.value,
                resp.degraded ? "true" : "false", resp.source.c_str(),
                resp.precision,
                static_cast<long long>(resp.latency_us), resp.batch_size,
                static_cast<long long>(resp.batch_id),
                resp.dedup_collapsed ? "true" : "false",
                resp.cache_hit ? "true" : "false");
  std::string r = "{";
  if (has_id) r += "\"id\": " + JsonNumberOrString(id) + ", ";
  if (ctx.ring != nullptr) {
    r += "\"shard\": " + std::to_string(ctx.shard_index) + ", ";
  }
  r += buf;
  const uint64_t ser_end_ns = trace::NowNs();
  trace::EmitSpan("serve.serialize", ser_start_ns, ser_end_ns, resp.trace_id);
  static auto* serialize_hist = metrics::MetricsRegistry::Global().GetHistogram(
      metrics::names::kServePhaseSerializeUs, metrics::Window::kSliding);
  const int64_t serialize_us =
      static_cast<int64_t>((ser_end_ns - ser_start_ns) / 1000);
  serialize_hist->ObserveAtMs(static_cast<double>(serialize_us),
                              static_cast<int64_t>(ser_end_ns / 1'000'000));
  if (ctx.access_log != nullptr && ctx.access_log->enabled()) {
    ctx.access_log->Log(entity_name, attribute_name, resp, serialize_us);
  }
  return r;
}

// --- stdin mode ------------------------------------------------------------

int ServeStdin(const serve::AsyncNdjsonServer::Handler& handler,
               int serve_threads) {
  cf::Mutex out_mu{"tools.stdout"};
  {
    ThreadPool workers(static_cast<size_t>(serve_threads));
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      workers.Schedule([&handler, &out_mu, line = std::move(line)] {
        const std::string response = handler(line);
        cf::MutexLock lock(out_mu);
        std::printf("%s\n", response.c_str());
      });
    }
  }  // ~ThreadPool answers every scheduled line before it joins
  std::fflush(stdout);
  return 0;
}

// --- TCP mode --------------------------------------------------------------

/// Graceful-shutdown plumbing (self-pipe idiom): SIGINT/SIGTERM write one
/// byte to a pipe (net::SignalSafeWriteByte, the only async-signal-safe
/// step needed); the main thread wakes from net::WaitReadable, shuts the
/// async server down (in-flight requests finish, tail responses flush), and
/// Serve's normal exit path flushes --metrics-json/--trace-json — telemetry
/// from a killed server is not lost.
volatile std::sig_atomic_t g_stop = 0;
std::atomic<int> g_stop_pipe{-1};

void HandleStopSignal(int) {
  g_stop = 1;
  const int fd = g_stop_pipe.load(std::memory_order_seq_cst);
  if (fd >= 0) net::SignalSafeWriteByte(fd);
}

/// Serves `handler` over the epoll front-end (DESIGN §6i) until SIGINT/
/// SIGTERM. Intentionally minimal (no TLS, IPv4 loopback only): a
/// benchmark/demo endpoint, not an internet-facing daemon.
int RunTcp(int port, int workers, const char* role,
           serve::AsyncNdjsonServer::Handler handler) {
  serve::AsyncNdjsonServer::Options options;
  options.port = port;
  options.workers = workers;
  serve::AsyncNdjsonServer server(options, std::move(handler));
  if (server.port() < 0) {
    std::fprintf(stderr, "cannot listen on 127.0.0.1:%d\n", port);
    return 1;
  }
  int pipe_fds[2];
  if (!net::MakePipe(pipe_fds)) {
    std::perror("pipe");
    return 1;
  }
  g_stop_pipe.store(pipe_fds[1], std::memory_order_seq_cst);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::fprintf(stderr, "%s on 127.0.0.1:%d\n", role, server.port());
  // 1s poll rounds close the race of a signal landing before the handler
  // was armed; the pipe byte ends the wait immediately in the normal case.
  while (g_stop == 0 && !net::WaitReadable(pipe_fds[0], 1000)) {
  }
  std::fprintf(stderr,
               "shutdown signal received; draining connections and "
               "flushing telemetry\n");
  g_stop_pipe.store(-1, std::memory_order_seq_cst);
  server.Shutdown();
  net::CloseFd(pipe_fds[0]);
  net::CloseFd(pipe_fds[1]);
  return 0;
}

// --- Shared by every role ---------------------------------------------------

/// Answers `handler` over TCP (--port) or else stdin, behind the optional
/// admin endpoint, then writes the --metrics-json / --stats / --trace-json
/// exports. `service` is null in the router role, whose /statusz then
/// reports the router process's counters and window only.
int Serve(const FlagParser& flags, int serve_threads, const char* role,
          const serve::InferenceService* service,
          serve::AsyncNdjsonServer::Handler handler) {
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const int admin_port = static_cast<int>(flags.GetInt("admin-port", -1));
  const std::string metrics_json = flags.GetString("metrics-json");
  const std::string trace_json = flags.GetString("trace-json");
  const bool print_stats = flags.GetBool("stats", false);

  // Admin endpoint (--admin-port=0 binds an ephemeral port and prints it).
  std::unique_ptr<serve::AdminServer> admin;
  if (admin_port >= 0) {
    admin = std::make_unique<serve::AdminServer>(admin_port, service);
    if (admin->port() < 0) return 1;
    std::fprintf(stderr, "admin endpoint on 127.0.0.1:%d\n", admin->port());
  }
  for (const std::string& key : flags.UnreadKeys()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
  }

  const int rc = port > 0
                     ? RunTcp(port, serve_threads, role, std::move(handler))
                     : ServeStdin(handler, serve_threads);

  if (!metrics_json.empty() || print_stats) {
    const metrics::MetricsSnapshot snap =
        metrics::MetricsRegistry::Global().Snapshot();
    if (!metrics_json.empty()) metrics::WriteJsonFile(metrics_json, snap);
    if (print_stats) std::fprintf(stderr, "%s", metrics::SummaryTable(snap).c_str());
  }
  if (!trace_json.empty()) trace::WriteChromeTrace(trace_json);
  return rc;
}

// --- Router mode -----------------------------------------------------------

/// `--router=H:P,H:P,...`: pure fan-out front-end — no checkpoint, no
/// dataset. Each request line forwards to the shard owning its entity on
/// the consistent-hash ring; down shards reroute (tagged) or, with the
/// whole fleet gone, degrade answer-shaped (see serve/router.h).
int RouterMain(const FlagParser& flags, const std::string& spec,
               int serve_threads) {
  serve::RouterOptions options;
  options.forward_timeout_ms =
      static_cast<int>(flags.GetInt("forward-timeout-ms", 250));
  options.health_period_ms =
      static_cast<int>(flags.GetInt("health-period-ms", 250));
  std::vector<std::unique_ptr<serve::ShardBackend>> backends;
  for (const std::string& raw : Split(spec, ',')) {
    const std::string addr = Strip(raw);
    const size_t colon = addr.rfind(':');
    const int shard_port =
        colon == std::string::npos
            ? 0
            : std::atoi(addr.substr(colon + 1).c_str());
    if (colon == std::string::npos || shard_port <= 0) {
      std::fprintf(stderr, "bad shard address (want host:port): %s\n",
                   addr.c_str());
      return 2;
    }
    backends.push_back(std::make_unique<serve::TcpShardBackend>(
        addr.substr(0, colon), shard_port));
  }
  serve::Router router(std::move(backends), options);
  router.CheckNow();  // mark dead shards down before the first request
  return Serve(flags, serve_threads, "routing", nullptr,
               [&router](const std::string& line) {
                 return router.HandleLine(line);
               });
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  // Checked before anything loads, in every role: with no worker, stdin
  // mode would read every line and answer none.
  const int serve_threads = static_cast<int>(flags.GetInt("serve-threads", 4));
  if (serve_threads < 1) {
    std::fprintf(stderr, "--serve-threads must be >= 1\n");
    return Usage();
  }
  if (!flags.GetString("trace-json").empty()) trace::SetEnabled(true);
  const std::string router_spec = flags.GetString("router");
  if (!router_spec.empty()) return RouterMain(flags, router_spec, serve_threads);
  const std::string checkpoint = flags.GetString("checkpoint");
  const std::string triples = flags.GetString("triples");
  const std::string numeric = flags.GetString("numeric");
  if (checkpoint.empty() || triples.empty() || numeric.empty()) return Usage();

  serve::ServeOptions options;
  const std::string precision_flag = flags.GetString("precision", "fp64");
  if (!graph::ParsePrecision(precision_flag, &options.precision)) {
    std::fprintf(stderr, "unknown --precision=%s (fp64|fp32|int8)\n",
                 precision_flag.c_str());
    return Usage();
  }
  tensor::SetCheckMode(tensor::CheckModeFromString(flags.GetString(
      "check-mode", tensor::CheckModeName(tensor::CheckModeFromEnv()))));

  core::ChainsFormerConfig base_config;
  base_config.kernel_threads = static_cast<int>(flags.GetInt("kernel-threads", 1));
  base_config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  base_config.verbose = false;

  const kg::Dataset dataset =
      kg::LoadTsvDataset("serve", triples, numeric, base_config.seed);

  auto quant = std::make_shared<graph::QuantStore>();
  const std::unique_ptr<core::ChainsFormerModel> model =
      serve::LoadModel(dataset, base_config, checkpoint, quant.get());
  if (!model) {
    std::fprintf(stderr, "failed to load %s\n", checkpoint.c_str());
    return 1;
  }

  options.batch_window_us = flags.GetInt("batch-window-us", 200);
  options.max_batch = static_cast<int>(flags.GetInt("max-batch", 32));
  options.deadline_ms = flags.GetInt("deadline-ms", 50);
  options.cache_capacity =
      static_cast<size_t>(flags.GetInt("cache-capacity", 4096));
  options.compute_threads =
      static_cast<int>(flags.GetInt("compute-threads", 0));
  if (!quant->linears.empty()) options.quant = quant;
  serve::InferenceService service(*model, options);
  std::fprintf(stderr, "static-graph precision: %s%s\n",
               graph::PrecisionName(service.static_runtime()->precision()),
               service.quant_rejected() ? " (int8 rejected by accuracy gate)"
                                        : "");

  const std::string access_log_path = flags.GetString("access-log");
  const int64_t access_log_every = flags.GetInt("access-log-every", 1);
  AccessLogger access_log;
  if (!access_log_path.empty() &&
      !access_log.Open(access_log_path, access_log_every)) {
    return 1;
  }
  ServeContext ctx{dataset, service,
                   access_log.enabled() ? &access_log : nullptr};

  // Sharded mode: the ring must be built with the same shard count the
  // router uses, or serve.misrouted lights up.
  const int shards = static_cast<int>(flags.GetInt("shards", 0));
  const int shard_index = static_cast<int>(flags.GetInt("shard-index", -1));
  std::unique_ptr<serve::HashRing> ring;
  if (shards > 0 || shard_index >= 0) {
    if (shards <= 0 || shard_index < 0 || shard_index >= shards) {
      std::fprintf(stderr,
                   "--shards=N and --shard-index in [0, N) go together\n");
      return Usage();
    }
    ring = std::make_unique<serve::HashRing>(shards);
    ctx.ring = ring.get();
    ctx.shard_index = shard_index;
  }

  return Serve(flags, serve_threads, "serving", &service,
               [&ctx](const std::string& line) { return HandleLine(ctx, line); });
}

}  // namespace
}  // namespace chainsformer

int main(int argc, char** argv) { return chainsformer::Main(argc, argv); }
