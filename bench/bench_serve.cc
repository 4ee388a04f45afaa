// Serving throughput/latency recorder. Trains a bench-scale model, stands up
// an InferenceService, and drives it with N concurrent client threads in two
// modes — single-request-at-a-time (max_batch=1, the no-batching baseline)
// and micro-batched (duplicate requests coalesce, unique forwards share a
// dispatch, DESIGN §6e), both answered through the compiled static-graph
// plans (DESIGN §6f). The batched cell also runs at int8 precision
// (DESIGN §6g) at every client count, and the summary records the WORST
// int8 vs fp64 cell — the acceptance bar is a win everywhere, not on
// average. A batch-window sweep runs at the highest client count. Each
// (mode, clients) cell runs two workloads:
//
//   uniform — every request strides over the full working set. Measures raw
//             dispatch overhead; on a single hardware thread batched and
//             single throughput are expected to be close, since the model
//             work is linear in requests and there is nothing to coalesce.
//   hotspot — all clients hammer a small set of trending queries (a flash
//             crowd). Micro-batches then contain mostly duplicates, which
//             the dispatcher collapses into one forward each
//             (serve.batch_dedup); single-request dispatch cannot coalesce
//             by construction, so this is where batching pulls ahead.
//
// Writes throughput and latency percentiles to a JSON file.
//
// A multi-process section (--shard-sweep, default on) then spawns real
// chainsformer_serve shard fleets of 1/2/4/8 processes behind an in-process
// fan-out router and records QPS/p50/p99 per shard count under a flash
// crowd whose hot set exceeds one shard's answer cache, plus a kill-one-shard
// scenario (DESIGN §6i; see RunShardSweep below).
//
// Usage:
//   bench_serve [--out=BENCH_serve.json] [--client-threads=1,2,4,8]
//               [--batch-windows-us=50,200,1000] [--requests-per-client=300]
//               [--hidden-dim=64] [--epochs=1] [--working-set=64]
//               [--hot-set=3] [--compute-threads=0] [--repeats=3]
//               [--shard-sweep=true] [--serve-binary=PATH]
//               [--shard-cache-capacity=96] [--shard-hot-set=512]
//               [--shard-clients=6] [--shard-requests-per-client=300]
//               [--shard-hidden-dim=32]
//
// Each cell runs `--repeats` times and records the best-throughput repeat —
// the same interference-rejection idea as bench_encoder's interleaved-min
// timing: on a shared box a depressed sample means something else ran, never
// that the service got faster, and a transient burst otherwise lands on
// whichever cell is unlucky enough to be measuring when it hits.
//
// Honors the CF_* environment hooks of bench_common (CF_KERNEL_THREADS,
// CF_TRACE_JSON, CF_METRICS_JSON, CF_STATS).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/bench_common.h"
#include "graph/quant.h"
#include "kg/loader.h"
#include "serve/checkpoint.h"
#include "serve/router.h"
#include "serve/service.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace chainsformer {
namespace {

struct LoadResult {
  double throughput_qps = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_batch_size = 0.0;
  int degraded = 0;
  // Mean per-request phase latencies from the request-tracing span fields
  // (ServeResponse.*_us): where inside the service the time actually went.
  double mean_cache_us = 0.0;
  double mean_queue_us = 0.0;
  double mean_window_us = 0.0;
  double mean_compute_us = 0.0;
  double mean_verify_us = 0.0;
};

double Percentile(std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1)));
  return static_cast<double>(sorted[idx]);
}

/// Drives `client_threads` concurrent clients over a shared working set of
/// queries (cache-warm steady state: a working set within the answer cache
/// makes every timed request an answer hit that never reaches the
/// dispatcher). `hot_set` > 0 restricts every request to
/// the first `hot_set` queries (the flash-crowd workload); 0 strides over
/// the whole set. Returns aggregate throughput + latency.
LoadResult RunLoad(const core::ChainsFormerModel& model,
                   const serve::ServeOptions& options,
                   const std::vector<core::Query>& working_set,
                   int client_threads, int requests_per_client, int hot_set) {
  serve::InferenceService service(model, options);
  const size_t span = hot_set > 0
                          ? std::min<size_t>(static_cast<size_t>(hot_set),
                                             working_set.size())
                          : working_set.size();

  // Warmup: touch every query once so the answer cache is hot and no timed
  // request pays retrieval or the forward pass.
  for (const core::Query& q : working_set) (void)service.Predict(q);

  std::vector<std::vector<int64_t>> latencies(
      static_cast<size_t>(client_threads));
  std::atomic<int64_t> batch_size_sum{0};
  std::atomic<int> degraded{0};
  std::atomic<int64_t> cache_us_sum{0};
  std::atomic<int64_t> queue_us_sum{0};
  std::atomic<int64_t> window_us_sum{0};
  std::atomic<int64_t> compute_us_sum{0};
  std::atomic<int64_t> verify_us_sum{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(client_threads));
  Stopwatch wall;
  for (int c = 0; c < client_threads; ++c) {
    clients.emplace_back([&, c] {
      auto& lat = latencies[static_cast<size_t>(c)];
      lat.reserve(static_cast<size_t>(requests_per_client));
      // Deterministic per-client request stream.
      Rng rng(static_cast<uint64_t>(1000 + c));
      for (int i = 0; i < requests_per_client; ++i) {
        const size_t qi =
            hot_set > 0
                ? static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(span) - 1))
                : static_cast<size_t>(c * 41 + i * 13) % span;
        const serve::ServeResponse r = service.Predict(working_set[qi]);
        lat.push_back(r.latency_us);
        batch_size_sum.fetch_add(r.batch_size, std::memory_order_relaxed);
        if (r.degraded) degraded.fetch_add(1, std::memory_order_relaxed);
        cache_us_sum.fetch_add(r.cache_us, std::memory_order_relaxed);
        queue_us_sum.fetch_add(r.queue_us, std::memory_order_relaxed);
        window_us_sum.fetch_add(r.window_us, std::memory_order_relaxed);
        compute_us_sum.fetch_add(r.compute_us, std::memory_order_relaxed);
        verify_us_sum.fetch_add(r.verify_us, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall_seconds = static_cast<double>(wall.ElapsedMicros()) * 1e-6;

  std::vector<int64_t> all;
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());
  const int total = client_threads * requests_per_client;
  LoadResult result;
  result.throughput_qps = static_cast<double>(total) / wall_seconds;
  result.p50_us = Percentile(all, 0.50);
  result.p90_us = Percentile(all, 0.90);
  result.p95_us = Percentile(all, 0.95);
  result.p99_us = Percentile(all, 0.99);
  result.mean_batch_size =
      static_cast<double>(batch_size_sum.load(std::memory_order_relaxed)) / static_cast<double>(total);
  result.degraded = degraded.load(std::memory_order_relaxed);
  const double n = static_cast<double>(total);
  result.mean_cache_us = static_cast<double>(cache_us_sum.load(std::memory_order_relaxed)) / n;
  result.mean_queue_us = static_cast<double>(queue_us_sum.load(std::memory_order_relaxed)) / n;
  result.mean_window_us = static_cast<double>(window_us_sum.load(std::memory_order_relaxed)) / n;
  result.mean_compute_us = static_cast<double>(compute_us_sum.load(std::memory_order_relaxed)) / n;
  result.mean_verify_us = static_cast<double>(verify_us_sum.load(std::memory_order_relaxed)) / n;
  return result;
}

struct Record {
  std::string mode;       // "single" or "batched"
  std::string workload;   // "uniform" or "hotspot"
  std::string precision;  // "fp64" or "int8" (DESIGN §6g)
  int client_threads = 0;
  int64_t batch_window_us = 0;
  int max_batch = 0;
  int64_t coalesced = 0;  // serve.batch_dedup delta for this run
  LoadResult load;
};

// --- Entity-sharded multi-process sweep (DESIGN §6i) -------------------------
//
// Spawns real chainsformer_serve shard processes over a checkpoint written
// to a temp dir, fronts them with an in-process serve::Router, and sweeps
// the shard count under a flash-crowd workload whose hot set exceeds one
// shard's answer cache. On a single hardware thread the shards buy no compute
// parallelism — the speedup is aggregate cache capacity: one shard's LRU
// thrashes (every request re-pays retrieval and the forward pass), while
// at 8 shards each consistent-hashed slice fits its owner's cache and
// requests ride hits.
// A final run SIGKILLs one shard mid-stream and asserts the router's
// contract: every in-flight request completes (rerouted or degraded),
// nothing hangs.

/// One shard-count measurement through the router.
struct ShardRow {
  int shards = 0;
  int issued = 0;
  int completed = 0;
  int rerouted = 0;
  int degraded = 0;
  double throughput_qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// chainsformer_serve next to this binary (build/bench/../tools/), unless
/// --serve-binary overrides.
std::string ServeBinaryPath(const std::string& override_path) {
  if (!override_path.empty()) return override_path;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string exe(buf);
  const size_t slash = exe.rfind('/');
  if (slash == std::string::npos) return "";
  const std::string dir = exe.substr(0, slash);
  const size_t parent = dir.rfind('/');
  if (parent == std::string::npos) return "";
  return dir.substr(0, parent) + "/tools/chainsformer_serve";
}

/// Binds an ephemeral listener just long enough to learn a free port.
int PickFreePort() {
  const int fd = net::ListenTcp(0);
  if (fd < 0) return -1;
  const int port = net::BoundPort(fd);
  net::CloseFd(fd);
  return port;
}

pid_t SpawnShard(const std::string& binary, const std::string& dir, int port,
                 int shards, int index, int cache_capacity) {
  std::vector<std::string> args = {
      binary,
      "--checkpoint=" + dir + "/model.cfsm",
      "--triples=" + dir + "/triples.tsv",
      "--numeric=" + dir + "/numeric.tsv",
      "--port=" + std::to_string(port),
      "--shards=" + std::to_string(shards),
      "--shard-index=" + std::to_string(index),
      "--cache-capacity=" + std::to_string(cache_capacity),
      "--serve-threads=2",
      "--batch-window-us=0",
      "--deadline-ms=0",
  };
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: shard logs go to the temp dir (useful when readiness times out).
  const std::string log = dir + "/shard_" + std::to_string(index) + ".log";
  std::freopen(log.c_str(), "w", stderr);
  std::freopen("/dev/null", "w", stdout);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  std::_Exit(127);  // execv failed
}

/// Probes {"cmd": "healthz"} on the shard's main port until it answers ok —
/// the same liveness path the router uses.
bool WaitShardReady(int port, int timeout_ms) {
  Stopwatch sw;
  while (sw.ElapsedMicros() < static_cast<int64_t>(timeout_ms) * 1000) {
    const int fd = net::ConnectTcp("127.0.0.1", port, 250);
    if (fd >= 0) {
      std::string buffer, line;
      const bool ok = net::SendLine(fd, "{\"cmd\": \"healthz\"}") &&
                      net::RecvLine(fd, &buffer, &line, 2000) &&
                      line.find("\"ok\": true") != std::string::npos;
      net::CloseFd(fd);
      if (ok) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

void StopShards(std::vector<pid_t>& pids, int sig) {
  for (const pid_t pid : pids) {
    if (pid > 0) ::kill(pid, sig);
  }
  for (const pid_t pid : pids) {
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
  pids.clear();
}

/// Drives `clients` threads of uniform-random hot-set requests through the
/// router. When `kill_pid` > 0, thread 0 SIGKILLs that shard process after
/// `kill_after` of its own requests — the flash-crowd shard-death scenario.
ShardRow RunRouterLoad(serve::Router& router,
                       const std::vector<std::string>& hot_entities,
                       const std::string& attribute, int clients,
                       int per_client, pid_t kill_pid = -1,
                       int kill_after = 0) {
  // Warmup outside the timed window: one pass over the hot set fills every
  // owning shard's answer cache (or, at low shard counts, proves it cannot).
  for (size_t i = 0; i < hot_entities.size(); ++i) {
    (void)router.HandleLine("{\"entity\": \"" + hot_entities[i] +
                            "\", \"attribute\": \"" + attribute + "\"}");
  }
  std::vector<std::vector<int64_t>> latencies(static_cast<size_t>(clients));
  std::atomic<int> completed{0}, rerouted{0}, degraded{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& lat = latencies[static_cast<size_t>(c)];
      lat.reserve(static_cast<size_t>(per_client));
      Rng rng(static_cast<uint64_t>(2000 + c));
      for (int i = 0; i < per_client; ++i) {
        if (c == 0 && kill_pid > 0 && i == kill_after) ::kill(kill_pid, SIGKILL);
        const size_t qi = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(hot_entities.size()) - 1));
        const std::string line =
            "{\"id\": " + std::to_string(c * 100000 + i) + ", \"entity\": \"" +
            hot_entities[qi] + "\", \"attribute\": \"" + attribute + "\"}";
        Stopwatch req;
        const std::string response = router.HandleLine(line);
        lat.push_back(req.ElapsedMicros());
        std::string value;
        if (JsonField(response, "value", &value)) {
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        if (response.find("\"rerouted\": true") != std::string::npos) {
          rerouted.fetch_add(1, std::memory_order_relaxed);
        }
        if (response.find("\"degraded\": true") != std::string::npos) {
          degraded.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_seconds = static_cast<double>(wall.ElapsedMicros()) * 1e-6;

  std::vector<int64_t> all;
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());
  ShardRow row;
  row.issued = clients * per_client;
  row.completed = completed.load(std::memory_order_relaxed);
  row.rerouted = rerouted.load(std::memory_order_relaxed);
  row.degraded = degraded.load(std::memory_order_relaxed);
  row.throughput_qps =
      static_cast<double>(clients * per_client) / wall_seconds;
  row.p50_us = Percentile(all, 0.50);
  row.p99_us = Percentile(all, 0.99);
  return row;
}

/// The multi-process sweep + kill scenario. Returns false (and records
/// nothing) when the serve binary cannot be found/started, so the in-process
/// cells above still land in the JSON.
bool RunShardSweep(FlagParser& flags, const kg::Dataset& dataset,
                   const bench::BenchOptions& options,
                   std::vector<ShardRow>* rows, ShardRow* kill_row,
                   int* cache_capacity_out, int* hot_set_out) {
  const std::string binary = ServeBinaryPath(flags.GetString("serve-binary"));
  if (binary.empty()) {
    std::fprintf(stderr, "shard sweep: cannot locate chainsformer_serve\n");
    return false;
  }
  const int cache_capacity =
      static_cast<int>(flags.GetInt("shard-cache-capacity", 96));
  const int hot_set = static_cast<int>(flags.GetInt("shard-hot-set", 512));
  const int clients = static_cast<int>(flags.GetInt("shard-clients", 6));
  const int per_client =
      static_cast<int>(flags.GetInt("shard-requests-per-client", 300));
  *cache_capacity_out = cache_capacity;
  *hot_set_out = hot_set;

  char dir_template[] = "/tmp/cf_shard_bench_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::fprintf(stderr, "shard sweep: mkdtemp failed\n");
    return false;
  }
  const std::string dir(dir_template);
  // Entity/relation ids are assigned by first appearance in the TSVs, so
  // the bench trains on the *re-loaded* dataset — the exact dataset every
  // shard process will itself load — or the checkpoint's name table would
  // not line up with the shards' graphs.
  kg::SaveTsvDataset(dataset, dir + "/triples.tsv", dir + "/numeric.tsv");
  const kg::Dataset shard_dataset = kg::LoadTsvDataset(
      "serve", dir + "/triples.tsv", dir + "/numeric.tsv", options.seed);

  // A serving model tuned so the cache decides everything: paper-scale
  // walk fan-out (every miss re-walks and re-scores ~1k chains in the
  // hyperbolic filter — the expensive part) feeding a narrow encoder
  // (cheap hit). Training accuracy is irrelevant here, so its budget is
  // minimal. The per-shard knobs — cache entries, threads, batch window —
  // are IDENTICAL at every shard count; only aggregate capacity changes.
  core::ChainsFormerConfig config = bench::BenchConfig(options);
  config.num_walks = static_cast<int>(flags.GetInt("shard-num-walks", 2048));
  config.top_k = static_cast<int>(flags.GetInt("shard-top-k", 8));
  config.hidden_dim = static_cast<int>(flags.GetInt("shard-hidden-dim", 16));
  config.encoder_layers = 1;
  config.reasoner_layers = 1;
  config.num_heads = 2;
  config.epochs = 1;
  config.max_train_queries = 60;
  config.filter_pretrain_queries = 40;
  config.verbose = false;
  config.seed = options.seed;
  core::ChainsFormerModel model(shard_dataset, config);
  model.Train();
  if (!serve::SaveModel(model, dir + "/model.cfsm")) {
    std::fprintf(stderr, "shard sweep: checkpoint save failed\n");
    return false;
  }

  // Hot set: distinct entities strided across the graph, all hammering one
  // attribute. hot_set > cache_capacity guarantees a lone shard thrashes;
  // hot_set <= 8 * cache_capacity (with vnode-balance headroom) lets the
  // full fleet hold it.
  std::vector<std::string> hot_entities;
  const int64_t num_entities = shard_dataset.graph.num_entities();
  for (int i = 0; i < hot_set; ++i) {
    hot_entities.push_back(shard_dataset.graph.EntityName(
        static_cast<kg::EntityId>((static_cast<int64_t>(i) * 7919) % num_entities)));
  }
  const std::string attribute = shard_dataset.graph.AttributeName(0);

  auto launch_fleet = [&](int shards, std::vector<pid_t>* pids,
                          std::vector<int>* ports) {
    for (int i = 0; i < shards; ++i) {
      const int port = PickFreePort();
      if (port <= 0) return false;
      const pid_t pid =
          SpawnShard(binary, dir, port, shards, i, cache_capacity);
      if (pid < 0) return false;
      pids->push_back(pid);
      ports->push_back(port);
    }
    for (const int port : *ports) {
      if (!WaitShardReady(port, 60000)) {
        std::fprintf(stderr, "shard sweep: port %d never became ready\n", port);
        return false;
      }
    }
    return true;
  };
  auto make_router = [&](const std::vector<int>& ports) {
    serve::RouterOptions ro;
    ro.forward_timeout_ms = 10000;  // 1-shard thrash rounds are slow, not down
    ro.health_period_ms = 0;        // deterministic: no background probes
    std::vector<std::unique_ptr<serve::ShardBackend>> backends;
    for (const int port : ports) {
      backends.push_back(
          std::make_unique<serve::TcpShardBackend>("127.0.0.1", port));
    }
    auto router = std::make_unique<serve::Router>(std::move(backends), ro);
    router->CheckNow();
    return router;
  };

  for (const int shards : {1, 2, 4, 8}) {
    std::vector<pid_t> pids;
    std::vector<int> ports;
    if (!launch_fleet(shards, &pids, &ports)) {
      StopShards(pids, SIGKILL);
      return false;
    }
    auto router = make_router(ports);
    ShardRow row = RunRouterLoad(*router, hot_entities, attribute, clients,
                                 per_client);
    row.shards = shards;
    rows->push_back(row);
    std::printf(
        "shards=%d  %8.0f q/s  p50 %6.0fus  p99 %6.0fus  completed %d  "
        "rerouted %d  degraded %d\n",
        shards, row.throughput_qps, row.p50_us, row.p99_us, row.completed,
        row.rerouted, row.degraded);
    StopShards(pids, SIGTERM);
  }

  // Flash-crowd shard death at the full fleet: SIGKILL one shard mid-stream;
  // the router must answer every request anyway (rerouted along the ring or,
  // transiently, degraded) — completed == issued is the acceptance bar.
  {
    std::vector<pid_t> pids;
    std::vector<int> ports;
    if (!launch_fleet(8, &pids, &ports)) {
      StopShards(pids, SIGKILL);
      return false;
    }
    auto router = make_router(ports);
    ShardRow row = RunRouterLoad(*router, hot_entities, attribute, clients,
                                 per_client, pids[2], per_client / 4);
    row.shards = 8;
    *kill_row = row;
    std::printf(
        "shard-kill (8 shards, kill #2 mid-run): %8.0f q/s  completed %d/%d  "
        "rerouted %d  degraded %d\n",
        row.throughput_qps, row.completed, clients * per_client, row.rerouted,
        row.degraded);
    StopShards(pids, SIGTERM);
  }

  for (const char* name :
       {"/model.cfsm", "/triples.tsv", "/numeric.tsv", "/shard_0.log",
        "/shard_1.log", "/shard_2.log", "/shard_3.log", "/shard_4.log",
        "/shard_5.log", "/shard_6.log", "/shard_7.log"}) {
    std::remove((dir + name).c_str());
  }
  ::rmdir(dir.c_str());
  return true;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bench::BenchOptions options = bench::DefaultOptions();
  const std::string out_path = flags.GetString("out", "BENCH_serve.json");
  const int requests_per_client =
      static_cast<int>(flags.GetInt("requests-per-client", 300));
  const int working_set_size = static_cast<int>(flags.GetInt("working-set", 64));
  const int hot_set = static_cast<int>(flags.GetInt("hot-set", 3));
  const int compute_threads =
      static_cast<int>(flags.GetInt("compute-threads", 0));
  const int repeats =
      std::max(1, static_cast<int>(flags.GetInt("repeats", 3)));
  std::vector<int> client_thread_counts;
  for (const auto& tok : Split(flags.GetString("client-threads", "1,2,4,8"), ',')) {
    if (!tok.empty()) {
      client_thread_counts.push_back(
          static_cast<int>(std::strtol(tok.c_str(), nullptr, 10)));
    }
  }
  std::vector<int64_t> batch_windows;
  for (const auto& tok :
       Split(flags.GetString("batch-windows-us", "50,200,1000"), ',')) {
    if (!tok.empty()) {
      batch_windows.push_back(std::strtoll(tok.c_str(), nullptr, 10));
    }
  }

  bench::PrintBanner("serving",
                     "micro-batched inference service vs single-request");

  // Throughput is weight-shape-dependent, not accuracy-dependent: one quick
  // epoch produces a realistic serving model without bench-dominating
  // training time. hidden_dim defaults above test scale (the batching win
  // grows with GEMM width; see bench_encoder).
  core::ChainsFormerConfig config = bench::BenchConfig(options);
  config.hidden_dim = static_cast<int>(flags.GetInt("hidden-dim", 64));
  config.epochs = static_cast<int>(flags.GetInt("epochs", 1));
  config.verbose = false;
  const kg::Dataset& dataset = bench::YagoDataset(options);
  core::ChainsFormerModel model(dataset, config);
  model.Train();

  // Hot working set drawn from held-out queries.
  std::vector<core::Query> working_set;
  for (const auto& t : bench::TestSample(dataset, working_set_size)) {
    working_set.push_back({t.entity, t.attribute});
  }

  // Quantized weights for the reduced-precision cells (DESIGN §6g). Built
  // once from the frozen model; mae_delta stays 0 (bench_quant records the
  // calibrated drift), so the serve-time accuracy gate accepts the store.
  const auto quant_store = std::make_shared<const graph::QuantStore>(
      graph::BuildQuantStore(model));

  auto* dedup_counter =
      metrics::MetricsRegistry::Global().GetCounter("serve.batch_dedup");
  std::vector<Record> records;
  auto run = [&](const std::string& mode, const std::string& workload,
                 int threads, int64_t window_us, int max_batch,
                 const std::string& precision = "fp64") {
    serve::ServeOptions so;
    so.batch_window_us = window_us;
    so.max_batch = max_batch;
    so.deadline_ms = 0;  // throughput run: measure the model path, not timeouts
    so.compute_threads = compute_threads;
    graph::ParsePrecision(precision, &so.precision);
    if (so.precision == graph::Precision::kInt8) so.quant = quant_store;
    Record r;
    r.mode = mode;
    r.workload = workload;
    r.precision = precision;
    r.client_threads = threads;
    r.batch_window_us = window_us;
    r.max_batch = max_batch;
    for (int rep = 0; rep < repeats; ++rep) {
      const int64_t dedup_before = dedup_counter->Value();
      const LoadResult load =
          RunLoad(model, so, working_set, threads, requests_per_client,
                  workload == "hotspot" ? hot_set : 0);
      const int64_t coalesced = dedup_counter->Value() - dedup_before;
      if (rep == 0 || load.throughput_qps > r.load.throughput_qps) {
        r.load = load;
        r.coalesced = coalesced;
      }
    }
    records.push_back(r);
    std::printf(
        "%-8s %-5s %-8s clients=%d window=%5lldus max_batch=%-3d  "
        "%8.0f q/s  "
        "p50 %6.0fus  p90 %6.0fus  p99 %6.0fus  mean_batch %.2f  "
        "coalesced %lld  phases(q/w/c/v) %.0f/%.0f/%.0f/%.0fus\n",
        mode.c_str(), precision.c_str(), workload.c_str(),
        threads,
        static_cast<long long>(window_us), max_batch, r.load.throughput_qps,
        r.load.p50_us, r.load.p90_us, r.load.p99_us, r.load.mean_batch_size,
        static_cast<long long>(r.coalesced), r.load.mean_queue_us,
        r.load.mean_window_us, r.load.mean_compute_us, r.load.mean_verify_us);
    return r.load.throughput_qps;
  };

  const int64_t default_window = 200;
  double single_hot_at_max = 0.0, batched_hot_at_max = 0.0;
  double single_uni_at_max = 0.0, batched_uni_at_max = 0.0;
  for (const int threads : client_thread_counts) {
    single_uni_at_max = run("single", "uniform", threads, 0, 1);
    batched_uni_at_max = run("batched", "uniform", threads, default_window, 32);
    single_hot_at_max = run("single", "hotspot", threads, 0, 1);
    batched_hot_at_max = run("batched", "hotspot", threads, default_window, 32);
    // Reduced-precision dimension (DESIGN §6g): the same shipping cell
    // (batched dispatch) at int8, so every client count records the
    // quantization speedup on both workloads.
    run("batched", "uniform", threads, default_window, 32, "int8");
    run("batched", "hotspot", threads, default_window, 32, "int8");
  }
  // Batch-window sweep at the highest client count (shipping config:
  // batched dispatch).
  const int max_threads = client_thread_counts.back();
  for (const int64_t window : batch_windows) {
    if (window == default_window) continue;  // already measured above
    run("batched", "hotspot", max_threads, window, 32);
  }

  std::printf("batched vs single (hotspot) at %d clients: %.2fx\n",
              max_threads, batched_hot_at_max / single_hot_at_max);
  std::printf("batched vs single (uniform) at %d clients: %.2fx\n",
              max_threads, batched_uni_at_max / single_uni_at_max);

  // int8 vs fp64 over the batched cells: the acceptance bar is that int8
  // wins QPS and p50 at EVERY client count on BOTH workloads, so the
  // recorded summary is the worst cell, not the best.
  auto batched_cell = [&](const std::string& precision,
                          const std::string& workload,
                          int threads) -> const Record* {
    for (const Record& r : records) {
      if (r.mode == "batched" && r.precision == precision &&
          r.workload == workload &&
          r.client_threads == threads && r.batch_window_us == default_window) {
        return &r;
      }
    }
    return nullptr;
  };
  double int8_min_qps_ratio = 1e18, int8_max_p50_ratio = 0.0;
  for (const int threads : client_thread_counts) {
    for (const char* workload : {"uniform", "hotspot"}) {
      const Record* fp64 = batched_cell("fp64", workload, threads);
      const Record* int8 = batched_cell("int8", workload, threads);
      if (fp64 == nullptr || int8 == nullptr) continue;
      const double qps_ratio =
          int8->load.throughput_qps / fp64->load.throughput_qps;
      const double p50_ratio = int8->load.p50_us / fp64->load.p50_us;
      std::printf("int8 vs fp64 (batched, %s) at %d clients: "
                  "%.2fx qps, %.2fx p50\n",
                  workload, threads, qps_ratio, p50_ratio);
      int8_min_qps_ratio = std::min(int8_min_qps_ratio, qps_ratio);
      int8_max_p50_ratio = std::max(int8_max_p50_ratio, p50_ratio);
    }
  }

  // Entity-sharded multi-process sweep (--shard-sweep=false skips it, e.g.
  // when running bench_serve from an install without the serve tool).
  std::vector<ShardRow> shard_rows;
  ShardRow kill_row;
  int shard_cache_capacity = 0, shard_hot_set = 0;
  const bool shard_sweep_ok =
      flags.GetBool("shard-sweep", true) &&
      RunShardSweep(flags, dataset, options, &shard_rows, &kill_row,
                    &shard_cache_capacity, &shard_hot_set);
  double shard_speedup_8v1 = 0.0;
  if (shard_sweep_ok && shard_rows.size() >= 2 &&
      shard_rows.front().throughput_qps > 0.0) {
    shard_speedup_8v1 =
        shard_rows.back().throughput_qps / shard_rows.front().throughput_qps;
    std::printf("8 shards vs 1 shard (fixed per-shard cache): %.2fx\n",
                shard_speedup_8v1);
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"serve\",\n");
  std::fprintf(f, "  \"hidden_dim\": %d,\n  \"kernel_threads\": %d,\n",
               config.hidden_dim, options.kernel_threads);
  std::fprintf(f, "  \"hardware_threads\": %u,\n  \"compute_threads\": %d,\n",
               std::thread::hardware_concurrency(), compute_threads);
  std::fprintf(f, "  \"working_set\": %zu,\n  \"hot_set\": %d,\n",
               working_set.size(), hot_set);
  std::fprintf(f, "  \"requests_per_client\": %d,\n  \"repeats\": %d,\n",
               requests_per_client, repeats);
  std::fprintf(f,
               "  \"batched_vs_single_hotspot_at_%d_clients\": %.3f,\n",
               max_threads, batched_hot_at_max / single_hot_at_max);
  std::fprintf(f,
               "  \"batched_vs_single_uniform_at_%d_clients\": %.3f,\n",
               max_threads, batched_uni_at_max / single_uni_at_max);
  std::fprintf(f, "  \"int8_vs_fp64_min_qps_ratio\": %.3f,\n",
               int8_min_qps_ratio);
  std::fprintf(f, "  \"int8_vs_fp64_max_p50_ratio\": %.3f,\n",
               int8_max_p50_ratio);
  if (shard_sweep_ok) {
    std::fprintf(f, "  \"shard_cache_capacity\": %d,\n", shard_cache_capacity);
    std::fprintf(f, "  \"shard_hot_set\": %d,\n", shard_hot_set);
    std::fprintf(f, "  \"shard_speedup_8_vs_1\": %.3f,\n", shard_speedup_8v1);
    std::fprintf(f, "  \"shard_sweep\": [\n");
    for (size_t i = 0; i < shard_rows.size(); ++i) {
      const ShardRow& r = shard_rows[i];
      std::fprintf(f,
                   "    {\"shards\": %d, \"throughput_qps\": %.1f, "
                   "\"p50_us\": %.0f, \"p99_us\": %.0f, \"completed\": %d, "
                   "\"rerouted\": %d, \"degraded\": %d}%s\n",
                   r.shards, r.throughput_qps, r.p50_us, r.p99_us, r.completed,
                   r.rerouted, r.degraded,
                   i + 1 < shard_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"shard_kill\": {\"shards\": %d, \"throughput_qps\": %.1f, "
                 "\"p50_us\": %.0f, \"p99_us\": %.0f, \"completed\": %d, "
                 "\"issued\": %d, \"rerouted\": %d, \"degraded\": %d},\n",
                 kill_row.shards, kill_row.throughput_qps, kill_row.p50_us,
                 kill_row.p99_us, kill_row.completed, kill_row.issued,
                 kill_row.rerouted, kill_row.degraded);
  }
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", "
                 "\"workload\": \"%s\", \"precision\": \"%s\", "
                 "\"client_threads\": %d, "
                 "\"batch_window_us\": %lld, \"max_batch\": %d, "
                 "\"throughput_qps\": %.1f, \"p50_us\": %.0f, "
                 "\"p90_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, "
                 "\"mean_batch_size\": %.2f, \"coalesced\": %lld, "
                 "\"degraded\": %d, "
                 "\"mean_cache_us\": %.1f, \"mean_queue_us\": %.1f, "
                 "\"mean_window_us\": %.1f, \"mean_compute_us\": %.1f, "
                 "\"mean_verify_us\": %.1f}%s\n",
                 r.mode.c_str(), r.workload.c_str(),
                 r.precision.c_str(), r.client_threads,
                 static_cast<long long>(r.batch_window_us), r.max_batch,
                 r.load.throughput_qps, r.load.p50_us, r.load.p90_us,
                 r.load.p95_us, r.load.p99_us, r.load.mean_batch_size,
                 static_cast<long long>(r.coalesced), r.load.degraded,
                 r.load.mean_cache_us, r.load.mean_queue_us,
                 r.load.mean_window_us, r.load.mean_compute_us,
                 r.load.mean_verify_us,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %zu records to %s\n", records.size(), out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace chainsformer

int main(int argc, char** argv) { return chainsformer::Main(argc, argv); }
