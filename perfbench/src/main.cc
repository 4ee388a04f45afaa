// perfbench: the repository benchmark.
//
//   perfbench --workload cold|fleet --seed N --seconds S --trace 0|1
//             --serve-bin PATH --work-dir DIR
//
// Starts real chainsformer_serve processes on the benchmark fixture, drives
// them open-loop over NDJSON/TCP, checks every answer bit for bit against an
// in-process oracle, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced replay (--trace 1). The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and the server, then runs it.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fixture.h"
#include "harness.h"
#include "logic.h"
#include "replay.h"
#include "serve/service.h"
#include "spans.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

namespace cf = chainsformer;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads. Rates are absolute (requests/s on the 4-core reference box);
// the cache capacities, thread counts and the two time budgets below are the
// only server flags that differ from the shipping defaults.

struct Workload {
  const char* name;
  bool fleet;            // router + 2 shard processes instead of one server
  bool all_pairs;        // keys: every (entity, attribute), uniform; else
                         // the test split, Zipf(zipf_s) over a seeded order
  double zipf_s;
  size_t cache_capacity;  // --cache-capacity per model-serving process
  int compute_threads;    // --compute-threads of every model-serving process
  int warm_keys;          // 0: warm the whole working set; N: N uniform keys
  double light_qps;
  double heavy_qps;
  double p99_limit_ms;    // max_rate_qps latency limit
};

// The p99 limit sits 1 ms under the shipping 50 ms serve deadline, so a rate
// passes only if that deadline would have degraded under 1% of its answers.
// On the 4-core reference box light is 1/5 (fleet) to 2/5 (cold) of
// max_rate_qps, so batches hold about one request; heavy is about half of it.
constexpr Workload kWorkloads[] = {
    {"cold", false, true, 0.0, 4096, 4, 256, 150.0, 200.0, 49.0},
    {"fleet", true, false, 0.99, 1024, 2, 0, 150.0, 300.0, 49.0},
};

// --serve-threads of every process: one NDJSON worker per generator
// connection.
constexpr int kServeThreads = 4;
// --deadline-ms of every model-serving process. The shipping 50 ms turns an
// answer into the attribute-mean fallback whenever the server is held up
// that long, and on a shared 4-vCPU host a stall of the guest's CPUs now and
// then does that by itself (2 of ~87k requests over ten `cold` runs): the
// failure count would measure the host, not the program. With 1 s the same
// deadline path runs but stays out of such stalls' reach; the latency they
// cause still counts, in p99 and in the max_rate_qps limit.
constexpr int kDeadlineMs = 1000;
// --forward-timeout-ms of the router: above the shards' deadline, as the
// shipping defaults (50 ms deadline, 250 ms forward budget) keep it, so a
// shard answers before the router gives up on it.
constexpr int kForwardTimeoutMs = 2000;
constexpr double kMaxFailShare = 0.001;  // max_rate_qps failure allowance
// Generator validity: the run is invalid, not slow, when the generator
// itself falls behind (median lateness) or its tail lateness would make up
// a p99 near the latency limit.
constexpr double kMaxLateP50Ms = 1.0;
constexpr double kMaxLateP99Ms = 25.0;
constexpr int kSetups = 3;               // setup_s is their median
constexpr int64_t kDrainMs = 10000;
constexpr int64_t kTailSamples = 1000;   // a p99 with 10 samples beyond it
constexpr int kWindows = 3;              // light and heavy: 3 x kTailSamples
constexpr int kMaxSearchSteps = 7;       // heavy included
constexpr int kMinSearchSteps = 2;       // heavy included
constexpr double kSearchGrowth = 1.2;
constexpr double kSearchTol = 0.05;

// Phase ids: sub-seeds of the workload seed and disjoint request-id ranges.
enum PhaseTag : uint64_t {
  kTagOrder = 1,
  kTagWarm,
  kTagLight,
  kTagTracedLight,
  kTagTracedHeavy,
  kTagPipelined,
  kTagSearch = 100,
  kTagLightWindow = 200,
  kTagHeavyWindow = 300,
};
uint64_t RequestBase(uint64_t tag, int setup = 0) {
  return (tag * 16 + static_cast<uint64_t>(setup)) * 10000000ull;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string serve_bin;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) return false;
    k = k.substr(2);
    const size_t eq = k.find('=');
    if (eq != std::string::npos) {
      kv[k.substr(0, eq)] = k.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[k] = argv[++i];
    } else {
      return false;
    }
  }
  for (const char* need : {"workload", "seed", "seconds", "trace",
                           "serve-bin", "work-dir"}) {
    if (kv.count(need) == 0) return false;
  }
  a->workload = kv["workload"];
  a->seed = std::strtoull(kv["seed"].c_str(), nullptr, 10);
  a->seconds = std::strtod(kv["seconds"].c_str(), nullptr);
  a->trace = kv["trace"] == "1";
  a->serve_bin = kv["serve-bin"];
  a->work_dir = kv["work-dir"];
  return a->seconds > 0.0 && (kv["trace"] == "0" || kv["trace"] == "1");
}

// ---------------------------------------------------------------------------
// Run header: the machine and build measured, and the build gate.

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return cf::Strip(line.substr(colon + 1));
    }
  }
  return "unknown";
}

/// The tiers tensor/kernels.cc dispatches to at run time, by the same
/// cpu-feature tests it uses.
std::string KernelTiers() {
  std::string fp32 = __builtin_cpu_supports("avx2") &&
                             __builtin_cpu_supports("fma")
                         ? "avx2+fma"
                         : "scalar";
  std::string int8 = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512bw") &&
                             __builtin_cpu_supports("avx512vl") &&
                             __builtin_cpu_supports("avx512vnni")
                         ? "avx512-vnni"
                         : __builtin_cpu_supports("avx2") ? "avx2" : "scalar";
  return "fp32 gemm " + fp32 + ", int8 gemm " + int8;
}

/// Why this build must not report numbers, or "" when it may.
std::string BuildRefusal() {
#if !defined(__OPTIMIZE__)
  return "unoptimized build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type " + type + " (want Release or RelWithDebInfo)";
  }
  if (flags.find("-fsanitize") != std::string::npos ||
      flags.find("-O0") != std::string::npos) {
    return "compile flags " + flags;
  }
  return "";
}

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// ---------------------------------------------------------------------------
// Keys.

struct KeySpace {
  std::vector<KeyLine> keys;
  std::vector<uint32_t> working_set;  // warm-up order
  KeySampler sampler = KeySampler::Uniform(1);
};

KeyLine MakeKeyLine(const cf::kg::KnowledgeGraph& g, int32_t e, int32_t a) {
  KeyLine k;
  k.entity = e;
  k.attribute = a;
  k.tail = "\"entity\": \"" + cf::EscapeJson(g.EntityName(e)) +
           "\", \"attribute\": \"" + cf::EscapeJson(g.AttributeName(a)) +
           "\"}\n";
  return k;
}

void Shuffle(std::vector<uint32_t>* v, uint64_t seed) {
  SplitMix64 rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.Next() % i);
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

KeySpace BuildKeys(const Workload& w, const cf::kg::Dataset& ds,
                   uint64_t seed) {
  KeySpace ks;
  const cf::kg::KnowledgeGraph& g = ds.graph;
  if (w.all_pairs) {
    const int64_t na = g.num_attributes();
    for (int64_t e = 0; e < g.num_entities(); ++e) {
      for (int64_t a = 0; a < na; ++a) {
        ks.keys.push_back(MakeKeyLine(g, static_cast<int32_t>(e),
                                      static_cast<int32_t>(a)));
      }
    }
    ks.sampler = KeySampler::Uniform(static_cast<uint32_t>(ks.keys.size()));
    SplitMix64 rng(MixSeed(seed, kTagWarm));
    for (int i = 0; i < w.warm_keys; ++i) {
      ks.working_set.push_back(ks.sampler.Sample(rng));
    }
    return ks;
  }
  std::map<std::pair<int32_t, int32_t>, bool> seen;
  for (const cf::kg::NumericalTriple& t : ds.split.test) {
    const auto key = std::make_pair(static_cast<int32_t>(t.entity),
                                    static_cast<int32_t>(t.attribute));
    if (seen.emplace(key, true).second) {
      ks.keys.push_back(MakeKeyLine(g, key.first, key.second));
    }
  }
  // Zipf ranks follow a seeded order of the keys, so which keys are hot
  // comes from the workload seed.
  std::vector<uint32_t> order(ks.keys.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  Shuffle(&order, MixSeed(seed, kTagOrder));
  std::vector<KeyLine> ranked;
  for (uint32_t i : order) ranked.push_back(ks.keys[i]);
  ks.keys = std::move(ranked);
  ks.sampler = KeySampler::Zipf(static_cast<uint32_t>(ks.keys.size()), w.zipf_s);
  ks.working_set.resize(ks.keys.size());
  for (uint32_t i = 0; i < ks.working_set.size(); ++i) ks.working_set[i] = i;
  Shuffle(&ks.working_set, MixSeed(seed, kTagWarm));
  return ks;
}

// ---------------------------------------------------------------------------
// Server processes.

class Servers {
 public:
  Servers(std::string bin, std::string log_dir)
      : bin_(std::move(bin)), log_dir_(std::move(log_dir)) {}

  /// Starts the workload's processes and waits until each answers healthz.
  /// Shards start (and become healthy) before the router, so the router's
  /// first probe finds them up.
  bool Start(const Workload& w, const FixtureFiles& fx, int attempt) {
    const std::vector<std::string> model_flags = {
        "--checkpoint=" + fx.checkpoint, "--triples=" + fx.triples,
        "--numeric=" + fx.numeric,
        "--cache-capacity=" + std::to_string(w.cache_capacity),
        "--serve-threads=" + std::to_string(kServeThreads),
        "--compute-threads=" + std::to_string(w.compute_threads),
        "--deadline-ms=" + std::to_string(kDeadlineMs)};
    const int shards = w.fleet ? 2 : 1;
    std::vector<int> ports;
    for (int s = 0; s < shards; ++s) {
      std::vector<std::string> flags = model_flags;
      const int port = PickFreePort();
      flags.push_back("--port=" + std::to_string(port));
      if (w.fleet) {
        flags.push_back("--shards=" + std::to_string(shards));
        flags.push_back("--shard-index=" + std::to_string(s));
      }
      if (!Spawn(flags, attempt, port)) return false;
      ports.push_back(port);
    }
    for (size_t s = 0; s < ports.size(); ++s) {
      if (!WaitHealthy(ports[s], procs_[s].get(), 60000)) return false;
    }
    shard_ports_ = ports;
    front_port_ = ports[0];
    if (w.fleet) {
      std::string spec;
      for (int p : ports) {
        spec += (spec.empty() ? "" : ",") + std::string("127.0.0.1:") +
                std::to_string(p);
      }
      const int port = PickFreePort();
      if (!Spawn({"--router=" + spec, "--port=" + std::to_string(port),
                  "--serve-threads=" + std::to_string(kServeThreads),
                  "--forward-timeout-ms=" + std::to_string(kForwardTimeoutMs)},
                 attempt, port) ||
          !WaitHealthy(port, procs_.back().get(), 60000)) {
        return false;
      }
      front_port_ = port;
    }
    return true;
  }

  double PeakRssMb() const {
    double total = 0.0;
    for (const auto& p : procs_) total += p->PeakRssMb();
    return total;
  }

  double CpuSeconds() const {
    double total = 0.0;
    for (const auto& p : procs_) total += p->CpuSeconds();
    return total;
  }

  void Stop() {
    for (auto it = procs_.rbegin(); it != procs_.rend(); ++it) (*it)->Stop();
    procs_.clear();
  }

  int front_port() const { return front_port_; }
  const std::vector<int>& shard_ports() const { return shard_ports_; }
  const std::string& log_dir() const { return log_dir_; }

 private:
  bool Spawn(const std::vector<std::string>& flags, int attempt, int port) {
    if (port <= 0) return false;
    const std::string log = log_dir_ + "/server-" + std::to_string(attempt) +
                            "-" + std::to_string(procs_.size()) + ".log";
    auto proc = ServerProc::Spawn(bin_, flags, log);
    if (proc == nullptr) return false;
    procs_.push_back(std::move(proc));
    return true;
  }

  const std::string bin_;
  const std::string log_dir_;
  std::vector<std::unique_ptr<ServerProc>> procs_;
  int front_port_ = -1;
  std::vector<int> shard_ports_;
};

/// A run that overstays its time limit (a wedged server, say) kills its
/// children and exits without a result.
void OnRunTimeLimit(int) { KillChildrenAndExit(4); }

// ---------------------------------------------------------------------------
// Answers: every one is checked against the oracle at the end of the run.

struct Ledger {
  struct NetAnswer {
    uint32_t key;
    uint64_t id;
    bool answered;
    std::string line;
  };
  struct SvcAnswer {
    uint32_t key;
    std::string source;
    double value;
  };
  std::vector<NetAnswer> net;
  std::vector<SvcAnswer> svc;

  void AddExchanges(const std::vector<Exchange>& ex, uint64_t base) {
    for (size_t i = 0; i < ex.size(); ++i) {
      net.push_back({ex[i].key, base + i, ex[i].recv_ns != 0, ex[i].response});
    }
  }
};

/// Verdict without the oracle (used while a phase is still being judged):
/// everything except a wrong value is decidable from the line alone.
Verdict PreVerdict(const Exchange& ex, uint64_t id, FlatJson* j) {
  if (ex.recv_ns == 0) return Verdict::kTransport;
  if (!ParseFlatJson(ex.response, j)) return Verdict::kBadJson;
  if (j->Has("error")) return Verdict::kError;
  const std::optional<double> got = j->Number("id");
  if (!got.has_value() || *got != static_cast<double>(id)) return Verdict::kWrong;
  const std::string src = j->String("source");
  if (src == "model" || src == "empty_toc") return Verdict::kOk;
  return j->Has("value") ? Verdict::kDegraded : Verdict::kWrong;
}

using Oracle = std::unordered_map<uint32_t, Expected>;

Oracle ComputeOracle(const cf::core::ChainsFormerModel& model,
                     const std::vector<KeyLine>& keys,
                     const std::vector<uint32_t>& wanted, int threads) {
  std::vector<Expected> values(wanted.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= wanted.size()) return;
        const KeyLine& k = keys[wanted[i]];
        const cf::core::Query q{static_cast<cf::kg::EntityId>(k.entity),
                                static_cast<cf::kg::AttributeId>(k.attribute)};
        const cf::core::TreeOfChains toc = model.RetrieveChains(q);
        const cf::core::BatchPrediction p =
            model.PredictOnChainSets({q}, {&toc})[0];
        values[i] = Expected{toc.empty() || !p.has_evidence, p.value};
      }
    });
  }
  for (std::thread& t : pool) t.join();
  Oracle out;
  for (size_t i = 0; i < wanted.size(); ++i) out[wanted[i]] = values[i];
  return out;
}

struct CheckSummary {
  double seconds = 0.0;  // oracle time, outside every timed figure
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  int64_t distinct_keys = 0;
  std::map<std::string, int64_t> by_verdict;
};

CheckSummary CheckLedger(const cf::core::ChainsFormerModel& model,
                         const KeySpace& ks, const Ledger& ledger,
                         int threads) {
  std::vector<uint32_t> wanted;
  {
    std::vector<bool> mark(ks.keys.size(), false);
    auto want = [&](uint32_t k) {
      if (!mark[k]) {
        mark[k] = true;
        wanted.push_back(k);
      }
    };
    for (const auto& a : ledger.net) want(a.key);
    for (const auto& a : ledger.svc) want(a.key);
  }
  const int64_t t0 = NowNs();
  const Oracle oracle = ComputeOracle(model, ks.keys, wanted, threads);
  CheckSummary s;
  s.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  s.distinct_keys = static_cast<int64_t>(wanted.size());
  auto count = [&](Verdict v) {
    ++s.attempted;
    ++s.by_verdict[VerdictName(v)];
    if (v != Verdict::kOk) ++s.failed;
    if (v == Verdict::kWrong) ++s.wrong;
  };
  for (const auto& a : ledger.net) {
    if (!a.answered) {
      count(Verdict::kTransport);
      continue;
    }
    FlatJson j;
    Verdict v = CheckAnswer(a.line, oracle.at(a.key), &j);
    const std::optional<double> id = j.Number("id");
    if (v == Verdict::kOk && (!id.has_value() || *id != static_cast<double>(a.id))) {
      v = Verdict::kWrong;  // an answer to some other request
    }
    if (v != Verdict::kOk && s.failed < 5) {
      std::fprintf(stderr, "perfbench: %s answer for key %u: %s\n",
                   VerdictName(v), a.key, a.line.c_str());
    }
    count(v);
  }
  for (const auto& a : ledger.svc) {
    const Expected& e = oracle.at(a.key);
    Verdict v = Verdict::kDegraded;
    if (a.source == "model") {
      v = !e.empty_toc && std::memcmp(&a.value, &e.value, sizeof(double)) == 0
              ? Verdict::kOk
              : Verdict::kWrong;
    } else if (a.source == "empty_toc") {
      v = e.empty_toc ? Verdict::kOk : Verdict::kWrong;
    }
    count(v);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Phases.

struct Phase {
  std::string name;
  double offered_qps = 0.0;
  double duration_s = 0.0;
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  std::vector<double> latency_ms;  // send order; failures count as missing
  std::vector<double> late_ms;     // generator: took off schedule - due
  std::vector<FlatJson> answers;   // parsed, succeeded requests only
  std::vector<double> rtt_us;      // answers[i]'s actual round trip
  double achieved_qps = 0.0;
  double server_cpu_s = 0.0;  // CPU time of the server processes meanwhile
  std::optional<double> p50_ms, p99_ms;
};

constexpr double kMissing = 1e9;  // latency of a failed request

Phase Judge(const std::string& name, double rate, double duration,
            const std::vector<Exchange>& ex, uint64_t base) {
  Phase p;
  p.name = name;
  p.offered_qps = rate;
  p.duration_s = duration;
  int64_t first_sent = 0, last_recv = 0;
  for (size_t i = 0; i < ex.size(); ++i) {
    ++p.sent;
    FlatJson j;
    const Verdict v = PreVerdict(ex[i], base + i, &j);
    if (ex[i].dispatch_ns != 0) {
      p.late_ms.push_back(static_cast<double>(ex[i].dispatch_ns - ex[i].intended_ns) / 1e6);
    }
    if (ex[i].sent_ns != 0 && (first_sent == 0 || ex[i].sent_ns < first_sent)) {
      first_sent = ex[i].sent_ns;
    }
    if (v == Verdict::kOk) {
      ++p.succeeded;
      p.latency_ms.push_back(static_cast<double>(ex[i].recv_ns - ex[i].intended_ns) / 1e6);
      p.answers.push_back(std::move(j));
      p.rtt_us.push_back(static_cast<double>(ex[i].recv_ns - ex[i].sent_ns) / 1e3);
      last_recv = std::max(last_recv, ex[i].recv_ns);
    } else {
      ++p.failed;
      p.latency_ms.push_back(kMissing);
    }
  }
  if (last_recv > first_sent) {
    p.achieved_qps = static_cast<double>(p.succeeded) /
                     (static_cast<double>(last_recv - first_sent) / 1e9);
  }
  p.p50_ms = Median(p.latency_ms);
  p.p99_ms = TailPercentile(p.latency_ms, 0.99);
  return p;
}

struct Context {
  explicit Context(const Args& a)
      : args(a),
        servers(a.serve_bin, a.work_dir + "/logs"),
        spans(a.trace) {}
  const Workload* w = nullptr;
  Args args;
  int conns = 4;
  FixtureFiles fx;
  LoadedModel loaded;
  KeySpace ks;
  Servers servers;
  Ledger ledger;
  std::vector<Phase> phases;  // printed table rows, in run order
  SpanLog spans;
};

/// Runs `count` Poisson arrivals at `rate` against the front process.
Phase RunFixed(Context& c, const std::string& name, uint64_t tag, double rate,
               int64_t count, SpanLog* spans, bool pipelined = false) {
  const std::vector<Arrival> schedule =
      PoissonSchedule(MixSeed(c.args.seed, tag), rate, count, c.ks.sampler);
  const uint64_t base = RequestBase(tag);
  const int64_t t0 = NowNs();
  const double cpu0 = c.servers.CpuSeconds();
  const std::vector<Exchange> ex =
      RunOpenLoop(c.servers.front_port(), c.conns, schedule, c.ks.keys,
                  kDrainMs, pipelined, spans, base);
  const double cpu1 = c.servers.CpuSeconds();
  c.ledger.AddExchanges(ex, base);
  Phase p = Judge(name, rate, static_cast<double>(NowNs() - t0) / 1e9, ex, base);
  p.server_cpu_s = cpu1 - cpu0;
  c.phases.push_back(p);
  return p;
}

/// Starts the servers and runs the warm-up pass; returns seconds taken.
double SetUp(Context& c, int attempt) {
  const int64_t t0 = NowNs();
  if (!c.servers.Start(*c.w, c.fx, attempt)) {
    std::fprintf(stderr, "perfbench: servers failed to start (logs in %s)\n",
                 c.servers.log_dir().c_str());
    KillChildrenAndExit(1);
  }
  std::vector<Arrival> warm;
  for (uint32_t k : c.ks.working_set) warm.push_back({0, k});
  const uint64_t base = RequestBase(kTagWarm, attempt);
  const std::vector<Exchange> ex = RunOpenLoop(
      c.servers.front_port(), c.conns, warm, c.ks.keys, 60000, false, nullptr, base);
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  c.ledger.AddExchanges(ex, base);
  Phase p = Judge("warmup#" + std::to_string(attempt), 0.0, seconds, ex, base);
  c.phases.push_back(p);
  return seconds;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultLine(bool correct, const CheckSummary& s,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(s.attempted);
  out += ", \"failed\": " + std::to_string(s.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void PrintPhases(const std::vector<Phase>& phases) {
  std::printf("%-12s %9s %7s %9s %7s %9s %9s %11s\n", "phase", "offered/s",
              "sent", "succeeded", "failed", "p50_ms", "p99_ms", "late_p99_ms");
  for (const Phase& p : phases) {
    char offered[32] = "pipelined";
    if (p.offered_qps > 0) std::snprintf(offered, sizeof(offered), "%.1f", p.offered_qps);
    char p99[32] = "n/a";
    if (p.p99_ms.has_value()) std::snprintf(p99, sizeof(p99), "%.3f", *p.p99_ms);
    const std::optional<double> late = TailPercentile(p.late_ms, 0.99);
    std::printf("%-12s %9s %7lld %9lld %7lld %9.3f %9s %11.3f\n",
                p.name.c_str(), offered, static_cast<long long>(p.sent),
                static_cast<long long>(p.succeeded),
                static_cast<long long>(p.failed), p.p50_ms.value_or(0.0), p99,
                p.offered_qps > 0 ? late.value_or(0.0) : 0.0);
  }
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-38s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// The generator's lateness (actual minus intended send time) over
/// fixed-rate phases.
struct LateFigures {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool valid() const { return p50_ms <= kMaxLateP50Ms && p99_ms <= kMaxLateP99Ms; }
};

LateFigures GeneratorLate(const std::vector<const Phase*>& phases) {
  std::vector<double> late;
  for (const Phase* p : phases) late.insert(late.end(), p->late_ms.begin(), p->late_ms.end());
  return {Median(late), TailPercentile(late, 0.99, 1).value_or(0.0)};
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics.

/// A fixed rate measured over one or more windows: the windows' samples
/// pooled give its p50 and p99 (a p99 over n windows has 10 n samples
/// beyond it) and make one step of the rate search.
struct Windowed {
  std::optional<double> p50_ms, p99_ms;
  double seconds = 0.0;
  double cpu_ms_per_answer = 0.0;  // server CPU time per answered request
  StepResult step;
};

Windowed Summarize(const std::vector<Phase>& windows, double limit_ms) {
  Windowed out;
  std::vector<double> all, achieved;
  double cpu_s = 0.0;
  int64_t answered = 0;
  for (const Phase& p : windows) {
    cpu_s += p.server_cpu_s;
    answered += p.succeeded;
    all.insert(all.end(), p.latency_ms.begin(), p.latency_ms.end());
    achieved.push_back(p.achieved_qps);
    out.seconds += p.duration_s;
    out.step.sent += p.sent;
    out.step.failed += p.failed;
    out.step.backlog_growing |= BacklogGrowing(p.latency_ms, limit_ms);
  }
  if (!all.empty()) out.p50_ms = Median(all);
  out.p99_ms = TailPercentile(all, 0.99);
  if (answered > 0) out.cpu_ms_per_answer = 1e3 * cpu_s / static_cast<double>(answered);
  out.step.p99_ms = out.p99_ms;
  out.step.achieved_qps = Median(achieved);
  return out;
}

int RunEndToEnd(Context& c) {
  const Workload& w = *c.w;
  const double S = c.args.seconds;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(SetUp(c, i));
    if (i + 1 < kSetups) c.servers.Stop();
  }
  // Light and heavy run as interleaved windows (L H L H L H), so both
  // figures sample the whole run rather than one stretch of it.
  std::vector<Phase> light_windows, heavy_windows;
  for (int k = 0; k < kWindows; ++k) {
    light_windows.push_back(RunFixed(c, "light#" + std::to_string(k + 1),
                                     kTagLightWindow + k, w.light_qps,
                                     kTailSamples, nullptr));
    heavy_windows.push_back(RunFixed(c, "heavy#" + std::to_string(k + 1),
                                     kTagHeavyWindow + k, w.heavy_qps,
                                     kTailSamples, nullptr));
  }
  const Windowed light = Summarize(light_windows, w.p99_limit_ms);
  const Windowed heavy = Summarize(heavy_windows, w.p99_limit_ms);
  std::vector<const Phase*> fixed;
  for (const Phase& p : light_windows) fixed.push_back(&p);
  for (const Phase& p : heavy_windows) fixed.push_back(&p);
  const LateFigures late = GeneratorLate(fixed);

  // The search starts from the heavy windows (a measured step at
  // heavy_qps) and spends what is left of the run's seconds, at least one
  // more step.
  const SearchCriteria criteria{w.p99_limit_ms, kMaxFailShare};
  double budget_s = S - light.seconds - heavy.seconds;
  int step_no = 0;
  const SearchResult search = SearchMaxRate(
      w.heavy_qps, kMaxSearchSteps, kSearchGrowth, kSearchTol, criteria,
      [&](double rate) -> std::optional<StepResult> {
        if (step_no++ == 0) return heavy.step;
        const int64_t n = kTailSamples;
        if (step_no > kMinSearchSteps && static_cast<double>(n) / rate > budget_s) {
          return std::nullopt;
        }
        const Phase p =
            RunFixed(c, "search#" + std::to_string(step_no - 1),
                     kTagSearch + static_cast<uint64_t>(step_no), rate, n, nullptr);
        budget_s -= p.duration_s;
        return Summarize({p}, w.p99_limit_ms).step;
      });
  const double rss_mb = c.servers.PeakRssMb();
  c.servers.Stop();

  const CheckSummary check =
      CheckLedger(*c.loaded.model, c.ks, c.ledger, c.conns);

  std::printf("\nphases (latency from intended send time; failures count as "
              "missing the limit)\n");
  PrintPhases(c.phases);
  std::printf("light/heavy figures: the %d windows of each pooled\n"
              "search: p99 < %.1f ms, failures <= %.2f%%, no growing backlog "
              "(step 0 is the heavy windows)\n", kWindows,
              w.p99_limit_ms, 100.0 * kMaxFailShare);
  for (size_t i = 0; i < search.steps.size(); ++i) {
    const StepResult& r = search.steps[i];
    std::printf("  step %zu offered %.1f/s achieved %.1f/s p99 %s backlog %s -> %s\n",
                i, r.offered_qps, r.achieved_qps,
                r.p99_ms ? std::to_string(*r.p99_ms).c_str() : "n/a",
                r.backlog_growing ? "growing" : "stable",
                StepPasses(r, criteria) ? "pass" : "fail");
  }
  std::printf("set-ups (s):");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\ngenerator: lateness over the light and heavy windows p50 %.3f ms, p99 %.3f ms "
              "(valid while p50 <= %.1f and p99 <= %.1f)\n",
              late.p50_ms, late.p99_ms, kMaxLateP50Ms, kMaxLateP99Ms);
  std::printf("oracle: %lld answers checked bitwise against "
              "PredictOnChainSets(RetrieveChains) over %lld distinct keys "
              "(%.1f s):",
              static_cast<long long>(check.attempted),
              static_cast<long long>(check.distinct_keys), check.seconds);
  for (const auto& [k, n] : check.by_verdict) std::printf(" %s=%lld", k.c_str(), static_cast<long long>(n));
  std::printf("\n");

  if (!late.valid()) {
    std::fprintf(stderr, "perfbench: run invalid: the generator fell behind "
                 "its schedule\n");
    return 3;
  }
  if (!light.p50_ms || !light.p99_ms || !heavy.p50_ms || !heavy.p99_ms) {
    std::fprintf(stderr, "perfbench: run invalid: too few samples for a p99\n");
    return 3;
  }
  const double fail_share =
      static_cast<double>(check.failed) / static_cast<double>(check.attempted);
  // The result line carries the figures that hold still between runs on a
  // shared host: CPU time per answer excludes the time the host lends to
  // other guests, wall-clock latency does not.
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setups), "s"},
      {"cpu_ms.light", light.cpu_ms_per_answer, "ms"},
      {"cpu_ms.heavy", heavy.cpu_ms_per_answer, "ms"},
      {"rss_mb", rss_mb, "MiB"},
  };
  std::printf("\nend-to-end metrics (%s)\n", w.name);
  PrintMetrics(metrics);
  // Client-seen figures, printed but not in the result line: on a shared
  // 4-vCPU host they follow the CPU time the host lends and moved by up to
  // 2x between runs, more than any bound the result line may carry.
  // fail_share is 0 on a healthy run; it is failed / attempted below.
  const std::vector<Metric> client = {
      {"p50_ms.light", *light.p50_ms, "ms"},
      {"p99_ms.light", *light.p99_ms, "ms"},
      {"p50_ms.heavy", *heavy.p50_ms, "ms"},
      {"p99_ms.heavy", *heavy.p99_ms, "ms"},
      {"max_rate_qps", search.max_rate_qps, "1/s"},
  };
  std::printf("client-seen (printed, not in the result line)\n");
  PrintMetrics(client);
  std::printf("  %-38s %14.6f share (%lld of %lld)\n", "fail_share",
              fail_share, static_cast<long long>(check.failed),
              static_cast<long long>(check.attempted));
  std::printf("%s\n", ResultLine(check.wrong == 0, check, metrics).c_str());
  return check.wrong == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics.

double MedianOr0(const std::vector<double>& v) { return v.empty() ? 0.0 : Median(v); }

/// Mean and median helpers over the in-process service answers.
struct ServiceFigures {
  double queue_us = 0.0, window_us = 0.0, batch_size = 0.0, dedup_ratio = 0.0;
  double compute_us_per_query = 0.0, self_us = 0.0;
};

ServiceFigures SummarizeService(const ServiceReplay& svc, size_t light_n) {
  ServiceFigures f;
  std::vector<double> queue, window, batch, self;
  int64_t answers = 0, collapsed = 0;
  // Per micro-batch: its compute time and the distinct queries it ran.
  std::map<int64_t, std::pair<int64_t, int64_t>> batches;
  for (size_t i = 0; i < svc.responses.size(); ++i) {
    const cf::serve::ServeResponse& r = svc.responses[i];
    if (r.batch_id < 0) continue;  // answered before dispatch
    ++answers;
    queue.push_back(static_cast<double>(r.queue_us));
    window.push_back(static_cast<double>(r.window_us));
    batch.push_back(static_cast<double>(r.batch_size));
    auto& b = batches[r.batch_id];
    b.first = r.compute_us;
    if (r.dedup_collapsed) {
      ++collapsed;
    } else {
      ++b.second;
    }
    if (i < light_n && r.source == "model") {
      self.push_back(static_cast<double>(r.latency_us - r.cache_us - r.compute_us));
    }
  }
  std::vector<double> per_query;
  for (const auto& [id, b] : batches) {
    if (b.second > 0) per_query.push_back(static_cast<double>(b.first) / static_cast<double>(b.second));
  }
  f.queue_us = Mean(queue);
  f.window_us = Mean(window);
  f.batch_size = Mean(batch);
  f.dedup_ratio = answers > 0 ? static_cast<double>(collapsed) / static_cast<double>(answers) : 0.0;
  f.compute_us_per_query = Mean(per_query);
  f.self_us = MedianOr0(self);
  return f;
}

/// FLOPs of one compiled forward from its geometry (GEMM terms of the
/// paper's k·d² cost): per Transformer layer over T tokens of chains of
/// length len, Q/K/V/O projections 8Td², the 2d-wide feed-forward 8Td², and
/// attention 4·(T/len)·len²·d; the chain encoder runs over k·len tokens,
/// the Treeformer over the k chain embeddings.
double MflopPerPredict(const cf::core::ChainsFormerConfig& cfg, double k,
                       double len) {
  const double d = cfg.hidden_dim;
  auto layer = [d](double tokens, double seq) {
    return 16.0 * tokens * d * d + 4.0 * tokens * seq * d;
  };
  return (cfg.encoder_layers * layer(k * len, len) +
          cfg.reasoner_layers * layer(k, k)) / 1e6;
}

int RunTraced(Context& c) {
  const Workload& w = *c.w;
  SpanLog& spans = c.spans;
  const cf::core::ChainsFormerModel& model = *c.loaded.model;

  // kg::LoadTsvDataset and serve::LoadModel, as every server process runs
  // them at start: the fixture load of this run plus two more.
  std::vector<double> kg_ms{c.loaded.kg_load_ms};
  std::vector<double> ckpt_ms{c.loaded.checkpoint_load_ms};
  for (int i = 0; i < 2; ++i) {
    const LoadedModel again = LoadFixture(c.fx);
    kg_ms.push_back(again.kg_load_ms);
    ckpt_ms.push_back(again.checkpoint_load_ms);
  }

  SetUp(c, 0);
  const int64_t light_n = kTailSamples;
  const int64_t heavy_n = kTailSamples;
  const Phase untraced =
      RunFixed(c, "light", kTagLight, w.light_qps, light_n, nullptr);
  const Phase traced = RunFixed(c, "light+spans", kTagTracedLight,
                                w.light_qps, light_n, &spans);
  const LateFigures late = GeneratorLate({&untraced, &traced});
  // The heavy rate written pipelined, round robin over the connections, as
  // a client without a pool would: the front-end's cost when responses
  // queue behind each other on one connection.
  const Phase piped = RunFixed(c, "heavy piped", kTagPipelined, w.heavy_qps,
                               heavy_n, nullptr, /*pipelined=*/true);
  std::vector<double> piped_overhead_us;
  for (size_t i = 0; i < piped.answers.size(); ++i) {
    piped_overhead_us.push_back(piped.rtt_us[i] -
                                piped.answers[i].Number("latency_us").value_or(0.0));
  }

  std::vector<double> overhead_us;
  int64_t hits = 0, rerouted = 0;
  for (size_t i = 0; i < traced.answers.size(); ++i) {
    const FlatJson& j = traced.answers[i];
    overhead_us.push_back(traced.rtt_us[i] - j.Number("latency_us").value_or(0.0));
    if (j.Bool("cache_hit")) ++hits;
  }
  for (const Phase* p : {&untraced, &traced, &piped}) {
    for (const FlatJson& j : p->answers) rerouted += j.Bool("rerouted") ? 1 : 0;
  }
  const double hit_ratio =
      traced.answers.empty() ? 0.0
                             : static_cast<double>(hits) / static_cast<double>(traced.answers.size());

  // The replay streams: the traced light phase's requests again, then a
  // heavy phase.
  const std::vector<std::vector<Arrival>> streams = {
      PoissonSchedule(MixSeed(c.args.seed, kTagTracedLight), w.light_qps,
                      light_n, c.ks.sampler),
      PoissonSchedule(MixSeed(c.args.seed, kTagTracedHeavy), w.heavy_qps,
                      heavy_n, c.ks.sampler)};

  double router_self_us = 0.0, router_forward_us = 0.0, shard_skew = 0.0;
  if (w.fleet) {
    const uint64_t base = RequestBase(kTagTracedLight, 2);
    const RouterReplay rr =
        ReplayRouter(c.servers.shard_ports(), kForwardTimeoutMs, streams,
                     c.ks.keys, c.conns, &spans, base);
    std::vector<double> self, forward;
    for (size_t i = 0; i < rr.responses.size(); ++i) {
      c.ledger.net.push_back({rr.keys[i], base + i, true, rr.responses[i]});
      FlatJson j;
      if (!ParseFlatJson(rr.responses[i], &j)) continue;
      if (j.Bool("rerouted")) ++rerouted;
      if (i >= static_cast<size_t>(light_n)) continue;
      self.push_back(rr.handle_us[i] - rr.forward_us[i]);
      forward.push_back(rr.forward_us[i] - j.Number("latency_us").value_or(0.0));
    }
    router_self_us = MedianOr0(self);
    router_forward_us = MedianOr0(forward);
    double total = 0.0, most = 0.0;
    for (int64_t n : rr.per_shard) {
      total += static_cast<double>(n);
      most = std::max(most, static_cast<double>(n));
    }
    shard_skew = total > 0 ? most / (total / static_cast<double>(rr.per_shard.size())) : 0.0;
  }
  c.servers.Stop();

  // In-process service with the servers' options (the fleet's combined
  // cache and compute threads on fleet).
  cf::serve::ServeOptions options;
  const int processes = w.fleet ? 2 : 1;
  options.cache_capacity = w.cache_capacity * static_cast<size_t>(processes);
  options.compute_threads = w.compute_threads * processes;
  options.deadline_ms = kDeadlineMs;
  const ServiceReplay svc =
      ReplayService(model, options, c.ks.working_set, streams, c.ks.keys,
                    c.conns, &spans, RequestBase(kTagTracedLight, 3));
  for (size_t i = 0; i < svc.responses.size(); ++i) {
    c.ledger.svc.push_back({svc.keys[i], svc.responses[i].source, svc.responses[i].value});
  }
  const ServiceFigures sf = SummarizeService(svc, static_cast<size_t>(light_n));

  std::vector<uint32_t> light_keys;
  for (const Arrival& a : streams[0]) light_keys.push_back(a.key);
  const LayerTimes lt =
      TimeLayers(model, options.cache_capacity, options.cache_shards,
                 c.ks.working_set, light_keys, c.ks.keys, &spans,
                 RequestBase(kTagTracedLight, 4));
  const int64_t d = model.config().hidden_dim;
  const double gflops = GemmGflops(std::max<int64_t>(lt.widest_rows, 1), d, 2 * d, 0.2);

  const CheckSummary check = CheckLedger(model, c.ks, c.ledger, c.conns);

  const double p50_untraced_us = untraced.p50_ms.value_or(0.0) * 1e3;
  const double p50_traced_us = traced.p50_ms.value_or(0.0) * 1e3;
  const double overhead = MedianOr0(overhead_us);
  const double blocking = MedianOr0(lt.blocking_us);
  const double coverage =
      p50_untraced_us > 0 ? (overhead + blocking + sf.self_us) / p50_untraced_us : 0.0;
  const double misses = static_cast<double>(std::max<int64_t>(lt.misses, 1));

  std::printf("\nphases (latency from intended send time)\n");
  PrintPhases(c.phases);

  // Share of the mean request's blocking path, layer by layer.
  const double n_req = static_cast<double>(std::max<int64_t>(lt.requests, 1));
  auto total_of = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const std::vector<std::pair<std::string, double>> path = {
      {"serve.async_server (front-end, loopback)", Mean(overhead_us)},
      {"serve.cache.get", total_of(lt.get_us) / n_req},
      {"core.retrieve (misses)", total_of(lt.retrieve_us) / n_req},
      {"serve.cache.put (misses)", total_of(lt.put_us) / n_req},
      {"graph.predict", total_of(lt.predict_us) / n_req},
      {"serve.service self (queue, window, dispatch)", sf.self_us},
  };
  double path_total = 0.0;
  for (const auto& [name, us] : path) path_total += us;
  std::printf("\nblocking path of a light request (mean us per request, share)\n");
  for (const auto& [name, us] : path) {
    std::printf("  %-46s %10.1f %6.1f%%\n", name.c_str(), us,
                path_total > 0 ? 100.0 * us / path_total : 0.0);
  }
  std::printf("  parts %.1f us (medians: %.1f) vs untraced p50 %.1f us: "
              "coverage %.3f (ROADMAP item 1 wants within 5%%)\n",
              path_total, overhead + blocking + sf.self_us, p50_untraced_us,
              coverage);
  std::printf("generator: lateness over the two light phases p50 %.3f ms, p99 %.3f ms\n",
              late.p50_ms, late.p99_ms);
  std::printf("oracle: %lld answers checked bitwise over %lld distinct keys "
              "(%.1f s):",
              static_cast<long long>(check.attempted),
              static_cast<long long>(check.distinct_keys), check.seconds);
  for (const auto& [k, n] : check.by_verdict) std::printf(" %s=%lld", k.c_str(), static_cast<long long>(n));
  std::printf("\n");

  const std::vector<Metric> metrics = {
      {"kg.load_ms", Median(kg_ms), "ms"},
      {"serve.checkpoint.load_ms", Median(ckpt_ms), "ms"},
      {"core.retrieve_us", MedianOr0(lt.retrieve_us), "us"},
      {"core.walk_us", MedianOr0(lt.walk_us), "us"},
      {"core.filter_us", MedianOr0(lt.filter_us), "us"},
      {"core.toc_chains", static_cast<double>(lt.toc_chains) / misses, "count"},
      {"core.filter_kept_ratio",
       lt.toc_chains > 0 ? static_cast<double>(lt.kept_chains) / static_cast<double>(lt.toc_chains) : 0.0,
       "ratio"},
      {"serve.cache.get_us", MedianOr0(lt.get_us), "us"},
      {"serve.cache.put_us", MedianOr0(lt.put_us), "us"},
      {"serve.cache.hit_ratio", hit_ratio, "ratio"},
      {"graph.predict_us", MedianOr0(lt.predict_us), "us"},
      {"graph.verify_ms", lt.verify_us / 1e3, "ms"},
      {"graph.buckets", static_cast<double>(lt.buckets), "count"},
      {"graph.arena_kb", static_cast<double>(lt.arena_bytes) / 1024.0, "KiB"},
      {"tensor.gemm_gflops", gflops, "GFLOP/s"},
      {"tensor.mflop_per_predict", MflopPerPredict(model.config(), lt.mean_k, lt.mean_len), "MFLOP"},
      {"serve.service.queue_us", sf.queue_us, "us"},
      {"serve.service.window_us", sf.window_us, "us"},
      {"serve.service.batch_size", sf.batch_size, "count"},
      {"serve.service.dedup_ratio", sf.dedup_ratio, "ratio"},
      {"serve.service.compute_us_per_query", sf.compute_us_per_query, "us"},
      {"serve.service.self_us", sf.self_us, "us"},
      {"serve.async_server.overhead_us", overhead, "us"},
      {"serve.async_server.pipelined_overhead_us", MedianOr0(piped_overhead_us), "us"},
      {"serve.router.self_us", router_self_us, "us"},
      {"serve.router.forward_us", router_forward_us, "us"},
      {"serve.router.shard_skew", shard_skew, "ratio"},
      {"serve.router.rerouted", static_cast<double>(rerouted), "count"},
      {"gen.late_ms", late.p99_ms, "ms"},
      {"trace.coverage", coverage, "ratio"},
      {"trace.overhead_pct",
       p50_untraced_us > 0 ? 100.0 * (p50_traced_us - p50_untraced_us) / p50_untraced_us : 0.0,
       "%"},
  };
  std::printf("\nper-layer metrics (%s, traced run)\n", w.name);
  PrintMetrics(metrics);

  fs::create_directories(c.args.work_dir + "/traces");
  const std::string trace_path = c.args.work_dir + "/traces/" + w.name +
                                 "-seed" + std::to_string(c.args.seed) + ".json";
  if (spans.WriteChromeTrace(trace_path)) {
    std::printf("trace: %zu spans -> %s\n", spans.size(), trace_path.c_str());
  }
  if (!late.valid()) {
    std::fprintf(stderr, "perfbench: run invalid: the generator fell behind "
                 "its schedule\n");
    return 3;
  }
  std::printf("%s\n", ResultLine(check.wrong == 0, check, metrics).c_str());
  return check.wrong == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cold|fleet --seed N "
                 "--seconds S --trace 0|1 --serve-bin PATH --work-dir DIR\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from this "
                 "build: %s\n", refusal.c_str());
    return 2;
  }
  std::signal(SIGALRM, OnRunTimeLimit);
  alarm(170);

  Context c(args);
  c.w = w;
  c.conns = std::min(4, Nproc());
  fs::create_directories(args.work_dir + "/logs");

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", w->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("machine: nproc=%d cpu=\"%s\" kernels: %s\n", Nproc(),
              CpuModel().c_str(), KernelTiers().c_str());
  std::printf("build: %s flags=\"%s\" (kernels.cc -O3%s)\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              PERFBENCH_KERNELS_NATIVE ? " -march=native" : "");
  std::fflush(stdout);

  const FixtureSpec spec;
  double build_s = 0.0;
  c.fx = EnsureFixture(args.work_dir + "/fixture", spec, &build_s);
  c.loaded = LoadFixture(c.fx);
  const cf::kg::Dataset& ds = *c.loaded.dataset;
  std::printf("fixture: YAGO15K-like scale %g seed %llu: %lld entities, %zu "
              "triples, %zu numeric facts; N_s=%d k=%d d=%d; %s\n",
              spec.scale, static_cast<unsigned long long>(spec.seed),
              static_cast<long long>(ds.graph.num_entities()),
              ds.graph.relational_triples().size(),
              ds.graph.numerical_triples().size(), spec.num_walks, spec.top_k,
              spec.hidden_dim,
              build_s > 0 ? ("built in " + std::to_string(build_s) + " s (not in setup_s)").c_str()
                          : "reused");
  c.ks = BuildKeys(*w, ds, args.seed);
  std::printf("workload: %s, %zu keys (%s), warm-up %zu requests, %d connections\n",
              w->fleet ? "router + 2 shards" : "single server", c.ks.keys.size(),
              w->all_pairs ? "uniform over every (entity, attribute)"
                           : "Zipf over the test split",
              c.ks.working_set.size(), c.conns);
  std::printf("server flags: --cache-capacity=%zu --compute-threads=%d "
              "--serve-threads=%d --deadline-ms=%d%s\n",
              w->cache_capacity, w->compute_threads, kServeThreads, kDeadlineMs,
              w->fleet ? (" (router: --forward-timeout-ms=" +
                          std::to_string(kForwardTimeoutMs) + ")").c_str()
                       : "");
  std::fflush(stdout);
  return args.trace ? RunTraced(c) : RunEndToEnd(c);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
