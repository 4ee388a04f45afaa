#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "util/logging.h"
#include "util/metric_names.h"
#include "util/net.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace chainsformer {
namespace serve {

namespace {

/// FNV-1a over the key bytes; Mix64 on top fixes FNV's weak high bits.
uint64_t HashBytes(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix64(h);
}

const std::string kHealthzLine = "{\"cmd\": \"healthz\"}";

}  // namespace

// --- HashRing ---------------------------------------------------------------

HashRing::HashRing(int shards) : shards_(shards > 0 ? shards : 1) {
  points_.reserve(static_cast<size_t>(shards_) *
                  static_cast<size_t>(kVnodesPerShard));
  for (int s = 0; s < shards_; ++s) {
    for (int v = 0; v < kVnodesPerShard; ++v) {
      // Mix64 of a (shard, replica) pack — deterministic, no strings, and
      // identical in every process that agrees on the shard count.
      const uint64_t point = Mix64((static_cast<uint64_t>(s) << 32) |
                                   static_cast<uint64_t>(v));
      points_.emplace_back(point, s);
    }
  }
  std::sort(points_.begin(), points_.end());
}

uint64_t HashRing::KeyHash(const std::string& key) { return HashBytes(key); }

size_t HashRing::FirstPointAtOrAfter(uint64_t hash) const {
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), std::make_pair(hash, 0),
      [](const std::pair<uint64_t, int>& a, const std::pair<uint64_t, int>& b) {
        return a.first < b.first;
      });
  return it == points_.end() ? 0 : static_cast<size_t>(it - points_.begin());
}

int HashRing::Owner(const std::string& key) const {
  return points_[FirstPointAtOrAfter(KeyHash(key))].second;
}

std::vector<int> HashRing::OwnerChain(const std::string& key) const {
  std::vector<int> chain;
  chain.reserve(static_cast<size_t>(shards_));
  std::vector<bool> seen(static_cast<size_t>(shards_), false);
  size_t i = FirstPointAtOrAfter(KeyHash(key));
  for (size_t step = 0; step < points_.size() &&
                        chain.size() < static_cast<size_t>(shards_);
       ++step, i = (i + 1) % points_.size()) {
    const int s = points_[i].second;
    if (!seen[static_cast<size_t>(s)]) {
      seen[static_cast<size_t>(s)] = true;
      chain.push_back(s);
    }
  }
  return chain;
}

// --- Backends ---------------------------------------------------------------

bool ShardBackend::Probe(int timeout_ms) {
  std::string response;
  return Forward(kHealthzLine, timeout_ms, &response) &&
         response.find("\"ok\"") != std::string::npos;
}

bool LocalShardBackend::Forward(const std::string& line, int /*timeout_ms*/,
                                std::string* response) {
  if (down_.load(std::memory_order_acquire)) return false;
  *response = handler_(line);
  return true;
}

TcpShardBackend::TcpShardBackend(std::string host, int port)
    : host_(std::move(host)), port_(port) {}

TcpShardBackend::~TcpShardBackend() {
  cf::MutexLock lock(mu_);
  for (PooledConn& c : idle_) net::CloseFd(c.fd);
  idle_.clear();
}

std::string TcpShardBackend::name() const {
  return host_ + ":" + std::to_string(port_);
}

bool TcpShardBackend::ForwardOnce(PooledConn conn, const std::string& line,
                                  int timeout_ms, std::string* response) {
  if (conn.fd < 0) {
    conn.fd = net::ConnectTcp(host_, port_, timeout_ms);
    if (conn.fd < 0) return false;
  }
  if (!net::SendLine(conn.fd, line) ||
      !net::RecvLine(conn.fd, &conn.read_buf, response, timeout_ms)) {
    net::CloseFd(conn.fd);
    return false;
  }
  cf::MutexLock lock(mu_);
  idle_.push_back(std::move(conn));
  return true;
}

bool TcpShardBackend::Forward(const std::string& line, int timeout_ms,
                              std::string* response) {
  PooledConn conn;
  {
    cf::MutexLock lock(mu_);
    if (!idle_.empty()) {
      conn = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  const bool pooled = conn.fd >= 0;
  if (ForwardOnce(std::move(conn), line, timeout_ms, response)) return true;
  // A pooled connection can be stale (shard restarted since the last
  // request); one retry on a fresh dial separates "stale socket" from
  // "shard down".
  return pooled && ForwardOnce(PooledConn{}, line, timeout_ms, response);
}

// --- Router -----------------------------------------------------------------

Router::Router(std::vector<std::unique_ptr<ShardBackend>> shards,
               const RouterOptions& options)
    : options_(options),
      shards_(std::move(shards)),
      ring_(static_cast<int>(shards_.size())),
      states_(shards_.size()) {
  if (options_.health_period_ms > 0) {
    health_thread_ = std::thread([this] { HealthLoop(); });
  }
}

Router::~Router() {
  {
    cf::MutexLock lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.NotifyAll();
  if (health_thread_.joinable()) health_thread_.join();
}

void Router::MarkFailure(size_t idx) {
  ShardState& st = states_[idx];
  st.total_failures.fetch_add(1, std::memory_order_relaxed);
  if (!st.down.exchange(true, std::memory_order_acq_rel)) {
    CF_LOG(Warning) << "router: shard " << idx << " (" << shards_[idx]->name()
                    << ") marked down after a transport failure";
  }
}

void Router::MarkSuccess(size_t idx) {
  ShardState& st = states_[idx];
  if (st.down.exchange(false, std::memory_order_acq_rel)) {
    CF_LOG(Info) << "router: shard " << idx << " (" << shards_[idx]->name()
                 << ") back up";
  }
}

bool Router::TryShard(size_t idx, const std::string& line, uint64_t trace_id,
                      std::string* response) {
  states_[idx].forwards.fetch_add(1, std::memory_order_relaxed);
  const bool tracing = trace::Enabled();
  const uint64_t start_ns = tracing ? trace::NowNs() : 0;
  const bool ok =
      shards_[idx]->Forward(line, options_.forward_timeout_ms, response);
  if (tracing) {
    trace::EmitSpan("router.forward", start_ns, trace::NowNs(), trace_id);
  }
  if (ok) {
    MarkSuccess(idx);
    return true;
  }
  static auto* errors = metrics::MetricsRegistry::Global().GetCounter(
      metrics::names::kRouterShardErrors);
  errors->Increment();
  MarkFailure(idx);
  return false;
}

std::string Router::DegradedResponse(const std::string& line) const {
  // Answer-shaped even with every shard gone: same fields a deadline
  // degradation carries, so clients never special-case the router.
  std::string id, trace_id;
  const bool has_id = JsonField(line, "id", &id);
  if (!JsonField(line, "trace_id", &trace_id)) trace_id = "0";
  std::string r = "{";
  if (has_id) r += "\"id\": " + JsonNumberOrString(id) + ", ";
  r += "\"trace_id\": \"" + EscapeJson(trace_id) +
       "\", \"value\": 0, \"degraded\": true, \"source\": \"shard_down\", "
       "\"latency_us\": 0, \"batch_size\": 0}";
  return r;
}

std::string Router::HandleLine(const std::string& line) {
  if (!trace::Enabled()) return Route(line, 0);
  const uint64_t start_ns = trace::NowNs();
  const uint64_t trace_id = ParseTraceId(line);
  std::string response = Route(line, trace_id);
  trace::EmitSpan("router.request", start_ns, trace::NowNs(), trace_id);
  return response;
}

std::string Router::Route(const std::string& line, uint64_t trace_id) {
  static auto* requests = metrics::MetricsRegistry::Global().GetCounter(
      metrics::names::kRouterRequests);
  // Windowed: together they are the SLO block's window_shard_down.
  static auto* rerouted_counter = metrics::MetricsRegistry::Global().GetCounter(
      metrics::names::kRouterRerouted, metrics::Window::kSliding);
  static auto* degraded_counter = metrics::MetricsRegistry::Global().GetCounter(
      metrics::names::kRouterDegraded, metrics::Window::kSliding);
  requests->Increment();

  std::string cmd;
  if (JsonField(line, "cmd", &cmd)) {
    if (cmd == "healthz") {
      int healthy = 0;
      for (size_t i = 0; i < shards_.size(); ++i) {
        if (shard_healthy(static_cast<int>(i))) ++healthy;
      }
      return "{\"ok\": true, \"role\": \"router\", \"shards\": " +
             std::to_string(shards_.size()) +
             ", \"healthy\": " + std::to_string(healthy) + "}";
    }
    if (cmd == "statusz") return StatusJson();
    return "{\"error\": \"unknown cmd: " + EscapeJson(cmd) + "\"}";
  }

  std::string entity;
  if (!JsonField(line, "entity", &entity)) {
    std::string id;
    const bool has_id = JsonField(line, "id", &id);
    std::string r = "{";
    if (has_id) r += "\"id\": " + JsonNumberOrString(id) + ", ";
    return r + "\"error\": \"request needs \\\"entity\\\" for routing\"}";
  }

  const std::vector<int> chain = ring_.OwnerChain(entity);
  std::string response;
  // Two passes over the failover chain: first skip shards already marked
  // down (no timeout paid), then — only if everything looked down — try
  // them anyway (the probe thread may simply not have noticed a recovery).
  for (const bool include_down : {false, true}) {
    for (size_t pos = 0; pos < chain.size(); ++pos) {
      const size_t idx = static_cast<size_t>(chain[pos]);
      const bool down = !shard_healthy(chain[pos]);
      if (down != include_down) continue;
      if (!TryShard(idx, line, trace_id, &response)) continue;
      if (pos != 0 || include_down) {
        // Not answered by the warm owner: correct (every shard holds the
        // full model) but cache-cold. Tag it and count the SLO miss.
        rerouted_counter->Increment();
        const size_t brace = response.rfind('}');
        if (brace != std::string::npos) {
          response.insert(brace, ", \"rerouted\": true");
        }
      }
      return response;
    }
  }
  degraded_counter->Increment();
  return DegradedResponse(line);
}

void Router::CheckNow() {
  static auto* probes = metrics::MetricsRegistry::Global().GetCounter(
      metrics::names::kRouterHealthProbes);
  for (size_t i = 0; i < shards_.size(); ++i) {
    probes->Increment();
    if (shards_[i]->Probe(options_.forward_timeout_ms)) {
      MarkSuccess(i);
    } else {
      MarkFailure(i);
    }
  }
}

void Router::HealthLoop() {
  while (true) {
    {
      cf::MutexLock lock(stop_mu_);
      if (stop_cv_.WaitFor(stop_mu_,
                           std::chrono::milliseconds(options_.health_period_ms),
                           [this]() CF_REQUIRES(stop_mu_) {
                             return stopping_;
                           })) {
        return;
      }
    }
    CheckNow();
  }
}

std::string Router::StatusJson() const {
  const metrics::MetricsSnapshot snap =
      metrics::MetricsRegistry::Global().Snapshot();
  std::ostringstream os;
  os << "{\"role\": \"router\", \"ring\": {\"shards\": " << shards_.size()
     << ", \"vnodes\": " << kVnodesPerShard << "}, \"shards\": [";
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardState& st = states_[i];
    os << (i == 0 ? "" : ", ") << "{\"index\": " << i << ", \"address\": \""
       << EscapeJson(shards_[i]->name()) << "\", \"healthy\": "
       << (st.down.load(std::memory_order_acquire) ? "false" : "true")
       << ", \"forwards\": " << st.forwards.load(std::memory_order_relaxed)
       << ", \"failures\": "
       << st.total_failures.load(std::memory_order_relaxed) << "}";
  }
  os << "], \"counters\": {";
  const char* names[] = {
      metrics::names::kRouterRequests,    metrics::names::kRouterRerouted,
      metrics::names::kRouterDegraded,    metrics::names::kRouterShardErrors,
      metrics::names::kRouterHealthProbes};
  bool first = true;
  for (const char* name : names) {
    os << (first ? "" : ", ") << "\"" << name
       << "\": " << snap.CounterValue(name);
    first = false;
  }
  os << "}, \"slo\": {\"window_shard_down\": "
     << snap.window.CounterSum(metrics::names::kRouterRerouted) +
            snap.window.CounterSum(metrics::names::kRouterDegraded)
     << "}}";
  return os.str();
}

}  // namespace serve
}  // namespace chainsformer
