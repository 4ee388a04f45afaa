#ifndef CHAINSFORMER_SERVE_ROUTER_H_
#define CHAINSFORMER_SERVE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace chainsformer {
namespace serve {

/// Virtual nodes per shard on the consistent-hash ring. One constant shared
/// by the router and by shard-mode servers (serve.misrouted accounting), so
/// both sides always agree on who owns an entity.
inline constexpr int kVnodesPerShard = 64;

/// Consistent-hash ring over `shards` shards with kVnodesPerShard virtual
/// nodes each (DESIGN §6i). Entities hash to a point on a 64-bit ring; the
/// owning shard is the first vnode at or after that point. Adding a shard
/// moves ~1/(N+1) of the keys (router_test pins this), so growing a fleet
/// mostly preserves every shard's warm answer cache — the whole reason the
/// partition exists. Deterministic across processes: router and shards
/// build identical rings from the shard count alone.
class HashRing {
 public:
  explicit HashRing(int shards);

  /// Shard owning `key` (an entity name).
  int Owner(const std::string& key) const;

  /// Every shard in ring order starting at `key`'s point: the owner first,
  /// then the failover order a down owner's keys reroute along.
  std::vector<int> OwnerChain(const std::string& key) const;

  int num_shards() const { return shards_; }

  /// 64-bit ring position of a key (exposed for tests).
  static uint64_t KeyHash(const std::string& key);

 private:
  size_t FirstPointAtOrAfter(uint64_t hash) const;

  int shards_;
  std::vector<std::pair<uint64_t, int>> points_;  // (ring position, shard)
};

/// One shard the router can forward to. Implementations: LocalShardBackend
/// (in-process worker group — tests and single-binary deployments) and
/// TcpShardBackend (a shard-mode chainsformer_serve process).
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Forwards one NDJSON request line; on success fills `*response` with
  /// the shard's one-line answer and returns true. False means a transport
  /// failure or timeout (`*response` is unspecified) — the router treats it
  /// as "shard down", never as an answer.
  virtual bool Forward(const std::string& line, int timeout_ms,
                       std::string* response) = 0;

  /// Cheap liveness probe; default forwards {"cmd": "healthz"} and accepts
  /// any response claiming ok.
  virtual bool Probe(int timeout_ms);

  /// Human-readable shard address for status output ("127.0.0.1:8471").
  virtual std::string name() const = 0;
};

/// In-process shard: forwards to a handler function directly. SetDown(true)
/// simulates a killed shard process (every Forward fails), which is how
/// router_test runs the kill-one-shard-under-load scenario hermetically.
class LocalShardBackend : public ShardBackend {
 public:
  using Handler = std::function<std::string(const std::string& line)>;
  LocalShardBackend(std::string name, Handler handler)
      : name_(std::move(name)), handler_(std::move(handler)) {}

  bool Forward(const std::string& line, int timeout_ms,
               std::string* response) override;
  std::string name() const override { return name_; }

  void SetDown(bool down) { down_.store(down, std::memory_order_release); }

 private:
  std::string name_;
  Handler handler_;
  std::atomic<bool> down_{false};
};

/// TCP shard client with a small pool of persistent NDJSON connections.
/// Forward checks a connection out of the pool (dialing a new one when
/// empty), sends the line, waits for the one-line reply within the timeout,
/// and returns the connection on success; any failure discards it. A stale
/// pooled connection (shard restarted) costs one transparent retry on a
/// fresh dial.
class TcpShardBackend : public ShardBackend {
 public:
  TcpShardBackend(std::string host, int port);
  ~TcpShardBackend() override;

  bool Forward(const std::string& line, int timeout_ms,
               std::string* response) override;
  std::string name() const override;

 private:
  /// One pooled connection and its NDJSON read-ahead buffer (bytes of the
  /// next response that arrived with the previous one stay with their fd).
  struct PooledConn {
    int fd = -1;
    std::string read_buf;
  };

  bool ForwardOnce(PooledConn conn, const std::string& line, int timeout_ms,
                   std::string* response);

  const std::string host_;
  const int port_;
  cf::Mutex mu_{"router.conn_pool"};
  std::vector<PooledConn> idle_ CF_GUARDED_BY(mu_);
};

/// Router tuning knobs.
struct RouterOptions {
  /// Per-shard attempt budget for one forward. Mirrors the serve deadline:
  /// the router gives each attempt at most this long before declaring the
  /// shard slow and moving on.
  int forward_timeout_ms = 250;
  /// Background health-probe cadence; <= 0 disables the probe thread (a
  /// down shard then recovers only via CheckNow or a direct-forward retry).
  int health_period_ms = 250;
};

/// Entity-sharded fan-out router (DESIGN §6i).
///
/// HandleLine hashes the request's entity onto the ring and forwards the
/// line to the owning shard, preserving the response verbatim — trace_id,
/// per-phase telemetry and all. When the owner is down or times out, the
/// request reroutes along the ring order (every shard holds the full model;
/// sharding partitions the *cache working set*, not correctness), the
/// response gains `"rerouted": true`, and the miss is counted in the
/// windowed router.rerouted (the SLO block's window_shard_down adds
/// router.degraded). One transport failure marks a shard down; a health
/// probe or a successful forward marks it back up. Only when every shard
/// fails does the router degrade the request itself:
/// `"source": "shard_down"`, value 0 — answer-shaped, never a hang, matching
/// the deadline-degradation contract.
///
/// Thread-safety: HandleLine from any thread; shard health is atomics plus
/// a background probe thread.
class Router {
 public:
  Router(std::vector<std::unique_ptr<ShardBackend>> shards,
         const RouterOptions& options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes one NDJSON request line and returns the one-line response.
  /// {"cmd": "healthz"} and {"cmd": "statusz"} answer router-side. While
  /// tracing is on, records a router.request span around the call and one
  /// router.forward span per shard attempt, under the client's trace_id.
  std::string HandleLine(const std::string& line);

  /// Probes every shard once, synchronously (tests; the background thread
  /// does the same on its cadence).
  void CheckNow();

  const HashRing& ring() const { return ring_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  bool shard_healthy(int i) const {
    return !states_[static_cast<size_t>(i)].down.load(
        std::memory_order_acquire);
  }

  /// Router-side status document (one line of JSON): per-shard health and
  /// failure counts, ring geometry, routing counters.
  std::string StatusJson() const;

 private:
  struct ShardState {
    std::atomic<bool> down{false};
    std::atomic<int64_t> total_failures{0};
    std::atomic<int64_t> forwards{0};
  };

  /// HandleLine's body. `trace_id` is the client's, for the router.forward
  /// spans written while tracing is on.
  std::string Route(const std::string& line, uint64_t trace_id);
  bool TryShard(size_t idx, const std::string& line, uint64_t trace_id,
                std::string* response);
  void MarkFailure(size_t idx);
  void MarkSuccess(size_t idx);
  std::string DegradedResponse(const std::string& line) const;
  void HealthLoop();

  const RouterOptions options_;
  std::vector<std::unique_ptr<ShardBackend>> shards_;
  HashRing ring_;
  std::vector<ShardState> states_;

  cf::Mutex stop_mu_{"router.stop"};
  cf::CondVar stop_cv_;
  bool stopping_ CF_GUARDED_BY(stop_mu_) = false;
  std::thread health_thread_;
};

}  // namespace serve
}  // namespace chainsformer

#endif  // CHAINSFORMER_SERVE_ROUTER_H_
