#ifndef CHAINSFORMER_SERVE_ADMIN_H_
#define CHAINSFORMER_SERVE_ADMIN_H_

#include <atomic>
#include <string>
#include <thread>

namespace chainsformer {
namespace serve {

class InferenceService;

/// Builds the live status document served at /statusz (and by the
/// `{"cmd": "statusz"}` NDJSON escape on the main port): cumulative
/// counters/gauges, sliding-window per-phase p50/p90/p99, SLO rates
/// (deadline-miss and degraded-by-cause over the window), answer cache hit
/// rate, and per-bucket static-plan stats. Always a single line of JSON so
/// it can ride an NDJSON stream unframed. `service` may be null (plan and
/// option fields are then omitted); snapshotting never blocks the serve hot
/// path.
std::string StatusJson(const InferenceService* service);

/// The same data in Prometheus text exposition format (version 0.0.4):
/// `cf_`-prefixed counters/gauges, cumulative-`le` histogram buckets,
/// windowed percentiles as `cf_window_*` gauges, SLO rates as `cf_slo_*`
/// gauges, and per-bucket plan stats with {k, max_len} labels.
std::string PrometheusText(const InferenceService* service);

/// Minimal HTTP/1.0 admin endpoint (`chainsformer_serve --admin-port`).
///
/// Routes: GET /statusz (JSON), GET /metrics (Prometheus text), GET
/// /healthz ("ok"). One short-lived connection at a time on a dedicated
/// thread — scrape traffic, not serving traffic — so it never competes with
/// the dispatcher. A connection that sends no request within
/// kRequestTimeoutMs is closed unanswered, so an idle client can delay the
/// next scrape and the destructor by at most that long. Binds 127.0.0.1;
/// pass port 0 to bind an ephemeral port (read it back with port(), used by
/// tests).
class AdminServer {
 public:
  /// How long a connection may take to send its request line.
  static constexpr int kRequestTimeoutMs = 500;

  AdminServer(int port, const InferenceService* service);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Bound port, or -1 when listening failed (the server then serves
  /// nothing but construction/destruction stay safe).
  int port() const { return port_; }

 private:
  void ServeLoop();

  const InferenceService* service_;
  int port_ = -1;
  std::atomic<int> listen_fd_{-1};
  std::thread thread_;
};

}  // namespace serve
}  // namespace chainsformer

#endif  // CHAINSFORMER_SERVE_ADMIN_H_
