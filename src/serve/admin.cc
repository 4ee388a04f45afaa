#include "serve/admin.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "graph/runtime.h"
#include "serve/service.h"
#include "util/logging.h"
#include "util/metric_names.h"
#include "util/metrics.h"
#include "util/net.h"

namespace chainsformer {
namespace serve {
namespace {

/// Formats a double compactly ("0" not "0.000000"), locale-independent.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Prometheus metric name: cf_ prefix, dots to underscores.
std::string PromName(const std::string& dotted) {
  std::string out = "cf_";
  out.reserve(dotted.size() + 3);
  for (char c : dotted) out.push_back(c == '.' ? '_' : c);
  return out;
}

double Rate(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

/// Window-scoped SLO facts derived from the windowed serve counters. A
/// deadline miss is a deadline-degraded answer, so its rate and the
/// deadline cause's rate are one figure.
struct SloView {
  int64_t requests = 0;
  double degraded_rate = 0.0;
  double degraded_deadline_rate = 0.0;
  double degraded_empty_toc_rate = 0.0;
  double degraded_shutdown_rate = 0.0;
};

SloView ComputeSlo(const metrics::MetricsSnapshot::WindowView& window) {
  SloView slo;
  slo.requests = window.CounterSum(metrics::names::kServeRequests);
  slo.degraded_rate =
      Rate(window.CounterSum(metrics::names::kServeDegraded), slo.requests);
  slo.degraded_deadline_rate = Rate(
      window.CounterSum(metrics::names::kServeDegradedDeadline), slo.requests);
  slo.degraded_empty_toc_rate = Rate(
      window.CounterSum(metrics::names::kServeDegradedEmptyToc), slo.requests);
  slo.degraded_shutdown_rate = Rate(
      window.CounterSum(metrics::names::kServeDegradedShutdown), slo.requests);
  return slo;
}

}  // namespace

std::string StatusJson(const InferenceService* service) {
  const metrics::MetricsSnapshot cumulative =
      metrics::MetricsRegistry::Global().Snapshot();
  const metrics::MetricsSnapshot::WindowView& window = cumulative.window;
  const SloView slo = ComputeSlo(window);

  std::ostringstream os;
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : cumulative.counters) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << v;
    first = false;
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : cumulative.gauges) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << Num(v);
    first = false;
  }

  os << "}, \"window\": {\"seconds\": " << Num(window.seconds)
     << ", \"percentiles\": {";
  first = true;
  for (const auto& [name, p] : window.histograms) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"count\": " << p.count
       << ", \"p50\": " << Num(p.p50) << ", \"p90\": " << Num(p.p90)
       << ", \"p99\": " << Num(p.p99) << "}";
    first = false;
  }
  os << "}, \"counters\": {";
  first = true;
  for (const auto& [name, v] : window.counters) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << v;
    first = false;
  }
  os << "}}";

  const int64_t verify_failures =
      cumulative.CounterValue(metrics::names::kPlanVerifyFailures);
  os << ", \"slo\": {\"window_requests\": " << slo.requests
     << ", \"deadline_miss_rate\": " << Num(slo.degraded_deadline_rate)
     << ", \"degraded_rate\": " << Num(slo.degraded_rate)
     << ", \"degraded_by_cause\": {\"deadline\": "
     << Num(slo.degraded_deadline_rate)
     << ", \"empty_toc\": " << Num(slo.degraded_empty_toc_rate)
     << ", \"shutdown\": " << Num(slo.degraded_shutdown_rate)
     << "}, \"alerts\": {\"plan_verify_failures\": " << verify_failures
     << ", \"firing\": " << (verify_failures > 0 ? "true" : "false") << "}}";

  const int64_t cache_hits =
      cumulative.CounterValue(metrics::names::kServeCacheHits);
  const int64_t cache_misses =
      cumulative.CounterValue(metrics::names::kServeCacheMisses);
  os << ", \"cache\": {\"hits\": " << cache_hits
     << ", \"misses\": " << cache_misses
     << ", \"hit_rate\": " << Num(Rate(cache_hits, cache_hits + cache_misses))
     << "}";

  if (service != nullptr) {
    const graph::StaticGraphRuntime* rt = service->static_runtime();
    os << ", \"precision\": {\"mode\": \""
       << graph::PrecisionName(rt->precision())
       << "\", \"requested\": \""
       << graph::PrecisionName(service->options().precision)
       << "\", \"verify_tolerance\": " << Num(rt->verify_tolerance())
       << ", \"quant_error_budget\": " << Num(kQuantErrorBudget)
       << ", \"quant_rejected\": "
       << (service->quant_rejected() ? "true" : "false") << "}";
    const graph::StaticGraphRuntime::PatternTableStats table =
        rt->pattern_table();
    const int64_t pattern_hits =
        cumulative.CounterValue(metrics::names::kPlanPatternHits);
    const int64_t pattern_misses =
        cumulative.CounterValue(metrics::names::kPlanPatternMisses);
    os << ", \"pattern_table\": {\"rows\": " << table.rows
       << ", \"bytes\": " << table.bytes
       << ", \"capacity_bytes\": " << table.capacity_bytes
       << ", \"full\": " << (table.full ? "true" : "false")
       << ", \"hits\": " << pattern_hits << ", \"misses\": " << pattern_misses
       << ", \"hit_rate\": "
       << Num(Rate(pattern_hits, pattern_hits + pattern_misses)) << "}";
    os << ", \"plan_buckets\": [";
    first = true;
    for (const auto& b : rt->Stats()) {
      os << (first ? "" : ", ") << "{\"program\": \"" << b.program
         << "\", \"k\": " << b.k
         << ", \"max_len\": " << b.max_len
         << ", \"ready\": " << (b.ready ? "true" : "false")
         << ", \"eager_fallback\": " << (b.eager_fallback ? "true" : "false")
         << ", \"precision\": \"" << b.precision << "\""
         << ", \"verify_tolerance\": " << Num(b.verify_tolerance)
         << ", \"arena_bytes\": " << b.arena_bytes << "}";
      first = false;
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::string PrometheusText(const InferenceService* service) {
  const metrics::MetricsSnapshot cumulative =
      metrics::MetricsRegistry::Global().Snapshot();
  const metrics::MetricsSnapshot::WindowView& window = cumulative.window;
  const SloView slo = ComputeSlo(window);

  std::ostringstream os;
  for (const auto& [name, v] : cumulative.counters) {
    const std::string p = PromName(name);
    os << "# TYPE " << p << " counter\n" << p << " " << v << "\n";
  }
  for (const auto& [name, v] : cumulative.gauges) {
    const std::string p = PromName(name);
    os << "# TYPE " << p << " gauge\n" << p << " " << Num(v) << "\n";
  }
  for (const auto& h : cumulative.histograms) {
    const std::string p = PromName(h.name);
    os << "# TYPE " << p << " histogram\n";
    int64_t cum = 0;
    for (const auto& b : h.buckets) {
      cum += b.count;
      os << p << "_bucket{le=\"";
      if (std::isfinite(b.upper_bound)) {
        os << Num(b.upper_bound);
      } else {
        os << "+Inf";
      }
      os << "\"} " << cum << "\n";
    }
    if (h.buckets.empty() || std::isfinite(h.buckets.back().upper_bound)) {
      os << p << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    }
    os << p << "_sum " << Num(h.sum) << "\n";
    os << p << "_count " << h.count << "\n";
  }

  // Live sliding-window percentiles: gauges, since a window re-computes
  // rather than accumulates.
  for (const auto& [name, p] : window.histograms) {
    const std::string base = "cf_window_" + PromName(name).substr(3);
    os << "# TYPE " << base << "_p50 gauge\n"
       << base << "_p50 " << Num(p.p50) << "\n";
    os << "# TYPE " << base << "_p90 gauge\n"
       << base << "_p90 " << Num(p.p90) << "\n";
    os << "# TYPE " << base << "_p99 gauge\n"
       << base << "_p99 " << Num(p.p99) << "\n";
    os << "# TYPE " << base << "_window_count gauge\n"
       << base << "_window_count " << p.count << "\n";
  }
  os << "# TYPE cf_slo_window_requests gauge\ncf_slo_window_requests "
     << slo.requests << "\n";
  os << "# TYPE cf_slo_deadline_miss_rate gauge\ncf_slo_deadline_miss_rate "
     << Num(slo.degraded_deadline_rate) << "\n";
  os << "# TYPE cf_slo_degraded_rate gauge\ncf_slo_degraded_rate "
     << Num(slo.degraded_rate) << "\n";
  os << "# TYPE cf_slo_degraded_cause_rate gauge\n";
  os << "cf_slo_degraded_cause_rate{cause=\"deadline\"} "
     << Num(slo.degraded_deadline_rate) << "\n";
  os << "cf_slo_degraded_cause_rate{cause=\"empty_toc\"} "
     << Num(slo.degraded_empty_toc_rate) << "\n";
  os << "cf_slo_degraded_cause_rate{cause=\"shutdown\"} "
     << Num(slo.degraded_shutdown_rate) << "\n";

  if (service != nullptr) {
    const graph::StaticGraphRuntime* rt = service->static_runtime();
    // One-hot serving-precision marker: dashboards join on the `precision`
    // label to split QPS/latency series by numeric mode.
    os << "# TYPE cf_plan_precision gauge\n";
    os << "cf_plan_precision{precision=\""
       << graph::PrecisionName(rt->precision()) << "\"} 1\n";
    const auto buckets = rt->Stats();
    os << "# TYPE cf_plan_bucket_ready gauge\n";
    os << "# TYPE cf_plan_bucket_eager_fallback gauge\n";
    os << "# TYPE cf_plan_bucket_arena_bytes gauge\n";
    os << "# TYPE cf_plan_bucket_precision gauge\n";
    for (const auto& b : buckets) {
      const std::string labels =
          "{program=\"" + std::string(b.program) + "\",k=\"" +
          std::to_string(b.k) + "\",max_len=\"" + std::to_string(b.max_len) +
          "\"} ";
      os << "cf_plan_bucket_ready" << labels << (b.ready ? 1 : 0) << "\n";
      os << "cf_plan_bucket_eager_fallback" << labels
         << (b.eager_fallback ? 1 : 0) << "\n";
      os << "cf_plan_bucket_arena_bytes" << labels << b.arena_bytes << "\n";
      os << "cf_plan_bucket_precision{program=\"" << b.program << "\",k=\""
         << b.k << "\",max_len=\"" << b.max_len << "\",precision=\""
         << b.precision << "\"} 1\n";
    }
  }
  return os.str();
}

AdminServer::AdminServer(int port, const InferenceService* service)
    : service_(service) {
  const int listener = net::ListenTcp(port, 16);
  if (listener < 0) {
    CF_LOG(Error) << "admin: cannot listen on 127.0.0.1:" << port << ": "
                  << std::strerror(errno);
    return;
  }
  const int bound = net::BoundPort(listener);
  port_ = bound >= 0 ? bound : port;
  listen_fd_.store(listener, std::memory_order_seq_cst);
  thread_ = std::thread([this] { ServeLoop(); });
}

AdminServer::~AdminServer() {
  // Closing the listener unblocks accept() in ServeLoop; shutdown() first
  // so an accept already in progress returns instead of hanging.
  const int fd = listen_fd_.exchange(-1, std::memory_order_seq_cst);
  if (fd >= 0) {
    net::ShutdownFd(fd);
    net::CloseFd(fd);
  }
  if (thread_.joinable()) thread_.join();
}

void AdminServer::ServeLoop() {
  while (true) {
    const int listener = listen_fd_.load(std::memory_order_seq_cst);
    if (listener < 0) return;
    const int fd = net::AcceptConn(listener);
    if (fd < 0) return;  // listener closed by destructor (or fatal error)

    // Scrape clients send their request right after connecting; one that
    // stays silent must not hold up every later scrape, or the destructor
    // joining this thread.
    if (!net::WaitReadable(fd, kRequestTimeoutMs)) {
      net::CloseFd(fd);
      continue;
    }
    // Read just the request line; scrape clients send tiny requests.
    char req[1024];
    const ssize_t n = net::ReadSome(fd, req, sizeof(req) - 1);
    std::string target = "/";
    if (n > 0) {
      req[n] = '\0';
      // "GET /path HTTP/1.x"
      const char* sp1 = std::strchr(req, ' ');
      if (sp1 != nullptr) {
        const char* sp2 = std::strchr(sp1 + 1, ' ');
        if (sp2 != nullptr) target.assign(sp1 + 1, sp2);
      }
    }

    std::string body, content_type = "text/plain; charset=utf-8";
    int status = 200;
    const char* status_text = "OK";
    if (target == "/statusz") {
      body = StatusJson(service_) + "\n";
      content_type = "application/json";
    } else if (target == "/metrics") {
      body = PrometheusText(service_);
      content_type = "text/plain; version=0.0.4; charset=utf-8";
    } else if (target == "/healthz") {
      body = "ok\n";
    } else {
      status = 404;
      status_text = "Not Found";
      body = "not found; try /statusz /metrics /healthz\n";
    }

    std::ostringstream os;
    os << "HTTP/1.0 " << status << " " << status_text << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
    const std::string response = os.str();
    net::WriteAll(fd, response.data(), response.size());
    net::CloseFd(fd);
  }
}

}  // namespace serve
}  // namespace chainsformer
