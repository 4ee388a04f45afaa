// Tests for the admin endpoint: status/Prometheus document shape without a
// live model (null service), and a real HTTP round-trip against an
// AdminServer bound to an ephemeral port.

#include "serve/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>

#include <gtest/gtest.h>

namespace chainsformer {
namespace serve {
namespace {

/// Opens a TCP connection to 127.0.0.1:port; -1 on failure.
int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Connects to 127.0.0.1:port, sends `request`, and returns the full
/// response (read to EOF — the server speaks HTTP/1.0 and closes). Gives up
/// after 5 s without data, so a wedged server fails the test instead of
/// hanging it.
std::string HttpRoundTrip(int port, const std::string& request) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(AdminSnapshotTest, StatusJsonWithoutServiceIsSingleLineJson) {
  const std::string json = StatusJson(nullptr);
  EXPECT_EQ(json.find('\n'), std::string::npos)
      << "statusz must stay single-line so it can ride an NDJSON stream";
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Core sections exist even with no model attached.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"window\""), std::string::npos);
  EXPECT_NE(json.find("\"slo\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_miss_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded_by_cause\""), std::string::npos);
  EXPECT_NE(json.find("\"plan_verify_failures\""), std::string::npos);
}

TEST(AdminSnapshotTest, PrometheusTextWithoutServiceHasSloGauges) {
  const std::string text = PrometheusText(nullptr);
  EXPECT_NE(text.find("# TYPE cf_slo_deadline_miss_rate gauge"),
            std::string::npos);
  EXPECT_NE(text.find("cf_slo_degraded_cause_rate{cause=\"deadline\"}"),
            std::string::npos);
  // Every exposition line is either a comment or `name[{labels}] value`.
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text.find("\n\n"), std::string::npos);
}

TEST(AdminServerTest, ServesStatusMetricsAndHealthOverHttp) {
  AdminServer server(/*port=*/0, /*service=*/nullptr);
  ASSERT_GT(server.port(), 0) << "ephemeral bind failed";

  const std::string statusz =
      HttpRoundTrip(server.port(), "GET /statusz HTTP/1.0\r\n\r\n");
  EXPECT_NE(statusz.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(statusz.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(statusz.find("\"slo\""), std::string::npos);

  const std::string metrics =
      HttpRoundTrip(server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("cf_slo_deadline_miss_rate"), std::string::npos);

  const std::string health =
      HttpRoundTrip(server.port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string missing =
      HttpRoundTrip(server.port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
}

TEST(AdminServerTest, ServesSequentialScrapes) {
  AdminServer server(/*port=*/0, /*service=*/nullptr);
  ASSERT_GT(server.port(), 0);
  for (int i = 0; i < 3; ++i) {
    const std::string resp =
        HttpRoundTrip(server.port(), "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(resp.find("HTTP/1.0 200"), std::string::npos) << "scrape " << i;
  }
}

TEST(AdminServerTest, IdleConnectionDelaysScrapesAndShutdownOnlyBriefly) {
  using Clock = std::chrono::steady_clock;
  const auto budget =
      std::chrono::milliseconds(4 * AdminServer::kRequestTimeoutMs);
  auto server = std::make_unique<AdminServer>(/*port=*/0, nullptr);
  ASSERT_GT(server->port(), 0);

  // A client that connects and never sends a request.
  const int idle = Connect(server->port());
  ASSERT_GE(idle, 0);
  Clock::time_point start = Clock::now();
  const std::string health =
      HttpRoundTrip(server->port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos)
      << "a scrape behind an idle connection got no answer";
  EXPECT_LT(Clock::now() - start, budget);

  // The destructor joins the serve thread while it waits on another idle
  // connection. Closing the idle sockets afterwards unblocks a server that
  // ignores the timeout, so a regression fails here instead of hanging.
  const int idle_at_shutdown = Connect(server->port());
  ASSERT_GE(idle_at_shutdown, 0);
  start = Clock::now();
  std::future<void> closed =
      std::async(std::launch::async, [&server] { server.reset(); });
  const bool in_time = closed.wait_for(budget) == std::future_status::ready;
  const auto took = Clock::now() - start;
  ::close(idle);
  ::close(idle_at_shutdown);
  closed.wait();
  EXPECT_TRUE(in_time) << "~AdminServer took "
                       << std::chrono::duration_cast<std::chrono::milliseconds>(
                              took)
                              .count()
                       << " ms with an idle connection open";
}

}  // namespace
}  // namespace serve
}  // namespace chainsformer
