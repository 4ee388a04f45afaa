// Tests for the entity-sharded serving layer (DESIGN §6i): consistent-hash
// ring stability, the fan-out router (trace-id preservation, shard-down
// rerouting and degradation, kill-one-shard-under-load), and the epoll
// NDJSON front-end — including the slow-writer + fast-client interleaving
// regression the old thread-per-connection listener failed.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include "serve/async_server.h"
#include "serve/router.h"
#include "util/net.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace chainsformer {
namespace serve {
namespace {

// --- HashRing ---------------------------------------------------------------

std::vector<std::string> SyntheticKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back("entity_" + std::to_string(i));
  return keys;
}

TEST(HashRingTest, OwnerIsDeterministicAcrossInstances) {
  // Router and shard processes build their rings independently; routing
  // only works if the shard count alone pins every owner.
  HashRing a(4);
  HashRing b(4);
  for (const std::string& key : SyntheticKeys(500)) {
    const int owner = a.Owner(key);
    EXPECT_EQ(owner, b.Owner(key));
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, 4);
  }
}

TEST(HashRingTest, KeysSpreadOverAllShards) {
  HashRing ring(8);
  std::vector<int> counts(8, 0);
  const std::vector<std::string> keys = SyntheticKeys(8000);
  for (const std::string& key : keys) counts[static_cast<size_t>(ring.Owner(key))]++;
  for (int shard = 0; shard < 8; ++shard) {
    // Perfect balance is 1000/shard; vnode hashing keeps every shard within
    // a loose factor of it (no empty or dominant shard).
    EXPECT_GT(counts[static_cast<size_t>(shard)], 400) << "shard " << shard;
    EXPECT_LT(counts[static_cast<size_t>(shard)], 2200) << "shard " << shard;
  }
}

TEST(HashRingTest, AddingShardMovesAboutOneOverNKeys) {
  // The point of consistent hashing: growing 4 → 5 shards reassigns ~1/5 of
  // the keys (all of them TO the new shard), so the existing shards keep
  // their warm ToC caches.
  HashRing before(4);
  HashRing after(5);
  const std::vector<std::string> keys = SyntheticKeys(20000);
  size_t moved = 0;
  for (const std::string& key : keys) {
    const int old_owner = before.Owner(key);
    const int new_owner = after.Owner(key);
    if (old_owner != new_owner) {
      ++moved;
      EXPECT_EQ(new_owner, 4) << "a moved key must move to the new shard";
    }
  }
  const double fraction = static_cast<double>(moved) / static_cast<double>(keys.size());
  EXPECT_GT(fraction, 0.10);  // ideal 0.20; vnode variance stays near it
  EXPECT_LT(fraction, 0.32);
}

TEST(HashRingTest, OwnerChainIsAPermutationStartingAtOwner) {
  HashRing ring(6);
  for (const std::string& key : SyntheticKeys(200)) {
    const std::vector<int> chain = ring.OwnerChain(key);
    ASSERT_EQ(chain.size(), 6u);
    EXPECT_EQ(chain[0], ring.Owner(key));
    EXPECT_EQ(std::set<int>(chain.begin(), chain.end()).size(), 6u)
        << "failover chain must cover every shard exactly once";
  }
}

// --- Router over in-process shards ------------------------------------------

/// Shard-shaped handler: answers healthz and echoes id/trace_id back with
/// the shard index, the way a real shard-mode server does.
LocalShardBackend::Handler FakeShardHandler(int index) {
  return [index](const std::string& line) {
    std::string cmd;
    if (JsonField(line, "cmd", &cmd)) {
      return "{\"ok\": true, \"shard_index\": " + std::to_string(index) + "}";
    }
    std::string id, trace;
    const bool has_id = JsonField(line, "id", &id);
    if (!JsonField(line, "trace_id", &trace)) trace = "0";
    std::string r = "{";
    if (has_id) r += "\"id\": " + id + ", ";
    r += "\"shard\": " + std::to_string(index) + ", \"trace_id\": \"" + trace +
         "\", \"value\": 1.5, \"degraded\": false, \"source\": \"model\", "
         "\"latency_us\": 10, \"batch_size\": 1}";
    return r;
  };
}

std::string RequestLine(int id, const std::string& entity, uint64_t trace_id) {
  return "{\"id\": " + std::to_string(id) + ", \"entity\": \"" + entity +
         "\", \"attribute\": \"a\", \"trace_id\": " + std::to_string(trace_id) +
         "}";
}

struct RouterFixture {
  std::vector<LocalShardBackend*> raw;  // borrowed; router owns
  std::unique_ptr<Router> router;

  explicit RouterFixture(int shards, RouterOptions options = {}) {
    options.health_period_ms = 0;  // deterministic: no background probes
    std::vector<std::unique_ptr<ShardBackend>> backends;
    for (int i = 0; i < shards; ++i) {
      auto b = std::make_unique<LocalShardBackend>(
          "local_" + std::to_string(i), FakeShardHandler(i));
      raw.push_back(b.get());
      backends.push_back(std::move(b));
    }
    router = std::make_unique<Router>(std::move(backends), options);
  }
};

TEST(RouterTest, ForwardsToRingOwnerPreservingIdAndTraceId) {
  RouterFixture f(3);
  for (int i = 0; i < 50; ++i) {
    const std::string entity = "entity_" + std::to_string(i);
    const std::string response =
        f.router->HandleLine(RequestLine(i, entity, 7000u + static_cast<uint64_t>(i)));
    std::string id, shard, trace;
    ASSERT_TRUE(JsonField(response, "id", &id)) << response;
    ASSERT_TRUE(JsonField(response, "shard", &shard)) << response;
    ASSERT_TRUE(JsonField(response, "trace_id", &trace)) << response;
    EXPECT_EQ(id, std::to_string(i));
    EXPECT_EQ(shard, std::to_string(f.router->ring().Owner(entity)))
        << "router must forward to the ring owner";
    EXPECT_EQ(trace, std::to_string(7000 + i))
        << "shard's trace_id must survive the router verbatim";
    EXPECT_EQ(response.find("rerouted"), std::string::npos)
        << "healthy-path responses carry no rerouted tag: " << response;
  }
}

// With tracing on, a routed request leaves a router.request span and one
// router.forward span per shard attempt, both under the client's trace_id.
TEST(RouterTest, TracingRecordsRequestAndForwardSpans) {
  RouterFixture f(2);
  trace::SetEnabled(true);
  trace::Clear();
  constexpr uint64_t kTraceId = 0x5EED;
  const std::string response =
      f.router->HandleLine(RequestLine(1, "entity_traced", kTraceId));
  const std::string json = trace::DrainChromeTraceJson();
  trace::SetEnabled(false);

  std::string trace;
  ASSERT_TRUE(JsonField(response, "trace_id", &trace)) << response;
  EXPECT_EQ(trace, std::to_string(kTraceId));
  const std::string id_arg =
      "\"trace_id\": \"" + std::to_string(kTraceId) + "\"";
  for (const char* span : {"router.request", "router.forward"}) {
    const size_t at = json.find("\"name\": \"" + std::string(span) + "\"");
    ASSERT_NE(at, std::string::npos) << span << " missing: " << json;
    const size_t line_end = json.find('\n', at);
    EXPECT_NE(json.substr(at, line_end - at).find(id_arg), std::string::npos)
        << span << " not under the client's trace_id: " << json;
  }
}

TEST(RouterTest, HealthzAndStatuszAnswerRouterSide) {
  RouterFixture f(2);
  const std::string health = f.router->HandleLine("{\"cmd\": \"healthz\"}");
  EXPECT_NE(health.find("\"role\": \"router\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"shards\": 2"), std::string::npos) << health;
  const std::string status = f.router->HandleLine("{\"cmd\": \"statusz\"}");
  EXPECT_NE(status.find("\"shards\""), std::string::npos) << status;
  EXPECT_NE(status.find("local_0"), std::string::npos) << status;
  EXPECT_NE(status.find("local_1"), std::string::npos) << status;
}

TEST(RouterTest, DownOwnerReroutesAlongRingWithTag) {
  RouterFixture f(3);
  const std::string entity = "entity_17";
  const int owner = f.router->ring().Owner(entity);
  const std::vector<int> chain = f.router->ring().OwnerChain(entity);
  f.raw[static_cast<size_t>(owner)]->SetDown(true);

  const std::string response = f.router->HandleLine(RequestLine(1, entity, 42));
  std::string shard, trace;
  ASSERT_TRUE(JsonField(response, "shard", &shard)) << response;
  EXPECT_EQ(shard, std::to_string(chain[1]))
      << "reroute must follow ring order, not shard numbering";
  EXPECT_NE(response.find("\"rerouted\": true"), std::string::npos) << response;
  ASSERT_TRUE(JsonField(response, "trace_id", &trace));
  EXPECT_EQ(trace, "42");
  EXPECT_FALSE(f.router->shard_healthy(owner))
      << "the failed forward must mark the owner down";

  // Recovery: shard back up + a probe round → traffic returns to the owner.
  f.raw[static_cast<size_t>(owner)]->SetDown(false);
  f.router->CheckNow();
  EXPECT_TRUE(f.router->shard_healthy(owner));
  const std::string again = f.router->HandleLine(RequestLine(2, entity, 43));
  ASSERT_TRUE(JsonField(again, "shard", &shard)) << again;
  EXPECT_EQ(shard, std::to_string(owner));
  EXPECT_EQ(again.find("rerouted"), std::string::npos) << again;
}

TEST(RouterTest, AllShardsDownDegradesAnswerShaped) {
  RouterFixture f(2);
  for (LocalShardBackend* shard : f.raw) shard->SetDown(true);
  const std::string response = f.router->HandleLine(RequestLine(9, "entity_3", 55));
  std::string id, source, trace;
  ASSERT_TRUE(JsonField(response, "id", &id)) << response;
  ASSERT_TRUE(JsonField(response, "source", &source)) << response;
  ASSERT_TRUE(JsonField(response, "trace_id", &trace)) << response;
  EXPECT_EQ(id, "9");
  EXPECT_EQ(source, "shard_down");
  EXPECT_EQ(trace, "55") << "degraded responses still echo the trace id";
  EXPECT_NE(response.find("\"degraded\": true"), std::string::npos) << response;
}

TEST(RouterTest, MissingEntityEchoesIdAsValidJson) {
  RouterFixture f(2);
  // A string id comes back quoted, a numeric one byte-identical.
  EXPECT_EQ(f.router->HandleLine("{\"id\": \"req-7\", \"attribute\": \"a\"}"),
            "{\"id\": \"req-7\", \"error\": \"request needs \\\"entity\\\" "
            "for routing\"}");
  EXPECT_EQ(f.router->HandleLine("{\"id\": 7, \"attribute\": \"a\"}"),
            "{\"id\": 7, \"error\": \"request needs \\\"entity\\\" for "
            "routing\"}");
}

TEST(RouterTest, KillOneShardUnderLoadNeverDropsARequest) {
  // The flash-crowd scenario from the bench, hermetic: four client threads
  // hammer the router while a shard dies mid-stream and later recovers.
  // Every single response must be answer-shaped (owner, rerouted, or
  // degraded) — no hangs, no empty lines, no errors.
  RouterFixture f(4);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::atomic<int> answered{0};
  std::atomic<int> malformed{0};
  std::atomic<bool> killed{false};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (t == 0 && i == kPerThread / 4 &&
            !killed.exchange(true, std::memory_order_acq_rel)) {
          f.raw[2]->SetDown(true);
        }
        if (t == 0 && i == (3 * kPerThread) / 4) {
          f.raw[2]->SetDown(false);
          f.router->CheckNow();
        }
        const std::string entity = "entity_" + std::to_string(t * 1000 + i);
        const std::string response = f.router->HandleLine(
            RequestLine(i, entity, static_cast<uint64_t>(t * 100000 + i)));
        std::string value;
        if (JsonField(response, "value", &value)) {
          answered.fetch_add(1, std::memory_order_relaxed);
        } else {
          malformed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(answered.load(), kThreads * kPerThread);
  EXPECT_EQ(malformed.load(), 0);
}

// --- AsyncNdjsonServer ------------------------------------------------------

AsyncNdjsonServer::Options EphemeralOptions(int workers = 2) {
  AsyncNdjsonServer::Options options;
  options.port = 0;
  options.workers = workers;
  return options;
}

/// Blocking NDJSON test client against 127.0.0.1:`port`.
struct Client {
  int fd = -1;
  std::string buffer;

  explicit Client(int port) { fd = net::ConnectTcp("127.0.0.1", port, 2000); }
  ~Client() {
    if (fd >= 0) net::CloseFd(fd);
  }
  bool Send(const std::string& line) { return net::SendLine(fd, line); }
  bool SendRaw(const std::string& bytes) {
    return net::WriteAll(fd, bytes.data(), bytes.size());
  }
  bool Recv(std::string* line, int timeout_ms = 5000) {
    return net::RecvLine(fd, &buffer, line, timeout_ms);
  }
};

// Accepted sockets disable Nagle's algorithm like connected ones do:
// otherwise a pipelined response written while the previous one is still
// unacknowledged waits for the client's delayed ACK (~40 ms).
TEST(NetTest, AcceptedSocketsSetTcpNoDelay) {
  const int listener = net::ListenTcp(0);
  ASSERT_GE(listener, 0);
  const int client = net::ConnectTcp("127.0.0.1", net::BoundPort(listener), 2000);
  ASSERT_GE(client, 0);
  const int accepted = net::AcceptConn(listener);
  ASSERT_GE(accepted, 0);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  EXPECT_EQ(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_NE(nodelay, 0);
  net::CloseFd(accepted);
  net::CloseFd(client);
  net::CloseFd(listener);
}

TEST(AsyncServerTest, EchoAndPerConnectionPipelining) {
  AsyncNdjsonServer server(EphemeralOptions(), [](const std::string& line) {
    return "{\"echo\": \"" + EscapeJson(line) + "\"}";
  });
  ASSERT_GT(server.port(), 0);
  Client client(server.port());
  ASSERT_GE(client.fd, 0);
  // Pipeline three requests in one write; responses must come back in
  // request order (the reactor dispatches a connection's lines FIFO).
  ASSERT_TRUE(client.SendRaw("{\"n\": 1}\n{\"n\": 2}\n{\"n\": 3}\n"));
  for (int i = 1; i <= 3; ++i) {
    std::string response;
    ASSERT_TRUE(client.Recv(&response));
    EXPECT_NE(response.find("\\\"n\\\": " + std::to_string(i)),
              std::string::npos)
        << response;
  }
}

TEST(AsyncServerTest, SlowClientDoesNotBlockOtherConnections) {
  // The PR 10 blocking-listener regression: a client dribbling a request
  // body without its newline must not stall other clients' accept/serve
  // path. The epoll front-end keeps the partial line parked in that
  // connection's read buffer while everyone else proceeds.
  AsyncNdjsonServer server(EphemeralOptions(), [](const std::string& line) {
    std::string id;
    JsonField(line, "id", &id);
    return "{\"id\": " + (id.empty() ? "0" : id) + "}";
  });
  ASSERT_GT(server.port(), 0);

  Client slow(server.port());
  ASSERT_GE(slow.fd, 0);
  // Half a request: no terminating newline, so the server must keep the
  // connection parked without dispatching anything.
  ASSERT_TRUE(slow.SendRaw("{\"id\": 1, \"entity\": \"drib"));

  Client fast(server.port());
  ASSERT_GE(fast.fd, 0);
  ASSERT_TRUE(fast.Send("{\"id\": 2}"));
  std::string response;
  ASSERT_TRUE(fast.Recv(&response))
      << "fast client starved behind a slow writer";
  EXPECT_NE(response.find("\"id\": 2"), std::string::npos) << response;

  // The slow client finishes its line and still gets its own answer.
  ASSERT_TRUE(slow.SendRaw("ble\"}\n"));
  ASSERT_TRUE(slow.Recv(&response));
  EXPECT_NE(response.find("\"id\": 1"), std::string::npos) << response;
  EXPECT_EQ(server.conns_accepted(), 2);
}

TEST(AsyncServerTest, ConcurrentConnectionsAllAnswered) {
  std::atomic<int> calls{0};
  AsyncNdjsonServer server(EphemeralOptions(4), [&](const std::string& line) {
    calls.fetch_add(1, std::memory_order_relaxed);
    std::string id;
    JsonField(line, "id", &id);
    return "{\"id\": " + id + "}";
  });
  ASSERT_GT(server.port(), 0);
  constexpr int kClients = 8;
  constexpr int kPerClient = 20;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server.port());
      if (client.fd < 0) return;
      for (int i = 0; i < kPerClient; ++i) {
        const int id = c * 1000 + i;
        if (!client.Send("{\"id\": " + std::to_string(id) + "}")) return;
        std::string response;
        if (!client.Recv(&response)) return;
        if (response.find("\"id\": " + std::to_string(id)) != std::string::npos) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_EQ(calls.load(), kClients * kPerClient);
}

TEST(AsyncServerTest, ShutdownDrainsInFlightRequests) {
  std::promise<void> started;
  AsyncNdjsonServer server(EphemeralOptions(), [&started](const std::string&) {
    started.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return std::string("{\"done\": true}");
  });
  ASSERT_GT(server.port(), 0);
  Client client(server.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.Send("{\"id\": 1}"));
  started.get_future().wait();  // the request is inside the handler
  server.Shutdown();  // must wait for the parked handler + flush its answer
  std::string response;
  ASSERT_TRUE(client.Recv(&response, 2000))
      << "shutdown dropped an in-flight response";
  EXPECT_NE(response.find("\"done\": true"), std::string::npos) << response;
}

// Shutdown closes the listener and stops dispatching in one reactor step: a
// line that arrives after it, on a connection whose first line is still in
// the handler, is dropped, and the first answer still flushes.
TEST(AsyncServerTest, LinesArrivingDuringShutdownAreNotDispatched) {
  std::atomic<int> calls{0};
  std::promise<void> started;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  AsyncNdjsonServer server(EphemeralOptions(), [&](const std::string& line) {
    if (calls.fetch_add(1, std::memory_order_relaxed) == 0) {
      started.set_value();
      released.wait();
    }
    return "{\"echo\": \"" + EscapeJson(line) + "\"}";
  });
  const int port = server.port();
  ASSERT_GT(port, 0);
  Client client(port);
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.Send("{\"n\": 1}"));
  started.get_future().wait();  // the first line is inside the handler
  std::thread shutdown([&server] { server.Shutdown(); });
  // A refused connect means the drain step has run: it closes the listener.
  for (int fd; (fd = net::ConnectTcp("127.0.0.1", port, 2000)) >= 0;) {
    net::CloseFd(fd);
  }
  const bool sent = client.Send("{\"n\": 2}");
  release.set_value();
  shutdown.join();
  ASSERT_TRUE(sent);
  std::string response;
  ASSERT_TRUE(client.Recv(&response, 2000))
      << "shutdown dropped the in-flight response";
  EXPECT_NE(response.find("\\\"n\\\": 1"), std::string::npos) << response;
  EXPECT_FALSE(client.Recv(&response, 2000))
      << "answered a line read during the drain: " << response;
  EXPECT_EQ(calls.load(std::memory_order_relaxed), 1);
}

// The line bound on outside input: a client that sends more than
// kMaxLineBytes without a newline loses its connection, and the server keeps
// answering new connections.
TEST(AsyncServerTest, OverlongLineClosesItsConnection) {
  AsyncNdjsonServer server(EphemeralOptions(), [](const std::string& line) {
    return "{\"echo\": \"" + EscapeJson(line) + "\"}";
  });
  ASSERT_GT(server.port(), 0);
  Client flood(server.port());
  ASSERT_GE(flood.fd, 0);
  ASSERT_TRUE(
      flood.SendRaw(std::string(AsyncNdjsonServer::kMaxLineBytes + 1, 'x')));
  ASSERT_TRUE(net::WaitReadable(flood.fd, 5000))
      << "the overlong line left its connection open";
  char byte = 0;
  EXPECT_LE(net::ReadSome(flood.fd, &byte, 1), 0)
      << "the server answered an overlong line instead of closing";

  Client next(server.port());
  ASSERT_GE(next.fd, 0);
  ASSERT_TRUE(next.Send("{\"n\": 1}"));
  std::string response;
  ASSERT_TRUE(next.Recv(&response));
  EXPECT_NE(response.find("\\\"n\\\": 1"), std::string::npos) << response;
}

// --- Router over real TCP shards --------------------------------------------

TEST(RouterTcpTest, RoutesOverTcpAndSurvivesShardDeath) {
  // Two AsyncNdjsonServers stand in for shard-mode serve processes; the
  // router reaches them through TcpShardBackend — the same path a real
  // deployment uses, minus the model.
  auto shard_server = [](int index) {
    return [index](const std::string& line) {
      return FakeShardHandler(index)(line);
    };
  };
  auto s0 = std::make_unique<AsyncNdjsonServer>(EphemeralOptions(), shard_server(0));
  auto s1 = std::make_unique<AsyncNdjsonServer>(EphemeralOptions(), shard_server(1));
  ASSERT_GT(s0->port(), 0);
  ASSERT_GT(s1->port(), 0);

  RouterOptions options;
  options.health_period_ms = 0;
  options.forward_timeout_ms = 1000;
  std::vector<std::unique_ptr<ShardBackend>> backends;
  backends.push_back(
      std::make_unique<TcpShardBackend>("127.0.0.1", s0->port()));
  backends.push_back(
      std::make_unique<TcpShardBackend>("127.0.0.1", s1->port()));
  Router router(std::move(backends), options);
  router.CheckNow();
  EXPECT_TRUE(router.shard_healthy(0));
  EXPECT_TRUE(router.shard_healthy(1));

  // Find an entity owned by shard 0, then kill shard 0's process stand-in.
  std::string entity;
  for (int i = 0;; ++i) {
    entity = "entity_" + std::to_string(i);
    if (router.ring().Owner(entity) == 0) break;
  }
  std::string response = router.HandleLine(RequestLine(1, entity, 77));
  std::string shard;
  ASSERT_TRUE(JsonField(response, "shard", &shard)) << response;
  EXPECT_EQ(shard, "0");

  s0->Shutdown();
  s0.reset();  // port closed: forwards now fail at dial time
  response = router.HandleLine(RequestLine(2, entity, 78));
  ASSERT_TRUE(JsonField(response, "shard", &shard)) << response;
  EXPECT_EQ(shard, "1") << response;
  EXPECT_NE(response.find("\"rerouted\": true"), std::string::npos) << response;
  EXPECT_FALSE(router.shard_healthy(0));

  s1->Shutdown();
  s1.reset();
  response = router.HandleLine(RequestLine(3, entity, 79));
  std::string source;
  ASSERT_TRUE(JsonField(response, "source", &source)) << response;
  EXPECT_EQ(source, "shard_down") << response;
}

}  // namespace
}  // namespace serve
}  // namespace chainsformer
