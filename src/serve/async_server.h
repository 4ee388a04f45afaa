#ifndef CHAINSFORMER_SERVE_ASYNC_SERVER_H_
#define CHAINSFORMER_SERVE_ASYNC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "util/net.h"
#include "util/thread_pool.h"

namespace chainsformer {
namespace serve {

/// Epoll-based NDJSON front-end (DESIGN §6i).
///
/// One reactor thread owns the nonblocking listener and every connection's
/// framing state machine (byte buffer → lines in, response bytes out with
/// EPOLLOUT backpressure); a ThreadPool (util/thread_pool.h) runs the
/// blocking line handler (which may park inside InferenceService::Predict
/// for a full coalescing window); completed responses are posted back to
/// the reactor, which writes them without ever blocking. This replaces the
/// thread-per-connection blocking loop the serve tool started with, whose
/// accept() sat behind in-flight reads — a slow client dribbling a long
/// request body could delay new connections (the PR 10 blocking-listener
/// bug; router_test pins the fix with a slow-writer + fast-client
/// interleaving regression).
///
/// Ordering: responses on one connection come back in request order (the
/// reactor dispatches a connection's next line only after the previous
/// response is queued), matching the old sequential semantics for
/// pipelining clients; distinct connections proceed fully concurrently.
///
/// Thread-safety: construct/Shutdown/destroy from one owner thread. The
/// handler runs on pool threads and must be thread-safe (HandleLine is:
/// it only touches the service and atomics).
class AsyncNdjsonServer {
 public:
  /// A connection whose unterminated line grows past this many bytes is
  /// closed (bound on per-connection buffer growth; no legitimate request
  /// comes close).
  static constexpr size_t kMaxLineBytes = 1 << 20;

  struct Options {
    int port = 0;        ///< 0 binds an ephemeral port (read back via port()).
    int workers = 4;     ///< handler threads.
  };
  using Handler = std::function<std::string(const std::string& line)>;

  AsyncNdjsonServer(const Options& options, Handler handler);
  ~AsyncNdjsonServer();

  AsyncNdjsonServer(const AsyncNdjsonServer&) = delete;
  AsyncNdjsonServer& operator=(const AsyncNdjsonServer&) = delete;

  /// Bound port, or -1 when listening failed (the server is then inert).
  int port() const { return port_; }

  /// Graceful stop: in one reactor step closes the listener and starts the
  /// drain, after which no line is dispatched (a line read later is
  /// dropped); then waits for every line already handed to the pool,
  /// flushes their responses and joins the reactor. The wait is unbounded:
  /// the handler bounds itself (the service's deadline). Idempotent; the
  /// destructor calls it.
  void Shutdown();

  /// Connections accepted since start (tests; mirrors serve.conns_accepted).
  int64_t conns_accepted() const {
    return conns_accepted_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-connection framing state machine; lives on the reactor thread
  /// (only the reactor touches it — no lock by the EpollLoop ownership
  /// model). `id` guards against fd reuse: a handler's response is addressed
  /// to the id, and a recycled fd under a new connection has a new id.
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    std::string read_buf;
    std::string write_buf;       // unflushed response bytes
    std::deque<std::string> pending_lines;
    bool busy = false;           // one line in flight on the pool
    bool eof = false;            // peer half-closed; finish then close
    bool want_write = false;     // EPOLLOUT armed
  };

  void OnListenerReady();
  void OnConnReady(uint64_t id, uint32_t events);
  void ReadConn(Conn& c);
  void DispatchNext(Conn& c);
  void OnResponse(uint64_t id, std::string response);
  void FlushConn(Conn& c);
  void CloseConn(uint64_t id);

  const Options options_;
  const Handler handler_;
  int port_ = -1;
  int listener_ = -1;
  net::EpollLoop loop_;
  // Reactor-thread-only (EpollLoop ownership model).
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_id_ = 1;
  bool draining_ = false;  // set by Shutdown's reactor step: dispatch no line

  std::atomic<int64_t> conns_accepted_{0};
  std::atomic<bool> shut_down_{false};

  /// Runs the handler. The reactor schedules on it only before the drain
  /// step, so Shutdown can destroy it (answering what it holds) while the
  /// reactor keeps running.
  std::unique_ptr<ThreadPool> pool_;
  std::thread reactor_;
};

}  // namespace serve
}  // namespace chainsformer

#endif  // CHAINSFORMER_SERVE_ASYNC_SERVER_H_
