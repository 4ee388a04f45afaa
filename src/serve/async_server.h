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
#include <utility>
#include <vector>

#include "util/net.h"
#include "util/sync.h"

namespace chainsformer {
namespace serve {

/// Epoll-based NDJSON front-end (DESIGN §6i).
///
/// One reactor thread owns the nonblocking listener and every connection's
/// framing state machine (byte buffer → lines in, response bytes out with
/// EPOLLOUT backpressure); a pool of worker threads runs the blocking line
/// handler (which may park inside InferenceService::Predict for a full
/// coalescing window); completed responses are posted back to the reactor,
/// which writes them without ever blocking. This replaces the
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
/// handler runs on worker threads and must be thread-safe (HandleLine is:
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

  /// Graceful stop: closes the listener, half-closes every connection's
  /// read side, waits (bounded) for in-flight handlers to finish and their
  /// responses to flush, then joins reactor and workers. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  /// Connections accepted since start (tests; mirrors serve.conns_accepted).
  int64_t conns_accepted() const {
    return conns_accepted_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-connection framing state machine; lives on the reactor thread
  /// (only the reactor touches it — no lock by the EpollLoop ownership
  /// model). `id` guards against fd reuse: a worker's response is addressed
  /// to the id, and a recycled fd under a new connection has a new id.
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    std::string read_buf;
    std::string write_buf;       // unflushed response bytes
    std::deque<std::string> pending_lines;
    bool busy = false;           // one line in flight at a worker
    bool eof = false;            // peer half-closed; finish then close
    bool want_write = false;     // EPOLLOUT armed
  };

  void ReactorMain();
  void OnListenerReady();
  void OnConnReady(uint64_t id, uint32_t events);
  void ReadConn(Conn& c);
  void DispatchNext(Conn& c);
  void OnResponse(uint64_t id, std::string response);
  void FlushConn(Conn& c);
  void CloseConn(uint64_t id);
  void WorkerMain();

  const Options options_;
  const Handler handler_;
  int port_ = -1;
  int listener_ = -1;
  net::EpollLoop loop_;
  // Reactor-thread-only (EpollLoop ownership model).
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_id_ = 1;

  std::atomic<int64_t> conns_accepted_{0};
  std::atomic<bool> shut_down_{false};

  cf::Mutex work_mu_{"serve.async_work"};
  cf::CondVar work_cv_;
  std::deque<std::pair<uint64_t, std::string>> work_ CF_GUARDED_BY(work_mu_);
  bool work_done_ CF_GUARDED_BY(work_mu_) = false;
  int in_flight_ CF_GUARDED_BY(work_mu_) = 0;

  std::thread reactor_;
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace chainsformer

#endif  // CHAINSFORMER_SERVE_ASYNC_SERVER_H_
