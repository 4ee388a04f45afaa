#include "serve/async_server.h"

#include <future>

#include <sys/epoll.h>

#include "util/logging.h"
#include "util/metric_names.h"
#include "util/metrics.h"

namespace chainsformer {
namespace serve {
namespace {

// Pending-connection queue of the listening socket.
constexpr int kListenBacklog = 128;

}  // namespace

AsyncNdjsonServer::AsyncNdjsonServer(const Options& options, Handler handler)
    : options_(options), handler_(std::move(handler)) {
  listener_ = net::ListenTcp(options_.port, kListenBacklog);
  if (listener_ < 0 || !loop_.ok()) {
    CF_LOG(Error) << "async server: cannot listen on 127.0.0.1:"
                  << options_.port;
    net::CloseFd(listener_);
    listener_ = -1;
    return;
  }
  port_ = net::BoundPort(listener_);
  net::SetNonBlocking(listener_);
  // Registered before Run() starts, from the owning thread — the one other
  // moment the EpollLoop ownership model allows.
  loop_.Add(listener_, EPOLLIN, [this](uint32_t) { OnListenerReady(); });
  pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(options_.workers > 0 ? options_.workers : 1));
  reactor_ = std::thread([this] { loop_.Run(); });
}

AsyncNdjsonServer::~AsyncNdjsonServer() { Shutdown(); }

void AsyncNdjsonServer::OnListenerReady() {
  // Drain the accept queue: one epoll wakeup may carry several pending
  // connections, and (the fixed bug) nothing a slow connection does can
  // delay this path — reads happen on their own fd events.
  while (true) {
    const int fd = net::AcceptConn(listener_);
    if (fd < 0) return;  // EAGAIN: queue drained (or listener closed)
    net::SetNonBlocking(fd);
    conns_accepted_.fetch_add(1, std::memory_order_relaxed);
    static auto* accepted = metrics::MetricsRegistry::Global().GetCounter(
        metrics::names::kServeConnsAccepted);
    accepted->Increment();
    const uint64_t id = next_id_++;
    auto conn = std::make_unique<Conn>();
    conn->id = id;
    conn->fd = fd;
    Conn& c = *conn;
    conns_.emplace(id, std::move(conn));
    loop_.Add(fd, EPOLLIN, [this, id](uint32_t events) {
      OnConnReady(id, events);
    });
    ReadConn(c);  // bytes may already be waiting
  }
}

void AsyncNdjsonServer::OnConnReady(uint64_t id, uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && (events & EPOLLIN) == 0) {
    CloseConn(id);
    return;
  }
  if ((events & EPOLLOUT) != 0) FlushConn(c);
  if (conns_.count(id) == 0) return;  // flush error closed it
  if ((events & (EPOLLIN | EPOLLHUP)) != 0) ReadConn(c);
}

void AsyncNdjsonServer::ReadConn(Conn& c) {
  char chunk[4096];
  while (true) {
    const ssize_t n = net::ReadSome(c.fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (net::IsWouldBlock(errno)) break;
      CloseConn(c.id);
      return;
    }
    if (n == 0) {  // peer half-closed: answer what's queued, then close
      c.eof = true;
      break;
    }
    c.read_buf.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while ((nl = c.read_buf.find('\n')) != std::string::npos) {
      std::string line = c.read_buf.substr(0, nl);
      c.read_buf.erase(0, nl + 1);
      // A line read during the drain is dropped, never dispatched.
      if (!line.empty() && !draining_) {
        c.pending_lines.push_back(std::move(line));
      }
    }
    if (c.read_buf.size() > kMaxLineBytes) {
      CF_LOG(Warning) << "async server: dropping connection with "
                      << c.read_buf.size() << "-byte unterminated line";
      CloseConn(c.id);
      return;
    }
  }
  if (!c.busy) DispatchNext(c);
  if (c.eof && !c.busy && c.pending_lines.empty() && c.write_buf.empty()) {
    CloseConn(c.id);
  }
}

void AsyncNdjsonServer::DispatchNext(Conn& c) {
  if (c.pending_lines.empty()) return;
  std::string line = std::move(c.pending_lines.front());
  c.pending_lines.pop_front();
  c.busy = true;
  pool_->Schedule([this, id = c.id, line = std::move(line)] {
    std::string response = handler_(line);
    loop_.Post([this, id, r = std::move(response)]() mutable {
      OnResponse(id, std::move(r));
    });
  });
}

void AsyncNdjsonServer::OnResponse(uint64_t id, std::string response) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;  // connection died while we computed
  Conn& c = *it->second;
  c.busy = false;
  c.write_buf += response;
  c.write_buf += '\n';
  FlushConn(c);
  if (conns_.count(id) == 0) return;  // write error closed it
  DispatchNext(c);
  if (c.eof && !c.busy && c.pending_lines.empty() && c.write_buf.empty()) {
    CloseConn(id);
  }
}

void AsyncNdjsonServer::FlushConn(Conn& c) {
  while (!c.write_buf.empty()) {
    const ssize_t n =
        net::WriteSome(c.fd, c.write_buf.data(), c.write_buf.size());
    if (n < 0) {
      if (net::IsWouldBlock(errno)) break;
      CloseConn(c.id);
      return;
    }
    c.write_buf.erase(0, static_cast<size_t>(n));
  }
  // Arm/disarm EPOLLOUT to match residue: a slow-reading client applies
  // backpressure here instead of blocking a thread.
  const bool want = !c.write_buf.empty();
  if (want != c.want_write) {
    c.want_write = want;
    loop_.Mod(c.fd, EPOLLIN | (want ? EPOLLOUT : 0u));
  }
}

void AsyncNdjsonServer::CloseConn(uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  loop_.Del(it->second->fd);
  net::CloseFd(it->second->fd);
  conns_.erase(it);
}

void AsyncNdjsonServer::Shutdown() {
  if (port_ < 0) return;
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  // One reactor step stops accepting and starts the drain: queued lines are
  // dropped and no line is dispatched from here on, so the pool can be
  // destroyed once the step has run.
  std::promise<void> drain_started;
  loop_.Post([this, &drain_started] {
    loop_.Del(listener_);
    net::CloseFd(listener_);
    listener_ = -1;
    draining_ = true;
    for (auto& [id, conn] : conns_) {
      conn->eof = true;
      conn->pending_lines.clear();
    }
    drain_started.set_value();
  });
  drain_started.get_future().wait();
  // ~ThreadPool answers every line already handed over: in-flight requests
  // complete and their responses are posted to the still-running reactor.
  pool_.reset();
  // Give the reactor one last round to flush tail responses, then stop.
  loop_.Post([this] {
    for (auto& [id, conn] : conns_) FlushConn(*conn);
  });
  loop_.Stop();
  if (reactor_.joinable()) reactor_.join();
  for (auto& [id, conn] : conns_) net::CloseFd(conn->fd);
  conns_.clear();
}

}  // namespace serve
}  // namespace chainsformer
