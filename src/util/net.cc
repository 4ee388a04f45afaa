#include "util/net.h"

// The sanctioned blocking-syscall TU (see net.h): every ::read/::write/
// ::accept/::connect in src/ lives here, enforced by the cf_lint rule
// `blocking-io-outside-net`.

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/stopwatch.h"

namespace chainsformer {
namespace net {

namespace {

/// Remaining budget of a millisecond deadline given elapsed time; -1 stays
/// -1 (no limit), exhausted budgets clamp to 0 so poll() returns at once.
int RemainingMs(int timeout_ms, int64_t elapsed_ms) {
  if (timeout_ms < 0) return -1;
  const int64_t left = timeout_ms - elapsed_ms;
  return left > 0 ? static_cast<int>(left) : 0;
}

}  // namespace

int ListenTcp(int port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

int BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return -1;
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

int ConnectTcp(const std::string& host, int port, int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // Nonblocking connect + poll-for-writable bounds the wait; the fd goes
  // back to blocking mode once connected (client-side callers want the
  // simple poll-then-read style of RecvLine).
  SetNonBlocking(fd);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  if (rc < 0) {
    pollfd p{fd, POLLOUT, 0};
    do {
      rc = ::poll(&p, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    int err = 0;
    socklen_t len = sizeof(err);
    if (rc <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int AcceptConn(int listener) {
  int fd;
  do {
    fd = ::accept(listener, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd >= 0) {
    // Without it, a response written while the previous one on the same
    // connection is unacknowledged waits for the client's delayed ACK
    // (~40 ms) — every pipelined NDJSON client hits this.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

ssize_t ReadSome(int fd, char* buf, size_t len) {
  ssize_t n;
  do {
    n = ::read(fd, buf, len);
  } while (n < 0 && errno == EINTR);
  return n;
}

ssize_t WriteSome(int fd, const char* buf, size_t len) {
  ssize_t n;
  do {
    n = ::write(fd, buf, len);
  } while (n < 0 && errno == EINTR);
  return n;
}

bool IsWouldBlock(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

bool WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = WriteSome(fd, data + off, len - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool SendLine(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  return WriteAll(fd, framed.data(), framed.size());
}

bool RecvLine(int fd, std::string* buffer, std::string* line, int timeout_ms) {
  Stopwatch sw;
  char chunk[4096];
  while (true) {
    const size_t nl = buffer->find('\n');
    if (nl != std::string::npos) {
      line->assign(*buffer, 0, nl);
      buffer->erase(0, nl + 1);
      return true;
    }
    const int left = RemainingMs(timeout_ms, sw.ElapsedMicros() / 1000);
    if (left == 0) return false;
    if (!WaitReadable(fd, left)) return false;
    const ssize_t n = ReadSome(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && IsWouldBlock(errno)) continue;  // raced another reader
      return false;                                // EOF or hard error
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

bool WaitReadable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&p, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  return rc > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

void ShutdownFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

bool MakePipe(int fds[2]) {
  if (::pipe(fds) != 0) return false;
  for (int i = 0; i < 2; ++i) {
    SetNonBlocking(fds[i]);
    ::fcntl(fds[i], F_SETFD, FD_CLOEXEC);
  }
  return true;
}

void SignalSafeWriteByte(int fd) {
  const char b = 1;
  // One retry on EINTR; a full pipe already guarantees a pending wakeup,
  // so a failed retry is fine to ignore.
  ssize_t n = ::write(fd, &b, 1);
  if (n < 0 && errno == EINTR) n = ::write(fd, &b, 1);
  (void)n;
}

EpollLoop::EpollLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  int fds[2] = {-1, -1};
  if (epoll_fd_ >= 0 && !MakePipe(fds)) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (epoll_fd_ < 0) return;
  wake_read_ = fds[0];
  wake_write_ = fds[1];
  // The wake pipe is the one fd the loop registers for itself: Post()/
  // Stop() write a byte, the loop drains it and runs the posted queue.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_read_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_, &ev);
}

EpollLoop::~EpollLoop() {
  CloseFd(wake_read_);
  CloseFd(wake_write_);
  CloseFd(epoll_fd_);
}

bool EpollLoop::Add(int fd, uint32_t events, Handler handler) {
  if (!ok()) return false;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  handlers_[fd] = std::move(handler);
  return true;
}

bool EpollLoop::Mod(int fd, uint32_t events) {
  if (!ok()) return false;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EpollLoop::Del(int fd) {
  if (!ok()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EpollLoop::Post(std::function<void()> fn) {
  {
    cf::MutexLock lock(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  SignalSafeWriteByte(wake_write_);
}

void EpollLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  SignalSafeWriteByte(wake_write_);
}

void EpollLoop::DrainPosted() {
  std::vector<std::function<void()>> batch;
  {
    cf::MutexLock lock(posted_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EpollLoop::Run() {
  if (!ok()) return;
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    int n;
    do {
      n = ::epoll_wait(epoll_fd_, events, 64, -1);
    } while (n < 0 && errno == EINTR);
    if (n < 0) return;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_read_) {
        char sink[256];
        while (ReadSome(wake_read_, sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      // Re-look up per event: a handler earlier in this round may have
      // Del()'d this fd (e.g. the peer closed two fds in one batch).
      const auto it = handlers_.find(fd);
      if (it != handlers_.end()) it->second(events[i].events);
    }
    DrainPosted();
  }
  // One final drain so a Stop() racing a last Post() cannot strand work.
  DrainPosted();
}

}  // namespace net
}  // namespace chainsformer
