#include "live/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "util/log.h"

namespace webcc::live {

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

// Every TcpStream wraps a blocking fd, so EAGAIN means an SO_SNDTIMEO or
// SO_RCVTIMEO expiry: the kernel already waited the configured time.
IoError ClassifyErrno(int err) {
  if (err == EPIPE || err == ECONNRESET) return IoError::kPeerReset;
  if (err == EAGAIN || err == EWOULDBLOCK) return IoError::kTimeout;
  return IoError::kOther;
}

// How long a client waits for the reply to one request line.
constexpr int kReplyTimeoutMs = 5000;

}  // namespace

bool TcpStream::WriteAll(std::string_view data) {
  if (!fd_.valid()) {
    last_error_ = IoError::kOther;
    return false;
  }
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd_.get(), data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      last_error_ = ClassifyErrno(errno);
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  last_error_ = IoError::kNone;
  return true;
}

std::optional<std::string> TcpStream::ReadLine() {
  if (!fd_.valid()) {
    last_error_ = IoError::kOther;
    return std::nullopt;
  }
  // Bytes of buffer_ already scanned for '\n': each recv's bytes are
  // searched once, so a long line costs linear, not quadratic, time.
  std::size_t scanned = 0;
  while (true) {
    const std::size_t newline = buffer_.find('\n', scanned);
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline + 1);
      buffer_.erase(0, newline + 1);
      last_error_ = IoError::kNone;
      return line;
    }
    scanned = buffer_.size();
    if (buffer_.size() >= kMaxLineBytes) {
      // A peer that never sends '\n' must not grow memory until the read
      // timeout: no wire frame comes near the cap, so the stream is bad.
      last_error_ = IoError::kOther;
      return std::nullopt;
    }
    char chunk[4096];
    const std::size_t want =
        std::min(sizeof(chunk), kMaxLineBytes - buffer_.size());
    const ssize_t n = ::recv(fd_.get(), chunk, want, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A timeout or a reset: never surface the partial frame as if it
      // were a complete final line. Buffered bytes stay put, so a read
      // that timed out can resume the frame on a later call.
      last_error_ = ClassifyErrno(errno);
      return std::nullopt;
    }
    if (n == 0) {
      // Orderly EOF: an unterminated trailing line is legitimately final.
      last_error_ = IoError::kNone;
      if (!buffer_.empty()) {
        std::string line = std::move(buffer_);
        buffer_.clear();
        return line;
      }
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void TcpStream::SetReadTimeout(int milliseconds) {
  if (!fd_.valid()) return;
  timeval tv{};
  tv.tv_sec = milliseconds / 1000;
  tv.tv_usec = (milliseconds % 1000) * 1000;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void TcpStream::SetWriteTimeout(int milliseconds) {
  if (!fd_.valid()) return;
  timeval tv{};
  tv.tv_sec = milliseconds / 1000;
  tv.tv_usec = (milliseconds % 1000) * 1000;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

TcpListener::TcpListener(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return;
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return;
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) return;

  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return;
  }
  port_ = ntohs(addr.sin_port);
  fd_ = std::move(fd);
}

TcpStream TcpListener::Accept() {
  if (!fd_.valid()) return TcpStream(Fd());
  const int client = ::accept(fd_.get(), nullptr, nullptr);
  return TcpStream(Fd(client));
}

void TcpListener::Shutdown() {
  // shutdown() only — it unblocks a concurrent Accept() without rewriting
  // fd_, which the accept thread may be reading right now. The close (and
  // the fd_ = -1 store) waits for the destructor, which callers run after
  // joining their accept thread.
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

TcpStream Connect(std::uint16_t port) {
  TcpStream failed{Fd()};
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    failed.last_error_ = IoError::kOther;
    return failed;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    // A refused connection means the peer process is gone — the same
    // signal as a reset on an established stream. errno is classified
    // here, before fd's destructor runs close().
    failed.last_error_ =
        errno == ECONNREFUSED ? IoError::kPeerReset : IoError::kOther;
    return failed;
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(std::move(fd));
}

std::optional<std::string> Exchange(std::uint16_t port, std::string_view line) {
  TcpStream stream = Connect(port);
  if (!stream.valid()) return std::nullopt;
  stream.SetReadTimeout(kReplyTimeoutMs);
  if (!stream.WriteAll(line)) return std::nullopt;
  return stream.ReadLine();
}

std::optional<std::string> ConnectionPool::Exchange(std::string_view line) {
  std::optional<TcpStream> stream;
  {
    const util::MutexLock lock(mutex_);
    if (!idle_.empty()) {
      stream.emplace(std::move(idle_.back()));
      idle_.pop_back();
    }
  }
  bool reused = stream.has_value();
  while (true) {
    if (!reused) {
      stream.emplace(Connect(port_));
      if (!stream->valid()) return std::nullopt;
      stream->SetReadTimeout(kReplyTimeoutMs);
    }
    std::optional<std::string> reply;
    if (stream->WriteAll(line)) reply = stream->ReadLine();
    if (reply.has_value() && reply->back() == '\n') {
      const util::MutexLock lock(mutex_);
      idle_.push_back(std::move(*stream));
      return reply;
    }
    // A partial reply or a timeout may mean the handler ran; only a
    // connection closed before it answered anything is safe to retry.
    const bool closed_unanswered =
        reused && !reply.has_value() && stream->buffered_bytes() == 0 &&
        stream->last_error() != IoError::kTimeout;
    if (!closed_unanswered) return std::nullopt;
    reused = false;
  }
}

// --- LineServer --------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

// How often the reactor reaps idle connections and resumes a paused
// listener.
constexpr auto kSweepPeriod = std::chrono::seconds(1);
constexpr auto kIdleClose = std::chrono::milliseconds(LineServer::kIdleCloseMs);

struct Connection {
  Fd fd;
  std::string in;               // received bytes not yet handled as lines
  std::size_t scanned = 0;      // prefix of `in` known to hold no '\n'
  std::string out;              // unsent tail of the current reply
  Clock::time_point last_line;  // the accept time until a line completes
};

bool Watch(int epoll, int fd, std::uint32_t events, int op) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  return ::epoll_ctl(epoll, op, fd, &event) == 0;
}

// Sends what the socket takes of c.out without blocking; false on a hard
// error.
bool Flush(Connection& c) {
  std::size_t sent = 0;
  while (sent < c.out.size()) {
    const ssize_t n = ::send(c.fd.get(), c.out.data() + sent,
                             c.out.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  c.out.erase(0, sent);
  return true;
}

// Hands each complete line of c.in to the handler and sends its reply,
// stopping while a reply is unsent. False when the connection must close.
bool HandleLines(Connection& c, const LineServer::Handler& handler) {
  std::size_t start = 0;
  while (c.out.empty()) {
    const std::size_t newline = c.in.find('\n', std::max(start, c.scanned));
    if (newline == std::string::npos) break;
    c.out = handler(std::string_view(c.in).substr(start, newline + 1 - start));
    c.last_line = Clock::now();
    start = newline + 1;
    if (!Flush(c)) return false;
  }
  c.in.erase(0, start);
  // Each byte is searched for '\n' once, so a peer trickling a long line
  // costs linear, not quadratic, time.
  c.scanned = c.out.empty() ? c.in.size() : 0;
  if (c.out.empty() && c.in.size() >= TcpStream::kMaxLineBytes) {
    // No wire frame comes near the cap, so the stream is bad: answer and
    // close rather than buffer until the idle deadline.
    c.out = "ERR oversize\n";
    Flush(c);
    return false;
  }
  return true;
}

// Runs one readiness event for a connection: flushes a pending reply, or
// reads and handles lines. False when the connection must close. Any
// error or hang-up flag shows up as the result of the send or recv, so a
// stale event for a reused descriptor costs one EAGAIN.
bool Service(int epoll, Connection& c, const LineServer::Handler& handler) {
  if (!c.out.empty()) {
    if (!Flush(c)) return false;
    if (!c.out.empty()) return true;
    if (!HandleLines(c, handler)) return false;
    return !c.out.empty() || Watch(epoll, c.fd.get(), EPOLLIN, EPOLL_CTL_MOD);
  }
  char chunk[1 << 16];
  // HandleLines leaves a reader below the cap, so `want` is never 0.
  const std::size_t want =
      std::min(sizeof(chunk), TcpStream::kMaxLineBytes - c.in.size());
  const ssize_t n = ::recv(c.fd.get(), chunk, want, 0);
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  if (n == 0) return false;  // EOF: a frame it cut off is dropped
  c.in.append(chunk, static_cast<std::size_t>(n));
  if (!HandleLines(c, handler)) return false;
  // Backpressure: stop reading until the reply is out.
  return c.out.empty() || Watch(epoll, c.fd.get(), EPOLLOUT, EPOLL_CTL_MOD);
}

}  // namespace

LineServer::LineServer(std::uint16_t port, Handler handler)
    : listener_(port),
      handler_(std::move(handler)),
      epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (!listener_.valid() || !epoll_.valid() || !wake_.valid()) return;
  const int listen_fd = listener_.fd_.get();
  const int flags = ::fcntl(listen_fd, F_GETFL);
  if (flags < 0 || ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK) != 0 ||
      !Watch(epoll_.get(), listen_fd, EPOLLIN, EPOLL_CTL_ADD) ||
      !Watch(epoll_.get(), wake_.get(), EPOLLIN, EPOLL_CTL_ADD)) {
    return;
  }
  thread_ = std::thread([this] { Run(); });
}

LineServer::~LineServer() {
  if (!thread_.joinable()) return;
  ::eventfd_write(wake_.get(), 1);
  thread_.join();
}

void LineServer::Run() {
  const int listen_fd = listener_.fd_.get();
  std::unordered_map<int, Connection> connections;
  bool listening = true;
  Clock::time_point next_sweep = Clock::now() + kSweepPeriod;
  epoll_event events[64];
  while (true) {
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        next_sweep - Clock::now());
    const int ready = ::epoll_wait(epoll_.get(), events, 64,
                                   static_cast<int>(std::max<std::int64_t>(
                                       0, wait.count())));
    if (ready < 0 && errno != EINTR) {
      WEBCC_LOG_ERROR("live: epoll_wait failed: %s", std::strerror(errno));
      return;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_.get()) return;
      if (fd != listen_fd) {
        const auto it = connections.find(fd);
        if (it != connections.end() &&
            !Service(epoll_.get(), it->second, handler_)) {
          connections.erase(it);  // closing the fd also unregisters it
        }
        continue;
      }
      while (true) {
        const int client = ::accept4(listen_fd, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (client < 0) {
          if (errno == EINTR || errno == ECONNABORTED) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          // Out of descriptors or memory: the queue stays readable, so
          // stop watching it until the next sweep instead of spinning.
          ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, listen_fd, nullptr);
          listening = false;
          break;
        }
        Connection& c = connections[client];
        c.fd = Fd(client);
        c.last_line = Clock::now();
        const int one = 1;
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (!Watch(epoll_.get(), client, EPOLLIN, EPOLL_CTL_ADD)) {
          connections.erase(client);
        }
      }
    }
    const Clock::time_point now = Clock::now();
    if (now < next_sweep) continue;
    next_sweep = now + kSweepPeriod;
    std::erase_if(connections, [now](const auto& entry) {
      return now - entry.second.last_line >= kIdleClose;
    });
    if (!listening) {
      listening = Watch(epoll_.get(), listen_fd, EPOLLIN, EPOLL_CTL_ADD);
    }
  }
}

}  // namespace webcc::live
