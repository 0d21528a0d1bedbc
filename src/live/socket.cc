#include "live/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

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

std::string_view IoErrorName(IoError error) {
  switch (error) {
    case IoError::kNone:
      return "none";
    case IoError::kPeerReset:
      return "peer_reset";
    case IoError::kTimeout:
      return "timeout";
    case IoError::kOther:
      return "other";
  }
  return "other";
}

namespace {

IoError ClassifyErrno(int err) {
  if (err == EPIPE || err == ECONNRESET) return IoError::kPeerReset;
  if (err == EAGAIN || err == EWOULDBLOCK) return IoError::kTimeout;
  return IoError::kOther;
}

// How long WriteAll (ReadLine) waits for POLLOUT (POLLIN) after an EAGAIN
// from a non-blocking fd before giving up. SO_SNDTIMEO / SO_RCVTIMEO
// expiries fail immediately instead — the kernel already waited the
// configured time.
constexpr int kWritePollMs = 5000;
constexpr int kReadPollMs = 5000;

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
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // A write timeout means the kernel already blocked for the
        // configured period with the send buffer full: the peer stalled.
        if (write_timeout_set_) {
          last_error_ = IoError::kTimeout;
          return false;
        }
        // Non-blocking fd: wait for buffer space, then resume the frame.
        pollfd pfd{};
        pfd.fd = fd_.get();
        pfd.events = POLLOUT;
        const int ready = ::poll(&pfd, 1, kWritePollMs);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) {
          last_error_ = ready == 0 ? IoError::kTimeout : IoError::kOther;
          return false;
        }
        continue;
      }
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
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // A read timeout means the kernel already blocked for the
        // configured period with nothing arriving: the peer stalled.
        // Buffered bytes stay put — they are a frame prefix, not a line,
        // and a later call may still complete them.
        if (read_timeout_set_) {
          last_error_ = IoError::kTimeout;
          return std::nullopt;
        }
        // Non-blocking fd: wait for data, then resume the frame —
        // symmetric to WriteAll's POLLOUT resume.
        pollfd pfd{};
        pfd.fd = fd_.get();
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, kReadPollMs);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) {
          last_error_ = ready == 0 ? IoError::kTimeout : IoError::kOther;
          return std::nullopt;
        }
        continue;
      }
      // Hard error (reset or otherwise): never surface the partial frame
      // as if it were a complete final line.
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
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0) {
    read_timeout_set_ = true;
  }
}

void TcpStream::SetWriteTimeout(int milliseconds) {
  if (!fd_.valid()) return;
  timeval tv{};
  tv.tv_sec = milliseconds / 1000;
  tv.tv_usec = (milliseconds % 1000) * 1000;
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) == 0) {
    write_timeout_set_ = true;
  }
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
  if (::listen(fd.get(), 64) != 0) return;

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
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return TcpStream(Fd());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return TcpStream(Fd());
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(std::move(fd));
}

std::optional<std::string> Exchange(std::uint16_t port, std::string_view line) {
  TcpStream stream = Connect(port);
  if (!stream.valid()) return std::nullopt;
  stream.SetReadTimeout(5000);
  if (!stream.WriteAll(line)) return std::nullopt;
  return stream.ReadLine();
}

bool SendOneWay(std::uint16_t port, std::string_view line) {
  return SendOneWayClassified(port, line, /*timeout_ms=*/0) == IoError::kNone;
}

IoError SendOneWayClassified(std::uint16_t port, std::string_view line,
                             int timeout_ms) {
  TcpStream stream = Connect(port);
  if (!stream.valid()) {
    // A refused connection means the peer process is gone — the same
    // signal as a reset on an established stream.
    return errno == ECONNREFUSED ? IoError::kPeerReset : IoError::kOther;
  }
  if (timeout_ms > 0) stream.SetWriteTimeout(timeout_ms);
  stream.WriteAll(line);
  return stream.last_error();
}

}  // namespace webcc::live
