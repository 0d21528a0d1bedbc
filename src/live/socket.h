// Minimal RAII TCP sockets for the live prototype (loopback deployments).
//
// Each live component serves newline-framed wire lines on one LineServer:
// a single-threaded epoll reactor over persistent connections, so one slow
// or idle peer never holds up another. Clients speak blocking I/O with
// short timeouts: the proxy keeps a ConnectionPool of persistent
// connections to the server, while one-shot Exchange calls and the
// server's invalidation pushes open a connection each (a refused connect is
// how the server learns that a proxy is down).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace webcc::live {

// Owning file-descriptor wrapper.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
};

// Why the last stream operation failed. Handlers branch on this to tell a
// peer that vanished (reset: drop the connection silently, the paper's
// proxies do the same for crashed clients) from a stall (timeout: the peer
// is alive but slow — worth logging) from everything else.
enum class IoError {
  kNone,       // last operation succeeded
  kPeerReset,  // EPIPE / ECONNRESET / ECONNREFUSED: the peer closed or vanished
  kTimeout,    // SO_SNDTIMEO / SO_RCVTIMEO expired
  kOther,      // any other errno
};

// A connected TCP stream with line-oriented helpers.
class TcpStream {
 public:
  explicit TcpStream(Fd fd) : fd_(std::move(fd)) {}

  bool valid() const { return fd_.valid(); }

  // Writes the whole buffer, looping over short writes: send() on a socket
  // may accept fewer bytes than asked, and the rest is resumed so a frame
  // is never silently truncated mid-line. The fd is blocking, so EAGAIN
  // means SO_SNDTIMEO expired (kTimeout). Returns false on error with
  // last_error() set; a false return means the peer got a prefix of the
  // frame at most.
  bool WriteAll(std::string_view data);

  // Reads up to (and including) the next '\n'; empty-line results are
  // returned as "\n". std::nullopt on EOF, timeout or error, classified in
  // last_error(). Only an orderly EOF (last_error() == kNone) delivers an
  // unterminated trailing line; a timeout or reset never surfaces the
  // partial frame — timed-out reads keep it buffered so a later call can
  // resume it. A line longer than kMaxLineBytes fails with kOther once the
  // buffer holds kMaxLineBytes without a '\n'; the buffer never grows past
  // that cap.
  std::optional<std::string> ReadLine();

  // The longest line ReadLine accepts, terminator included, and the
  // LineServer's per-connection frame cap. A PSI reply at its default cap
  // of 100 URLs is a few KiB, far below it.
  static constexpr std::size_t kMaxLineBytes = 1 << 20;

  // Bytes read from the peer but not yet returned as a line.
  std::size_t buffered_bytes() const { return buffer_.size(); }

  // Sets SO_RCVTIMEO so a dead peer cannot hang a handler thread.
  void SetReadTimeout(int milliseconds);

  // Sets SO_SNDTIMEO, bounding how long WriteAll blocks on a peer that
  // stopped draining; expiry surfaces as IoError::kTimeout.
  void SetWriteTimeout(int milliseconds);

  // Classification of the most recent WriteAll/ReadLine failure, or of the
  // failed connect for a stream Connect() returned invalid; IoError::kNone
  // after a success.
  IoError last_error() const { return last_error_; }

 private:
  friend TcpStream Connect(std::uint16_t port);

  Fd fd_;
  std::string buffer_;  // bytes read past the last returned line
  IoError last_error_ = IoError::kNone;
};

// Listening socket bound to 127.0.0.1, with a SOMAXCONN backlog so a burst
// of connections completes its handshakes while the owner catches up.
class TcpListener {
 public:
  // Binds to the given port; 0 picks an ephemeral port. Check valid().
  explicit TcpListener(std::uint16_t port);

  bool valid() const { return fd_.valid(); }
  std::uint16_t port() const { return port_; }

  // Blocks until a connection arrives; invalid stream on error (including
  // the listener being closed from another thread — the shutdown path).
  TcpStream Accept();

  // Unblocks Accept() from another thread. The socket stays open (and the
  // port bound) until the listener is destroyed; destroy it only after
  // joining the thread that calls Accept().
  void Shutdown();

 private:
  friend class LineServer;

  Fd fd_;
  std::uint16_t port_ = 0;
};

// One single-threaded epoll reactor serving newline-framed lines on a
// TcpListener's connections. Every '\n'-terminated line goes to the handler
// on the reactor thread; a non-empty result is written back on the same
// connection, which stays open for the next line. While a reply is unsent
// the connection is not read (backpressure). The rules are constants:
//   - a line that reaches TcpStream::kMaxLineBytes gets "ERR oversize\n",
//     then the connection is closed;
//   - a connection that completes no line for kIdleCloseMs is closed;
//   - a frame cut off by EOF is dropped;
//   - an accept error other than EAGAIN/EINTR/ECONNABORTED (EMFILE, say)
//     pauses the listener until the next once-a-second sweep.
class LineServer {
 public:
  // Gets one complete line, terminator included, and returns the reply to
  // write back ("" for none).
  using Handler = std::function<std::string(std::string_view line)>;

  static constexpr int kIdleCloseMs = 5000;

  // Binds `port` (0 = ephemeral) and starts the reactor thread. Check
  // valid().
  LineServer(std::uint16_t port, Handler handler);
  // Wakes and joins the reactor, then closes the listener and every
  // connection.
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  bool valid() const { return thread_.joinable(); }
  std::uint16_t port() const { return listener_.port(); }

 private:
  void Run();

  TcpListener listener_;
  Handler handler_;
  Fd epoll_;
  Fd wake_;  // eventfd: one write stops the reactor
  std::thread thread_;
};

// Persistent request/reply connections to one loopback port, shared by any
// number of threads. A connection goes back to the pool only after a
// complete '\n'-terminated reply, and no lock is held across socket I/O.
class ConnectionPool {
 public:
  explicit ConnectionPool(std::uint16_t port) : port_(port) {}

  // Sends `line` and reads one '\n'-terminated reply line; std::nullopt on
  // failure. Only one failure is retried, once, on a fresh connection: a
  // pooled connection that fails before any reply byte arrives and not by
  // timeout. The server reaped or restarted that connection, so the request
  // never reached its handler.
  std::optional<std::string> Exchange(std::string_view line);

 private:
  const std::uint16_t port_;
  util::Mutex mutex_;
  std::vector<TcpStream> idle_ WEBCC_GUARDED_BY(mutex_);
};

// Connects to 127.0.0.1:port; on failure the stream is invalid and its
// last_error() classifies the connect (kPeerReset when refused).
TcpStream Connect(std::uint16_t port);

// One-shot request/response exchange: connect, send `line`, read one line.
std::optional<std::string> Exchange(std::uint16_t port, std::string_view line);

}  // namespace webcc::live
