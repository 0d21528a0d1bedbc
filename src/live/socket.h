// Minimal RAII TCP sockets for the live prototype (loopback deployments).
//
// The live components speak one request per connection (HTTP/1.0 style,
// like the paper's Harvest-era stack): connect, write one wire line, read
// one wire line back, close. Blocking I/O with short timeouts keeps the
// threading model simple — one accept loop per component, handling each
// connection inline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

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
  kPeerReset,  // EPIPE / ECONNRESET: the peer closed or vanished
  kTimeout,    // SO_SNDTIMEO / SO_RCVTIMEO expired, or poll() timed out
  kOther,      // any other errno
};

// Printable name for logs ("none" / "peer_reset" / "timeout" / "other").
std::string_view IoErrorName(IoError error);

// A connected TCP stream with line-oriented helpers.
class TcpStream {
 public:
  explicit TcpStream(Fd fd) : fd_(std::move(fd)) {}

  bool valid() const { return fd_.valid(); }

  // Writes the whole buffer, looping over short writes. send() on a socket
  // may accept fewer bytes than asked (full send buffer) or fail with
  // EAGAIN (non-blocking fd, or SO_SNDTIMEO expired); both are resumed —
  // EAGAIN by poll()ing for POLLOUT — so a frame is never silently
  // truncated mid-line. Returns false on error with last_error() set;
  // a false return means the peer got a prefix of the frame at most.
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

  // The longest line ReadLine accepts, terminator included. A PSI reply at
  // its default cap of 100 URLs is a few KiB, far below it.
  static constexpr std::size_t kMaxLineBytes = 1 << 20;

  // Bytes read from the peer but not yet returned as a line.
  std::size_t buffered_bytes() const { return buffer_.size(); }

  // Sets SO_RCVTIMEO so a dead peer cannot hang a handler thread.
  void SetReadTimeout(int milliseconds);

  // Sets SO_SNDTIMEO, bounding how long WriteAll blocks on a peer that
  // stopped draining; expiry surfaces as IoError::kTimeout.
  void SetWriteTimeout(int milliseconds);

  // Classification of the most recent WriteAll/ReadLine failure;
  // IoError::kNone after a success.
  IoError last_error() const { return last_error_; }

 private:
  Fd fd_;
  std::string buffer_;  // bytes read past the last returned line
  IoError last_error_ = IoError::kNone;
  bool write_timeout_set_ = false;  // SO_SNDTIMEO active on this fd
  bool read_timeout_set_ = false;   // SO_RCVTIMEO active on this fd
};

// Listening socket bound to 127.0.0.1.
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
  Fd fd_;
  std::uint16_t port_ = 0;
};

// Connects to 127.0.0.1:port; invalid stream on failure.
TcpStream Connect(std::uint16_t port);

// One-shot request/response exchange: connect, send `line`, read one line.
std::optional<std::string> Exchange(std::uint16_t port, std::string_view line);

// Fire-and-forget: connect and send `line` (used for INVALIDATE pushes).
bool SendOneWay(std::uint16_t port, std::string_view line);

// SendOneWay with the failure classified: kNone on success, kPeerReset when
// the peer refused or vanished, kTimeout when it stopped draining within
// `timeout_ms` (0 = no write timeout). Push retry policies branch on this —
// a timeout is worth retrying, a refused peer revalidates on restart.
IoError SendOneWayClassified(std::uint16_t port, std::string_view line,
                             int timeout_ms);

}  // namespace webcc::live
