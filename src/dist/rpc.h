// Socket transport of the distributed query tier: an RAII TCP socket
// with non-blocking I/O primitives, an incremental QRKF frame reader,
// deadline-bounded blocking wrappers over both, and a
// thread-per-connection RPC server.
//
// Sockets are O_NONBLOCK for their whole lifetime. The non-blocking
// layer (StartConnect/FinishConnect, SendSome/RecvSome, FrameReader)
// never waits: it moves whatever bytes the kernel has ready and reports
// how far it got. The coordinator drives it from one poll(2) loop over
// every in-flight connection. The blocking calls (Connect, SendFrame,
// RecvFrame) are thin wait loops over the same primitives, each wait
// bounded by the remaining deadline, so every caller shares one connect
// path and one frame parser.
//
// Cancellation is by disconnect: a caller that gives up on a request
// closes the socket, which fails the peer's next read or write and
// tears the stream down instead of leaving it desynchronized (a QRKF
// stream has no request framing to resynchronize on after an abandoned
// response).
//
// The server (deliberately simple, mirroring mithril's BasicServer)
// runs one accept thread plus one thread per live connection. Its
// shared state is annotated (QRANK_GUARDED_BY) and uses qrank::Mutex;
// the loopback suites run under TSan in CI.

#ifndef QRANK_DIST_RPC_H_
#define QRANK_DIST_RPC_H_

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "dist/wire_format.h"

namespace qrank {

/// Absolute deadline for a socket operation. kNoRpcDeadline blocks
/// until the peer acts or the connection dies.
using RpcDeadline = std::chrono::steady_clock::time_point;
inline constexpr RpcDeadline kNoRpcDeadline = RpcDeadline::max();

/// Waits in poll(2) until one of `fds` is ready or `deadline` passes
/// (EINTR is retried). Returns the number of ready entries; 0 means the
/// deadline passed.
Result<int> PollUntil(std::span<pollfd> fds, RpcDeadline deadline);

/// Move-only RAII wrapper over a non-blocking TCP socket fd.
///
/// A Socket is owned and used by ONE thread at a time; the only
/// cross-thread operation is Shutdown(), which is async-safe against a
/// concurrent blocked wait on the same object (it calls ::shutdown,
/// never ::close, so the fd cannot be recycled under the waiter).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1"),
  /// honoring the deadline for the connect itself.
  static Result<Socket> Connect(const std::string& host, uint16_t port,
                                RpcDeadline deadline);

  /// Starts a non-blocking connect. The socket polls writable once the
  /// handshake has finished, successfully or not; FinishConnect then
  /// reports which.
  static Result<Socket> StartConnect(const std::string& host, uint16_t port);
  Status FinishConnect();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends what the kernel accepts right now, up to `bytes.size()`.
  /// Returns the count sent (0 = would block); IOError on disconnect.
  Result<size_t> SendSome(std::span<const uint8_t> bytes);

  /// Receives what has arrived, up to `bytes.size()`. Returns the count
  /// received (0 = nothing yet); a clean EOF is IOError("connection
  /// closed by peer").
  Result<size_t> RecvSome(std::span<uint8_t> bytes);

  /// Half-closes both directions, failing any blocked or future I/O on
  /// this socket. Safe to call from another thread; idempotent.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
};

/// Incremental reader of one QRKF frame from a non-blocking socket.
/// Each Read() consumes what the socket has ready and never reads past
/// the frame's end. The header is validated before the payload buffer
/// is sized (hardened reader contract), the payload CRC once the last
/// byte is in. Any corruption fails the read; callers treat that as a
/// dead stream.
class FrameReader {
 public:
  /// Forgets any partial frame; the next Read starts a new one.
  void Reset() {
    got_ = 0;
    have_header_ = false;
  }

  /// Reads into *frame (header + payload; the buffer is reused across
  /// frames). Returns true once the whole frame is in and validated,
  /// false when the socket would block first.
  Result<bool> Read(Socket& sock, std::vector<uint8_t>* frame);

  /// The validated header; only meaningful after Read returned true.
  const FrameHeader& header() const { return header_; }

 private:
  size_t got_ = 0;
  bool have_header_ = false;
  FrameHeader header_;
};

/// Sends one already-encoded QRKF frame, waiting for buffer space up to
/// the deadline.
Status SendFrame(Socket& sock, std::span<const uint8_t> frame,
                 RpcDeadline deadline);

/// Receives one validated frame into *frame (see FrameReader), waiting
/// for bytes up to the deadline.
Result<FrameHeader> RecvFrame(Socket& sock, std::vector<uint8_t>* frame,
                              RpcDeadline deadline);

/// Thread-per-connection RPC server over QRKF frames.
///
/// The handler is invoked on a connection thread for every received
/// frame and must encode exactly one response frame into
/// *response_frame (an empty response closes the connection, used for
/// unrecoverable protocol errors). Handlers run concurrently across
/// connections and must be thread-safe.
class RpcServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 picks an ephemeral port; see port().
    uint16_t port = 0;
    /// Deadline for writing a response back to a client.
    std::chrono::milliseconds send_timeout{5000};
  };

  using FrameHandler =
      std::function<void(const FrameHeader& header,
                         std::span<const uint8_t> payload,
                         std::vector<uint8_t>* response_frame)>;

  RpcServer(Options options, FrameHandler handler);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens and spawns the accept thread. FailedPrecondition
  /// if already started.
  Status Start() QRANK_EXCLUDES(mu_);

  /// Shuts the listener and every live connection down and joins all
  /// threads. Idempotent; also run by the destructor.
  void Stop() QRANK_EXCLUDES(mu_);

  /// Bound port (useful with Options::port == 0). 0 before Start().
  uint16_t port() const QRANK_EXCLUDES(mu_);

  /// Connections currently being served.
  size_t active_connections() const QRANK_EXCLUDES(mu_);

  /// Total frames dispatched to the handler since Start().
  uint64_t frames_handled() const QRANK_EXCLUDES(mu_);

 private:
  struct Connection;

  void AcceptLoop();
  void ConnectionLoop(Connection* conn);

  /// Joins finished connection threads. Called with mu_ held.
  void ReapFinishedLocked() QRANK_REQUIRES(mu_);

  struct Connection {
    std::thread thread;
    Socket socket;
    bool finished = false;
  };

  const Options options_;
  const FrameHandler handler_;

  mutable Mutex mu_;
  bool started_ QRANK_GUARDED_BY(mu_) = false;
  bool stopping_ QRANK_GUARDED_BY(mu_) = false;
  uint16_t bound_port_ QRANK_GUARDED_BY(mu_) = 0;
  /// Listener fd lives here (not in a Socket) so AcceptLoop can block
  /// in accept() while Stop() shuts it down under the lock.
  int listen_fd_ QRANK_GUARDED_BY(mu_) = -1;
  std::vector<std::unique_ptr<Connection>> connections_ QRANK_GUARDED_BY(mu_);
  uint64_t frames_handled_ QRANK_GUARDED_BY(mu_) = 0;

  /// Accept thread; joined by Stop. Only touched by Start/Stop, which
  /// serialize through started_/stopping_.
  std::thread accept_thread_;
};

}  // namespace qrank

#endif  // QRANK_DIST_RPC_H_
