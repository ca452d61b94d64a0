#include "dist/rpc.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>

namespace qrank {
namespace {

Status ErrnoStatus(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

/// Milliseconds until `deadline` for poll(2): -1 = block forever,
/// 0 = already expired (callers treat as timeout before polling).
int RemainingMs(RpcDeadline deadline) {
  if (deadline == kNoRpcDeadline) return -1;
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count() +
      1;  // round up so we never poll(0) while time remains
  return ms > INT_MAX ? INT_MAX : static_cast<int>(ms);
}

/// Blocks until fd is ready for `events` or the deadline passes.
/// POLLERR/POLLHUP also count as ready: the next syscall on the fd
/// reports the precise error.
Status WaitReady(int fd, short events, RpcDeadline deadline,
                 const char* what) {
  struct pollfd p = {fd, events, 0};
  QRANK_ASSIGN_OR_RETURN(const int ready,
                         PollUntil(std::span<pollfd>(&p, 1), deadline));
  if (ready == 0) {
    return Status::IOError(std::string(what) + ": deadline exceeded");
  }
  return Status::OK();
}

Status SetNonBlocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) return ErrnoStatus("fcntl(F_SETFL)");
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

Result<int> PollUntil(std::span<pollfd> fds, RpcDeadline deadline) {
  for (;;) {
    const int ms = RemainingMs(deadline);
    if (ms == 0) return 0;
    const int rc = ::poll(fds.data(), fds.size(), ms);
    if (rc >= 0) return rc;
    if (errno != EINTR) return ErrnoStatus("poll");
  }
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::StartConnect(const std::string& host, uint16_t port) {
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return ErrnoStatus("socket");
  // Non-blocking for the socket's whole lifetime: the handshake and
  // every later send/recv return instead of waiting, so a caller's
  // poll(2) deadline bounds all of them.
  QRANK_RETURN_NOT_OK(SetNonBlocking(sock.fd(), true));
  SetNoDelay(sock.fd());
  const int rc = ::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr);
  if (rc < 0 && errno != EINPROGRESS) return ErrnoStatus("connect");
  return sock;
}

Status Socket::FinishConnect() {
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return ErrnoStatus("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    return Status::IOError(std::string("connect: ") + std::strerror(err));
  }
  return Status::OK();
}

Result<Socket> Socket::Connect(const std::string& host, uint16_t port,
                               RpcDeadline deadline) {
  QRANK_ASSIGN_OR_RETURN(Socket sock, StartConnect(host, port));
  QRANK_RETURN_NOT_OK(WaitReady(sock.fd(), POLLOUT, deadline, "connect"));
  QRANK_RETURN_NOT_OK(sock.FinishConnect());
  return sock;
}

Result<size_t> Socket::SendSome(std::span<const uint8_t> bytes) {
  if (!valid()) return Status::FailedPrecondition("send on closed socket");
  for (;;) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    if (errno != EINTR) return ErrnoStatus("send");
  }
}

Result<size_t> Socket::RecvSome(std::span<uint8_t> bytes) {
  if (!valid()) return Status::FailedPrecondition("recv on closed socket");
  for (;;) {
    const ssize_t n = ::recv(fd_, bytes.data(), bytes.size(), 0);
    if (n > 0) return static_cast<size_t>(n);
    if (n == 0) return Status::IOError("connection closed by peer");
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    if (errno != EINTR) return ErrnoStatus("recv");
  }
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<bool> FrameReader::Read(Socket& sock, std::vector<uint8_t>* frame) {
  if (got_ == 0) frame->resize(kFrameHeaderBytes);
  for (;;) {
    if (got_ == frame->size()) {
      if (have_header_) {
        QRANK_ASSIGN_OR_RETURN(header_, DecodeFrame(*frame));
        return true;
      }
      // payload_len is validated against kMaxFramePayload by
      // DecodeFrameHeader before this resize can run.
      QRANK_ASSIGN_OR_RETURN(header_, DecodeFrameHeader(*frame));
      have_header_ = true;
      frame->resize(kFrameHeaderBytes + header_.payload_len);
      continue;
    }
    QRANK_ASSIGN_OR_RETURN(
        const size_t n,
        sock.RecvSome(std::span<uint8_t>(*frame).subspan(got_)));
    if (n == 0) return false;
    got_ += n;
  }
}

Status SendFrame(Socket& sock, std::span<const uint8_t> frame,
                 RpcDeadline deadline) {
  QRANK_CHECK(frame.size() >= kFrameHeaderBytes)
      << "SendFrame given a non-frame buffer";
  for (;;) {
    QRANK_ASSIGN_OR_RETURN(const size_t n, sock.SendSome(frame));
    frame = frame.subspan(n);
    if (frame.empty()) return Status::OK();
    if (n == 0) {
      QRANK_RETURN_NOT_OK(WaitReady(sock.fd(), POLLOUT, deadline, "send"));
    }
  }
}

Result<FrameHeader> RecvFrame(Socket& sock, std::vector<uint8_t>* frame,
                              RpcDeadline deadline) {
  FrameReader reader;
  for (;;) {
    QRANK_ASSIGN_OR_RETURN(const bool done, reader.Read(sock, frame));
    if (done) return reader.header();
    QRANK_RETURN_NOT_OK(WaitReady(sock.fd(), POLLIN, deadline, "recv"));
  }
}

RpcServer::RpcServer(Options options, FrameHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start() {
  MutexLock lock(&mu_);
  if (started_) return Status::FailedPrecondition("RpcServer already started");
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " +
                                   options_.host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const Status st = ErrnoStatus("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    const Status st = ErrnoStatus("listen");
    ::close(fd);
    return st;
  }
  struct sockaddr_in bound = {};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const Status st = ErrnoStatus("getsockname");
    ::close(fd);
    return st;
  }
  listen_fd_ = fd;
  bound_port_ = ntohs(bound.sin_port);
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RpcServer::Stop() {
  {
    MutexLock lock(&mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Connection>> conns;
  {
    MutexLock lock(&mu_);
    for (std::unique_ptr<Connection>& c : connections_) c->socket.Shutdown();
    conns.swap(connections_);
  }
  for (std::unique_ptr<Connection>& c : conns) {
    if (c->thread.joinable()) c->thread.join();
  }
  MutexLock lock(&mu_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

uint16_t RpcServer::port() const {
  MutexLock lock(&mu_);
  return bound_port_;
}

size_t RpcServer::active_connections() const {
  MutexLock lock(&mu_);
  size_t live = 0;
  for (const std::unique_ptr<Connection>& c : connections_) {
    if (!c->finished) ++live;
  }
  return live;
}

uint64_t RpcServer::frames_handled() const {
  MutexLock lock(&mu_);
  return frames_handled_;
}

void RpcServer::AcceptLoop() {
  for (;;) {
    int lfd = -1;
    {
      MutexLock lock(&mu_);
      if (stopping_) return;
      lfd = listen_fd_;
    }
    struct sockaddr_in peer = {};
    socklen_t len = sizeof peer;
    const int cfd = ::accept(lfd, reinterpret_cast<sockaddr*>(&peer), &len);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      {
        MutexLock lock(&mu_);
        if (stopping_) return;
      }
      // Persistent accept failure (e.g. EMFILE/ENFILE): with a
      // connection still pending, accept fails again immediately, so
      // back off briefly instead of busy-spinning a core until fds
      // free up. Stop() is delayed by at most one sleep.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    if (!SetNonBlocking(cfd, true).ok()) {
      ::close(cfd);
      continue;
    }
    SetNoDelay(cfd);
    MutexLock lock(&mu_);
    if (stopping_) {
      ::close(cfd);
      return;
    }
    ReapFinishedLocked();
    auto conn = std::make_unique<Connection>();
    conn->socket = Socket(cfd);
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { ConnectionLoop(raw); });
    connections_.push_back(std::move(conn));
  }
}

void RpcServer::ConnectionLoop(Connection* conn) {
  std::vector<uint8_t> frame;
  std::vector<uint8_t> response;
  for (;;) {
    Result<FrameHeader> header =
        RecvFrame(conn->socket, &frame, kNoRpcDeadline);
    if (!header.ok()) break;  // disconnect, cancel, or corrupt stream
    response.clear();
    handler_(header.value(),
             std::span<const uint8_t>(frame).subspan(kFrameHeaderBytes),
             &response);
    {
      MutexLock lock(&mu_);
      ++frames_handled_;
    }
    if (response.empty()) break;  // handler declared the stream dead
    const RpcDeadline deadline =
        std::chrono::steady_clock::now() + options_.send_timeout;
    if (!SendFrame(conn->socket, response, deadline).ok()) break;
  }
  conn->socket.Shutdown();
  MutexLock lock(&mu_);
  conn->finished = true;
}

void RpcServer::ReapFinishedLocked() {
  for (size_t i = 0; i < connections_.size();) {
    if (connections_[i]->finished) {
      if (connections_[i]->thread.joinable()) connections_[i]->thread.join();
      connections_.erase(connections_.begin() +
                         static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

}  // namespace qrank
