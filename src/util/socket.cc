#include "util/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/failpoint.h"

namespace ddsgraph {
namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

// The protocol is strict request/response with small frames, on both ends
// of a connection: send each frame at once instead of letting Nagle hold
// it until the peer's delayed ACK arrives.
void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void UniqueSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void UniqueSocket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<UniqueSocket> TcpListen(const std::string& host, int port,
                               int* bound_port) {
  UniqueSocket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Errno("socket");
  const int one = 1;
  // Serving daemons restart; don't make them wait out TIME_WAIT.
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(sock.fd(), SOMAXCONN) != 0) return Errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return Errno("getsockname");
    }
    *bound_port = static_cast<int>(ntohs(bound.sin_port));
  }
  return sock;
}

Result<UniqueSocket> TcpAccept(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      SetNoDelay(fd);
      return UniqueSocket(fd);
    }
    if (errno == EINTR) continue;
    // EBADF / EINVAL: the listener was closed or shut down under us —
    // the orderly stop path, not a failure.
    if (errno == EBADF || errno == EINVAL) {
      return Status::Unavailable("listener closed");
    }
    return Errno("accept");
  }
}

Result<UniqueSocket> TcpConnect(const std::string& host, int port,
                                double timeout_s) {
  UniqueSocket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  const std::string where = host + ":" + std::to_string(port);
  if (timeout_s <= 0) {
    if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      if (errno == ECONNREFUSED) {
        return Status::Unavailable("connect " + where + ": " +
                                   std::strerror(errno));
      }
      return Errno("connect " + where);
    }
  } else {
    // Bounded connect: flip to non-blocking, start the connect, poll for
    // writability, read the real outcome from SO_ERROR, flip back.
    const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(sock.fd(), F_SETFL, flags | O_NONBLOCK) != 0) {
      return Errno("fcntl(O_NONBLOCK)");
    }
    int rc = ::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      if (errno == ECONNREFUSED) {
        return Status::Unavailable("connect " + where + ": " +
                                   std::strerror(errno));
      }
      return Errno("connect " + where);
    }
    if (rc != 0) {
      pollfd pfd{};
      pfd.fd = sock.fd();
      pfd.events = POLLOUT;
      do {
        rc = ::poll(&pfd, 1, static_cast<int>(timeout_s * 1e3));
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) return Errno("poll(connect " + where + ")");
      if (rc == 0) {
        return Status::Unavailable("connect " + where + " timed out after " +
                                   std::to_string(timeout_s) + "s");
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &so_error,
                       &len) != 0) {
        return Errno("getsockopt(SO_ERROR)");
      }
      if (so_error != 0) {
        const std::string why = std::strerror(so_error);
        if (so_error == ECONNREFUSED || so_error == ETIMEDOUT) {
          return Status::Unavailable("connect " + where + ": " + why);
        }
        return Status::Internal("connect " + where + ": " + why);
      }
    }
    if (::fcntl(sock.fd(), F_SETFL, flags) != 0) {
      return Errno("fcntl(restore flags)");
    }
  }
  SetNoDelay(sock.fd());
  return sock;
}

Status SetRecvTimeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::Ok();
}

Status SetSendTimeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_SNDTIMEO)");
  }
  return Status::Ok();
}

Status SendAll(int fd, const void* data, size_t size) {
  if (DDS_FAILPOINT("socket:send")) {
    // Crash tests stand in for a vanished peer here: the caller sees the
    // same retryable Unavailable a real EPIPE would produce.
    return Status::Unavailable("injected failpoint: socket:send");
  }
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("peer closed the connection");
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Unavailable("send timed out (peer not reading)");
      }
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

namespace {

/// Reads exactly `size` bytes. `*eof_at_start` reports a clean close
/// before the first byte; a close after some bytes is an error.
Status RecvExact(int fd, char* data, size_t size, bool* eof_at_start) {
  *eof_at_start = false;
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        return Status::Unavailable("peer reset the connection");
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expiry (SetRecvTimeout). The stream position is
        // now unknowable — the caller must drop the connection.
        return Status::Unavailable("recv timed out");
      }
      return Errno("recv");
    }
    if (n == 0) {
      if (got == 0) {
        *eof_at_start = true;
        return Status::Ok();
      }
      return Status::Unavailable("peer closed mid-read");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Status WriteFrame(int fd, const std::string& payload) {
  // One send per frame: a concurrent writer interleaving at the syscall
  // boundary would tear the stream, so the frame is assembled first and
  // callers additionally serialize per connection (serve/server.cc).
  std::string frame = std::to_string(payload.size());
  frame += '\n';
  frame += payload;
  frame += '\n';
  return SendAll(fd, frame.data(), frame.size());
}

Status ReadFrame(int fd, std::string* payload, bool* clean_eof,
                 size_t max_bytes) {
  *clean_eof = false;
  // Length header: decimal digits then '\n', read byte-by-byte (headers
  // are < 10 bytes; the payload read below is the bulk transfer).
  std::string header;
  for (;;) {
    char c = 0;
    bool eof = false;
    RETURN_IF_ERROR(RecvExact(fd, &c, 1, &eof));
    if (eof) {
      if (header.empty()) {
        *clean_eof = true;
        return Status::Ok();
      }
      return Status::Unavailable("peer closed mid-header");
    }
    if (c == '\n') break;
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          "malformed frame header (expected decimal length)");
    }
    header += c;
    if (header.size() > 12) {
      return Status::InvalidArgument("frame length header too long");
    }
  }
  if (header.empty()) {
    return Status::InvalidArgument("empty frame length header");
  }
  const uint64_t length = std::stoull(header);
  if (length > max_bytes) {
    return Status::OutOfRange("frame of " + header + " bytes exceeds cap of " +
                              std::to_string(max_bytes));
  }
  payload->resize(static_cast<size_t>(length));
  bool eof = false;
  if (length > 0) {
    RETURN_IF_ERROR(RecvExact(fd, payload->data(), payload->size(), &eof));
    if (eof) return Status::Unavailable("peer closed mid-frame");
  }
  char trailer = 0;
  RETURN_IF_ERROR(RecvExact(fd, &trailer, 1, &eof));
  if (eof) return Status::Unavailable("peer closed before frame trailer");
  if (trailer != '\n') {
    return Status::InvalidArgument("missing frame trailer newline");
  }
  return Status::Ok();
}

}  // namespace ddsgraph
