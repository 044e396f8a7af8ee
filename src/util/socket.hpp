#ifndef LFO_UTIL_SOCKET_HPP
#define LFO_UTIL_SOCKET_HPP

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

/// Loopback TCP helpers shared by the cache server and the telemetry
/// responder; both bind 127.0.0.1 only.
namespace lfo::util {

inline sockaddr_in loopback_address(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// A non-blocking listening socket on 127.0.0.1:`port` (0 picks an
/// ephemeral port), so an accept after a readiness wait gets EAGAIN, not
/// a block, when the peer gave up in between. On success `port` holds the
/// bound port; -1 with the failing call and its errno text in `error`
/// otherwise.
inline int listen_loopback(std::uint16_t& port, int backlog,
                           std::string& error) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  const int one = 1;
  if (fd >= 0) ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_address(port);
  socklen_t len = sizeof(addr);
  const char* failed = nullptr;
  if (fd < 0) {
    failed = "socket";
  } else if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
    failed = "bind";
  } else if (::listen(fd, backlog) != 0) {
    failed = "listen";
  } else if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
             0) {
    failed = "getsockname";
  }
  if (failed != nullptr) {
    error = std::string(failed) + ": " + std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return -1;
  }
  port = ntohs(addr.sin_port);
  return fd;
}

/// SO_RCVTIMEO and SO_SNDTIMEO on a blocking socket; 0 (or less) means
/// no timeout.
inline void set_io_timeouts(int fd, double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// A blocking connection to 127.0.0.1:`port` with set_io_timeouts
/// applied; -1 on failure.
inline int connect_loopback(std::uint16_t port, double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  set_io_timeouts(fd, timeout_seconds);
  const sockaddr_in addr = loopback_address(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Write all `size` bytes to a blocking socket; false on an error or its
/// send timeout.
inline bool send_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  for (std::size_t sent = 0; sent < size;) {
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read exactly `size` bytes from a blocking socket. Its receive timeout
/// is a hard deadline: the first expiry fails the read.
inline bool recv_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  for (std::size_t got = 0; got < size;) {
    const ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace lfo::util

#endif  // LFO_UTIL_SOCKET_HPP
