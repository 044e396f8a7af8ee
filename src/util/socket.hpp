#ifndef LFO_UTIL_SOCKET_HPP
#define LFO_UTIL_SOCKET_HPP

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

/// Loopback TCP and event-loop helpers shared by the cache server and
/// the telemetry responder; both bind 127.0.0.1 only.
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

/// A blocking connection to 127.0.0.1:`port` whose every send and recv
/// fails after `timeout_seconds` (0 or less: never); -1 on failure.
inline int connect_loopback(std::uint16_t port, double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const double seconds = timeout_seconds > 0.0 ? timeout_seconds : 0.0;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
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

/// Wake the event loop that watches eventfd `event_fd`.
inline void wake(int event_fd) {
  const std::uint64_t one = 1;
  // Only fails when the counter would overflow, i.e. it is already set.
  (void)!::write(event_fd, &one, sizeof(one));
}

inline void clear_wake(int event_fd) {
  std::uint64_t count = 0;
  (void)!::read(event_fd, &count, sizeof(count));
}

/// Add `fd` to, or modify it in, an epoll set; `tag` comes back with its
/// events.
inline bool watch(int epoll_fd, int op, int fd, std::uint32_t events,
                  void* tag) {
  epoll_event event{};
  event.events = events;
  event.data.ptr = tag;
  return ::epoll_ctl(epoll_fd, op, fd, &event) == 0;
}

/// True when a nonblocking recv/send should wait for the next event (it
/// never sleeps, so it cannot be interrupted either).
inline bool would_block(ssize_t n) {
  return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
}

/// Wait before re-arming a listener whose accept left its connection
/// queued: re-armed at once, it would report that connection and spin.
inline constexpr std::chrono::milliseconds kAcceptBackoff{50};

struct Accepted {
  int fd = -1;               ///< the new connection, or -1
  std::uint32_t errors = 0;  ///< failures that left a connection queued
  std::uint32_t shed = 0;    ///< connections closed to make room
  bool back_off = false;     ///< re-arm the listener after kAcceptBackoff
};

/// The accept rule of both ports. Accept one non-blocking connection for
/// a loop holding `connections` (owning pointers to objects with a
/// `last_active` tick), closing the longest-idle one to make room: at
/// `cap` connections, and for one retry when the accept fails out of
/// descriptors or kernel memory (EMFILE, ENFILE, ENOBUFS, ENOMEM), which
/// leaves the connection queued. Any other error consumes it.
template <typename Connections>
Accepted accept_or_shed(int listen_fd, Connections& connections,
                        std::size_t cap) {
  Accepted result;
  const auto shed = [&] {
    if (connections.empty()) return false;
    connections.erase(std::min_element(
        connections.begin(), connections.end(),
        [](const auto& a, const auto& b) {
          return a->last_active < b->last_active;
        }));
    ++result.shed;
    return true;
  };
  const auto accept_once = [&] {
    result.fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    result.back_off = result.fd < 0 && (errno == EMFILE || errno == ENFILE ||
                                        errno == ENOBUFS || errno == ENOMEM);
    result.errors += result.back_off ? 1 : 0;
    return !result.back_off;
  };
  if (!accept_once() && shed()) accept_once();
  if (result.fd >= 0 && connections.size() >= cap) shed();
  return result;
}

}  // namespace lfo::util

#endif  // LFO_UTIL_SOCKET_HPP
