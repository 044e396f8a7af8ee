#include "server/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <utility>

#include "core/rollout.hpp"
#include "obs/metrics.hpp"
#include "util/socket.hpp"

namespace lfo::server {

namespace {

using Clock = std::chrono::steady_clock;

/// TelemetryServerConfig::collect: the serving counts, read from the
/// shard-local cache stats at scrape time (the request path keeps no
/// second copy of them).
void append_serving_series(const ShardedLfoCache& cache,
                           obs::MetricsSnapshot& snap) {
  const auto stats = cache.stats();
  snap.counters.push_back({"lfo_server_bypassed_total", cache.bypassed()});
  snap.counters.push_back(
      {"lfo_server_expired_hits_total", stats.expired_hits});
  snap.counters.push_back({"lfo_server_hits_total", stats.hits});
  snap.counters.push_back({"lfo_server_requests_total", stats.requests});
  snap.gauges.push_back(
      {"lfo_server_used_bytes", static_cast<double>(cache.used_bytes())});
  snap.gauges.push_back({"lfo_server_history_objects",
                         static_cast<double>(cache.history_objects())});
  snap.gauges.push_back({"lfo_server_history_bytes",
                         static_cast<double>(cache.history_bytes())});
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
}

}  // namespace

/// One decoded request frame, grouped by shard. Its owner fills it from
/// a connection, then posts it to each other owner with a group in it;
/// it is refilled only after every group has been served.
struct LfoServer::Frame {
  std::vector<trace::Request> requests;
  std::vector<std::uint32_t> shard;  ///< shard of each request
  /// Request indices grouped by shard, in arrival order within a group;
  /// group s is order[group_end[s - 1], group_end[s]).
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> group_end;
  std::vector<AccessResult> results;
  /// Groups posted to other owners and not yet served.
  std::atomic<std::uint32_t> pending{0};
  std::atomic<bool> failed{false};  ///< a group threw (a bad frame)
  std::uint32_t origin = 0;         ///< the owner the frame belongs to

  std::span<const std::uint32_t> group(std::uint32_t s) const {
    const std::uint32_t begin = s == 0 ? 0 : group_end[s - 1];
    return {order.data() + begin, group_end[s] - begin};
  }
};

/// One client connection, driven by its owner's event loop: read a
/// header, read a body, write the reply, start over.
struct LfoServer::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  std::uint64_t last_active = 0;  ///< owner tick of its latest event
  /// When the frame being read, or a stalled reply, fails.
  Clock::time_point deadline = Clock::time_point::max();
  std::uint32_t count = 0;  ///< header of the frame being read
  std::size_t got = 0;      ///< bytes of that frame read so far
  std::size_t sent = 0;     ///< bytes of `reply` written so far
  /// Grow-once buffers reused across the connection's frames: the warm
  /// per-request serving path performs no allocations.
  std::vector<WireRequest> wire;
  std::vector<std::uint8_t> reply;
};

/// A shard owner's thread state.
struct LfoServer::Owner {
  Owner(std::uint32_t index, std::uint32_t workers)
      : index(index),
        wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
        epoll_fd(::epoll_create1(EPOLL_CLOEXEC)),
        inbox(workers) {
    frame.origin = index;
  }
  ~Owner() {
    if (wake_fd >= 0) ::close(wake_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }
  Owner(const Owner&) = delete;
  Owner& operator=(const Owner&) = delete;

  const std::uint32_t index;
  /// eventfd, written when a frame lands in the inbox, when the last
  /// posted group of this owner's frame is served, and on shutdown.
  const int wake_fd;
  /// Watches wake_fd, the listening socket and the connections.
  const int epoll_fd;
  /// Frames posted by other owners, one slot per posting owner: each
  /// has at most one frame in flight, so the inbox never holds more than
  /// workers - 1 frames and never allocates.
  std::vector<std::atomic<Frame*>> inbox;
  Frame frame;  ///< the frame this owner is serving
  std::vector<std::unique_ptr<Connection>> connections;
  std::uint64_t tick = 0;  ///< event count behind Connection::last_active
  /// When expire() re-arms an accept that ran out of descriptors.
  Clock::time_point accept_retry = Clock::time_point::max();
};

LfoServer::LfoServer(LfoServerConfig config)
    : config_(std::move(config)), cache_(config_.cache) {}

LfoServer::~LfoServer() { stop(); }

bool LfoServer::start() {
  if (listen_fd_ >= 0) return true;
  last_error_.clear();
  telemetry_error_.clear();
  std::uint16_t port = config_.port;
  const int fd = util::listen_loopback(port, SOMAXCONN, last_error_);
  if (fd < 0) return false;
  const std::uint32_t workers = std::max(config_.workers, 1u);
  for (std::uint32_t i = 0; i < workers; ++i) {
    owners_.push_back(std::make_unique<Owner>(i, workers));
    const Owner& owner = *owners_.back();
    // Only owner 0 starts with the listening socket armed.
    std::uint32_t listen = EPOLLONESHOT;
    if (i == 0) listen |= EPOLLIN;
    if (owner.wake_fd < 0 || owner.epoll_fd < 0 ||
        !util::watch(owner.epoll_fd, EPOLL_CTL_ADD, owner.wake_fd, EPOLLIN,
                     nullptr) ||
        !util::watch(owner.epoll_fd, EPOLL_CTL_ADD, fd, listen,
                     &listen_fd_)) {
      last_error_ = std::string("epoll: ") + std::strerror(errno);
      owners_.clear();
      ::close(fd);
      return false;
    }
  }
  port_ = port;
  listen_fd_ = fd;
  io_timeout_ = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          std::clamp(config_.io_timeout_seconds, 0.0, 1e6)));
  stop_.store(false);

  if (config_.telemetry) {
    obs::TelemetryServerConfig tconfig;
    tconfig.port = config_.telemetry_port;
    tconfig.health = [this] {
      obs::HealthStatus health;
      const auto state = cache_.rollout_state();
      health.serving = state != core::RolloutState::kFallback;
      health.detail = core::to_string(state);
      return health;
    };
    tconfig.collect = [this](obs::MetricsSnapshot& snap) {
      append_serving_series(cache_, snap);
    };
    telemetry_ = std::make_unique<obs::TelemetryServer>(std::move(tconfig));
    if (!telemetry_->start()) {
      // Telemetry is best-effort (its port may fail to bind); the
      // cache service still serves, so the failure is reported via
      // telemetry_error(), never last_error() — a successful start()
      // must leave last_error() empty.
      telemetry_error_ = telemetry_->last_error();
      LFO_COUNTER_INC("lfo_server_telemetry_start_failures_total");
    }
  }

  LFO_GAUGE_SET("lfo_server_workers", static_cast<double>(workers));
  LFO_GAUGE_SET("lfo_server_shards", static_cast<double>(cache_.num_shards()));
  workers_.reserve(workers);
  for (const auto& owner : owners_) {
    workers_.emplace_back([this, self = owner.get()] { run(*self); });
  }
  return true;
}

void LfoServer::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true);
  for (const auto& owner : owners_) util::wake(owner->wake_fd);
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  owners_.clear();
  if (telemetry_ != nullptr) telemetry_->stop();
  telemetry_.reset();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

std::uint16_t LfoServer::telemetry_port() const {
  return telemetry_ != nullptr ? telemetry_->port() : 0;
}

void LfoServer::run(Owner& self) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents]{};
  int timeout_ms = -1;
  while (!stop_.load() || in_flight_.load() != 0) {
    const int ready =
        ::epoll_wait(self.epoll_fd, events, kMaxEvents, timeout_ms);
    bool listening = false;
    for (int i = 0; i < ready; ++i) {
      void* const tag = events[i].data.ptr;
      if (tag == nullptr) {
        // Before draining: a later post re-arms it.
        util::clear_wake(self.wake_fd);
        drain_inbox(self);
      } else if (tag == &listen_fd_) {
        listening = true;
      } else {
        // Only a connection's own event closes it during the batch, so
        // no later event in it points at a closed connection.
        auto* conn = static_cast<Connection*>(tag);
        conn->last_active = ++self.tick;
        if (!advance(self, *conn)) {
          std::erase_if(self.connections,
                        [conn](const auto& c) { return c.get() == conn; });
        }
      }
    }
    // After the batch: shedding may close a connection with an event in it.
    if (listening) accept_connection(self);
    timeout_ms = expire(self);
  }
}

void LfoServer::accept_connection(Owner& self) {
  // Round-robin rather than SO_REUSEPORT's hash, so W closed-loop
  // connections to W owners land one per owner: the listening socket is
  // armed (one-shot) in one owner's epoll set at a time, and each accept
  // arms it in the next owner's.
  const auto accepted = util::accept_or_shed(listen_fd_, self.connections,
                                             kMaxConnectionsPerOwner);
  LFO_COUNTER_ADD("lfo_server_accept_errors_total", accepted.errors);
  LFO_COUNTER_ADD("lfo_server_shed_connections_total", accepted.shed);
  if (accepted.back_off) {
    // expire() re-arms the listener once the back-off has passed.
    self.accept_retry = Clock::now() + util::kAcceptBackoff;
    return;
  }
  const int fd = accepted.fd;
  const Owner& next =
      fd < 0 ? self : *owners_[(self.index + 1) % owners_.size()];
  util::watch(next.epoll_fd, EPOLL_CTL_MOD, listen_fd_,
              EPOLLIN | EPOLLONESHOT, &listen_fd_);
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_unique<Connection>(fd);
  conn->last_active = ++self.tick;
  // Edge-triggered: advance() runs a connection until it would block, so
  // its interest never has to change.
  if (util::watch(self.epoll_fd, EPOLL_CTL_ADD, fd,
                  EPOLLIN | EPOLLOUT | EPOLLET, conn.get())) {
    self.connections.push_back(std::move(conn));
    LFO_COUNTER_INC("lfo_server_connections_total");
  }
}

int LfoServer::expire(Owner& self) {
  const auto now = Clock::now();
  if (self.accept_retry <= now) {
    self.accept_retry = Clock::time_point::max();
    util::watch(self.epoll_fd, EPOLL_CTL_MOD, listen_fd_,
                EPOLLIN | EPOLLONESHOT, &listen_fd_);
  }
  auto next = self.accept_retry;
  std::erase_if(self.connections, [&](const auto& conn) {
    if (conn->deadline > now) {
      next = std::min(next, conn->deadline);
      return false;
    }
    // A frame cut off mid-read is a bad frame; a stalled reply is not.
    if (conn->got > 0) LFO_COUNTER_INC("lfo_server_bad_frames_total");
    return true;
  });
  if (next == Clock::time_point::max()) return -1;
  return static_cast<int>(
      std::chrono::ceil<std::chrono::milliseconds>(next - now).count());
}

void LfoServer::drain_inbox(Owner& self) {
  for (auto& slot : self.inbox) {
    Frame* frame = slot.exchange(nullptr, std::memory_order_acquire);
    if (frame == nullptr) continue;
    serve_part(self.index, *frame);
    // The origin may reuse the frame as soon as pending reaches 0, so
    // read what the wake needs first.
    const int origin_wake = owners_[frame->origin]->wake_fd;
    if (frame->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      util::wake(origin_wake);
    }
  }
}

void LfoServer::serve_part(std::uint32_t owner, Frame& frame) {
  const auto stride = static_cast<std::uint32_t>(owners_.size());
  // A request the cache cannot take throws (std::bad_alloc when memory
  // runs out, std::length_error when a history slab runs out of
  // offsets); it makes the whole frame bad, and never ends the owner
  // that happens to own its shard.
  try {
    for (std::uint32_t s = owner; s < cache_.num_shards(); s += stride) {
      const auto group = frame.group(s);
      if (!group.empty()) {
        cache_.access_shard(s, frame.requests, group, frame.results);
      }
    }
  } catch (const std::exception&) {
    frame.failed.store(true, std::memory_order_relaxed);
  }
}

bool LfoServer::serve_frame(Owner& self) {
  Frame& frame = self.frame;
  const auto count = static_cast<std::uint32_t>(frame.requests.size());
  const std::uint32_t shards = cache_.num_shards();
  const auto stride = static_cast<std::uint32_t>(owners_.size());
  // Counting sort by shard, stable: group_end[s] first counts group s,
  // then becomes its start, then its end as the fill advances it.
  frame.shard.resize(count);
  frame.order.resize(count);
  frame.group_end.assign(shards, 0);
  frame.results.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    frame.shard[i] = cache_.shard_of(frame.requests[i].object);
    ++frame.group_end[frame.shard[i]];
  }
  std::uint32_t start = 0;
  for (auto& end : frame.group_end) start += std::exchange(end, start);
  for (std::uint32_t i = 0; i < count; ++i) {
    frame.order[frame.group_end[frame.shard[i]]++] = i;
  }

  auto has_part = [&](std::uint32_t owner) {
    for (std::uint32_t s = owner; s < shards; s += stride) {
      if (!frame.group(s).empty()) return true;
    }
    return false;
  };
  std::uint32_t posted = 0;
  for (std::uint32_t o = 0; o < stride; ++o) {
    posted += o != self.index && has_part(o) ? 1 : 0;
  }
  frame.failed.store(false, std::memory_order_relaxed);
  frame.pending.store(posted, std::memory_order_relaxed);
  if (posted > 0) {
    for (std::uint32_t o = 0; o < stride; ++o) {
      if (o == self.index || !has_part(o)) continue;
      Owner& owner = *owners_[o];
      owner.inbox[self.index].store(&frame, std::memory_order_release);
      util::wake(owner.wake_fd);
    }
    LFO_COUNTER_ADD("lfo_server_handoffs_total", posted);
  }
  serve_part(self.index, frame);
  // Posted groups read the frame until they are served, so wait for them
  // even when stopping; the other owners keep serving until in_flight_
  // is 0.
  while (frame.pending.load(std::memory_order_acquire) != 0) {
    pollfd woken{self.wake_fd, POLLIN, 0};
    ::poll(&woken, 1, -1);
    util::clear_wake(self.wake_fd);
    drain_inbox(self);
  }
  return !frame.failed.load(std::memory_order_relaxed);
}

LFO_ENDPOINT_HANDLER
bool LfoServer::advance(Owner& self, Connection& conn) {
  constexpr std::size_t kHeader = sizeof(conn.count);
  while (true) {
    if (conn.sent < conn.reply.size()) {
      const ssize_t n = ::send(conn.fd, conn.reply.data() + conn.sent,
                               conn.reply.size() - conn.sent, MSG_NOSIGNAL);
      if (util::would_block(n)) {
        // Finish on EPOLLOUT; fail once the peer takes nothing for
        // io_timeout_seconds.
        conn.deadline = Clock::now() + io_timeout_;
        return true;
      }
      if (n <= 0) return false;
      conn.sent += static_cast<std::size_t>(n);
      conn.deadline = Clock::time_point::max();
      continue;
    }
    const bool header = conn.got < kHeader;
    char* const into =
        header ? reinterpret_cast<char*>(&conn.count) + conn.got
               : reinterpret_cast<char*>(conn.wire.data()) + conn.got - kHeader;
    const std::size_t want =
        (header ? kHeader : kHeader + conn.count * sizeof(WireRequest)) -
        conn.got;
    const ssize_t n = ::recv(conn.fd, into, want, 0);
    if (util::would_block(n)) return true;
    if (n <= 0) {
      // End of stream or a socket error: mid-frame, the frame is cut short.
      if (conn.got > 0) LFO_COUNTER_INC("lfo_server_bad_frames_total");
      return false;
    }
    if (conn.got == 0) conn.deadline = Clock::now() + io_timeout_;
    conn.got += static_cast<std::size_t>(n);
    if (conn.got == kHeader) {
      // Malformed frames come from outside the process: count and close,
      // never abort (lfo_lint `endpoint` rule).
      if (conn.count == 0 || conn.count > kMaxBatch) {
        LFO_COUNTER_INC("lfo_server_bad_frames_total");
        return false;
      }
      conn.wire.resize(conn.count);
    } else if (conn.got == kHeader + conn.count * sizeof(WireRequest) &&
               !serve_request(self, conn)) {
      return false;
    }
  }
}

LFO_ENDPOINT_HANDLER
bool LfoServer::serve_request(Owner& self, Connection& conn) {
  const std::uint32_t count = conn.count;
  conn.got = 0;
  conn.deadline = Clock::time_point::max();
  // A record the trace readers would reject fails the whole frame
  // before any of it reaches a shard.
  Frame& frame = self.frame;
  frame.requests.resize(count);
  bool valid = true;
  for (std::uint32_t i = 0; i < count; ++i) {
    const WireRequest& wire = conn.wire[i];
    frame.requests[i] = {wire.object, wire.size, wire.cost, wire.ttl};
    valid &= trace::valid_record(frame.requests[i]);
  }
  // Counted before stop_ is read (both sequentially consistent): an owner
  // that saw stop_ and then in_flight_ == 0 cannot miss a frame that is
  // about to post to it.
  in_flight_.fetch_add(1);
  const bool stopping = stop_.load();
  const bool served = stopping || (valid && serve_frame(self));
  if (in_flight_.fetch_sub(1) == 1 && stop_.load()) {
    // The last frame out lets every owner leave its loop.
    for (const auto& owner : owners_) util::wake(owner->wake_fd);
  }
  if (!served) LFO_COUNTER_INC("lfo_server_bad_frames_total");
  if (stopping || !served) return false;
  LFO_COUNTER_INC("lfo_server_batches_total");
  conn.reply.resize(sizeof(count) + count);
  std::memcpy(conn.reply.data(), &count, sizeof(count));
  for (std::uint32_t i = 0; i < count; ++i) {
    const AccessResult result = frame.results[i];
    conn.reply[sizeof(count) + i] = static_cast<std::uint8_t>(
        result.expired ? WireDecision::kExpired
                       : (result.hit ? WireDecision::kHit
                                     : WireDecision::kMiss));
  }
  conn.sent = 0;
  return true;
}

LfoClient::~LfoClient() { close(); }

bool LfoClient::connect(std::uint16_t port, double timeout_seconds) {
  close();
  fd_ = util::connect_loopback(port, timeout_seconds);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool LfoClient::exchange(std::span<const trace::Request> batch,
                         std::vector<WireDecision>& decisions) {
  if (fd_ < 0 || batch.empty()) return false;
  send_buffer_.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    send_buffer_[i] = {batch[i].object, batch[i].size, batch[i].ttl,
                       batch[i].cost};
  }
  const auto count = static_cast<std::uint32_t>(batch.size());
  std::uint32_t reply_count = 0;
  decisions.resize(count);
  const bool ok =
      util::send_all(fd_, &count, sizeof(count)) &&
      util::send_all(fd_, send_buffer_.data(),
                     send_buffer_.size() * sizeof(WireRequest)) &&
      util::recv_all(fd_, &reply_count, sizeof(reply_count)) &&
      reply_count == count && util::recv_all(fd_, decisions.data(), count);
  if (!ok) close();
  return ok;
}

void LfoClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace lfo::server
