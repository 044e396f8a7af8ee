#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <utility>

#include "core/rollout.hpp"
#include "obs/metrics.hpp"

namespace lfo::server {

namespace {

void set_io_timeouts(int fd, double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read exactly `size` bytes from a blocking client socket. SO_RCVTIMEO
/// (set by LfoClient::connect) is a hard deadline: its first expiry fails
/// the read, which is what makes connect(timeout_seconds) an actual
/// timeout.
bool read_exact(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void wake(int event_fd) {
  const std::uint64_t one = 1;
  // Only fails when the counter would overflow, i.e. it is already set.
  (void)!::write(event_fd, &one, sizeof(one));
}

void clear_wake(int event_fd) {
  std::uint64_t count = 0;
  (void)!::read(event_fd, &count, sizeof(count));
}

int to_poll_ms(double seconds) {
  return static_cast<int>(std::clamp(seconds * 1e3, 1.0, 1e9));
}

constexpr int kIdlePollMs = 100;

/// TelemetryServerConfig::collect: the serving counts, read from the
/// shard-local cache stats at scrape time (the request path keeps no
/// second copy of them).
void append_serving_series(const ShardedLfoCache& cache,
                           obs::MetricsSnapshot& snap) {
  const auto stats = cache.stats();
  snap.counters.push_back({"lfo_server_bypassed_total", cache.bypassed()});
  snap.counters.push_back(
      {"lfo_server_demoted_hits_total", cache.demoted_hits()});
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

/// One decoded request frame of a connection, grouped by shard. The
/// connection's worker fills it, then posts it to each other owner with a
/// group in it; it is refilled only after every group has been served.
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
  std::uint32_t origin = 0;         ///< the worker the frame belongs to

  std::span<const std::uint32_t> group(std::uint32_t s) const {
    const std::uint32_t begin = s == 0 ? 0 : group_end[s - 1];
    return {order.data() + begin, group_end[s] - begin};
  }
};

/// A worker's shard-owner state.
struct LfoServer::Owner {
  Owner(std::uint32_t index, std::uint32_t workers)
      : index(index),
        wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
        inbox(workers) {
    frame.origin = index;
  }
  ~Owner() {
    if (wake_fd >= 0) ::close(wake_fd);
  }
  Owner(const Owner&) = delete;
  Owner& operator=(const Owner&) = delete;

  const std::uint32_t index;
  /// eventfd, written when a frame lands in the inbox and when the last
  /// posted group of this worker's own frame is served.
  const int wake_fd;
  /// Frames posted by other workers, one slot per posting worker: each
  /// has at most one frame in flight, so the inbox never holds more than
  /// workers - 1 frames and never allocates.
  std::vector<std::atomic<Frame*>> inbox;
  Frame frame;  ///< this worker's connection's frame
  std::vector<WireRequest> wire;
  std::vector<std::uint8_t> reply;
};

LfoServer::LfoServer(LfoServerConfig config)
    : config_(std::move(config)), cache_(config_.cache) {}

LfoServer::~LfoServer() { stop(); }

bool LfoServer::start() {
  if (listen_fd_ >= 0) return true;
  last_error_.clear();
  telemetry_error_.clear();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    last_error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    last_error_ = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  if (::listen(fd, 64) != 0) {
    last_error_ = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  // Every worker polls this fd (level-triggered), so one connection
  // wakes them all; accept must be non-blocking so the losers get
  // EAGAIN and fall back to polling instead of parking inside a
  // blocking ::accept() where stop_ is invisible — stop() joins the
  // workers before it closes the fd, so a parked worker is a deadlock.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    last_error_ = std::string("fcntl: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    last_error_ = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  const std::uint32_t workers = config_.workers > 0 ? config_.workers : 1;
  owners_.clear();
  for (std::uint32_t i = 0; i < workers; ++i) {
    owners_.push_back(std::make_unique<Owner>(i, workers));
    if (owners_.back()->wake_fd < 0) {
      last_error_ = std::string("eventfd: ") + std::strerror(errno);
      owners_.clear();
      ::close(fd);
      return false;
    }
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stop_.store(false);

  if (config_.telemetry) {
    obs::TelemetryServerConfig tconfig;
    tconfig.port = config_.telemetry_port;
    tconfig.flight_recorder = config_.flight_recorder;
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
    workers_.emplace_back([this, self = owner.get()] { worker_loop(*self); });
  }
  return true;
}

void LfoServer::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true);
  for (const auto& owner : owners_) wake(owner->wake_fd);
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
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

void LfoServer::worker_loop(Owner& self) {
  // Every worker polls the shared listening socket (same poll/stop
  // idiom as the telemetry accept loop); a pending connection may wake
  // several idle workers, one wins the non-blocking accept and the rest
  // see EAGAIN. A worker keeps its accepted connection until the peer
  // closes, so concurrency = workers. Every wait also watches the wake
  // fd, so an idle worker still serves the groups other workers post.
  while (true) {
    if (stop_.load()) {
      // Another worker may still be inside a connection, waiting on a
      // group it posted here: keep serving until every one is out.
      if (in_connection_.load() == 0) return;
      await(self, -1, 0, kIdlePollMs);
      continue;
    }
    if (!await(self, listen_fd_, POLLIN, kIdlePollMs)) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    // EAGAIN: another worker won the race (the listen fd is
    // non-blocking); also covers a connection aborted between poll
    // and accept. Either way, go back to polling.
    if (client < 0) continue;
    // Counted before stop_ is re-read (both sequentially consistent): a
    // worker that saw stop_ and then in_connection_ == 0 cannot miss a
    // connection that is about to post to it.
    in_connection_.fetch_add(1);
    if (!stop_.load()) {
      LFO_COUNTER_INC("lfo_server_connections_total");
      serve_connection(self, client);
    }
    ::close(client);
    in_connection_.fetch_sub(1);
  }
}

bool LfoServer::await(Owner& self, int fd, short events, int timeout_ms) {
  // poll() skips entries with a negative fd.
  pollfd fds[2] = {{self.wake_fd, POLLIN, 0}, {fd, events, 0}};
  if (::poll(fds, 2, timeout_ms) <= 0) return false;
  if (fds[0].revents != 0) {
    clear_wake(self.wake_fd);  // before draining: a later post re-arms it
    drain_inbox(self);
  }
  return fds[1].revents != 0;
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
      wake(origin_wake);
    }
  }
}

void LfoServer::serve_part(std::uint32_t owner, Frame& frame) {
  const auto stride = static_cast<std::uint32_t>(owners_.size());
  // A request the cache cannot take throws (std::bad_alloc when memory
  // runs out, std::length_error when a history slab runs out of
  // offsets); it makes the whole frame bad, and never ends the worker
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
      wake(owner.wake_fd);
    }
    LFO_COUNTER_ADD("lfo_server_handoffs_total", posted);
  }
  serve_part(self.index, frame);
  // Posted groups read the frame until they are served, so wait for them
  // even when stopping; the owners keep serving until this worker leaves
  // its connection.
  while (frame.pending.load(std::memory_order_acquire) != 0) {
    await(self, -1, 0, kIdlePollMs);
  }
  return !frame.failed.load(std::memory_order_relaxed);
}

bool LfoServer::receive(Owner& self, int fd, void* data, std::size_t size) {
  // A connection may sit idle between frames for arbitrarily long, but
  // shutdown must not hang, so the wait re-checks stop_ (stop() also
  // wakes it through the owner's eventfd). End of stream, clean or
  // mid-frame, and socket errors all end the connection.
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, p + got, size - got, MSG_DONTWAIT);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return false;
    if (stop_.load(std::memory_order_acquire)) return false;
    await(self, fd, POLLIN, kIdlePollMs);
  }
  return true;
}

bool LfoServer::transmit(Owner& self, int fd, const void* data,
                         std::size_t size) {
  using Clock = std::chrono::steady_clock;
  const auto timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config_.io_timeout_seconds));
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  auto deadline = Clock::now() + timeout;
  while (sent < size) {
    const ssize_t n =
        ::send(fd, p + sent, size - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      deadline = Clock::now() + timeout;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return false;
    const auto left = std::chrono::duration<double>(deadline - Clock::now());
    if (left.count() <= 0.0) return false;
    await(self, fd, POLLOUT, to_poll_ms(left.count()));
  }
  return true;
}

LFO_ENDPOINT_HANDLER
void LfoServer::serve_connection(Owner& self, int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Grow-once buffers reused across the connection's frames: the warm
  // per-request serving path performs no allocations.
  Frame& frame = self.frame;
  while (!stop_.load(std::memory_order_acquire)) {
    std::uint32_t count = 0;
    if (!receive(self, fd, &count, sizeof(count))) return;
    // Malformed frames come from outside the process: count and close,
    // never abort (lfo_lint `endpoint` rule).
    if (count == 0 || count > config_.max_batch) {
      LFO_COUNTER_INC("lfo_server_bad_frames_total");
      return;
    }
    self.wire.resize(count);
    if (!receive(self, fd, self.wire.data(), count * sizeof(WireRequest))) {
      LFO_COUNTER_INC("lfo_server_bad_frames_total");
      return;
    }
    // A record the trace readers would reject fails the whole frame
    // before any of it reaches a shard.
    frame.requests.resize(count);
    bool valid = true;
    for (std::uint32_t i = 0; i < count; ++i) {
      const WireRequest& wire = self.wire[i];
      frame.requests[i] = {wire.object, wire.size, wire.cost, wire.ttl};
      valid &= trace::valid_record(frame.requests[i]);
    }
    if (!valid || !serve_frame(self)) {
      LFO_COUNTER_INC("lfo_server_bad_frames_total");
      return;
    }
    LFO_COUNTER_INC("lfo_server_batches_total");
    self.reply.resize(sizeof(count) + count);
    std::memcpy(self.reply.data(), &count, sizeof(count));
    for (std::uint32_t i = 0; i < count; ++i) {
      const AccessResult result = frame.results[i];
      self.reply[sizeof(count) + i] = static_cast<std::uint8_t>(
          result.expired ? WireDecision::kExpired
                         : (result.hit ? WireDecision::kHit
                                       : WireDecision::kMiss));
    }
    if (!transmit(self, fd, self.reply.data(), self.reply.size())) return;
  }
}

LfoClient::~LfoClient() { close(); }

bool LfoClient::connect(std::uint16_t port, double timeout_seconds) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  set_io_timeouts(fd, timeout_seconds);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

bool LfoClient::exchange(std::span<const trace::Request> batch,
                         std::vector<WireDecision>& decisions) {
  if (fd_ < 0 || batch.empty()) return false;
  send_buffer_.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    send_buffer_[i].object = batch[i].object;
    send_buffer_[i].size = batch[i].size;
    send_buffer_[i].ttl = batch[i].ttl;
    send_buffer_[i].cost = batch[i].cost;
  }
  const auto count = static_cast<std::uint32_t>(batch.size());
  if (!send_all(fd_, &count, sizeof(count)) ||
      !send_all(fd_, send_buffer_.data(),
                send_buffer_.size() * sizeof(WireRequest))) {
    close();
    return false;
  }
  std::uint32_t reply_count = 0;
  if (!read_exact(fd_, &reply_count, sizeof(reply_count)) ||
      reply_count != count) {
    close();
    return false;
  }
  decisions.resize(reply_count);
  if (!read_exact(fd_, decisions.data(), reply_count)) {
    close();
    return false;
  }
  return true;
}

void LfoClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace lfo::server
