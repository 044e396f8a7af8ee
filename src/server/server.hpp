#ifndef LFO_SERVER_SERVER_HPP
#define LFO_SERVER_SERVER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry_server.hpp"
#include "server/sharded_cache.hpp"
#include "trace/request.hpp"

namespace lfo::server {

/// Wire format of the cache front end (loopback TCP, host byte order —
/// this is an intra-host serving port like the telemetry one, not an
/// internet-facing protocol):
///
///   request frame:  u32 count, then count x WireRequest (32 bytes each)
///   response frame: u32 count, then count x u8 WireDecision
///
/// A frame with count == 0 or count > kMaxBatch is malformed, and so is
/// one carrying a record trace::valid_record() rejects (size 0, or a
/// negative or non-finite cost) — that frame is refused before any of it
/// is served — or a request the cache cannot take (it threw, e.g.
/// std::bad_alloc), or one cut short (end of stream, or not complete
/// within LfoServerConfig::io_timeout_seconds of its first byte). Every
/// 64-bit object id is an ordinary id. The server counts a malformed
/// frame (lfo_server_bad_frames_total) and closes its connection.
/// Clients pipeline at batch granularity — one frame in flight per
/// connection (closed loop).
inline constexpr std::uint32_t kMaxBatch = 1 << 16;

/// Open connections per shard owner. A new connection past the cap
/// closes the owner's longest-idle one, counted in
/// lfo_server_shed_connections_total.
/// Each connection keeps grow-once wire and reply buffers, so an owner's
/// buffers peak at kMaxConnectionsPerOwner x kMaxBatch x 33 B (132 MiB).
inline constexpr std::uint32_t kMaxConnectionsPerOwner = 64;

struct WireRequest {
  std::uint64_t object;
  std::uint64_t size;
  std::uint64_t ttl;
  double cost;
};
static_assert(sizeof(WireRequest) == 32, "wire layout is load-bearing");

enum class WireDecision : std::uint8_t {
  kMiss = 0,     ///< not served from cache (bypassed or admitted fresh)
  kHit = 1,      ///< served from cache
  kExpired = 2,  ///< found cached but stale; dropped + re-decided (a miss)
};

struct LfoServerConfig {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port.
  std::uint16_t port = 0;
  /// Shard-owner threads. Owner w owns shards {s : s mod workers == w}
  /// and is the only thread that serves their requests: a frame's groups
  /// for other owners' shards go to those owners. Each owner also runs
  /// the event loop of the connections it is given (connection k goes to
  /// owner k mod workers), any number up to kMaxConnectionsPerOwner.
  /// Choose `workers` to divide cache.num_shards evenly, or some owners
  /// carry more shards than others.
  std::uint32_t workers = 4;
  ShardedCacheConfig cache;
  /// Once a frame's first byte arrives, its header and body must arrive
  /// within this long, and a reply that makes no progress for this long
  /// fails; either closes the connection. Idle time between frames is
  /// not limited.
  double io_timeout_seconds = 0.5;
  /// Mount the obs::TelemetryServer (/metrics, /stats, /healthz, ...)
  /// next to the serving port. Scrapes read the serving counts
  /// (lfo_server_{requests,hits,expired_hits,bypassed}_total,
  /// lfo_server_used_bytes) and the history gauges
  /// (lfo_server_history_{objects,bytes}) from the cache at scrape time.
  /// /healthz reports 503 while the rollout guard is in fallback.
  bool telemetry = true;
  std::uint16_t telemetry_port = 0;
};

/// The multithreaded cache service: a ShardedLfoCache behind an
/// event-loop TCP front end speaking the batch protocol above, with the
/// telemetry endpoints mounted on a second loopback port.
///
/// Shard ownership (DESIGN.md decision 9): each of the `workers` owner
/// threads owns the shards {s : s mod workers == w} and runs one epoll
/// loop over its inbox eventfd and its connections. A connection is a
/// small state machine — reading a header, reading a body, writing a
/// reply — so no connection waits on another. A held socket costs its
/// owner a file descriptor: a silent one until the cap sheds it, a
/// half-sent frame until its deadline. Once a frame is read the owner
/// groups it by shard, serves its own groups and hands the frame to
/// every other owner with a group in it, through that owner's inbox; it
/// replies once every group is served, serving its own inbox meanwhile,
/// so two owners that wait on each other both progress. A connection has
/// one frame in flight, so a shard sees one connection's requests in
/// arrival order.
///
/// Decision correctness contract: replaying a trace through one
/// connection makes, at any worker count, the decisions of one LfoCache
/// per shard replaying that shard's subsequence; with num_shards == 1
/// that is byte-for-byte a single-threaded LfoCache replay
/// (tests/test_server.cpp).
class LfoServer {
 public:
  explicit LfoServer(LfoServerConfig config);
  ~LfoServer();

  LfoServer(const LfoServer&) = delete;
  LfoServer& operator=(const LfoServer&) = delete;

  /// Bind + listen + start the owner threads (and telemetry, if enabled).
  /// False (with the reason in last_error()) on socket failure.
  bool start();
  /// Stop serving, join every owner, close sockets. Idempotent.
  void stop();
  bool running() const { return listen_fd_ >= 0; }

  std::uint16_t port() const { return port_; }
  /// 0 when telemetry is disabled or failed to bind.
  std::uint16_t telemetry_port() const;
  /// Reason start() returned false; empty after a successful start().
  const std::string& last_error() const { return last_error_; }
  /// Empty unless telemetry was enabled but failed to come up — the
  /// cache service still serves in that case (start() returns true and
  /// last_error() stays empty), so operators check this separately.
  const std::string& telemetry_error() const { return telemetry_error_; }

  /// The shared cache — model installs (install_candidate/swap_model)
  /// and merged stats are safe while the server is serving.
  ShardedLfoCache& cache() { return cache_; }
  const ShardedLfoCache& cache() const { return cache_; }

 private:
  struct Frame;
  struct Connection;
  struct Owner;

  /// Owner `self`'s event loop, until stop() and no frame is in flight.
  void run(Owner& self);
  /// Accept one connection under util::accept_or_shed (its errors are
  /// counted in lfo_server_accept_errors_total), shedding at the cap;
  /// arm the next owner.
  void accept_connection(Owner& self);
  /// Close connections past their deadline and re-arm a backed-off
  /// accept; ms to the next deadline (-1: none).
  int expire(Owner& self);
  /// Run a connection until its socket would block; false closes it.
  bool advance(Owner& self, Connection& conn);
  /// Decode, serve and answer the frame `conn` has read.
  bool serve_request(Owner& self, Connection& conn);
  /// Serve `self.frame` across its owners; false when a group threw.
  bool serve_frame(Owner& self);
  /// Serve the groups of `frame` whose shards `owner` owns.
  void serve_part(std::uint32_t owner, Frame& frame);
  void drain_inbox(Owner& self);

  LfoServerConfig config_;
  ShardedLfoCache cache_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string last_error_;
  std::string telemetry_error_;
  std::atomic<bool> stop_{false};
  /// Frames being served. An owner leaves its loop only once stop_ is
  /// set and this is 0, serving its inbox until then, so no frame is
  /// left waiting on an owner that has gone.
  std::atomic<std::uint32_t> in_flight_{0};
  std::chrono::steady_clock::duration io_timeout_{};
  std::vector<std::unique_ptr<Owner>> owners_;
  std::vector<std::thread> workers_;
  std::unique_ptr<obs::TelemetryServer> telemetry_;
};

/// Minimal blocking client for the batch protocol — the unit the load
/// generator (bench/bench_server.cpp) and the socket-level equivalence
/// tests share, so framing bugs cannot hide in per-caller copies.
class LfoClient {
 public:
  LfoClient() = default;
  ~LfoClient();

  LfoClient(const LfoClient&) = delete;
  LfoClient& operator=(const LfoClient&) = delete;

  bool connect(std::uint16_t port, double timeout_seconds = 5.0);
  bool connected() const { return fd_ >= 0; }

  /// Send one request frame for `batch` and read the decision frame
  /// into `decisions` (resized to batch.size()). False on any socket
  /// or framing error (connection is closed).
  bool exchange(std::span<const trace::Request> batch,
                std::vector<WireDecision>& decisions);

  void close();

 private:
  int fd_ = -1;
  std::vector<WireRequest> send_buffer_;
};

}  // namespace lfo::server

#endif  // LFO_SERVER_SERVER_HPP
