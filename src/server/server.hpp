#ifndef LFO_SERVER_SERVER_HPP
#define LFO_SERVER_SERVER_HPP

#include <atomic>
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
/// A frame with count == 0 or count > LfoServerConfig::max_batch is
/// malformed, and so is one carrying a record trace::valid_record()
/// rejects (size 0, or a negative or non-finite cost) — that frame is
/// refused before any of it is served — or a request the cache cannot
/// take (it threw, e.g. std::bad_alloc). Every 64-bit object id is an
/// ordinary id. The server counts
/// it (lfo_server_bad_frames_total) and closes the connection. Clients
/// pipeline at batch granularity — one frame in flight per connection
/// (closed loop).
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
  /// Worker threads. Each runs its own accept+serve loop on the shared
  /// listening socket; a worker serves one connection at a time, so
  /// `workers` is also the concurrent-connection capacity. Worker w also
  /// owns shards {s : s mod workers == w} and is the only thread that
  /// serves their requests: a frame's groups for other owners' shards go
  /// to those owners. Choose `workers` to divide cache.num_shards evenly,
  /// or some owners carry more shards than others.
  std::uint32_t workers = 4;
  ShardedCacheConfig cache;
  /// A reply that makes no progress for this long fails and closes its
  /// connection.
  double io_timeout_seconds = 0.5;
  /// Largest accepted request-frame count.
  std::uint32_t max_batch = 1 << 16;
  /// Mount the obs::TelemetryServer (/metrics, /stats, /healthz, ...)
  /// next to the serving port. Scrapes read the serving counts
  /// (lfo_server_{requests,hits,expired_hits,bypassed,demoted_hits}_total,
  /// lfo_server_used_bytes) and the history gauges
  /// (lfo_server_history_{objects,bytes}) from the cache at scrape time.
  /// /healthz reports 503 while the rollout guard is in fallback.
  bool telemetry = true;
  std::uint16_t telemetry_port = 0;
  obs::FlightRecorder* flight_recorder = nullptr;
};

/// The multithreaded cache service: a ShardedLfoCache behind a
/// thread-per-worker TCP front end speaking the batch protocol above,
/// with the telemetry endpoints mounted on a second loopback port.
///
/// Shard ownership (DESIGN.md decision 9): each worker owns the shards
/// {s : s mod workers == w}. A worker decodes its connection's frame,
/// groups the requests by shard, serves its own shards' groups and hands
/// the frame to every other owner with a group in it, through that
/// owner's inbox; it replies once every group is served. While it waits
/// — on its socket or on the other owners — it serves its own inbox, so
/// two workers that wait on each other both progress. A connection has
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

  /// Bind + listen + start the worker pool (and telemetry, if enabled).
  /// False (with the reason in last_error()) on socket failure.
  bool start();
  /// Stop accepting, join every worker, close sockets. Idempotent.
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
  struct Owner;

  void worker_loop(Owner& self);
  void serve_connection(Owner& self, int fd);
  /// Serve `self.frame` across its owners; false when a group threw.
  bool serve_frame(Owner& self);
  /// Serve the groups of `frame` whose shards `owner` owns.
  void serve_part(std::uint32_t owner, Frame& frame);
  void drain_inbox(Owner& self);
  /// Wait up to `timeout_ms` for `fd` (none when negative) to be ready
  /// for `events`, serving the inbox whenever woken. True if fd is ready.
  bool await(Owner& self, int fd, short events, int timeout_ms);
  /// Read or write exactly `size` bytes on a connection, serving the
  /// inbox while the socket is not ready. False ends the connection.
  bool receive(Owner& self, int fd, void* data, std::size_t size);
  bool transmit(Owner& self, int fd, const void* data, std::size_t size);

  LfoServerConfig config_;
  ShardedLfoCache cache_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string last_error_;
  std::string telemetry_error_;
  std::atomic<bool> stop_{false};
  /// Workers inside a connection. A worker leaves its loop only once
  /// stop_ is set and this is 0, serving its inbox until then, so no
  /// frame is left waiting on an owner that has gone.
  std::atomic<std::uint32_t> in_connection_{0};
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
