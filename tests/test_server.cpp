// lfo::server suite: the sharded concurrent cache and its TCP front end.
//
//  - Equivalence: with num_shards == 1 the ShardedLfoCache reproduces a
//    plain LfoCache replay decision-for-decision on the golden web
//    trace, in bootstrap mode and with a trained model — and the same
//    holds over a real socket with workers == 1. With 8 shards split
//    across 1-4 owning workers, one connection's decisions equal 8
//    independent LfoCache replays of each shard's subsequence.
//  - Rollout: install_candidate routes through the RolloutGuard, so the
//    heuristic fallback still engages under a rejection storm and
//    recovers on a healthy candidate, exactly as in the single-threaded
//    windowed pipeline, and every transition is counted in the
//    lfo_rollout_*_total metrics. A model of another feature schema is
//    refused before the guard sees it.
//  - Protocol: malformed frames close only their own connection, every
//    64-bit object id is served, and a seeded random-frame fuzz keeps
//    the server up with balanced accounting.
//  - Held sockets: silent and half-sent connections never delay another
//    client, a started frame is cut off at its deadline, idle time
//    between frames is free, and connections past the per-owner cap
//    shed the longest-idle one. Out of file descriptors, accept sheds
//    the longest-idle connection or backs off; it never spins.
//  - Stress (TSan target): concurrent mixed get/admit/expire traffic
//    across shards with model swaps in flight; merged accounting must
//    balance and byte occupancy stay within capacity.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/lfo_cache.hpp"
#include "core/lfo_model.hpp"
#include "core/rollout.hpp"
#include "fd_test_util.hpp"
#include "gbdt/gbdt.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs_test_util.hpp"
#include "server/server.hpp"
#include "server/sharded_cache.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace {

using namespace lfo;
using testutil::golden_trace;
using testutil::parse_http_response;

server::ShardedCacheConfig one_shard_config(std::uint64_t capacity,
                                            const features::FeatureConfig& f) {
  server::ShardedCacheConfig config;
  config.capacity = capacity;
  config.num_shards = 1;
  config.features = f;
  return config;
}

/// A small trained model for the golden web trace (first window).
std::shared_ptr<const core::LfoModel> golden_model(
    const trace::Trace& trace, const core::LfoConfig& config) {
  const auto trained = core::train_on_window(trace.window(0, 5000), config);
  EXPECT_NE(trained.model, nullptr);
  return trained.model;
}

core::LfoConfig golden_config() {
  auto config = testutil::golden_lfo_config().lfo;
  return config;
}

// ------------------------------------------------ decision equivalence

TEST(ShardedEquivalence, OneShardBootstrapMatchesPlainCache) {
  const auto trace = golden_trace("web");
  const auto config = golden_config();
  core::LfoCache plain(config.cache_size, config.features, config.cutoff);
  server::ShardedLfoCache sharded(
      one_shard_config(config.cache_size, config.features));

  for (const auto& request : trace.requests()) {
    const std::uint64_t expired_before = plain.stats().expired_hits;
    const bool plain_hit = plain.access(request);
    const bool plain_expired =
        plain.stats().expired_hits != expired_before;
    const auto result = sharded.access(request);
    ASSERT_EQ(result.hit, plain_hit) << "object " << request.object;
    ASSERT_EQ(result.expired, plain_expired) << "object " << request.object;
  }
  const auto merged = sharded.stats();
  const auto& reference = plain.stats();
  EXPECT_EQ(merged.requests, reference.requests);
  EXPECT_EQ(merged.hits, reference.hits);
  EXPECT_EQ(merged.bytes_requested, reference.bytes_requested);
  EXPECT_EQ(merged.bytes_hit, reference.bytes_hit);
  EXPECT_EQ(merged.expired_hits, reference.expired_hits);
  EXPECT_EQ(sharded.bypassed(), plain.bypassed());
  EXPECT_EQ(sharded.used_bytes(), plain.used_bytes());
}

TEST(ShardedEquivalence, OneShardWithModelMatchesPlainCache) {
  const auto trace = golden_trace("web");
  const auto config = golden_config();
  const auto model = golden_model(trace, config);
  ASSERT_NE(model, nullptr);

  core::LfoCache plain(config.cache_size, config.features, config.cutoff);
  server::ShardedLfoCache sharded(
      one_shard_config(config.cache_size, config.features));
  plain.swap_model(model);
  sharded.swap_model(model);
  EXPECT_TRUE(sharded.has_model());

  for (std::size_t i = 5000; i < trace.size(); ++i) {
    const auto& request = trace[i];
    const bool plain_hit = plain.access(request);
    const auto result = sharded.access(request);
    ASSERT_EQ(result.hit, plain_hit) << "request " << i;
  }
  EXPECT_EQ(sharded.stats().hits, plain.stats().hits);
  EXPECT_EQ(sharded.bypassed(), plain.bypassed());
}

TEST(ShardedCache, ShardingIsDeterministicAndCoversAllShards) {
  features::FeatureConfig f;
  server::ShardedCacheConfig config;
  config.capacity = 8ULL << 20;
  config.num_shards = 8;
  config.features = f;
  server::ShardedLfoCache cache(config);
  std::vector<std::uint64_t> per_shard(8, 0);
  for (std::uint64_t object = 0; object < 4000; ++object) {
    const auto shard = cache.shard_of(object);
    ASSERT_LT(shard, 8u);
    ASSERT_EQ(shard, cache.shard_of(object)) << "unstable shard hash";
    ++per_shard[shard];
  }
  for (std::uint32_t s = 0; s < 8; ++s) {
    // splitmix64 spreads dense ids: every shard sees a healthy share.
    EXPECT_GT(per_shard[s], 4000u / 16) << "shard " << s << " starved";
  }
}

// ------------------------------------------------ rollout guard fallback

TEST(ShardedRollout, FallbackEngagesOnRejectionStormAndRecovers) {
  const auto trace = golden_trace("web");
  const auto config = golden_config();
  const auto model = golden_model(trace, config);

  server::ShardedCacheConfig sconfig;
  sconfig.capacity = config.cache_size;
  sconfig.features = config.features;
  sconfig.num_shards = 4;
  server::ShardedLfoCache cache(sconfig);

  core::RolloutCandidate good;
  good.train_accuracy = 0.9;
  good.model_admit_share = 0.5;
  good.opt_admit_share = 0.5;
  good.feature_drift = 0.01;
  auto bad = good;
  bad.train_accuracy = 0.3;  // under every sensible gate

  // Every transition is counted on the registry the server's /metrics
  // exports, as the windowed pipeline counts its own.
  const testutil::CounterDelta activated("lfo_rollout_activated_total");
  const testutil::CounterDelta rejected("lfo_rollout_rejected_total");
  const testutil::CounterDelta fallbacks("lfo_rollout_fallback_total");
  const testutil::CounterDelta recovered("lfo_rollout_recovered_total");

  auto verdict = cache.install_candidate(good, model);
  EXPECT_TRUE(verdict.activate);
  EXPECT_TRUE(cache.has_model());
  EXPECT_EQ(cache.rollout_state(), core::RolloutState::kServing);

  // A storm of mistrained candidates: the guard rejects each, keeps the
  // last-good model serving, then exhausts the rejection budget and
  // clears every shard back to the heuristic — exactly the adversarial
  // scenario the single-threaded pipeline survives.
  const auto budget = sconfig.rollout.max_consecutive_rejections;
  for (std::uint32_t i = 0; i + 1 < budget; ++i) {
    verdict = cache.install_candidate(bad, model);
    EXPECT_FALSE(verdict.activate);
    EXPECT_TRUE(cache.has_model()) << "last-good model dropped early";
  }
  verdict = cache.install_candidate(bad, model);
  EXPECT_TRUE(verdict.clear_model);
  EXPECT_FALSE(cache.has_model());
  EXPECT_EQ(cache.rollout_state(), core::RolloutState::kFallback);
  EXPECT_EQ(rejected(), budget);  // the fallback is a rejection too
  EXPECT_EQ(fallbacks(), 1u);

  // The heuristic keeps serving during fallback...
  const auto before = cache.stats().requests;
  (void)cache.access(trace[0]);
  EXPECT_EQ(cache.stats().requests, before + 1);

  // ...and a healthy candidate re-qualifies.
  verdict = cache.install_candidate(good, model);
  EXPECT_TRUE(verdict.activate);
  EXPECT_TRUE(cache.has_model());
  EXPECT_EQ(cache.rollout_state(), core::RolloutState::kServing);
  EXPECT_EQ(activated(), 2u);  // the first install and the recovery
  EXPECT_EQ(recovered(), 1u);
  EXPECT_EQ(rejected(), budget);
  EXPECT_EQ(fallbacks(), 1u);
}

TEST(ShardedRollout, ServingAccuracyGateJudgesTheTrainedCandidate) {
  // train_on_window scores the model it is given as serving, so the
  // server path's serving-accuracy gate sees a real figure.
  const auto trace = golden_trace("web");
  const auto config = golden_config();
  const auto a = core::train_on_window(trace.window(0, 5000), config);
  const auto b = core::train_on_window(trace.window(5000, 5000), config,
                                       a.model.get());
  EXPECT_EQ(a.candidate.serving_accuracy, -1.0);
  ASSERT_GT(b.candidate.serving_accuracy, 0.0);

  const double at = b.candidate.serving_accuracy;
  for (const double min_serving_accuracy : {at, std::nextafter(at, 2.0)}) {
    auto sconfig = one_shard_config(config.cache_size, config.features);
    sconfig.rollout.min_serving_accuracy = min_serving_accuracy;
    server::ShardedLfoCache cache(sconfig);
    // The first candidate had nothing serving: its accuracy is unknown,
    // which passes the gate.
    ASSERT_TRUE(cache.install_candidate(a.candidate, a.model).activate);
    const auto verdict = cache.install_candidate(b.candidate, b.model);
    EXPECT_EQ(verdict.activate, min_serving_accuracy == at)
        << verdict.reason;
    EXPECT_TRUE(cache.has_model());
  }
}

TEST(ShardedRollout, MismatchedSchemaIsRefusedAndChangesNothing) {
  const auto trace = golden_trace("web");
  const auto config = golden_config();
  const auto model = golden_model(trace, config);
  auto wide_config = config;
  wide_config.features.num_gaps = 50;
  const auto wide = golden_model(trace, wide_config);
  ASSERT_GT(wide->dimension(), model->dimension());

  server::ShardedCacheConfig sconfig;
  sconfig.capacity = config.cache_size;
  sconfig.features = config.features;
  sconfig.num_shards = 4;
  server::ShardedLfoCache refused(sconfig);
  server::ShardedLfoCache control(sconfig);

  core::RolloutCandidate good;
  good.train_accuracy = 0.9;
  good.model_admit_share = 0.5;
  good.opt_admit_share = 0.5;
  good.feature_drift = 0.01;
  auto bad = good;
  bad.train_accuracy = 0.3;

  ASSERT_TRUE(refused.install_candidate(good, model).activate);
  ASSERT_TRUE(control.install_candidate(good, model).activate);
  const std::size_t half = trace.size() / 2;
  for (std::size_t i = 5000; i < half; ++i) {
    ASSERT_EQ(refused.access(trace[i]).hit, control.access(trace[i]).hit)
        << "request " << i;
  }

  // A wider model would read past the cache's feature rows. It is
  // refused before the guard scores it: a counted rejection would bring
  // `refused` to fallback one candidate before `control`.
  EXPECT_THROW(refused.install_candidate(bad, wide), std::invalid_argument);
  EXPECT_THROW(refused.install_candidate(good, wide), std::invalid_argument);
  EXPECT_THROW(refused.swap_model(wide), std::invalid_argument);
  EXPECT_EQ(refused.rollout_state(), core::RolloutState::kServing);
  for (std::uint32_t i = 0; i < sconfig.rollout.max_consecutive_rejections;
       ++i) {
    const auto got = refused.install_candidate(bad, model);
    const auto want = control.install_candidate(bad, model);
    EXPECT_EQ(got.decision, want.decision) << "candidate " << i;
    EXPECT_EQ(refused.rollout_state(), control.rollout_state())
        << "candidate " << i;
  }
  EXPECT_EQ(refused.rollout_state(), core::RolloutState::kFallback);
  ASSERT_TRUE(refused.install_candidate(good, model).activate);
  ASSERT_TRUE(control.install_candidate(good, model).activate);

  for (std::size_t i = half; i < trace.size(); ++i) {
    ASSERT_EQ(refused.access(trace[i]).hit, control.access(trace[i]).hit)
        << "request " << i;
  }
  EXPECT_EQ(refused.stats().hits, control.stats().hits);
  EXPECT_EQ(refused.bypassed(), control.bypassed());
  EXPECT_EQ(refused.used_bytes(), control.used_bytes());
}

// ------------------------------------------------ socket-level replay

server::WireDecision wire_decision(bool hit, bool expired) {
  return expired ? server::WireDecision::kExpired
         : hit   ? server::WireDecision::kHit
                 : server::WireDecision::kMiss;
}

std::vector<server::WireDecision> replay_through_plain_cache(
    const trace::Trace& trace, const core::LfoConfig& config) {
  core::LfoCache plain(config.cache_size, config.features, config.cutoff);
  std::vector<server::WireDecision> decisions;
  decisions.reserve(trace.size());
  for (const auto& request : trace.requests()) {
    const std::uint64_t expired_before = plain.stats().expired_hits;
    const bool hit = plain.access(request);
    decisions.push_back(
        wire_decision(hit, plain.stats().expired_hits != expired_before));
  }
  return decisions;
}

TEST(ServerEquivalence, OneWorkerOneShardMatchesSimulatorOverSocket) {
  const auto trace = golden_trace("web");
  const auto config = golden_config();
  const auto reference = replay_through_plain_cache(trace, config);

  server::LfoServerConfig sconfig;
  sconfig.workers = 1;
  sconfig.cache = one_shard_config(config.cache_size, config.features);
  sconfig.telemetry = false;
  server::LfoServer lfo_server(sconfig);
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();

  server::LfoClient client;
  ASSERT_TRUE(client.connect(lfo_server.port()));
  std::vector<server::WireDecision> decisions;
  std::size_t checked = 0;
  constexpr std::size_t kBatch = 333;  // deliberately odd-sized frames
  for (std::size_t offset = 0; offset < trace.size(); offset += kBatch) {
    const auto n = std::min(kBatch, trace.size() - offset);
    ASSERT_TRUE(client.exchange(trace.window(offset, n), decisions));
    ASSERT_EQ(decisions.size(), n);
    for (std::size_t i = 0; i < n; ++i, ++checked) {
      ASSERT_EQ(decisions[i], reference[checked])
          << "decision diverged at request " << checked;
    }
  }
  EXPECT_EQ(checked, trace.size());
  const auto merged = lfo_server.cache().stats();
  EXPECT_EQ(merged.requests, trace.size());
  client.close();
  lfo_server.stop();
  EXPECT_FALSE(lfo_server.running());
}

// Shard ownership moves a shard's requests onto its owner's thread but
// must not reorder them: whatever the worker count, the server decides
// exactly as one independent LfoCache per shard replaying that shard's
// requests in trace order.
TEST(ServerEquivalence, ShardOwnersMatchPerShardReplaysAtAnyWorkerCount) {
  const auto trace = golden_trace("web");
  const auto config = golden_config();
  const auto model = golden_model(trace, config);
  ASSERT_NE(model, nullptr);
  server::ShardedCacheConfig cache;
  cache.capacity = config.cache_size;
  cache.num_shards = 8;
  cache.features = config.features;
  cache.cutoff = config.cutoff;

  const server::ShardedLfoCache router(cache);
  std::vector<std::unique_ptr<core::LfoCache>> shards;
  for (std::uint32_t s = 0; s < cache.num_shards; ++s) {
    shards.push_back(std::make_unique<core::LfoCache>(
        cache.capacity / cache.num_shards, cache.features, cache.cutoff));
    shards.back()->swap_model(model);
  }
  std::vector<server::WireDecision> reference;
  std::uint64_t bypassed = 0;
  for (const auto& request : trace.requests()) {
    auto& shard = *shards[router.shard_of(request.object)];
    const std::uint64_t expired_before = shard.stats().expired_hits;
    const bool hit = shard.access(request);
    reference.push_back(
        wire_decision(hit, shard.stats().expired_hits != expired_before));
  }
  for (const auto& shard : shards) bypassed += shard->bypassed();
  ASSERT_GT(bypassed, 0u) << "the model never bypassed";

  const auto& handoffs = obs::MetricsRegistry::instance().counter(
      "lfo_server_handoffs_total");
  for (const std::uint32_t workers : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    server::LfoServerConfig sconfig;
    sconfig.workers = workers;
    sconfig.cache = cache;
    sconfig.telemetry = false;
    server::LfoServer lfo_server(sconfig);
    lfo_server.cache().swap_model(model);
    ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
    const auto handoffs_before = handoffs.value();

    server::LfoClient client;
    ASSERT_TRUE(client.connect(lfo_server.port()));
    std::vector<server::WireDecision> decisions;
    constexpr std::size_t kBatch = 333;
    for (std::size_t offset = 0; offset < trace.size(); offset += kBatch) {
      const auto n = std::min(kBatch, trace.size() - offset);
      ASSERT_TRUE(client.exchange(trace.window(offset, n), decisions));
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(decisions[i], reference[offset + i])
            << "decision diverged at request " << offset + i;
      }
    }
    EXPECT_EQ(lfo_server.cache().stats().requests, trace.size());
    EXPECT_EQ(lfo_server.cache().bypassed(), bypassed);
    // One worker serves every shard inline; more hand groups over.
    if (workers == 1) {
      EXPECT_EQ(handoffs.value(), handoffs_before);
    } else {
      EXPECT_GT(handoffs.value(), handoffs_before);
    }
    client.close();
    lfo_server.stop();
  }
}

TEST(ServerTelemetry, MetricsAndHealthzServeNextToTheCachePort) {
  const auto config = golden_config();
  server::LfoServerConfig sconfig;
  sconfig.workers = 2;
  sconfig.cache.capacity = config.cache_size;
  sconfig.cache.features = config.features;
  sconfig.cache.num_shards = 4;
  server::LfoServer lfo_server(sconfig);
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
  // A successful start() leaves last_error() empty even if telemetry
  // had trouble — telemetry failures go to telemetry_error() instead.
  EXPECT_TRUE(lfo_server.last_error().empty()) << lfo_server.last_error();
  ASSERT_NE(lfo_server.telemetry_port(), 0) << lfo_server.telemetry_error();

  const auto trace = golden_trace("web");
  server::LfoClient client;
  ASSERT_TRUE(client.connect(lfo_server.port()));
  std::vector<server::WireDecision> decisions;
  ASSERT_TRUE(client.exchange(trace.window(0, 2000), decisions));
  client.close();

  const auto metrics = parse_http_response(
      obs::fetch_local(lfo_server.telemetry_port(), "/metrics"));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("lfo_server_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("lfo_server_shards"), std::string::npos);

  const auto health = parse_http_response(
      obs::fetch_local(lfo_server.telemetry_port(), "/healthz"));
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200) << "bootstrap must serve as healthy";
  lfo_server.stop();
}

/// Text of the unlabelled sample `name` in a Prometheus exposition;
/// empty when the series is absent.
std::string prometheus_sample(const std::string& text,
                              const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + ' ', 0) == 0) return line.substr(name.size() + 1);
  }
  return {};
}

// The serving counts are read from the shard-local cache stats when
// /metrics is scraped, so after a quiescent replay through several
// shards and workers they equal the cache's own figures exactly.
TEST(ServerTelemetry, ScrapeTimeSeriesEqualCacheStats) {
  const auto trace = golden_trace("web");
  const auto config = golden_config();
  server::LfoServerConfig sconfig;
  sconfig.workers = 2;
  sconfig.cache.capacity = config.cache_size;
  sconfig.cache.features = config.features;
  sconfig.cache.num_shards = 4;
  server::LfoServer lfo_server(sconfig);
  lfo_server.cache().swap_model(golden_model(trace, config));
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
  ASSERT_NE(lfo_server.telemetry_port(), 0) << lfo_server.telemetry_error();

  // One connection per worker, each replaying half of the window that
  // follows the training window.
  constexpr std::size_t kStart = 5000;
  constexpr std::size_t kHalf = 5000;
  constexpr std::size_t kBatch = 500;
  std::atomic<bool> replayed{true};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      server::LfoClient client;
      std::vector<server::WireDecision> decisions;
      bool ok = client.connect(lfo_server.port());
      for (std::size_t off = 0; ok && off < kHalf; off += kBatch) {
        ok = client.exchange(trace.window(kStart + c * kHalf + off, kBatch),
                             decisions);
      }
      if (!ok) replayed.store(false);
    });
  }
  for (auto& client : clients) client.join();
  ASSERT_TRUE(replayed.load());

  const auto metrics = parse_http_response(
      obs::fetch_local(lfo_server.telemetry_port(), "/metrics"));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  testutil::validate_prometheus_text(metrics.body);

  const auto& cache = lfo_server.cache();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.requests, 2 * kHalf);
  EXPECT_GT(cache.bypassed(), 0u) << "the model never bypassed";
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"lfo_server_requests_total", stats.requests},
      {"lfo_server_hits_total", stats.hits},
      {"lfo_server_expired_hits_total", stats.expired_hits},
      {"lfo_server_bypassed_total", cache.bypassed()},
  };
  for (const auto& [name, value] : counters) {
    EXPECT_EQ(prometheus_sample(metrics.body, name), std::to_string(value))
        << name;
  }
  // The gauges, read at scrape time: the cache's byte occupancy, and one
  // tracked history per distinct object the clients sent.
  std::set<trace::ObjectId> distinct;
  for (const auto& r : trace.window(kStart, 2 * kHalf)) {
    distinct.insert(r.object);
  }
  EXPECT_EQ(cache.history_objects(), distinct.size());
  EXPECT_GT(cache.history_bytes(), 0u);
  const std::pair<const char*, std::uint64_t> gauges[] = {
      {"lfo_server_used_bytes", cache.used_bytes()},
      {"lfo_server_history_objects", cache.history_objects()},
      {"lfo_server_history_bytes", cache.history_bytes()},
  };
  for (const auto& [name, value] : gauges) {
    const auto sample = prometheus_sample(metrics.body, name);
    ASSERT_FALSE(sample.empty()) << name;
    EXPECT_EQ(std::stod(sample), static_cast<double>(value)) << name;
  }

  // /vars reads the same snapshot.
  const auto hits = parse_http_response(obs::fetch_local(
      lfo_server.telemetry_port(), "/vars?name=lfo_server_hits_total"));
  ASSERT_TRUE(hits.ok);
  EXPECT_EQ(hits.body, std::to_string(stats.hits) + "\n");
  lfo_server.stop();
}

/// A loopback connection that sends raw bytes, for frames LfoClient
/// never sends. Reads and writes time out after 5 s so a wedged server
/// fails the test rather than hanging it.
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port)
      : fd_(util::connect_loopback(port, 5.0)) {}
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Best effort: the server may close before it has read everything.
  void send(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  }
  void finish_sending() { ::shutdown(fd_, SHUT_WR); }

  /// Up to `size` bytes, fewer once the server closes or goes quiet.
  std::vector<std::uint8_t> receive(std::size_t size) {
    std::vector<std::uint8_t> bytes(size);
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::recv(fd_, bytes.data() + got, size - got, 0);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    bytes.resize(got);
    return bytes;
  }

  /// True once the server has closed the connection.
  bool closed_by_peer() {
    std::uint8_t byte = 0;
    const ssize_t n = ::recv(fd_, &byte, 1, 0);
    return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }

 private:
  int fd_;
};

template <typename T>
void append_bytes(std::vector<std::uint8_t>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

TEST(ServerProtocol, OversizedFrameIsCountedAndConnectionClosed) {
  server::LfoServerConfig sconfig;
  sconfig.workers = 1;
  sconfig.cache.capacity = 1ULL << 20;
  sconfig.cache.num_shards = 1;
  sconfig.telemetry = false;
  server::LfoServer lfo_server(sconfig);
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
  const auto& bad_frames = obs::MetricsRegistry::instance().counter(
      "lfo_server_bad_frames_total");
  const auto bad_before = bad_frames.value();

  // The count alone condemns the frame: the server closes before any
  // body arrives.
  RawConnection raw(lfo_server.port());
  ASSERT_TRUE(raw.connected());
  std::vector<std::uint8_t> header;
  append_bytes(header, server::kMaxBatch + 1);
  raw.send(header);
  EXPECT_TRUE(raw.closed_by_peer());
  EXPECT_EQ(bad_frames.value(), bad_before + 1);

  // The server survives the bad frame and serves a fresh connection.
  trace::GeneratorConfig gen;
  gen.num_requests = 8;
  gen.classes = {trace::web_class(32)};
  const auto trace = trace::generate_trace(gen);
  server::LfoClient client;
  std::vector<server::WireDecision> decisions;
  ASSERT_TRUE(client.connect(lfo_server.port()));
  ASSERT_TRUE(client.exchange(trace.window(0, 8), decisions));
  ASSERT_EQ(decisions.size(), 8u);
  lfo_server.stop();
}

// Regression (crash input): object id 2^64-1 used to make the history
// table write out of bounds, and 2^40 to allocate a 2^40-entry table.
// Every 64-bit id is now an ordinary id: a frame carrying both is served
// like any other, costs one history per new id, and is no bad frame.
TEST(ServerProtocol, ExtremeObjectIdsAreServed) {
  server::LfoServerConfig sconfig;
  sconfig.workers = 2;
  sconfig.cache.capacity = 1ULL << 20;
  sconfig.cache.num_shards = 8;
  sconfig.telemetry = false;
  server::LfoServer lfo_server(sconfig);
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
  const auto& cache = lfo_server.cache();

  trace::GeneratorConfig gen;
  gen.num_requests = 64;
  gen.classes = {trace::web_class(32)};
  const auto trace = trace::generate_trace(gen);
  std::vector<server::WireDecision> decisions;
  server::LfoClient healthy;
  ASSERT_TRUE(healthy.connect(lfo_server.port()));
  ASSERT_TRUE(healthy.exchange(trace.window(0, 32), decisions));

  const auto& bad_frames = obs::MetricsRegistry::instance().counter(
      "lfo_server_bad_frames_total");
  const auto bad_before = bad_frames.value();
  // Ids the healthy connection already sent, plus 2^40 and 2^64-1.
  const auto head = trace.window(0, 16);
  std::vector<trace::Request> frame(head.begin(), head.end());
  frame[5].object = trace::ObjectId{1} << 40;
  frame[11].object = std::numeric_limits<trace::ObjectId>::max();
  server::LfoClient client;
  ASSERT_TRUE(client.connect(lfo_server.port()));
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto objects_before = cache.history_objects();
    ASSERT_TRUE(client.exchange(frame, decisions));
    EXPECT_EQ(decisions.size(), frame.size());
    EXPECT_TRUE(client.connected());
    // Only the first round sends new ids.
    EXPECT_EQ(cache.history_objects(), objects_before + (round == 0 ? 2 : 0));
    // The other connection still gets decisions.
    ASSERT_TRUE(healthy.exchange(trace.window(32, 32), decisions));
    EXPECT_EQ(decisions.size(), 32u);
  }
  EXPECT_EQ(bad_frames.value(), bad_before);
  EXPECT_EQ(cache.stats().requests, 32u + 2 * (16u + 32u));
  lfo_server.stop();
}

// A record the trace readers reject (size 0, non-finite cost) is a bad
// frame on the wire too: the frame is refused before any of its requests
// reaches a shard, and only its connection closes.
TEST(ServerProtocol, InvalidRecordsAreRefusedBeforeAnyShardServesThem) {
  server::LfoServerConfig sconfig;
  sconfig.workers = 2;
  sconfig.cache.capacity = 1ULL << 20;
  sconfig.cache.num_shards = 4;
  sconfig.telemetry = false;
  server::LfoServer lfo_server(sconfig);
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();

  trace::GeneratorConfig gen;
  gen.num_requests = 32;
  gen.classes = {trace::web_class(16)};
  const auto trace = trace::generate_trace(gen);
  std::vector<server::WireDecision> decisions;
  server::LfoClient healthy;
  ASSERT_TRUE(healthy.connect(lfo_server.port()));
  ASSERT_TRUE(healthy.exchange(trace.window(0, 16), decisions));
  const auto served_before = lfo_server.cache().stats().requests;
  ASSERT_EQ(served_before, 16u);

  const auto& bad_frames = obs::MetricsRegistry::instance().counter(
      "lfo_server_bad_frames_total");
  const auto bad_before = bad_frames.value();
  auto zero_size = [](trace::Request& r) { r.size = 0; };
  auto nan_cost = [](trace::Request& r) {
    r.cost = std::numeric_limits<double>::quiet_NaN();
  };
  for (const auto corrupt : {+zero_size, +nan_cost}) {
    const auto head = trace.window(0, 8);
    std::vector<trace::Request> frame(head.begin(), head.end());
    corrupt(frame[5]);
    server::LfoClient attacker;
    ASSERT_TRUE(attacker.connect(lfo_server.port()));
    EXPECT_FALSE(attacker.exchange(frame, decisions));
    EXPECT_FALSE(attacker.connected());
    EXPECT_EQ(lfo_server.cache().stats().requests, served_before)
        << "a refused frame reached the cache";
  }
  EXPECT_EQ(bad_frames.value(), bad_before + 2);
  ASSERT_TRUE(healthy.exchange(trace.window(16, 16), decisions));
  EXPECT_EQ(decisions.size(), 16u);
  EXPECT_EQ(lfo_server.cache().stats().requests, served_before + 16);
  lfo_server.stop();
}

// Seeded random-frame fuzz over real sockets. Well-formed frames carry
// random ids (a small hot set, random 64-bit ids, 0, 2^40 and 2^64-1),
// sizes (up to beyond a shard's capacity), TTLs and costs; the rest are
// malformed: a count of 0 or above kMaxBatch, a frame cut short, or a
// record with size 0 or a negative or non-finite cost. Every well-formed
// frame gets one decision per request on its connection; every malformed
// one is counted and closes only its connection. The server survives,
// the merged stats count exactly the requests of the well-formed frames,
// and byte occupancy never exceeds capacity.
TEST(ServerProtocol, RandomFramesFuzz) {
  server::LfoServerConfig sconfig;
  sconfig.workers = 2;
  sconfig.cache.capacity = 1ULL << 20;
  sconfig.cache.num_shards = 8;
  sconfig.telemetry = false;
  server::LfoServer lfo_server(sconfig);
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
  const auto& bad_frames = obs::MetricsRegistry::instance().counter(
      "lfo_server_bad_frames_total");
  const auto bad_before = bad_frames.value();

  util::Rng rng(20240917);
  constexpr trace::ObjectId kExtremes[] = {
      0, trace::ObjectId{1} << 40, std::numeric_limits<trace::ObjectId>::max()};
  auto random_request = [&] {
    server::WireRequest r{};
    const double pick = rng.uniform01();
    r.object = pick < 0.6   ? rng.uniform(64)
               : pick < 0.9 ? rng.next()
                            : kExtremes[rng.uniform(3)];
    r.size = 1 + rng.uniform(rng.bernoulli(0.1) ? 1ULL << 20 : 1ULL << 14);
    r.ttl = rng.bernoulli(0.3) ? rng.uniform(200) : 0;
    r.cost = rng.uniform_real(0.0, 1e6);
    return r;
  };
  constexpr double kBadCosts[] = {-1.0,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity()};

  constexpr std::uint32_t kLargestFrame = 64;
  std::uint64_t accepted = 0, malformed = 0;
  auto connection = std::make_unique<RawConnection>(lfo_server.port());
  for (int frame = 0; frame < 400; ++frame) {
    SCOPED_TRACE("frame " + std::to_string(frame));
    ASSERT_TRUE(connection->connected());
    std::uint32_t count =
        1 + static_cast<std::uint32_t>(rng.uniform(kLargestFrame));
    std::vector<server::WireRequest> records(count);
    for (auto& r : records) r = random_request();
    const double kind = rng.uniform01();
    std::vector<std::uint8_t> bytes;
    bool bad = true;
    bool truncated = false;
    if (kind < 0.05) {
      const auto excess = static_cast<std::uint32_t>(rng.uniform(1000));
      count = rng.bernoulli(0.5) ? 0 : server::kMaxBatch + 1 + excess;
    } else if (kind < 0.10) {
      truncated = true;
    } else if (kind < 0.15) {
      auto& victim = records[rng.uniform(count)];
      if (rng.bernoulli(0.25)) {
        victim.size = 0;
      } else {
        victim.cost = kBadCosts[rng.uniform(3)];
      }
    } else {
      bad = false;
    }
    append_bytes(bytes, count);
    for (const auto& r : records) append_bytes(bytes, r);
    if (truncated) bytes.resize(bytes.size() - 1 - rng.uniform(32));
    connection->send(bytes);
    if (truncated) connection->finish_sending();

    if (bad) {
      EXPECT_TRUE(connection->closed_by_peer());
      connection = std::make_unique<RawConnection>(lfo_server.port());
      ++malformed;
      continue;
    }
    const auto reply = connection->receive(sizeof(count) + count);
    ASSERT_EQ(reply.size(), sizeof(count) + count);
    std::uint32_t reply_count = 0;
    std::memcpy(&reply_count, reply.data(), sizeof(reply_count));
    EXPECT_EQ(reply_count, count);
    for (std::size_t i = sizeof(count); i < reply.size(); ++i) {
      EXPECT_LE(reply[i], 2u) << "decision byte " << i;
    }
    accepted += count;
  }
  connection.reset();
  EXPECT_GT(malformed, 20u);
  EXPECT_EQ(bad_frames.value(), bad_before + malformed);

  // Still serving, and the accounting balances.
  server::LfoClient client;
  ASSERT_TRUE(client.connect(lfo_server.port()));
  trace::GeneratorConfig gen;
  gen.num_requests = 32;
  gen.classes = {trace::web_class(16)};
  const auto trace = trace::generate_trace(gen);
  std::vector<server::WireDecision> decisions;
  ASSERT_TRUE(client.exchange(trace.window(0, 32), decisions));
  accepted += 32;
  const auto& cache = lfo_server.cache();
  EXPECT_EQ(cache.stats().requests, accepted);
  EXPECT_LE(cache.used_bytes(), cache.capacity());
  lfo_server.stop();
}

// stop() joins promptly with an idle connection parked: the owner
// holding it waits in epoll on that connection and on its eventfd, and
// stop() wakes it through the eventfd instead of waiting for the peer.
// Short-lived connections go round the owners first.
TEST(ServerShutdown, StopJoinsPromptlyWithAnIdleConnectionParked) {
  server::LfoServerConfig sconfig;
  sconfig.workers = 4;
  sconfig.cache.capacity = 1ULL << 20;
  sconfig.cache.num_shards = 2;
  sconfig.telemetry = false;
  server::LfoServer lfo_server(sconfig);
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();

  trace::GeneratorConfig gen;
  gen.num_requests = 32;
  gen.classes = {trace::web_class(16)};
  const auto trace = trace::generate_trace(gen);
  std::vector<server::WireDecision> decisions;
  // Several short-lived connections, one to each owner in turn.
  for (int round = 0; round < 4; ++round) {
    server::LfoClient client;
    ASSERT_TRUE(client.connect(lfo_server.port()));
    ASSERT_TRUE(client.exchange(trace.window(0, trace.size()), decisions));
  }
  // One more connection left open across stop(): its owner must leave
  // its loop on the stop flag, not wait for the peer.
  server::LfoClient parked;
  ASSERT_TRUE(parked.connect(lfo_server.port()));
  const auto t0 = std::chrono::steady_clock::now();
  lfo_server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(lfo_server.running());
  EXPECT_LT(elapsed, std::chrono::seconds(10)) << "stop() stalled on a worker";
}

// stop() while every worker is mid-traffic: frames are in flight between
// owners, and a worker must not leave while another still waits on a
// group it posted — nor may stop() wait on the peers.
TEST(ServerShutdown, StopMidTrafficJoinsWithinTheIoTimeout) {
  server::LfoServerConfig sconfig;
  sconfig.workers = 4;
  sconfig.cache.capacity = 4ULL << 20;
  sconfig.cache.num_shards = 8;
  sconfig.io_timeout_seconds = 1.0;
  sconfig.telemetry = false;
  server::LfoServer lfo_server(sconfig);
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();

  const auto trace = golden_trace("web");
  constexpr std::size_t kBatch = 256;
  std::atomic<std::uint64_t> frames{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      server::LfoClient client;
      std::vector<server::WireDecision> decisions;
      if (!client.connect(lfo_server.port())) return;
      for (std::size_t offset = c * kBatch;; offset += kBatch) {
        offset %= trace.size() - kBatch;
        if (!client.exchange(trace.window(offset, kBatch), decisions)) return;
        frames.fetch_add(1);
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (frames.load() < 200 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(frames.load(), 200u) << "traffic never got going";
  const auto t0 = std::chrono::steady_clock::now();
  lfo_server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  for (auto& client : clients) client.join();
  EXPECT_FALSE(lfo_server.running());
  EXPECT_LT(elapsed, std::chrono::duration<double>(sconfig.io_timeout_seconds))
      << "stop() stalled on a worker";
}

// ------------------------------------------------ held sockets

server::LfoServerConfig held_config(std::uint32_t workers,
                                    double io_timeout_seconds) {
  server::LfoServerConfig sconfig;
  sconfig.workers = workers;
  sconfig.cache.capacity = 1ULL << 20;
  sconfig.cache.num_shards = 8;
  sconfig.io_timeout_seconds = io_timeout_seconds;
  sconfig.telemetry = false;
  return sconfig;
}

trace::Trace held_trace() {
  trace::GeneratorConfig gen;
  gen.num_requests = 64;
  gen.classes = {trace::web_class(32)};
  return trace::generate_trace(gen);
}

/// The first `bytes` bytes of a well-formed frame of `count` requests.
std::vector<std::uint8_t> partial_frame(std::uint32_t count,
                                        std::size_t bytes) {
  std::vector<std::uint8_t> frame;
  append_bytes(frame, count);
  frame.resize(sizeof(count) + count * sizeof(server::WireRequest), 1);
  frame.resize(bytes);
  return frame;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Regression (W held sockets took the port down): a worker used to be
// its one connection and waited on an idle or half-sent frame with no
// deadline, so W sockets that sent nothing, or 2 bytes of a header, left
// no worker for anyone else. Each owner now runs one event loop over all
// its connections, so the exchange does not wait for any frame deadline.
TEST(ServerHeldSockets, WellBehavedClientIsServedPastSilentAndPartialSockets) {
  const auto trace = held_trace();
  for (const std::uint32_t workers : {1u, 2u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const auto sconfig = held_config(workers, 1.0);
    server::LfoServer lfo_server(sconfig);
    ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
    std::vector<std::unique_ptr<RawConnection>> held;
    for (std::uint32_t i = 0; i < 8 * workers; ++i) {
      held.push_back(std::make_unique<RawConnection>(lfo_server.port()));
      ASSERT_TRUE(held.back()->connected());
      if (i % 2 == 1) held.back()->send(partial_frame(4, 2));
    }
    const auto t0 = std::chrono::steady_clock::now();
    server::LfoClient client;
    std::vector<server::WireDecision> decisions;
    ASSERT_TRUE(client.connect(lfo_server.port()));
    ASSERT_TRUE(client.exchange(trace.window(0, 32), decisions));
    EXPECT_LT(seconds_since(t0), sconfig.io_timeout_seconds);
    EXPECT_EQ(decisions.size(), 32u);
    lfo_server.stop();
  }
}

// Once a frame's first byte arrives, its header and body must arrive
// within io_timeout_seconds: a partial header and a partial body are
// each cut off then, and each is a bad frame.
TEST(ServerHeldSockets, PartialFramesAreClosedAtTheFrameDeadline) {
  const auto& bad_frames = obs::MetricsRegistry::instance().counter(
      "lfo_server_bad_frames_total");
  for (const std::uint32_t workers : {1u, 2u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const auto sconfig = held_config(workers, 0.5);
    server::LfoServer lfo_server(sconfig);
    ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
    const auto bad_before = bad_frames.value();
    RawConnection partial_header(lfo_server.port());
    RawConnection partial_body(lfo_server.port());
    ASSERT_TRUE(partial_header.connected() && partial_body.connected());
    const auto t0 = std::chrono::steady_clock::now();
    partial_header.send(partial_frame(4, 2));
    partial_body.send(partial_frame(4, 4 + 40));
    for (RawConnection* conn : {&partial_header, &partial_body}) {
      EXPECT_TRUE(conn->closed_by_peer());
      const double elapsed = seconds_since(t0);
      EXPECT_GE(elapsed, 0.9 * sconfig.io_timeout_seconds);
      EXPECT_LT(elapsed, sconfig.io_timeout_seconds + 1.0);
    }
    EXPECT_EQ(bad_frames.value(), bad_before + 2);
    lfo_server.stop();
  }
}

// The deadline starts with a frame's first byte: a connection may sit
// idle between frames for longer than io_timeout_seconds.
TEST(ServerHeldSockets, IdleTimeBetweenFramesIsAllowed) {
  const auto trace = held_trace();
  const auto& bad_frames = obs::MetricsRegistry::instance().counter(
      "lfo_server_bad_frames_total");
  for (const std::uint32_t workers : {1u, 2u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const auto sconfig = held_config(workers, 0.2);
    server::LfoServer lfo_server(sconfig);
    ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
    const auto bad_before = bad_frames.value();
    server::LfoClient client;
    std::vector<server::WireDecision> decisions;
    ASSERT_TRUE(client.connect(lfo_server.port()));
    ASSERT_TRUE(client.exchange(trace.window(0, 32), decisions));
    std::this_thread::sleep_for(std::chrono::duration<double>(
        2.5 * sconfig.io_timeout_seconds));
    ASSERT_TRUE(client.exchange(trace.window(32, 32), decisions));
    EXPECT_EQ(decisions.size(), 32u);
    EXPECT_EQ(bad_frames.value(), bad_before);
    lfo_server.stop();
  }
}

// Past kMaxConnectionsPerOwner, each new connection closes its owner's
// longest-idle one, so silent sockets cannot lock a fresh client out.
TEST(ServerHeldSockets, ConnectionsPastTheCapShedTheLongestIdle) {
  const auto& shed = obs::MetricsRegistry::instance().counter(
      "lfo_server_shed_connections_total");
  const auto shed_before = shed.value();
  server::LfoServer lfo_server(held_config(1, 0.5));
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
  constexpr std::uint32_t kExtra = 4;
  std::vector<std::unique_ptr<RawConnection>> silent;
  for (std::uint32_t i = 0; i < server::kMaxConnectionsPerOwner + kExtra;
       ++i) {
    silent.push_back(std::make_unique<RawConnection>(lfo_server.port()));
    ASSERT_TRUE(silent.back()->connected());
  }
  const auto trace = held_trace();
  server::LfoClient client;
  std::vector<server::WireDecision> decisions;
  ASSERT_TRUE(client.connect(lfo_server.port()));
  ASSERT_TRUE(client.exchange(trace.window(0, 32), decisions));
  // The extra silent sockets and the client each shed one, oldest first.
  EXPECT_EQ(shed.value(), shed_before + kExtra + 1);
  for (std::uint32_t i = 0; i <= kExtra; ++i) {
    EXPECT_TRUE(silent[i]->closed_by_peer()) << "silent socket " << i;
  }
  lfo_server.stop();
}

// Round-robin accept: connection k goes to owner k mod W, so W owners
// hold W x kMaxConnectionsPerOwner connections before any is shed. Were
// every accept to go to one owner, connection kMaxConnectionsPerOwner + 1
// would already shed one.
TEST(ServerHeldSockets, AcceptsAreSpreadRoundRobinOverTheOwners) {
  auto& registry = obs::MetricsRegistry::instance();
  const auto& shed = registry.counter("lfo_server_shed_connections_total");
  const auto& accepted = registry.counter("lfo_server_connections_total");
  constexpr std::uint32_t kWorkers = 2;
  server::LfoServer lfo_server(held_config(kWorkers, 0.5));
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
  const auto shed_before = shed.value();
  const auto accepted_before = accepted.value();
  // Accepts run on the owner threads: wait until they have counted n.
  const auto await_accepted = [&](std::uint64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (accepted.value() < accepted_before + n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return accepted.value() == accepted_before + n;
  };
  constexpr std::uint32_t kRoom = kWorkers * server::kMaxConnectionsPerOwner;
  std::vector<std::unique_ptr<RawConnection>> silent;
  for (std::uint32_t i = 0; i <= kRoom; ++i) {
    silent.push_back(std::make_unique<RawConnection>(lfo_server.port()));
    ASSERT_TRUE(silent.back()->connected()) << "socket " << i;
    if (i + 1 == kRoom) {
      ASSERT_TRUE(await_accepted(kRoom));
      EXPECT_EQ(shed.value(), shed_before) << "a full owner shed early";
    }
  }
  ASSERT_TRUE(await_accepted(kRoom + 1));
  EXPECT_EQ(shed.value(), shed_before + 1);
  lfo_server.stop();
}

// Regression (accept spin): out of descriptors, accept4 fails and leaves
// the connection queued, and the owner used to re-arm the listening
// socket for itself at once and spin. With no connection to shed it now
// backs off, so the failures stay few, and the client is served once a
// descriptor frees.
TEST(ServerHeldSockets, AcceptBacksOffWhileOutOfDescriptors) {
  const auto& errors = obs::MetricsRegistry::instance().counter(
      "lfo_server_accept_errors_total");
  server::LfoServer lfo_server(held_config(1, 0.5));
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
  const auto trace = held_trace();
  server::LfoClient client;
  std::vector<server::WireDecision> decisions;
  {
    testutil::DescriptorExhaustion exhausted(256);
    ASSERT_GE(exhausted.held(), 2u);
    exhausted.release_one();  // for the client's own socket
    const auto errors_before = errors.value();
    ASSERT_TRUE(client.connect(lfo_server.port()));
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const auto failed = errors.value() - errors_before;
    EXPECT_GE(failed, 1u);
    EXPECT_LE(failed, 25u) << "the owner spun on accept";
    exhausted.release_one();  // for the server's end
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.exchange(trace.window(0, 32), decisions));
    EXPECT_LT(seconds_since(t0), 0.5);
  }
  EXPECT_EQ(decisions.size(), 32u);
  lfo_server.stop();
}

// Out of descriptors with a connection to spare, the owner sheds its
// longest-idle connection and accepts into the freed descriptor at once.
TEST(ServerHeldSockets, AcceptShedsTheLongestIdleWhenOutOfDescriptors) {
  auto& registry = obs::MetricsRegistry::instance();
  const auto& errors = registry.counter("lfo_server_accept_errors_total");
  const auto& shed = registry.counter("lfo_server_shed_connections_total");
  server::LfoServer lfo_server(held_config(1, 0.5));
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();
  const auto trace = held_trace();
  RawConnection idle(lfo_server.port());
  server::LfoClient warm;
  std::vector<server::WireDecision> decisions;
  ASSERT_TRUE(warm.connect(lfo_server.port()));
  ASSERT_TRUE(warm.exchange(trace.window(0, 32), decisions));  // both held
  {
    testutil::DescriptorExhaustion exhausted(256);
    ASSERT_GE(exhausted.held(), 1u);
    exhausted.release_one();
    const auto errors_before = errors.value();
    const auto shed_before = shed.value();
    server::LfoClient client;
    ASSERT_TRUE(client.connect(lfo_server.port()));
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.exchange(trace.window(32, 32), decisions));
    EXPECT_LT(seconds_since(t0), 0.5);
    EXPECT_EQ(errors.value(), errors_before + 1);
    EXPECT_EQ(shed.value(), shed_before + 1);
    EXPECT_TRUE(idle.closed_by_peer());
  }
  ASSERT_TRUE(warm.exchange(trace.window(0, 32), decisions));
  lfo_server.stop();
}

// Regression (unbounded client read): a server that accepts the TCP
// handshake but never replies must not hang exchange() — SO_RCVTIMEO
// from connect(timeout_seconds) is a hard deadline on the client side,
// not a retry hint.
TEST(ClientTimeout, ExchangeFailsWhenServerNeverReplies) {
  // A bare listening socket: the kernel completes the handshake and
  // buffers the request frame, but nothing ever accepts or responds.
  std::uint16_t port = 0;
  std::string error;
  const int fd = util::listen_loopback(port, 4, error);
  ASSERT_GE(fd, 0) << error;

  trace::GeneratorConfig gen;
  gen.num_requests = 4;
  gen.classes = {trace::web_class(8)};
  const auto trace = trace::generate_trace(gen);

  server::LfoClient client;
  ASSERT_TRUE(client.connect(port, /*timeout_seconds=*/0.25));
  std::vector<server::WireDecision> decisions;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.exchange(trace.window(0, trace.size()), decisions));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "timeout never fired";
  EXPECT_FALSE(client.connected());
  ::close(fd);
}

// ------------------------------------------------ concurrency stress

// TSan target (ctest -L stress under the tsan preset): hammer the
// sharded cache from several threads with mixed admit/hit/expire
// traffic while a coordinator swaps the model in and out mid-flight.
TEST(ShardedStress, ConcurrentMixedTrafficBalancesAccounting) {
  const auto config = golden_config();
  server::ShardedCacheConfig sconfig;
  sconfig.capacity = 4ULL << 20;
  sconfig.features = config.features;
  sconfig.num_shards = 8;
  server::ShardedLfoCache cache(sconfig);

  const auto trace = golden_trace("web");
  const auto model = golden_model(trace, config);

  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      trace::GeneratorConfig gen;
      gen.seed = 500 + t;  // distinct streams, overlapping object space
      gen.num_requests = kPerThread;
      gen.classes = {trace::web_class(1000)};
      const auto thread_trace = trace::generate_trace(gen);
      std::uint64_t local_hits = 0;
      std::uint64_t i = 0;
      for (const auto& request : thread_trace.requests()) {
        auto shaped = request;
        shaped.ttl = 1 + i % 97;  // short TTLs force expiry churn
        if (cache.access(shaped).hit) ++local_hits;
        ++i;
      }
      hits.fetch_add(local_hits, std::memory_order_relaxed);
    });
  }
  // Model churn while traffic is in flight: swap in, clear, swap again.
  std::thread swapper([&] {
    for (int round = 0; round < 20; ++round) {
      cache.swap_model(model);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      cache.swap_model(nullptr);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& w : workers) w.join();
  swapper.join();

  const auto merged = cache.stats();
  EXPECT_EQ(merged.requests, kThreads * kPerThread);
  EXPECT_EQ(merged.hits, hits.load());
  EXPECT_LE(merged.hits, merged.requests);
  EXPECT_LE(cache.used_bytes(), cache.capacity());
  cache.clear();
  EXPECT_EQ(cache.used_bytes(), 0u);
}

}  // namespace
