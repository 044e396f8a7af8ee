// Server scaling: aggregate requests/second of the lfo::server front end
// at 1, 2 and 4 workers, with a trained model installed — the
// server-level counterpart of bench_fig7's predictor thread sweep.
//
// Each sweep point brings up a fresh server, serves the training window
// (the pipeline's window size, core::WindowedConfig::window_size, capped
// at a quarter of --requests) in bootstrap mode over one connection,
// installs the model trained on that window through install_candidate
// (as lfo_bench does), and then times one closed-loop client per worker,
// each replaying a disjoint contiguous block of the rest of the standard
// trace in --batch-request frames. So the timed path is the deployed
// one: socket framing, shard grouping and hand-off between shard owners,
// history update, feature extraction, prediction and admission.
//
// Per-worker ns/req is workers / aggregate req/s. The 2-worker minus
// 1-worker figure is what a second connection costs each worker on top of
// serving alone (target <= 200 ns); the 1- and 2-thread spin calibration
// beside it says whether the host had two free cores during the run.
// Worker counts are swept three times in turn and each point reports
// its median, min and max.
//
// Output: CSV "workers,reqs_per_sec,reqs_per_sec_min,reqs_per_sec_max,
// ns_per_req_per_worker,hit_fraction" plus BENCH_server.json via --json
// (tools/run_bench.sh --server). The >=3x 1->4-worker scaling gate arms
// only when the host has enough cores for 4 workers plus 4 clients; on
// smaller boxes the curve is advisory.
//
// --linger=SECONDS turns the binary into the smoke-test server for
// tools/server_smoke.sh: it prints the serving and telemetry ports,
// drives one bootstrap-mode client pass, keeps the telemetry endpoints up
// for the linger window, then shuts down cleanly and exits 0.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/lfo_model.hpp"
#include "core/rollout.hpp"
#include "core/windowed.hpp"
#include "server/server.hpp"
#include "util/csv.hpp"

using namespace lfo;

namespace {

struct ClientResult {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  bool ok = true;
};

/// Closed-loop replay of trace block [begin, begin+len) against `port`,
/// one frame in flight at a time.
ClientResult run_client(std::uint16_t port, const trace::Trace& trace,
                        std::size_t begin, std::size_t len,
                        std::size_t batch) {
  ClientResult result;
  server::LfoClient client;
  if (!client.connect(port)) {
    result.ok = false;
    return result;
  }
  std::vector<server::WireDecision> decisions;
  for (std::size_t offset = begin; offset < begin + len; offset += batch) {
    const auto n = std::min(batch, begin + len - offset);
    if (!client.exchange(trace.window(offset, n), decisions)) {
      result.ok = false;
      return result;
    }
    result.requests += n;
    for (const auto d : decisions) {
      result.hits += d == server::WireDecision::kHit ? 1 : 0;
    }
  }
  return result;
}

struct SweepPoint {
  double reqs_per_sec = 0.0;
  double hit_fraction = 0.0;
  bool ok = true;
};

SweepPoint run_sweep_point(const trace::Trace& trace,
                           const server::ShardedCacheConfig& cache,
                           const core::TrainResult& trained,
                           std::size_t window, unsigned workers,
                           std::size_t batch) {
  server::LfoServerConfig config;
  config.workers = workers;
  config.cache = cache;
  config.telemetry = false;  // isolate the serving path in the sweep
  server::LfoServer server(config);
  SweepPoint point;
  if (!server.start()) {
    std::cerr << "bench_server: " << server.last_error() << '\n';
    point.ok = false;
    return point;
  }
  // Untimed: the training window in bootstrap mode, then the model.
  point.ok = run_client(server.port(), trace, 0, window, batch).ok;
  server.cache().install_candidate(trained.candidate, trained.model);
  if (!server.cache().has_model() ||
      server.cache().rollout_state() != core::RolloutState::kServing) {
    std::cerr << "bench_server: the rollout guard refused the model\n";
    point.ok = false;
  }
  if (!point.ok) return point;

  const std::size_t served = trace.size() - window;
  const std::size_t per_client = served / workers;
  std::vector<ClientResult> results(workers);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(workers);
  for (unsigned c = 0; c < workers; ++c) {
    clients.emplace_back([&, c] {
      const std::size_t begin = window + c * per_client;
      const std::size_t len =
          c + 1 == workers ? trace.size() - begin : per_client;
      results[c] = run_client(server.port(), trace, begin, len, batch);
    });
  }
  for (auto& t : clients) t.join();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  server.stop();

  std::uint64_t requests = 0, hits = 0;
  for (const auto& r : results) {
    point.ok &= r.ok;
    requests += r.requests;
    hits += r.hits;
  }
  point.reqs_per_sec = static_cast<double>(requests) / secs;
  point.hit_fraction =
      requests ? static_cast<double>(hits) / static_cast<double>(requests)
               : 0.0;
  return point;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0.0 : xs[xs.size() / 2];
}

// spin, HostCalibration and calibrate_host mirror the host calibration of
// lfo_bench/lfo_bench.cpp, so the two benches report the same figure;
// change them together.

/// A pure-ALU spin: one core's integer throughput, no memory traffic.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t x) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

struct HostCalibration {
  double spin_ns = 0.0;     ///< ns per spin iteration, one thread
  double scaling_2t = 0.0;  ///< 2-thread aggregate rate / 1-thread rate
};

/// Median of three single-thread and two-thread spins. A scaling well
/// under 2 means another tenant held a core, and the 2-worker figures of
/// the run should be read with that in mind.
HostCalibration calibrate_host() {
  constexpr std::uint64_t kIterations = 20'000'000;
  using Clock = std::chrono::steady_clock;
  auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  std::vector<double> one, two;
  std::uint64_t sink[2] = {1, 2};
  for (int rep = 0; rep < 3; ++rep) {
    auto t = Clock::now();
    sink[0] = spin(kIterations, sink[0] | 1);
    one.push_back(since(t));
    t = Clock::now();
    std::thread other([&sink] { sink[1] = spin(kIterations, sink[1] | 1); });
    sink[0] = spin(kIterations, sink[0] | 1);
    other.join();
    two.push_back(since(t));
  }
  if ((sink[0] ^ sink[1]) == 42) std::cerr << "";  // keep the spins live
  const double t1 = median(one), t2 = median(two);
  return {t1 * 1e9 / static_cast<double>(kIterations), 2.0 * t1 / t2};
}

/// tools/server_smoke.sh mode: serve with telemetry mounted, replay the
/// trace once, hold the endpoints open for `linger` seconds, stop.
int run_linger(const trace::Trace& trace,
               const server::ShardedCacheConfig& cache, double linger,
               std::size_t batch) {
  server::LfoServerConfig config;
  config.workers = 2;
  config.cache = cache;
  server::LfoServer server(config);
  if (!server.start()) {
    std::cerr << "bench_server: " << server.last_error() << '\n';
    return 1;
  }
  // Load-bearing format: tools/server_smoke.sh seds these ports out.
  std::cout << "server: listening on 127.0.0.1:" << server.port() << '\n';
  std::cout << "telemetry: listening on 127.0.0.1:" << server.telemetry_port()
            << '\n'
            << std::flush;
  const auto driven = run_client(server.port(), trace, 0, trace.size(), batch);
  if (!driven.ok) {
    std::cerr << "bench_server: client replay failed\n";
    server.stop();
    return 1;
  }
  std::cout << "served " << driven.requests << " requests, " << driven.hits
            << " hits\n"
            << std::flush;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(linger);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  std::cout << "server: clean shutdown\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {{"requests", "200000"},
                                {"seed", "1"},
                                {"batch", "512"},
                                {"max-workers", "4"},
                                {"num-shards", "8"},
                                {"cache-fraction", "0.05"},
                                {"scaling-gate-cores", "8"},
                                {"linger", "0"}});
  std::cout << "# Server scaling: aggregate reqs/s vs worker threads, "
               "trained model installed\n";
  args.print(std::cout);

  const auto trace =
      bench::standard_trace(args.get_u64("requests"), args.get_u64("seed"));
  const auto cache_size =
      bench::scaled_cache_size(trace, args.get_double("cache-fraction"));
  const auto lfo_config = bench::standard_lfo_config(cache_size);

  server::ShardedCacheConfig cache;
  cache.capacity = cache_size;
  cache.num_shards =
      static_cast<std::uint32_t>(std::max<std::uint64_t>(
          1, args.get_u64("num-shards")));
  cache.features = lfo_config.features;
  cache.cutoff = lfo_config.cutoff;

  const auto batch = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, args.get_u64("batch")));

  if (const double linger = args.get_double("linger"); linger > 0.0) {
    return run_linger(trace, cache, linger, batch);
  }

  const std::size_t window =
      std::min(core::WindowedConfig{}.window_size, trace.size() / 4);
  if (window == 0) {
    std::cerr << "bench_server: --requests is too small to train a model\n";
    return 2;
  }
  const auto max_workers = static_cast<unsigned>(args.get_u64("max-workers"));
  const auto hw = std::max(1u, std::thread::hardware_concurrency());
  const auto host = calibrate_host();
  std::cout << "# hardware_concurrency=" << hw
            << " num_shards=" << cache.num_shards << " host spin "
            << host.spin_ns << " ns/iter, 1->2 thread scaling "
            << host.scaling_2t << "\n";
  const auto trained =
      core::train_on_window(trace.window(0, window), lfo_config);
  std::cout << "# model trained on requests [0, " << window
            << "): train accuracy " << trained.candidate.train_accuracy
            << '\n';

  // Worker counts in turn, kRepeats times, so every point sees the same
  // spells of host interference.
  constexpr std::uint64_t kRepeats = 3;
  std::vector<unsigned> counts;
  for (unsigned workers = 1; workers <= max_workers; workers *= 2) {
    counts.push_back(workers);
  }
  std::vector<std::vector<double>> rates(counts.size());
  std::vector<double> hit_fraction(counts.size());
  bool all_ok = true;
  for (std::uint64_t rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const auto point =
          run_sweep_point(trace, cache, trained, window, counts[i], batch);
      all_ok &= point.ok;
      rates[i].push_back(point.reqs_per_sec);
      hit_fraction[i] = point.hit_fraction;
    }
  }

  util::CsvWriter csv(std::cout);
  csv.header({"workers", "reqs_per_sec", "reqs_per_sec_min",
              "reqs_per_sec_max", "ns_per_req_per_worker", "hit_fraction"});
  std::vector<double> rps(counts.size()), ns_per_req(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    rps[i] = median(rates[i]);
    ns_per_req[i] = rps[i] > 0.0 ? counts[i] * 1e9 / rps[i] : 0.0;
    csv.field(counts[i])
        .field(rps[i])
        .field(*std::min_element(rates[i].begin(), rates[i].end()))
        .field(*std::max_element(rates[i].begin(), rates[i].end()))
        .field(ns_per_req[i])
        .field(hit_fraction[i])
        .end_row();
  }
  auto at = [&](const std::vector<double>& v, unsigned workers) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == workers) return v[i];
    }
    return 0.0;
  };
  const double w1 = at(rps, 1), w4 = at(rps, 4);
  const double scaling = w1 > 0.0 && w4 > 0.0 ? w4 / w1 : 0.0;
  const bool has_w2 = at(rps, 2) > 0.0;
  const double contention = at(ns_per_req, 2) - at(ns_per_req, 1);
  if (has_w2) {
    std::cout << "# 2-worker minus 1-worker ns/req per worker: " << contention
              << " ns (target <= 200 ns; host 1->2 thread spin scaling "
              << host.scaling_2t << ")\n";
  }
  // 4 server workers + 4 closed-loop clients all need their own core
  // for the scaling claim to be physically measurable; under that the
  // curve only documents behaviour on an oversubscribed box.
  const auto gate_cores = args.get_u64("scaling-gate-cores");
  const bool gate_armed = hw >= gate_cores;
  std::cout << "# 1->4 worker scaling " << scaling << "x (gate >=3x "
            << (gate_armed ? "armed" : "advisory: needs ")
            << (gate_armed ? "" : std::to_string(gate_cores) + " cores")
            << ", hardware_concurrency=" << hw << ")\n"
            << "# expected shape: near-linear to the physical core count "
               "(paper: ~linear to 44 threads)\n";

  if (const auto json_path = args.json_path(); !json_path.empty()) {
    bench::JsonDoc doc;
    doc.set("bench", "server_scaling")
        .set("git_revision", bench::git_revision())
        .set("seed", args.get_u64("seed"))
        .set("requests", args.get_u64("requests"))
        .set("train_window", static_cast<std::uint64_t>(window))
        .set("model_installed", true)
        .set("repeats", kRepeats)
        .set("batch", static_cast<std::uint64_t>(batch))
        .set("num_shards", static_cast<std::uint64_t>(cache.num_shards))
        .set("hardware_concurrency", static_cast<std::uint64_t>(hw))
        .set("host_spin_ns_per_iter", host.spin_ns)
        .set("host_spin_scaling_2t", host.scaling_2t);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const auto w = "_w" + std::to_string(counts[i]);
      doc.set("server_reqs_per_sec" + w, rps[i]);
      doc.set("server_ns_per_req_per_worker" + w, ns_per_req[i]);
      doc.set("server_hit_fraction" + w, hit_fraction[i]);
    }
    if (has_w2) doc.set("contention_ns_per_req_w2", contention);
    doc.set("scaling_w1_to_w4", scaling)
        .set("scaling_gate_armed", gate_armed)
        .set("clients_ok", all_ok);
    doc.write_file(json_path);
    std::cout << "# wrote " << json_path << '\n';
  }

  if (!all_ok) {
    std::cout << "# GATE FAILED: a client replay hit a socket error or the "
                 "model was not installed\n";
    return 1;
  }
  if (gate_armed && scaling < 3.0) {
    std::cout << "# GATE FAILED: 1->4 worker scaling " << scaling
              << "x below 3x on a " << hw << "-core host\n";
    return 1;
  }
  return 0;
}
