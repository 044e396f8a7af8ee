// Server scaling: aggregate requests/second of the lfo::server front end
// as a function of worker threads — the server-level counterpart of
// bench_fig7's predictor thread sweep. One closed-loop client per worker
// replays a disjoint contiguous block of the standard trace in batches.
//
// No model is ever installed, so every request takes the bootstrap
// admit-all path: the curve covers socket framing, the shard hash, the
// striped lock and the cache bookkeeping, but no feature extraction and
// no prediction. It cannot back a claim about serving with a trained
// model; `python3 lfo_bench/run.py` is the benchmark that does (a
// trained model installed, per-layer ledger included).
//
// Output: CSV "workers,reqs_per_sec,per_worker_reqs_per_sec,hit_fraction"
// plus BENCH_server.json via --json (tools/run_bench.sh --server). The
// >=3x 1->4-worker scaling gate arms only when the host has enough
// physical cores for 4 workers plus 4 clients; on smaller boxes the
// curve is reported as advisory (absolute scaling is bounded by the
// available cores, exactly as in bench_fig7).
//
// --linger=SECONDS turns the binary into the smoke-test server for
// tools/server_smoke.sh: it prints the serving and telemetry ports,
// drives one client pass, keeps the telemetry endpoints up for the
// linger window, then shuts down cleanly and exits 0.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
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
                           unsigned workers, std::size_t batch) {
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
  const std::size_t per_client = trace.size() / workers;
  std::vector<ClientResult> results(workers);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(workers);
  for (unsigned c = 0; c < workers; ++c) {
    clients.emplace_back([&, c] {
      const std::size_t begin = c * per_client;
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
  bench::Args args(argc, argv, {{"requests", "100000"},
                                {"seed", "1"},
                                {"batch", "512"},
                                {"max-workers", "8"},
                                {"num-shards", "8"},
                                {"cache-fraction", "0.05"},
                                {"scaling-gate-cores", "8"},
                                {"linger", "0"}});
  std::cout << "# Server scaling: aggregate reqs/s vs worker threads\n";
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

  const auto hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "# hardware_concurrency=" << hw
            << " num_shards=" << cache.num_shards << '\n';

  util::CsvWriter csv(std::cout);
  csv.header({"workers", "reqs_per_sec", "per_worker_reqs_per_sec",
              "hit_fraction"});
  std::vector<std::pair<unsigned, SweepPoint>> points;
  bool all_ok = true;
  for (unsigned workers = 1; workers <= args.get_u64("max-workers");
       workers *= 2) {
    const auto point = run_sweep_point(trace, cache, workers, batch);
    all_ok &= point.ok;
    points.emplace_back(workers, point);
    csv.field(workers)
        .field(point.reqs_per_sec)
        .field(point.reqs_per_sec / workers)
        .field(point.hit_fraction)
        .end_row();
  }

  double w1 = 0.0, w4 = 0.0;
  for (const auto& [workers, point] : points) {
    if (workers == 1) w1 = point.reqs_per_sec;
    if (workers == 4) w4 = point.reqs_per_sec;
  }
  const double scaling = w1 > 0.0 && w4 > 0.0 ? w4 / w1 : 0.0;
  // 4 server workers + 4 closed-loop clients all need their own core
  // for the scaling claim to be physically measurable; under that the
  // curve only documents lock behaviour on an oversubscribed box.
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
        .set("batch", static_cast<std::uint64_t>(batch))
        .set("num_shards", static_cast<std::uint64_t>(cache.num_shards))
        .set("hardware_concurrency", static_cast<std::uint64_t>(hw));
    for (const auto& [workers, point] : points) {
      doc.set("server_reqs_per_sec_w" + std::to_string(workers),
              point.reqs_per_sec);
      doc.set("server_hit_fraction_w" + std::to_string(workers),
              point.hit_fraction);
    }
    doc.set("scaling_w1_to_w4", scaling)
        .set("scaling_gate_armed", gate_armed)
        .set("clients_ok", all_ok);
    doc.write_file(json_path);
    std::cout << "# wrote " << json_path << '\n';
  }

  if (!all_ok) {
    std::cout << "# GATE FAILED: a client replay hit a socket error\n";
    return 1;
  }
  if (gate_armed && scaling < 3.0) {
    std::cout << "# GATE FAILED: 1->4 worker scaling " << scaling
              << "x below 3x on a " << hw << "-core host\n";
    return 1;
  }
  return 0;
}
