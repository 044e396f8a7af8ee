// lfo_bench: libLFO's serving loop and learning loop, measured with a
// trained model installed (see README.md for workloads and metrics).
//
//   lfo_bench --workload hot_zipf|wide_churn --seed N --seconds S
//             --trace 0|1 [--tiny] [--spans PATH]
//
// --trace 0 measures the end-to-end metrics: requests go over the real
// LfoServer/LfoClient socket, the model comes from the learning loop and
// is installed through ShardedLfoCache::install_candidate. --trace 1
// replays the untraced run's first trace in process and times each call
// into the public functions of every layer. The last line of stdout is
// one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Any failed exchange or output check makes the exit code nonzero.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/lfo_cache.hpp"
#include "core/lfo_model.hpp"
#include "core/rollout.hpp"
#include "features/dataset_builder.hpp"
#include "features/features.hpp"
#include "gbdt/gbdt.hpp"
#include "obs/metrics.hpp"
#include "opt/opt.hpp"
#include "server/server.hpp"
#include "server/sharded_cache.hpp"
#include "spans.hpp"
#include "trace/generator.hpp"
#include "trace/scenario.hpp"
#include "trace/trace.hpp"

namespace lfo_bench {
namespace {

using lfo::trace::Request;
using Requests = std::span<const Request>;
using Decisions = std::vector<std::uint8_t>;

// ------------------------------------------------------------ workloads

/// One traffic mix. Both share the production content mix, the 5% cache,
/// 8 shards and 50K-request learning windows; they differ in catalog
/// size, one-hit-wonder share and connection count.
struct Workload {
  std::string name;
  std::uint64_t requests;
  double catalog_scale;   ///< trace::production_mix scale
  double flood_fraction;  ///< share replaced by never-recurring ids
  std::uint32_t connections;  ///< client connections == server workers
};

constexpr std::uint32_t kShards = 8;
constexpr std::size_t kFrame = 512;  ///< requests per wire frame
constexpr double kCacheFraction = 0.05;
constexpr std::size_t kWindow = 50'000;
constexpr std::size_t kTinyWindow = 5'000;
constexpr int kSetupReps = 5;
constexpr std::size_t kLearnWindows = 3;
/// Traces per untraced run; trace t of seed s is generated from seed
/// s * kTraces + t, so one run's figures do not hang on one trace's model.
constexpr std::size_t kTraces = 4;
constexpr std::size_t kKeptSpans = 1 << 15;

std::optional<Workload> find_workload(std::string_view name, bool tiny) {
  // hot_zipf: 5,425 objects, hot set in the CPU caches, ~half the
  // requests hit: predict/extract cost and shared hot shards dominate.
  // wide_churn: 217K objects plus 30% never-recurring ids (~440K distinct
  // at 1M requests): history inserts, bypass and eviction dominate.
  std::vector<Workload> all = {
      {"hot_zipf", 1'000'000, 0.05, 0.0, 2},
      {"wide_churn", 1'000'000, 2.0, 0.3, 1},
  };
  for (auto& w : all) {
    if (w.name != name) continue;
    if (tiny) {
      w.requests = 8 * kTinyWindow;
      w.catalog_scale = std::min(w.catalog_scale, 0.2);
    }
    return w;
  }
  return std::nullopt;
}

/// The generated inputs and the configuration shared by every phase.
struct Bench {
  Workload workload;
  std::size_t window = kWindow;
  lfo::trace::Trace trace;
  lfo::core::LfoConfig lfo;
  lfo::server::ShardedCacheConfig cache;

  std::size_t size() const { return trace.size(); }
  Requests requests(std::size_t begin, std::size_t end) const {
    return trace.window(begin, end - begin);
  }
};

lfo::trace::Trace make_trace(const Workload& w, std::uint64_t seed) {
  lfo::trace::GeneratorConfig base;
  base.num_requests = w.requests;
  base.seed = seed;
  base.cost_model = lfo::trace::CostModel::kByteHitRatio;
  base.classes = lfo::trace::production_mix(w.catalog_scale);
  base.drift.reshuffle_interval = w.requests / 8 + 1;
  base.drift.reshuffle_fraction = 0.05;
  if (w.flood_fraction <= 0.0) return lfo::trace::generate_trace(base);
  lfo::trace::scenario::FloodConfig flood;
  flood.base = base;
  flood.flood_fraction = w.flood_fraction;
  flood.flood_start = 0;
  flood.flood_duration = w.requests;
  return lfo::trace::scenario::one_hit_flood(flood);
}

Bench make_bench(const Workload& w, std::uint64_t seed, bool tiny) {
  Bench b;
  b.workload = w;
  b.window = tiny ? kTinyWindow : kWindow;
  b.trace = make_trace(w, seed);
  const auto capacity = std::max<std::uint64_t>(
      kShards, static_cast<std::uint64_t>(
                   static_cast<double>(b.trace.unique_bytes()) *
                   kCacheFraction));
  b.lfo.set_cache_size(capacity);
  b.lfo.opt.mode = lfo::opt::OptMode::kGreedyPacking;
  b.lfo.features.num_gaps = 50;
  b.lfo.gbdt = lfo::gbdt::Params::paper_defaults();
  b.cache.capacity = capacity;
  b.cache.num_shards = kShards;
  b.cache.features = b.lfo.features;
  b.cache.cutoff = b.lfo.cutoff;
  return b;
}

// --------------------------------------------------------------- report

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return std::nan("");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

/// Metrics, operation counts and output checks of one run.
class Report {
 public:
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// One output check: counts as attempted, and as failed when !ok.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "lfo_bench: check failed: " << what << '\n';
    }
  }
  void operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t failed() const { return failed_; }

  /// Commentary lines, then the result object as the last line.
  void print(std::ostream& os) const {
    for (const auto& m : metrics_) {
      os << "# " << m.name << " = " << format(m.value) << ' ' << m.unit
         << '\n';
    }
    os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
         << format(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}" << std::endl;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  static std::string format(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }

  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return std::nan("");
}

// ------------------------------------------------------ host calibration

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
/// under 2 means another tenant holds a core, and this run's numbers
/// (contention above all) should be read with that in mind.
HostCalibration calibrate_host() {
  constexpr std::uint64_t kIterations = 20'000'000;
  std::vector<double> one, two;
  std::uint64_t sink[2] = {1, 2};
  for (int rep = 0; rep < 3; ++rep) {
    auto t = Clock::now();
    sink[0] = spin(kIterations, sink[0] | 1);
    one.push_back(seconds_since(t));
    t = Clock::now();
    std::thread other([&sink] { sink[1] = spin(kIterations, sink[1] | 1); });
    sink[0] = spin(kIterations, sink[0] | 1);
    other.join();
    two.push_back(seconds_since(t));
  }
  if ((sink[0] ^ sink[1]) == 42) std::cerr << "";  // keep the spins live
  HostCalibration host;
  const double t1 = median(one), t2 = median(two);
  host.spin_ns = t1 * 1e9 / static_cast<double>(kIterations);
  host.scaling_2t = 2.0 * t1 / t2;
  return host;
}

// -------------------------------------------------------- learning loop

struct Labels {
  lfo::opt::OptDecisions opt;
  double seconds = 0.0;
};

/// A trained candidate and the time each learning-loop stage took.
struct Learned {
  std::shared_ptr<const lfo::core::LfoModel> model;
  lfo::core::RolloutCandidate candidate;
  double opt_s = 0.0, dataset_s = 0.0, train_s = 0.0, gate_s = 0.0,
         compile_s = 0.0;
};

/// Each learning-loop stage's times over the visits to one window.
struct StageTimes {
  std::vector<double> opt_s, dataset_s, train_s, gate_s, compile_s;

  void add(const Learned& visit) {
    opt_s.push_back(visit.opt_s);
    dataset_s.push_back(visit.dataset_s);
    train_s.push_back(visit.train_s);
    gate_s.push_back(visit.gate_s);
    compile_s.push_back(visit.compile_s);
  }
  /// The sum of each stage's median visit.
  double median_total() const {
    return median(opt_s) + median(dataset_s) + median(train_s) +
           median(gate_s) + median(compile_s);
  }
};

Labels label(const Bench& b, Requests window, SpanLog* log,
             std::uint64_t id) {
  const auto start = Clock::now();
  Labels out{lfo::opt::compute_opt(window, b.lfo.opt), 0.0};
  const auto end = Clock::now();
  out.seconds = seconds_between(start, end);
  if (log) log->record(Layer::kOpt, Layer::kLearnWindow, id, start, end);
  return out;
}

/// dataset -> GBDT fit -> gate diagnostics -> compiled LfoModel, each
/// stage timed (and traced when `log` is set).
Learned learn(const Bench& b, Requests window, const Labels& labels,
              SpanLog* log, std::uint64_t id) {
  Learned out;
  out.opt_s = labels.seconds;
  auto stage = [&](Layer layer, Clock::time_point start) {
    const auto end = Clock::now();
    if (log) log->record(layer, Layer::kLearnWindow, id, start, end);
    return seconds_between(start, end);
  };
  auto t = Clock::now();
  lfo::features::DatasetBuildOptions build;
  build.features = b.lfo.features;
  build.cache_size = b.lfo.cache_size;
  const auto dataset = lfo::features::build_dataset(window, labels.opt, build);
  out.dataset_s = stage(Layer::kDataset, t);

  t = Clock::now();
  auto booster = lfo::gbdt::train(dataset, b.lfo.gbdt);
  out.train_s = stage(Layer::kTrain, t);

  // The same gate inputs the windowed pipeline hands the RolloutGuard.
  t = Clock::now();
  const auto confusion = lfo::gbdt::confusion(booster, dataset, b.lfo.cutoff);
  out.candidate.train_accuracy = confusion.accuracy();
  if (confusion.total() > 0) {
    const auto total = static_cast<double>(confusion.total());
    out.candidate.model_admit_share =
        static_cast<double>(confusion.tp() + confusion.fp()) / total;
    out.candidate.opt_admit_share =
        static_cast<double>(confusion.tp() + confusion.fn()) / total;
  }
  out.gate_s = stage(Layer::kGate, t);

  t = Clock::now();
  out.model = std::make_shared<const lfo::core::LfoModel>(std::move(booster),
                                                          b.lfo.features);
  out.compile_s = stage(Layer::kCompile, t);
  return out;
}

/// The serving model's error against the next window's OPT (paper Fig 5).
double prediction_error(const Bench& b, const lfo::core::LfoModel& model,
                        Requests next, const lfo::opt::OptDecisions& opt) {
  return 1.0 - lfo::core::evaluate_predictions(model, next, opt,
                                               b.lfo.cache_size,
                                               b.lfo.cutoff)
                   .accuracy();
}

// -------------------------------------------------------------- serving

bool serving_model(const lfo::server::ShardedLfoCache& cache) {
  return cache.has_model() &&
         cache.rollout_state() == lfo::core::RolloutState::kServing;
}

std::uint8_t code(lfo::server::AccessResult r) {
  using lfo::server::WireDecision;
  return static_cast<std::uint8_t>(r.hit       ? WireDecision::kHit
                                   : r.expired ? WireDecision::kExpired
                                               : WireDecision::kMiss);
}

constexpr std::uint8_t kHitCode =
    static_cast<std::uint8_t>(lfo::server::WireDecision::kHit);

struct Exchanges {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Per-frame round trips through LfoClient::exchange of one replay over
/// a connection.
struct FrameTimes {
  std::vector<double> exchange_us;
};

/// Closed-loop replay of requests [begin, end) over `client`, one frame
/// of kFrame requests in flight. Decisions land in decisions[begin, end);
/// each frame's round trip goes to `times` and to `log` when given.
bool replay_socket(lfo::server::LfoClient& client, const Bench& b,
                   std::size_t begin, std::size_t end, Decisions& decisions,
                   FrameTimes* times, SpanLog* log, Exchanges& count) {
  std::vector<lfo::server::WireDecision> got;
  for (std::size_t offset = begin; offset < end; offset += kFrame) {
    const std::size_t n = std::min(kFrame, end - offset);
    const auto t0 = Clock::now();
    const bool ok = client.exchange(b.trace.window(offset, n), got);
    const auto t1 = Clock::now();
    ++count.attempted;
    if (!ok || got.size() != n) {
      ++count.failed;
      return false;
    }
    if (log) log->record(Layer::kExchange, Layer::kExchange, offset, t0, t1);
    for (std::size_t i = 0; i < n; ++i) {
      decisions[offset + i] = static_cast<std::uint8_t>(got[i]);
    }
    if (times) times->exchange_us.push_back(seconds_between(t0, t1) * 1e6);
  }
  return true;
}

lfo::server::LfoServerConfig server_config(const Bench& b,
                                           std::uint32_t workers) {
  lfo::server::LfoServerConfig config;
  config.workers = workers;
  config.cache = b.cache;
  // The telemetry endpoints would add a thread and a port; the counters
  // they export are compiled into the serving path either way.
  config.telemetry = false;
  return config;
}

struct Quality {
  double bhr = 0.0;
  double ohr = 0.0;
};

Quality quality(const Bench& b, const Decisions& decisions, std::size_t begin,
                std::size_t end) {
  std::uint64_t hits = 0, bytes = 0, hit_bytes = 0;
  for (std::size_t i = begin; i < end; ++i) {
    bytes += b.trace[i].size;
    if (decisions[i] == kHitCode) {
      ++hits;
      hit_bytes += b.trace[i].size;
    }
  }
  return {static_cast<double>(hit_bytes) / static_cast<double>(bytes),
          static_cast<double>(hits) / static_cast<double>(end - begin)};
}

/// The server's own accounting must agree with what the clients saw.
void check_accounting(const lfo::server::ShardedLfoCache& cache,
                      const Decisions& decisions, std::size_t served,
                      Report& report) {
  const auto stats = cache.stats();
  const auto hits = static_cast<std::uint64_t>(
      std::count(decisions.begin(), decisions.begin() + served, kHitCode));
  report.check(stats.requests == served,
               "merged stats().requests " + std::to_string(stats.requests) +
                   " != requests sent " + std::to_string(served));
  report.check(stats.hits == hits, "merged stats().hits " +
                                       std::to_string(stats.hits) +
                                       " != hits seen " + std::to_string(hits));
  report.check(cache.used_bytes() <= cache.capacity(),
               "used_bytes() exceeds capacity()");
}

/// A server brought up for serving: started, clients connected, window 0
/// served in bootstrap mode over the first connection and, when a model
/// is given, that model installed. setup_s times all of it.
struct Live {
  std::unique_ptr<lfo::server::LfoServer> server;
  std::vector<std::unique_ptr<lfo::server::LfoClient>> clients;
  Decisions decisions;
  double setup_s = 0.0;
};

std::optional<Live> bring_up(const Bench& b, const Learned* model,
                             Report& report) {
  const std::uint32_t connections = b.workload.connections;
  Live live;
  const auto start = Clock::now();
  live.server = std::make_unique<lfo::server::LfoServer>(
      server_config(b, connections));
  if (!live.server->start()) {
    report.check(false, "server start: " + live.server->last_error());
    return std::nullopt;
  }
  for (std::uint32_t c = 0; c < connections; ++c) {
    live.clients.push_back(std::make_unique<lfo::server::LfoClient>());
    if (!live.clients.back()->connect(live.server->port())) {
      report.check(false, "client connect");
      return std::nullopt;
    }
  }
  live.decisions.assign(b.size(), 0);
  Exchanges boot;
  const bool booted =
      replay_socket(*live.clients[0], b, 0, b.window, live.decisions,
                    nullptr, nullptr, boot);
  report.operations(boot.attempted, boot.failed);
  if (!booted) return std::nullopt;
  if (model) {
    live.server->cache().install_candidate(model->candidate, model->model);
    report.check(serving_model(live.server->cache()),
                 "server serves the trained model before timing");
  }
  live.setup_s = seconds_since(start);
  return live;
}

/// kSetupReps timed bring-ups; their median is setup_s.
std::vector<double> time_setups(const Bench& b, const Learned* model,
                                Report& report) {
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto live = bring_up(b, model, report);
    if (!live) break;
    setup.push_back(live->setup_s);
  }
  return setup;
}

struct Round {
  double setup_s = 0.0;  ///< the round's bring-up
  double serve_s = 0.0;
  std::vector<FrameTimes> frames;  ///< one entry per connection
  Decisions decisions;
  Quality quality;

  std::vector<double> exchange_us() const {
    std::vector<double> all;
    for (const auto& f : frames) {
      all.insert(all.end(), f.exchange_us.begin(), f.exchange_us.end());
    }
    return all;
  }
};

/// One serving round on a freshly brought-up server: the rest of the
/// trace over the workload's closed-loop connections, timed.
std::optional<Round> serve_round(const Bench& b, const Learned& model,
                                 Report& report) {
  const std::size_t n = b.size(), w = b.window;
  const std::uint32_t connections = b.workload.connections;
  auto live = bring_up(b, &model, report);
  if (!live) return std::nullopt;
  Decisions& decisions = live->decisions;

  Round round;
  round.setup_s = live->setup_s;
  round.frames.resize(connections);
  std::vector<Exchanges> counts(connections);
  std::vector<std::thread> threads;
  const std::size_t per_client = (n - w) / connections;
  const auto start = Clock::now();
  for (std::uint32_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t begin = w + c * per_client;
      const std::size_t end = c + 1 == connections ? n : begin + per_client;
      round.frames[c].exchange_us.reserve((end - begin) / kFrame + 1);
      replay_socket(*live->clients[c], b, begin, end, decisions,
                    &round.frames[c], nullptr, counts[c]);
    });
  }
  for (auto& t : threads) t.join();
  round.serve_s = seconds_since(start);

  bool exchanged = true;
  for (std::uint32_t c = 0; c < connections; ++c) {
    report.operations(counts[c].attempted, counts[c].failed);
    exchanged &= counts[c].failed == 0;
  }
  if (!exchanged) return std::nullopt;
  check_accounting(live->server->cache(), decisions, n, report);
  round.quality = quality(b, decisions, w, n);
  live->server->stop();
  round.decisions = std::move(decisions);
  return round;
}

/// Each trace's serving state in the untraced run.
struct Served {
  std::optional<Learned> model;  ///< window 0's, served by every round
  Decisions first;               ///< socket decisions of the first round
};

/// hot_zipf / wide_churn, untraced. A round brings up a fresh server for
/// one trace and serves the rest of it over the socket with the model of
/// its window 0. Rounds take the traces in turn, and each is followed by
/// one more learning-loop window (each trace's windows 0 ..
/// kLearnWindows-1 in turn), until `seconds` have passed and every trace
/// has had as many rounds as the others. Interleaving lets both kinds of
/// sample see the same spells of host interference. Throughput is
/// requests over serving time summed over all rounds, the frame p50 the
/// mean of the rounds' p50s, and a window's time the sum of each stage's
/// median visit. Whole-run averages, as the host's state shifts within a
/// run and a median follows whichever state lasted longest.
void run_serving(const std::vector<Bench>& benches, double seconds,
                 Report& report) {
  const auto start = Clock::now();
  const std::size_t traces = benches.size();
  const std::size_t pairs = traces * kLearnWindows;

  // Visit v re-times window v / traces (mod kLearnWindows) of trace
  // v mod traces, OPT labels included; the window's model is scored
  // against the next window's OPT once.
  std::vector<StageTimes> stages(pairs);
  std::vector<double> errors(pairs, std::nan(""));
  std::vector<Served> served(traces);
  std::size_t visits = 0;
  auto learn_next = [&] {
    const std::size_t t = visits % traces;
    const std::size_t k = visits / traces % kLearnWindows;
    ++visits;
    const Bench& b = benches[t];
    const std::size_t w = b.window, pair = t * kLearnWindows + k;
    const Requests window = b.requests(k * w, (k + 1) * w);
    Learned learned =
        learn(b, window, label(b, window, nullptr, k), nullptr, k);
    stages[pair].add(learned);
    if (std::isnan(errors[pair])) {
      const Requests next = b.requests((k + 1) * w, (k + 2) * w);
      errors[pair] = prediction_error(b, *learned.model, next,
                                      label(b, next, nullptr, k + 1).opt);
    }
    if (!served[t].model) served[t].model = std::move(learned);
  };
  auto more = [&] {
    return visits < pairs || seconds_since(start) < seconds;
  };

  while (visits < traces) learn_next();  // the models the rounds serve
  std::vector<double> round_p50_us, setup;
  double requests = 0.0, serve_s = 0.0;
  double rss_mib = 0.0;
  std::size_t rounds = 0;
  while (rounds % traces != 0 || more()) {
    const std::size_t t = rounds % traces;
    const Bench& b = benches[t];
    auto round = serve_round(b, *served[t].model, report);
    if (!round) return;
    // Read after the first round: every trace and one serving cache,
    // before later bring-ups leave the heap fragmented.
    if (rounds++ == 0) rss_mib = peak_rss_mib();
    setup.push_back(round->setup_s);
    Decisions& first = served[t].first;
    if (first.empty()) {
      first = std::move(round->decisions);
    } else if (b.workload.connections == 1) {
      report.check(round->decisions == first,
                   "every round of a trace makes the same socket decisions");
    }
    const auto frame_us = round->exchange_us();
    round_p50_us.push_back(percentile(frame_us, 0.50));
    const auto n = static_cast<double>(b.size() - b.window);
    requests += n;
    serve_s += round->serve_s;
    std::cout << "# round " << rounds << " (trace " << t
              << "): " << n / round->serve_s << " req/s, " << frame_us.size()
              << " frames, p50 " << round_p50_us.back() << " us, p90 "
              << percentile(frame_us, 0.90) << " us, p99 "
              << percentile(frame_us, 0.99) << " us, bhr "
              << round->quality.bhr << ", ohr " << round->quality.ohr << '\n';
    if (more()) learn_next();
  }
  std::cout << "# " << rounds << " rounds over " << traces << " traces, "
            << visits << " learning windows\n";

  // In-process replicas on one thread: the install time and, with one
  // connection, the reference decisions.
  std::vector<double> install_s;
  for (std::size_t t = 0; t < traces; ++t) {
    const Bench& b = benches[t];
    const Learned& model = *served[t].model;
    const std::size_t n = b.size(), w = b.window;
    Decisions reference(n, 0);
    lfo::server::ShardedLfoCache replica(b.cache);
    for (std::size_t i = 0; i < w; ++i) {
      reference[i] = code(replica.access(b.trace[i]));
    }
    const auto begin = Clock::now();
    replica.install_candidate(model.candidate, model.model);
    install_s.push_back(seconds_since(begin));
    report.check(serving_model(replica),
                 "in-process replica serves the trained model");
    if (b.workload.connections != 1) continue;
    for (std::size_t i = w; i < n; ++i) {
      reference[i] = code(replica.access(b.trace[i]));
    }
    report.check(served[t].first == reference,
                 "socket decisions equal the in-process replay");
  }
  std::vector<double> window_s;
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    window_s.push_back(stages[pair].median_total() +
                       install_s[pair / kLearnWindows]);
  }
  // Every round began with a bring-up; a few more follow, back to back.
  for (double s : time_setups(benches[0], &*served[0].model, report)) {
    setup.push_back(s);
  }

  report.metric("throughput_rps", requests / serve_s, "1/s");
  report.metric("batch_p50_us", mean(round_p50_us), "us");
  report.metric("window_s", median(window_s), "s");
  report.metric("prediction_error", median(errors), "fraction");
  report.metric("rss_mb", rss_mib, "MiB");
  report.metric("setup_s", median(setup), "s");
}

// ---------------------------------------------------------------- traced

/// Serve [begin, end) after installing models[model] (none when < 0).
struct Step {
  std::size_t begin;
  std::size_t end;
  int model;
  bool measured() const { return model >= 0; }
};

struct Plan {
  std::vector<Learned> models;
  std::vector<Step> steps;
  std::size_t end() const { return steps.back().end; }
  std::size_t measured_requests() const {
    std::size_t n = 0;
    for (const auto& s : steps) n += s.measured() ? s.end - s.begin : 0;
    return n;
  }
};

/// The learning loop under spans on the first kLearnWindows windows.
/// Window 0 is served in bootstrap mode, the rest of the trace with the
/// model of window 0.
Plan traced_learning(const Bench& b, SpanLog& log) {
  const std::size_t w = b.window;
  Plan plan;
  Labels labels = label(b, b.requests(0, w), &log, 0);
  for (std::size_t k = 0; k < kLearnWindows; ++k) {
    const auto t = Clock::now();
    plan.models.push_back(
        learn(b, b.requests(k * w, (k + 1) * w), labels, &log, k));
    log.record(Layer::kLearnWindow, Layer::kLearnWindow, k, t, Clock::now());
    if (k + 1 < kLearnWindows) {
      labels = label(b, b.requests((k + 1) * w, (k + 2) * w), &log, k + 1);
    }
  }
  plan.steps.push_back({0, w, -1});
  plan.steps.push_back({w, b.size(), 0});
  return plan;
}

/// Phase A/B: one thread through ShardedLfoCache::access. Untraced it is
/// the baseline; traced, each access and frame gets a span.
struct InProcess {
  double ns_per_req = 0.0;
  Decisions decisions;
  std::vector<double> install_ms;
  std::uint64_t activated = 0, rejected = 0;
  double hot_shard_share = 0.0;
};

InProcess replay_in_process(const Bench& b, const Plan& plan, SpanLog* log,
                            Report& report) {
  InProcess out;
  out.decisions.assign(plan.end(), 0);
  lfo::server::ShardedLfoCache cache(b.cache);
  std::vector<std::uint64_t> per_shard(cache.num_shards(), 0);
  double measured_s = 0.0;
  for (const auto& step : plan.steps) {
    if (step.measured()) {
      const auto& m = plan.models[static_cast<std::size_t>(step.model)];
      const auto t0 = Clock::now();
      const auto verdict = cache.install_candidate(m.candidate, m.model);
      const auto t1 = Clock::now();
      out.install_ms.push_back(seconds_between(t0, t1) * 1e3);
      if (log) {
        log->record(Layer::kInstall, Layer::kInstall, step.begin, t0, t1);
      }
      out.activated += verdict.activate ? 1 : 0;
      out.rejected +=
          verdict.decision == lfo::core::RolloutDecision::kRejected ? 1 : 0;
      report.check(serving_model(cache), "in-process cache serves a model");
    }
    const auto start = Clock::now();
    if (!log || !step.measured()) {
      for (std::size_t i = step.begin; i < step.end; ++i) {
        out.decisions[i] = code(cache.access(b.trace[i]));
      }
    } else {
      for (std::size_t f = step.begin; f < step.end; f += kFrame) {
        const auto frame_start = Clock::now();
        for (std::size_t i = f; i < std::min(f + kFrame, step.end); ++i) {
          const auto t0 = Clock::now();
          out.decisions[i] = code(cache.access(b.trace[i]));
          const auto t1 = Clock::now();
          log->record(Layer::kShardedAccess, Layer::kFrame, i, t0, t1);
        }
        log->record(Layer::kFrame, Layer::kFrame, f, frame_start,
                    Clock::now());
      }
    }
    if (step.measured()) {
      measured_s += seconds_since(start);
      for (std::size_t i = step.begin; i < step.end; ++i) {
        ++per_shard[cache.shard_of(b.trace[i].object)];
      }
    }
  }
  const auto measured = static_cast<double>(plan.measured_requests());
  out.ns_per_req = measured_s * 1e9 / measured;
  out.hot_shard_share =
      static_cast<double>(
          *std::max_element(per_shard.begin(), per_shard.end())) /
      measured;
  return out;
}

/// Phase C: the same requests through one standalone core::LfoCache per
/// shard (routed by shard_of, same capacity split, same RolloutGuard
/// verdicts), each access timed and split by outcome. Records what the
/// feature replay needs: each request's shard clock and free bytes.
struct Mirror {
  Decisions hit;       ///< 1 when LfoCache::access hit
  Decisions admitted;  ///< miss that left the object cached
  std::vector<std::uint64_t> clock, free_bytes;
  std::vector<std::shared_ptr<const lfo::core::LfoModel>> step_model;
  std::uint64_t hits = 0, misses = 0, bypassed = 0, evictions = 0;
  std::uint64_t admissions = 0, admit_hits = 0;
};

Mirror replay_mirror(const Bench& b, const Plan& plan, SpanLog& log) {
  const std::size_t n = plan.end();
  Mirror out;
  out.hit.assign(n, 0);
  out.admitted.assign(n, 0);
  out.clock.assign(n, 0);
  out.free_bytes.assign(n, 0);
  const lfo::server::ShardedLfoCache router(b.cache);
  std::vector<std::unique_ptr<lfo::core::LfoCache>> shards;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<lfo::core::LfoCache>(
        b.cache.capacity / kShards, b.cache.features, b.cache.cutoff,
        b.cache.options));
  }
  lfo::core::RolloutGuard guard(b.cache.rollout);
  std::shared_ptr<const lfo::core::LfoModel> serving;
  auto& evictions = lfo::obs::MetricsRegistry::instance().counter(
      "lfo_cache_evictions_total");
  for (const auto& step : plan.steps) {
    if (step.measured()) {
      const auto& m = plan.models[static_cast<std::size_t>(step.model)];
      const auto verdict = guard.evaluate(m.candidate);
      if (verdict.activate) serving = m.model;
      if (verdict.clear_model) serving = nullptr;
      for (auto& shard : shards) shard->swap_model(serving);
    }
    out.step_model.push_back(serving);
    const std::uint64_t evictions_before = evictions.value();
    for (std::size_t i = step.begin; i < step.end; ++i) {
      const Request& r = b.trace[i];
      auto& cache = *shards[router.shard_of(r.object)];
      out.clock[i] = cache.clock();
      out.free_bytes[i] = cache.free_bytes();
      const auto t0 = Clock::now();
      const bool hit = cache.access(r);
      const auto t1 = Clock::now();
      out.hit[i] = hit ? 1 : 0;
      out.admitted[i] = !hit && cache.contains(r.object) ? 1 : 0;
      if (!step.measured()) continue;
      log.record(hit ? Layer::kLfoHit : Layer::kLfoMiss, Layer::kShardedAccess,
                 i, t0, t1);
      ++(hit ? out.hits : out.misses);
    }
    if (step.measured()) out.evictions += evictions.value() - evictions_before;
  }
  for (const auto& shard : shards) out.bypassed += shard->bypassed();

  const auto next = lfo::trace::next_request_indices(b.requests(0, n));
  for (const auto& step : plan.steps) {
    if (!step.measured()) continue;
    for (std::size_t i = step.begin; i < step.end; ++i) {
      if (!out.admitted[i]) continue;
      ++out.admissions;
      const auto j = next[i];
      if (j != lfo::trace::kNoNextRequest && out.hit[j]) ++out.admit_hits;
    }
  }
  return out;
}

/// Phase C2: one standalone FeatureExtractor per shard fed the same
/// requests at the same shard clocks and free bytes, with the serving
/// model predicting on each extracted row: extract, predict and observe
/// timed per call. Checks that these calls reproduce every admission the
/// mirror caches made.
struct FeatureReplay {
  std::uint64_t predicts = 0;
  std::uint64_t tracked = 0;
  double history_mib = 0.0;
};

FeatureReplay replay_features(const Bench& b, const Plan& plan,
                              const Mirror& mirror, SpanLog& log,
                              Report& report) {
  FeatureReplay out;
  const lfo::server::ShardedLfoCache router(b.cache);
  std::vector<lfo::features::FeatureExtractor> extractors(
      kShards, lfo::features::FeatureExtractor(b.lfo.features));
  std::vector<float> row(extractors[0].dimension());
  lfo::features::FeatureScratch scratch;
  const std::uint64_t shard_capacity = b.cache.capacity / kShards;
  std::uint64_t mismatches = 0;
  // Inside the cache these calls run within LfoCache::access.
  auto parent_of = [&mirror](std::size_t i) {
    return mirror.hit[i] ? Layer::kLfoHit : Layer::kLfoMiss;
  };
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    const auto& step = plan.steps[s];
    const lfo::core::LfoModel* model = mirror.step_model[s].get();
    for (std::size_t i = step.begin; i < step.end; ++i) {
      const Request& r = b.trace[i];
      auto& extractor = extractors[router.shard_of(r.object)];
      // LfoCache advances its clock before deciding on a request.
      const std::uint64_t time = mirror.clock[i] + 1;
      if (model) {
        const auto t0 = Clock::now();
        extractor.extract(r, time, mirror.free_bytes[i], row, scratch);
        const auto t1 = Clock::now();
        const double p = model->predict(row, scratch);
        const auto t2 = Clock::now();
        if (step.measured()) {
          log.record(Layer::kExtract, parent_of(i), i, t0, t1);
          log.record(Layer::kPredict, parent_of(i), i, t1, t2);
          ++out.predicts;
        }
        if (!mirror.hit[i] && r.size <= shard_capacity &&
            (p >= b.cache.cutoff) != (mirror.admitted[i] != 0)) {
          ++mismatches;
        }
      }
      const auto t3 = Clock::now();
      extractor.observe(r, time);
      const auto t4 = Clock::now();
      if (step.measured()) log.record(Layer::kObserve, parent_of(i), i, t3, t4);
    }
  }
  report.check(mismatches == 0,
               std::to_string(mismatches) +
                   " admissions differ between LfoCache and the "
                   "standalone extract+predict replay");
  for (const auto& extractor : extractors) {
    const auto& history = extractor.history();
    out.tracked += history.tracked_objects();
    out.history_mib += static_cast<double>(history.tracked_objects() *
                                           history.bytes_per_object()) /
                       (1024.0 * 1024.0);
  }
  return out;
}

struct Wire {
  double ns_per_req = std::nan("");
  double p99_us = std::nan("");
};

/// Phase D: the plan over one connection to a one-worker server, each
/// exchange traced.
Wire replay_wire(const Bench& b, const Plan& plan, const Decisions& expect,
                 SpanLog& log, Report& report) {
  Wire out;
  lfo::server::LfoServer server(server_config(b, 1));
  lfo::server::LfoClient client;
  if (!server.start() || !client.connect(server.port())) {
    report.check(false, "wire phase: server start or connect");
    return out;
  }
  Decisions decisions(plan.end(), 0);
  FrameTimes frames;
  double measured_s = 0.0;
  for (const auto& step : plan.steps) {
    if (step.measured()) {
      const auto& m = plan.models[static_cast<std::size_t>(step.model)];
      server.cache().install_candidate(m.candidate, m.model);
    }
    Exchanges count;
    const auto start = Clock::now();
    const bool ok = replay_socket(client, b, step.begin, step.end, decisions,
                                  step.measured() ? &frames : nullptr,
                                  step.measured() ? &log : nullptr, count);
    if (step.measured()) measured_s += seconds_since(start);
    report.operations(count.attempted, count.failed);
    if (!ok) return out;
  }
  server.stop();
  report.check(decisions == expect,
               "wire phase decisions equal the in-process replay");
  out.ns_per_req =
      measured_s * 1e9 / static_cast<double>(plan.measured_requests());
  out.p99_us = percentile(frames.exchange_us, 0.99);
  return out;
}

/// Phase E: each measured step split into two contiguous halves served
/// by two threads at once. Returns per-thread ns per request.
double replay_two_threads(const Bench& b, const Plan& plan) {
  lfo::server::ShardedLfoCache cache(b.cache);
  double wall_s = 0.0;
  for (const auto& step : plan.steps) {
    if (!step.measured()) {
      for (std::size_t i = step.begin; i < step.end; ++i) {
        cache.access(b.trace[i]);
      }
      continue;
    }
    const auto& m = plan.models[static_cast<std::size_t>(step.model)];
    cache.install_candidate(m.candidate, m.model);
    const std::size_t mid = step.begin + (step.end - step.begin) / 2;
    auto serve = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) cache.access(b.trace[i]);
    };
    const auto start = Clock::now();
    std::thread other(serve, mid, step.end);
    serve(step.begin, mid);
    other.join();
    wall_s += seconds_since(start);
  }
  return wall_s * 1e9 /
         (static_cast<double>(plan.measured_requests()) / 2.0);
}

void run_traced(const Bench& b, const std::string& spans_path,
                const HostCalibration& host, Report& report) {
  SpanLog log(kKeptSpans);
  const Plan plan = traced_learning(b, log);
  const auto measured = static_cast<double>(plan.measured_requests());
  std::vector<double> opt_s, dataset_s, train_s, compile_s;
  for (const auto& m : plan.models) {
    opt_s.push_back(m.opt_s);
    dataset_s.push_back(m.dataset_s);
    train_s.push_back(m.train_s);
    compile_s.push_back(m.compile_s);
  }

  // The first pass pays the page faults of a fresh heap. The untraced
  // baseline and the traced pass each follow a pass of the same size.
  const InProcess first = replay_in_process(b, plan, nullptr, report);
  const InProcess base = replay_in_process(b, plan, nullptr, report);
  const InProcess traced = replay_in_process(b, plan, &log, report);
  report.check(traced.decisions == first.decisions &&
                   base.decisions == first.decisions,
               "traced in-process decisions equal the untraced ones");

  Mirror mirror = replay_mirror(b, plan, log);
  std::uint64_t differ = 0;
  for (std::size_t i = 0; i < plan.end(); ++i) {
    differ += (mirror.hit[i] != 0) != (base.decisions[i] == kHitCode);
  }
  report.check(differ == 0, std::to_string(differ) +
                                " LfoCache mirror decisions differ from "
                                "ShardedLfoCache");
  const FeatureReplay features = replay_features(b, plan, mirror, log, report);
  const auto misses = static_cast<double>(mirror.misses);
  const double bypass_share =
      misses > 0 ? static_cast<double>(mirror.bypassed) / misses : 0.0;
  const double evictions_per_req =
      static_cast<double>(mirror.evictions) / measured;
  const double admit_hit_share =
      mirror.admissions > 0 ? static_cast<double>(mirror.admit_hits) /
                                  static_cast<double>(mirror.admissions)
                            : 0.0;
  mirror = Mirror{};  // release its per-request arrays before the socket

  const Wire wire = replay_wire(b, plan, base.decisions, log, report);
  const double two_thread_ns = replay_two_threads(b, plan);
  const Quality served =
      quality(b, base.decisions, plan.steps[1].begin, plan.end());

  const double access_ns = log.mean_net_ns(Layer::kShardedAccess);
  const double lfo_access_ns =
      (log.net_ns(Layer::kLfoHit) + log.net_ns(Layer::kLfoMiss)) / measured;
  const double extract_ns = log.net_ns(Layer::kExtract) / measured;
  const double observe_ns = log.net_ns(Layer::kObserve) / measured;
  const double predict_ns = log.mean_net_ns(Layer::kPredict);
  const double predicts_per_req =
      static_cast<double>(features.predicts) / measured;
  const double self_ns =
      lfo_access_ns - extract_ns - observe_ns - predict_ns * predicts_per_req;

  report.metric("server.wire_ns_per_req", wire.ns_per_req - base.ns_per_req,
                "ns");
  report.metric("server.exchange_p99_us", wire.p99_us, "us");
  report.metric("sharded_cache.bhr", served.bhr, "fraction");
  report.metric("sharded_cache.ohr", served.ohr, "fraction");
  report.metric("sharded_cache.access_ns_per_req", access_ns, "ns");
  report.metric("sharded_cache.contention_ns_per_req",
                two_thread_ns - base.ns_per_req, "ns");
  report.metric("sharded_cache.hot_shard_share", traced.hot_shard_share,
                "fraction");
  report.metric("lfo_cache.hit_ns", log.mean_net_ns(Layer::kLfoHit), "ns");
  report.metric("lfo_cache.miss_ns", log.mean_net_ns(Layer::kLfoMiss), "ns");
  report.metric("lfo_cache.self_ns_per_req", self_ns, "ns");
  report.metric("lfo_cache.bypass_share", bypass_share, "fraction");
  report.metric("lfo_cache.evictions_per_req", evictions_per_req, "1/req");
  report.metric("lfo_cache.admit_hit_share", admit_hit_share, "fraction");
  report.metric("features.extract_ns_per_req", extract_ns, "ns");
  report.metric("features.observe_ns_per_req", observe_ns, "ns");
  report.metric("features.tracked_objects",
                static_cast<double>(features.tracked), "count");
  report.metric("features.history_mb", features.history_mib, "MiB");
  report.metric("gbdt.predict_ns_per_call", predict_ns, "ns");
  report.metric("gbdt.predicts_per_req", predicts_per_req, "1/req");
  report.metric("opt.window_s", median(opt_s), "s");
  report.metric("features.dataset_window_s", median(dataset_s), "s");
  report.metric("gbdt.train_window_s", median(train_s), "s");
  report.metric("gbdt.train_serve_ratio",
                median(train_s) /
                    (base.ns_per_req * 1e-9 * static_cast<double>(b.window)),
                "ratio");
  report.metric("core.model_compile_s", median(compile_s), "s");
  report.metric("rollout.install_ms", median(traced.install_ms), "ms");
  report.metric("rollout.activated", static_cast<double>(traced.activated),
                "count");
  report.metric("rollout.rejected", static_cast<double>(traced.rejected),
                "count");
  report.metric("obs.trace_overhead_frac",
                (traced.ns_per_req - base.ns_per_req) / base.ns_per_req,
                "fraction");
  report.metric("obs.ledger_gap_frac", (access_ns - lfo_access_ns) / access_ns,
                "fraction");
  report.metric("host.spin_ns_per_iter", host.spin_ns, "ns");
  report.metric("host.spin_scaling_2t", host.scaling_2t, "ratio");

  if (!spans_path.empty()) {
    report.check(log.write_jsonl(spans_path), "write spans to " + spans_path);
  }
}

// ----------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  std::string spans;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = std::stoi(value);
      } else if (arg == "--spans") {
        o.spans = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (o.workload.empty() || !have_seed || !(o.seconds > 0.0) ||
      (o.trace != 0 && o.trace != 1)) {
    return std::nullopt;
  }
  return o;
}

int run(const Options& o) {
  const auto workload = find_workload(o.workload, o.tiny);
  if (!workload) {
    std::cerr << "lfo_bench: unknown workload " << o.workload << '\n';
    return 2;
  }
  const HostCalibration host = calibrate_host();
  std::cout << "# lfo_bench workload=" << workload->name << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << o.trace
            << (o.tiny ? " tiny" : "") << '\n'
            << "# host: spin " << host.spin_ns << " ns/iter, 1->2 thread "
            << "scaling " << host.scaling_2t << "x, hardware_concurrency "
            << std::thread::hardware_concurrency() << '\n';
  // The traced run replays the untraced run's first trace.
  std::vector<Bench> benches;
  for (std::size_t t = 0; t < (o.trace == 1 ? 1 : kTraces); ++t) {
    benches.push_back(make_bench(*workload, o.seed * kTraces + t, o.tiny));
    const Bench& b = benches.back();
    std::cout << "# trace " << t << ": requests " << b.size() << ", window "
              << b.window << ", cache " << b.cache.capacity << " B over "
              << kShards << " shards, connections " << workload->connections
              << ", frame " << kFrame << '\n';
  }
  Report report;
  if (o.trace == 1) {
    run_traced(benches.front(), o.spans, host, report);
  } else {
    run_serving(benches, o.seconds, report);
  }
  report.print(std::cout);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lfo_bench

int main(int argc, char** argv) {
  const auto options = lfo_bench::parse(argc, argv);
  if (!options) {
    std::cerr << "usage: lfo_bench --workload hot_zipf|wide_churn "
                 "--seed N --seconds S --trace 0|1 [--tiny] [--spans PATH]\n";
    return 2;
  }
  try {
    return lfo_bench::run(*options);
  } catch (const std::exception& e) {
    std::cerr << "lfo_bench: " << e.what() << '\n';
    return 1;
  }
}
