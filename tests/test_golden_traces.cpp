// Golden-trace regression suite: three seeded generator scenarios
// (web / video / flash-crowd) plus the four adversarial/freshness
// presets from trace/scenario.hpp (flood / scan / inversion /
// freshness), each with exact, checked-in hit counts and hit ratios for
// LFO, LRU, AdaptSize and OPT. ANY drift — a changed admission
// decision, eviction order, OPT label, RNG draw — fails with a
// diff-style table. This is the lock that lets the training pipeline be
// refactored (async, parallel) with confidence: the decisions may not
// move at all.
//
// Regenerating after an INTENTIONAL behaviour change:
//   LFO_UPDATE_GOLDEN=1 ./test_golden_traces --gtest_filter='*Print*'
// then paste the emitted kGolden block over the one below.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "core/windowed.hpp"
#include "features/dataset_builder.hpp"
#include "opt/opt.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/scenario.hpp"

namespace {

using namespace lfo;

// ---------------------------------------------------------------- golden

struct GoldenCache {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t bytes_requested = 0;
  std::uint64_t bytes_hit = 0;
};

struct GoldenLfo {
  GoldenCache overall;
  std::uint64_t bypassed = 0;
  /// Stale hits re-routed through admission (nonzero only on traces that
  /// carry Request::ttl — the freshness scenario).
  std::uint64_t expired_hits = 0;
};

struct GoldenOpt {
  std::uint64_t hit_requests = 0;
  std::uint64_t hit_bytes = 0;
  std::uint64_t total_requests = 0;
  std::uint64_t total_bytes = 0;
};

struct Scenario {
  const char* name;
  GoldenCache lru;
  GoldenCache adaptsize;
  GoldenLfo lfo;
  GoldenOpt opt;
};

// Exact decision counts recorded on the reference container. BHR/OHR are
// ratios of these integers, so locking the integers locks the ratios to
// the last bit.
constexpr Scenario kGolden[] = {
    {
        "web",
        /*lru=*/{20000, 12453, 1737017707, 1283535068},
        /*adaptsize=*/{20000, 13372, 1737017707, 1233811629},
        /*lfo=*/{{20000, 13020, 1737017707, 1319571465}, 2328, 0},
        /*opt=*/{15381, 1459818875, 20000, 1737017707},
    },
    {
        "video",
        /*lru=*/{20000, 12462, 41431278663, 23685936788},
        /*adaptsize=*/{20000, 13367, 41431278663, 24794325918},
        /*lfo=*/{{20000, 13342, 41431278663, 25651097813}, 1896, 0},
        /*opt=*/{15656, 31111879543, 20000, 41431278663},
    },
    {
        "flash-crowd",
        /*lru=*/{20000, 14218, 1080191046, 725737606},
        /*adaptsize=*/{20000, 14888, 1080191046, 721748806},
        /*lfo=*/{{20000, 14314, 1080191046, 727932448}, 1739, 0},
        /*opt=*/{16484, 857908563, 20000, 1080191046},
    },
    // Adversarial/freshness presets (trace/scenario.hpp): the robustness
    // gates. LRU/AdaptSize/OPT are freshness-blind (they serve stale
    // bytes, like a CDN with no TTL handling); only the LFO column counts
    // expired hits.
    {
        "flood",
        /*lru=*/{20000, 9948, 2249051048, 888243541},
        /*adaptsize=*/{20000, 10722, 2249051048, 824744967},
        /*lfo=*/{{20000, 10647, 2249051048, 940570758}, 4195, 0},
        /*opt=*/{13019, 1090080344, 20000, 2249051048},
    },
    {
        "scan",
        /*lru=*/{20000, 6841, 2457916856, 291635327},
        /*adaptsize=*/{20000, 7573, 2457916856, 316195368},
        /*lfo=*/{{20000, 7999, 2457916856, 433097833}, 3765, 0},
        /*opt=*/{9862, 663533050, 20000, 2457916856},
    },
    {
        "inversion",
        /*lru=*/{20000, 13690, 910749076, 554424295},
        /*adaptsize=*/{20000, 14444, 910749076, 556605128},
        /*lfo=*/{{20000, 14082, 910749076, 568151070}, 2144, 0},
        /*opt=*/{16119, 689887423, 20000, 910749076},
    },
    {
        "freshness",
        /*lru=*/{20000, 13391, 1065134887, 661964596},
        /*adaptsize=*/{20000, 14302, 1065134887, 657881521},
        /*lfo=*/{{20000, 12977, 1065134887, 641821480}, 2185, 768},
        /*opt=*/{15996, 824799047, 20000, 1065134887},
    },
};

// ------------------------------------------------------------- scenarios

trace::Trace make_trace(const std::string& name) {
  // The adversarial/freshness presets are owned by trace::scenario so the
  // goldens, the torture tests and bench_scenarios lock the same bytes.
  const auto scenarios = trace::scenario::scenario_names();
  if (std::find(scenarios.begin(), scenarios.end(), name) !=
      scenarios.end()) {
    return trace::scenario::make_scenario_trace(name);
  }
  trace::GeneratorConfig gen;
  gen.num_requests = 20000;
  if (name == "web") {
    gen.seed = 101;
    gen.classes = {trace::web_class(4000)};
  } else if (name == "video") {
    gen.seed = 202;
    gen.classes = {trace::video_class(800)};
  } else if (name == "flash-crowd") {
    gen.seed = 303;
    gen.classes = {trace::web_class(3000)};
    gen.drift.reshuffle_interval = 5000;
    gen.drift.reshuffle_fraction = 0.3;
    gen.drift.flash_crowd_probability = 1.0;
    gen.drift.flash_crowd_share = 0.3;
    gen.drift.flash_crowd_duration = 3000;
  } else {
    ADD_FAILURE() << "unknown scenario " << name;
  }
  return trace::generate_trace(gen);
}

std::uint64_t scenario_cache_size(const std::string& name) {
  // A fixed constant per scenario (roughly 2-15% of unique bytes) so the
  // goldens do not depend on unique_bytes() internals. The adversarial
  // presets run at trace::scenario::golden_cache_size(), which matches
  // the 32 MiB web regime.
  return name == "video" ? (192ULL << 20)
                         : trace::scenario::golden_cache_size();
}

GoldenCache run_policy(const std::string& policy, const trace::Trace& trace,
                       std::uint64_t cache_size) {
  const auto cache = cache::make_policy(policy, cache_size);
  for (const auto& r : trace.requests()) cache->access(r);
  const auto& s = cache->stats();
  return {s.requests, s.hits, s.bytes_requested, s.bytes_hit};
}

/// The LFO configuration every golden LFO figure is recorded with.
core::WindowedConfig golden_config(std::uint64_t cache_size,
                                   bool thin_gaps = true) {
  core::WindowedConfig config;
  config.lfo.set_cache_size(cache_size);
  config.lfo.features.num_gaps = 20;
  config.lfo.features.thin_gaps = thin_gaps;
  config.lfo.gbdt.num_iterations = 15;
  config.window_size = 5000;
  config.swap_lag = 1;
  return config;
}

core::WindowedResult run_lfo(const trace::Trace& trace,
                             std::uint64_t cache_size, bool thin_gaps = true) {
  return core::run_windowed_lfo(trace, golden_config(cache_size, thin_gaps));
}

Scenario compute_actual(const char* name) {
  const auto trace = make_trace(name);
  const auto cache_size = scenario_cache_size(name);
  Scenario actual;
  actual.name = name;
  actual.lru = run_policy("LRU", trace, cache_size);
  actual.adaptsize = run_policy("AdaptSize", trace, cache_size);

  const auto lfo = run_lfo(trace, cache_size);
  actual.lfo.overall = {lfo.overall.requests, lfo.overall.hits,
                        lfo.overall.bytes_requested, lfo.overall.bytes_hit};
  actual.lfo.bypassed = lfo.bypassed;
  actual.lfo.expired_hits = lfo.overall.expired_hits;

  opt::OptConfig opt_config;
  opt_config.cache_size = cache_size;
  opt_config.mode = opt::OptMode::kGreedyPacking;
  const auto opt = opt::compute_opt(
      trace.window(0, trace.size()), opt_config);
  actual.opt = {opt.hit_requests, opt.hit_bytes, opt.total_requests,
                opt.total_bytes};
  return actual;
}

// ------------------------------------------------------------- diffing

/// Collects field-level mismatches into a diff-style table.
class GoldenDiff {
 public:
  explicit GoldenDiff(const char* scenario) : scenario_(scenario) {}

  void check(const char* field, std::uint64_t expected,
             std::uint64_t actual) {
    if (expected == actual) return;
    rows_ << "  " << std::left << std::setw(28) << field << std::right
          << std::setw(16) << expected << std::setw(16) << actual << '\n';
    ++mismatches_;
  }

  void check_cache(const char* policy, const GoldenCache& expected,
                   const GoldenCache& actual) {
    const std::string p(policy);
    check((p + ".requests").c_str(), expected.requests, actual.requests);
    check((p + ".hits").c_str(), expected.hits, actual.hits);
    check((p + ".bytes_requested").c_str(), expected.bytes_requested,
          actual.bytes_requested);
    check((p + ".bytes_hit").c_str(), expected.bytes_hit, actual.bytes_hit);
  }

  void report() const {
    if (mismatches_ == 0) return;
    ADD_FAILURE() << "golden drift in scenario '" << scenario_ << "' ("
                  << mismatches_ << " field(s)):\n"
                  << "  " << std::left << std::setw(28) << "field"
                  << std::right << std::setw(16) << "expected"
                  << std::setw(16) << "actual" << '\n'
                  << rows_.str()
                  << "If this change is intentional, regenerate with "
                     "LFO_UPDATE_GOLDEN=1 (see file header).";
  }

 private:
  const char* scenario_;
  std::ostringstream rows_;
  int mismatches_ = 0;
};

void expect_matches_golden(const Scenario& expected) {
  const auto actual = compute_actual(expected.name);
  GoldenDiff diff(expected.name);
  diff.check_cache("lru", expected.lru, actual.lru);
  diff.check_cache("adaptsize", expected.adaptsize, actual.adaptsize);
  diff.check_cache("lfo", expected.lfo.overall, actual.lfo.overall);
  diff.check("lfo.bypassed", expected.lfo.bypassed, actual.lfo.bypassed);
  diff.check("lfo.expired_hits", expected.lfo.expired_hits,
             actual.lfo.expired_hits);
  diff.check("opt.hit_requests", expected.opt.hit_requests,
             actual.opt.hit_requests);
  diff.check("opt.hit_bytes", expected.opt.hit_bytes, actual.opt.hit_bytes);
  diff.check("opt.total_requests", expected.opt.total_requests,
             actual.opt.total_requests);
  diff.check("opt.total_bytes", expected.opt.total_bytes,
             actual.opt.total_bytes);
  diff.report();
}

void print_scenario(std::ostream& os, const Scenario& s) {
  const auto cache = [&](const GoldenCache& c) {
    os << '{' << c.requests << ", " << c.hits << ", " << c.bytes_requested
       << ", " << c.bytes_hit << '}';
  };
  os << "    {\n        \"" << s.name << "\",\n        /*lru=*/";
  cache(s.lru);
  os << ",\n        /*adaptsize=*/";
  cache(s.adaptsize);
  os << ",\n        /*lfo=*/{";
  cache(s.lfo.overall);
  os << ", " << s.lfo.bypassed << ", " << s.lfo.expired_hits << "},\n";
  os << "        /*opt=*/{" << s.opt.hit_requests << ", " << s.opt.hit_bytes
     << ", " << s.opt.total_requests << ", " << s.opt.total_bytes << "},\n";
  os << "    },\n";
}

// --------------------------------------------------------------- tests

TEST(GoldenTraces, Web) { expect_matches_golden(kGolden[0]); }
TEST(GoldenTraces, Video) { expect_matches_golden(kGolden[1]); }
TEST(GoldenTraces, FlashCrowd) { expect_matches_golden(kGolden[2]); }
TEST(GoldenTraces, Flood) { expect_matches_golden(kGolden[3]); }
TEST(GoldenTraces, Scan) { expect_matches_golden(kGolden[4]); }
TEST(GoldenTraces, Inversion) { expect_matches_golden(kGolden[5]); }
TEST(GoldenTraces, Freshness) { expect_matches_golden(kGolden[6]); }

TEST(GoldenTraces, FlatForestMatchesTreeWalkOnEveryGoldenRow) {
  // The serving walk (the compiled flat forest) against its oracle (the
  // per-tree walk): on all 7 golden workloads, the model trained on each
  // window must score every row of that window and of the next one
  // bitwise identically through both.
  for (const auto& s : kGolden) {
    const auto trace = make_trace(s.name);
    const auto config = golden_config(scenario_cache_size(s.name));
    features::DatasetBuildOptions build;
    build.features = config.lfo.features;
    build.cache_size = config.lfo.cache_size;
    std::vector<core::TrainResult> trained;
    std::vector<gbdt::Dataset> datasets;
    for (std::size_t begin = 0; begin < trace.size();
         begin += config.window_size) {
      const auto window = trace.window(
          begin, std::min(config.window_size, trace.size() - begin));
      trained.push_back(core::train_on_window(window, config.lfo));
      datasets.push_back(
          features::build_dataset(window, trained.back().opt, build));
    }
    for (std::size_t w = 0; w < trained.size(); ++w) {
      const auto& model = *trained[w].model;
      for (std::size_t d = w; d < std::min(w + 2, datasets.size()); ++d) {
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < datasets[d].num_rows(); ++i) {
          const auto row = datasets[d].row(i);
          mismatches += model.forest().predict_proba(row) !=
                        model.booster().predict_proba(row);
        }
        EXPECT_GT(datasets[d].num_rows(), 0u);
        EXPECT_EQ(mismatches, 0u) << s.name << ": model of window " << w
                                  << " on rows of window " << d;
      }
    }
  }
}

// The gap-schema gate: on every golden scenario at 4 MiB and 32 MiB,
// the default log-spaced gaps (1-8, 12, 16 here) keep the guarded
// pipeline's BHR within 0.5 pt of the paper's dense gaps 1..20.
TEST(GoldenTraces, LogSpacedGapsHoldGuardedBhrAgainstDense) {
  for (const auto& s : kGolden) {
    const auto trace = make_trace(s.name);
    for (const std::uint64_t mib : {4u, 32u}) {
      const double thin = run_lfo(trace, mib << 20).overall.bhr();
      const double dense = run_lfo(trace, mib << 20, false).overall.bhr();
      EXPECT_GE(thin, dense - 0.005)
          << s.name << " at " << mib << " MiB: log-spaced " << thin
          << " vs dense " << dense;
    }
  }
}

// The eviction gate. LfoCache used to re-score every hit and evict the
// global minimum of the latest scores (the paper's §2.4 policy); it now
// evicts the lowest latest score among its 64 least-recent entries.
// These are the ranked policy's guarded bytes_hit from run_lfo, frozen
// when it was replaced: every golden scenario at 4 and 32 MiB, plus
// video at its golden 192 MiB.
struct RankedCell {
  const char* scenario;
  std::uint64_t mib;
  std::uint64_t bytes_hit;
};
constexpr RankedCell kRankedPolicy[] = {
    {"web", 4, 943902591},          {"web", 32, 1319329329},
    {"video", 4, 4394923139},       {"video", 32, 14280856541},
    {"video", 192, 25650697107},    {"flash-crowd", 4, 467053096},
    {"flash-crowd", 32, 729095863}, {"flood", 4, 609543701},
    {"flood", 32, 931318642},       {"scan", 4, 216866892},
    {"scan", 32, 429752600},        {"inversion", 4, 326024823},
    {"inversion", 32, 562414555},   {"freshness", 4, 374183982},
    {"freshness", 32, 637624815},
};

TEST(GoldenTraces, SampledEvictionHoldsGuardedBhrAgainstRankedPolicy) {
  for (const auto& cell : kRankedPolicy) {
    const auto trace = make_trace(cell.scenario);
    const auto overall = run_lfo(trace, cell.mib << 20).overall;
    const double ranked = static_cast<double>(cell.bytes_hit) /
                          static_cast<double>(overall.bytes_requested);
    EXPECT_GE(overall.bhr(), ranked - 0.005)
        << cell.scenario << " at " << cell.mib << " MiB: sampled "
        << overall.bhr() << " vs ranked " << ranked;
  }
}

TEST(GoldenTraces, RatiosFollowFromCounts) {
  // The published BHR/OHR are exactly the golden integer ratios; guard
  // the derivation so a stats-accounting refactor cannot drift silently.
  for (const auto& s : kGolden) {
    const double bhr = static_cast<double>(s.lru.bytes_hit) /
                       static_cast<double>(s.lru.bytes_requested);
    EXPECT_GT(bhr, 0.0);
    EXPECT_LT(bhr, 1.0);
    const double opt_bhr = static_cast<double>(s.opt.hit_bytes) /
                           static_cast<double>(s.opt.total_bytes);
    EXPECT_GT(opt_bhr, bhr * 0.9)
        << s.name << ": OPT should not be far below LRU";
  }
}

TEST(GoldenTraces, PrintCurrentValues) {
  // Regeneration helper, a no-op unless LFO_UPDATE_GOLDEN is set.
  if (std::getenv("LFO_UPDATE_GOLDEN") == nullptr) GTEST_SKIP();
  std::ostringstream os;
  os << "constexpr Scenario kGolden[] = {\n";
  for (const auto& s : kGolden) print_scenario(os, compute_actual(s.name));
  os << "};\n";
  std::cout << os.str();
}

}  // namespace
