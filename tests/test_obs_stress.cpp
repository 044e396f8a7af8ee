// Telemetry scrape-under-load stress: writer threads hammer counters,
// gauges and histograms while a client loops GET /metrics and /stats
// against the live server. Every response must parse with the strict
// exposition/JSON validators, and the counter values observed across
// successive scrapes of either endpoint must be monotonically
// consistent (snapshots are per-metric relaxed reads of monotonic
// counters, so a later scrape can never show a smaller value). Run
// under TSan via the `stress` label — this is the test that would catch
// a torn registry or a server reading freed registry state.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs_test_util.hpp"

namespace {

using namespace lfo;
using testutil::parse_http_response;

TEST(TelemetryStress, ScrapesParseAndStayMonotoneUnderWriterLoad) {
  constexpr int kWriters = 4;
  constexpr int kScrapes = 40;
  auto& registry = obs::MetricsRegistry::instance();
  for (int w = 0; w < kWriters; ++w) {
    registry.counter("test_stress_writer_" + std::to_string(w) + "_total")
        .reset();
  }

  obs::TelemetryServer server({});
  ASSERT_TRUE(server.start()) << server.last_error();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &stop, &registry] {
      const std::string name =
          "test_stress_writer_" + std::to_string(w) + "_total";
      auto& counter = registry.counter(name);
      auto& gauge = registry.gauge("test_stress_gauge");
      auto& hist = registry.histogram("test_stress_seconds");
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        counter.inc();
        gauge.set(static_cast<double>(i));
        hist.observe_ns(1000 + (i % 1024));
        ++i;
      }
    });
  }

  // Scrape loop: every response must be complete and structurally valid,
  // and per-writer counters must never move backwards between scrapes.
  std::map<std::string, double> last_seen;
  std::map<std::string, double> last_stats;
  int parsed = 0;
  for (int s = 0; s < kScrapes; ++s) {
    const auto metrics =
        parse_http_response(obs::fetch_local(server.port(), "/metrics"));
    ASSERT_TRUE(metrics.ok) << "scrape " << s << " failed";
    ASSERT_EQ(metrics.status, 200);
    const auto series = testutil::validate_prometheus_text(metrics.body);
    for (int w = 0; w < kWriters; ++w) {
      const std::string name =
          "test_stress_writer_" + std::to_string(w) + "_total";
      ASSERT_TRUE(series.contains(name)) << "scrape " << s;
    }
    // Extract the writer counters from the exposition text and compare
    // against the previous scrape.
    std::istringstream is(metrics.body);
    std::string line;
    while (std::getline(is, line)) {
      if (line.rfind("test_stress_writer_", 0) != 0) continue;
      const auto space = line.rfind(' ');
      const std::string name = line.substr(0, space);
      const double value = std::strtod(line.c_str() + space + 1, nullptr);
      const auto it = last_seen.find(name);
      if (it != last_seen.end()) {
        EXPECT_GE(value, it->second)
            << name << " went backwards between scrapes " << s - 1
            << " and " << s;
      }
      last_seen[name] = value;
    }

    const auto stats =
        parse_http_response(obs::fetch_local(server.port(), "/stats"));
    ASSERT_TRUE(stats.ok) << "stats scrape " << s << " failed";
    ASSERT_EQ(stats.status, 200);
    const auto doc = testutil::JsonParser(stats.body).parse();
    ASSERT_TRUE(doc.has_value()) << "stats scrape " << s;
    const auto* counters = doc->find("counters");
    ASSERT_NE(counters, nullptr) << "stats scrape " << s;
    for (int w = 0; w < kWriters; ++w) {
      const std::string name =
          "test_stress_writer_" + std::to_string(w) + "_total";
      const auto* value = counters->find(name);
      ASSERT_NE(value, nullptr) << name << " missing, stats scrape " << s;
      const auto it = last_stats.find(name);
      if (it != last_stats.end()) {
        EXPECT_GE(value->number, it->second)
            << name << " went backwards between stats scrapes " << s - 1
            << " and " << s;
      }
      last_stats[name] = value->number;
    }
    ++parsed;
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  server.stop();
  EXPECT_EQ(parsed, kScrapes);
}

}  // namespace
