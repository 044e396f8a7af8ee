// obs::TelemetryServer suite: request routing and malformed-input
// handling (driven in-process through handle_request_for_test), live
// socket round-trips over 127.0.0.1, stalled, trickling and surplus
// peers and accepts out of descriptors against the one-thread event
// loop, and decision-neutrality of serving scrapes during a windowed
// run.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/windowed.hpp"
#include "fd_test_util.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs_test_util.hpp"
#include "util/socket.hpp"

namespace {

using namespace lfo;
using testutil::JsonParser;
using testutil::parse_http_response;

// ------------------------------------------------------- request routing

obs::HttpResponse handle(const std::string& request) {
  obs::TelemetryServer server({});
  return server.handle_request_for_test(request);
}

TEST(TelemetryRouting, MalformedRequestsGet4xxNotAborts) {
  EXPECT_EQ(handle("BOGUS\r\n\r\n").status, 400);
  EXPECT_EQ(handle("\r\n\r\n").status, 400);
  EXPECT_EQ(handle("GET\r\n\r\n").status, 400);
  EXPECT_EQ(handle("GET /metrics\r\n\r\n").status, 400);  // no version
  EXPECT_EQ(handle("GET  HTTP/1.1\r\n\r\n").status, 400);  // empty target
  EXPECT_EQ(handle("GET /metrics FTP/1.0\r\n\r\n").status, 400);
  EXPECT_EQ(handle("GET metrics HTTP/1.1\r\n\r\n").status, 400);
  EXPECT_EQ(handle(std::string("GET /\0metrics HTTP/1.1\r\n\r\n", 26)).status,
            404);  // embedded NUL is just an unknown path, not a crash
  EXPECT_EQ(handle("POST /metrics HTTP/1.1\r\n\r\n").status, 405);
  EXPECT_EQ(handle("GET /nope HTTP/1.1\r\n\r\n").status, 404);
  EXPECT_EQ(handle("GET /vars HTTP/1.1\r\n\r\n").status, 400);
  EXPECT_EQ(handle("GET /vars?name= HTTP/1.1\r\n\r\n").status, 400);
  EXPECT_EQ(handle("GET /vars?name=no_such_metric HTTP/1.1\r\n\r\n").status,
            404);
}

TEST(TelemetryRouting, EndpointsAnswerInProcess) {
  obs::MetricsRegistry::instance().counter("test_vars_total").add(9);
  obs::TelemetryServer server({});

  const auto metrics =
      server.handle_request_for_test("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_EQ(metrics.status, 200);
  const auto series = testutil::validate_prometheus_text(metrics.body);
  EXPECT_TRUE(series.contains("test_vars_total"));

  const auto stats =
      server.handle_request_for_test("GET /stats HTTP/1.1\r\n\r\n");
  EXPECT_EQ(stats.status, 200);
  EXPECT_EQ(stats.content_type, "application/json");
  const auto doc = JsonParser(stats.body).parse();
  ASSERT_TRUE(doc.has_value());
  EXPECT_NE(doc->find("counters"), nullptr);
  EXPECT_NE(doc->find("build_info"), nullptr);
  EXPECT_NE(doc->find("monotonic_seconds"), nullptr);
  // /stats takes no parameters: a query string is ignored.
  EXPECT_EQ(server.handle_request_for_test(
                    "GET /stats?history=abc HTTP/1.1\r\n\r\n")
                .status,
            200);

  const auto vars = server.handle_request_for_test(
      "GET /vars?name=test_vars_total HTTP/1.1\r\n\r\n");
  EXPECT_EQ(vars.status, 200);
  EXPECT_EQ(vars.body, "9\n");

  const auto health =
      server.handle_request_for_test("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(health.status, 200);  // null callback = always serving

  const auto trace_resp =
      server.handle_request_for_test("GET /trace HTTP/1.1\r\n\r\n");
  EXPECT_EQ(trace_resp.status, 200);
  EXPECT_TRUE(JsonParser(trace_resp.body).parse().has_value());
}

TEST(TelemetryRouting, HealthCallbackControlsStatusCode) {
  obs::TelemetryServerConfig config;
  config.health = [] {
    return obs::HealthStatus{false, "rollout fallback"};
  };
  obs::TelemetryServer server(std::move(config));
  const auto resp =
      server.handle_request_for_test("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(resp.status, 503);
  const auto doc = JsonParser(resp.body).parse();
  ASSERT_TRUE(doc.has_value());
  const auto* serving = doc->find("serving");
  ASSERT_NE(serving, nullptr);
  EXPECT_FALSE(serving->boolean);
  const auto* detail = doc->find("detail");
  ASSERT_NE(detail, nullptr);
  EXPECT_EQ(detail->text, "rollout fallback");
}

// --------------------------------------------------- live socket round-trip

/// True once the server has answered on `fd` or closed it: readable
/// with data, EOF, or reset.
bool answered_or_closed(int fd, int wait_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  return ::poll(&pfd, 1, wait_ms) > 0;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Raw client sockets, closed when the test ends. Declared after the
/// server, they close before it stops.
struct Sockets {
  std::vector<int> fds;
  ~Sockets() {
    for (const int fd : fds) ::close(fd);
  }
  /// A connection to `port` that has sent nothing; -1 on failure.
  int open(std::uint16_t port) {
    const int fd = util::connect_loopback(port, 2.0);
    if (fd >= 0) fds.push_back(fd);
    return fd;
  }
};

std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(
      std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

// The port is one thread running one event loop.
TEST(TelemetryServer, StartAddsOneThread) {
  // A parked thread first: a sanitizer runtime may start its own helper
  // thread with a process's first thread.
  std::promise<void> release;
  std::thread parked([done = release.get_future()] { done.wait(); });
  const auto before = thread_count();
  obs::TelemetryServer server({});
  ASSERT_TRUE(server.start()) << server.last_error();
  EXPECT_EQ(thread_count(), before + 1);
  server.stop();
  release.set_value();
  parked.join();
}

TEST(TelemetryServer, ServesOverLoopbackAndStopsCleanly) {
  obs::TelemetryServer server({});
  ASSERT_TRUE(server.start()) << server.last_error();
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  const auto raw = obs::fetch_local(server.port(), "/metrics");
  const auto parts = parse_http_response(raw);
  ASSERT_TRUE(parts.ok) << "unparsable response: " << raw.substr(0, 120);
  EXPECT_EQ(parts.status, 200);
  EXPECT_EQ(parts.headers.at("connection"), "close");
  EXPECT_EQ(std::stoul(parts.headers.at("content-length")),
            parts.body.size());
  const auto series = testutil::validate_prometheus_text(parts.body);
  EXPECT_FALSE(series.empty());
  bool has_build_info = false;
  for (const auto& key : series) {
    has_build_info |= key.rfind("lfo_build_info{", 0) == 0;
  }
  EXPECT_TRUE(has_build_info);
  // The scrape itself is counted.
  const auto again = parse_http_response(
      obs::fetch_local(server.port(),
                       "/vars?name=lfo_telemetry_metrics_requests_total"));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.status, 200);
  EXPECT_GE(std::stoul(again.body), 1u);

  const auto bad =
      parse_http_response(obs::fetch_local(server.port(), "bogus-target"));
  ASSERT_TRUE(bad.ok);
  EXPECT_EQ(bad.status, 400);

  const auto port = server.port();
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_TRUE(obs::fetch_local(port, "/metrics").empty())
      << "server still answering after stop()";
  // Restart binds a fresh ephemeral port and serves again.
  ASSERT_TRUE(server.start()) << server.last_error();
  EXPECT_EQ(parse_http_response(
                obs::fetch_local(server.port(), "/healthz"))
                .status,
            200);
  server.stop();
}

// Regression: the port used to hand connections to two handler threads,
// so two stalled peers pinned both and a third request waited in the
// backlog until one timed out (here: no answer within the client's 2 s).
// In one event loop a stalled peer holds only its descriptor, and
// /healthz answers at once behind any number of them.
TEST(TelemetryServer, SlowClientDoesNotBlockHealthz) {
  constexpr std::size_t kStalled = 3;
  obs::TelemetryServerConfig config;
  config.io_timeout_seconds = 5.0;  // a stalled peer is held up to 5 s
  obs::TelemetryServer server(std::move(config));
  ASSERT_TRUE(server.start()) << server.last_error();

  // Clients that send half a request head and then go silent.
  Sockets stalled;
  const std::string partial = "GET /metrics HTTP/1.1\r\n";  // no blank line
  for (std::size_t i = 0; i < kStalled; ++i) {
    const int fd = stalled.open(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
              static_cast<ssize_t>(partial.size()));
  }
  // Give the loop a moment to accept and read the stalled peers.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto before = std::chrono::steady_clock::now();
  const auto health =
      parse_http_response(obs::fetch_local(server.port(), "/healthz"));
  const double elapsed = seconds_since(before);
  ASSERT_TRUE(health.ok) << "healthz did not answer behind slow clients";
  EXPECT_EQ(health.status, 200);
  EXPECT_LT(elapsed, 0.5) << "/healthz waited behind the stalled clients";
  for (const int fd : stalled.fds) {
    EXPECT_FALSE(answered_or_closed(fd, 0)) << "a stalled peer was dropped";
  }
}

// Regression: the io timeout used to be SO_RCVTIMEO, which restarts on
// every recv, so a peer trickling one byte at a time held a handler for
// as long as it kept trickling (an 8 KiB head at 1 byte/s: ~2.3 h). The
// timeout is now one deadline for the whole request head.
TEST(TelemetryServer, TricklingClientIsCutOffAtTheHeadDeadline) {
  obs::TelemetryServerConfig config;
  config.io_timeout_seconds = 0.5;
  obs::TelemetryServer server(std::move(config));
  ASSERT_TRUE(server.start()) << server.last_error();

  const int slow = util::connect_loopback(server.port(), 0.0);
  ASSERT_GE(slow, 0);
  // A head that never ends, one byte every 0.2 s, for up to 4 s.
  const std::string head = "GET /metrics HTTP/1.1\r\nX-Slow: aaaaaaaaaa";
  const auto start = std::chrono::steady_clock::now();
  bool cut_off = false;
  for (std::size_t i = 0; i < 20 && !cut_off; ++i) {
    ::send(slow, head.data() + (i % head.size()), 1, MSG_NOSIGNAL);
    cut_off = answered_or_closed(slow, 200);
  }
  const double elapsed = seconds_since(start);
  ASSERT_TRUE(cut_off) << "a trickling client held its handler for "
                       << elapsed << " s";
  EXPECT_LT(elapsed, 1.5) << "head deadline is 0.5 s";
  char buf[256];
  const ssize_t n = ::recv(slow, buf, sizeof(buf), 0);
  if (n > 0) {
    EXPECT_EQ(std::string(buf, static_cast<std::size_t>(n)).rfind(
                  "HTTP/1.1 400 ", 0),
              0u);
  }
  ::close(slow);
  server.stop();
}

// At 16 open connections a new one closes the longest-idle one and
// counts it, the serving port's rule: silent peers cannot lock a scraper
// out.
TEST(TelemetryServer, ConnectionsPastTheCapShedTheLongestIdle) {
  constexpr std::size_t kCap = 16;
  constexpr std::size_t kExtra = 4;
  const auto& shed = obs::MetricsRegistry::instance().counter(
      "lfo_telemetry_shed_connections_total");
  obs::TelemetryServerConfig config;
  config.io_timeout_seconds = 5.0;  // silent peers are held 5 s
  obs::TelemetryServer server(std::move(config));
  ASSERT_TRUE(server.start()) << server.last_error();
  const auto shed_before = shed.value();
  const auto healthz = [&] {
    return parse_http_response(obs::fetch_local(server.port(), "/healthz"))
        .status;
  };

  Sockets silent;
  for (std::size_t i = 0; i + 1 < kCap; ++i) {
    ASSERT_GE(silent.open(server.port()), 0);
  }
  EXPECT_EQ(healthz(), 200);  // the 16th connection
  EXPECT_EQ(shed.value(), shed_before) << "shed below the cap";

  for (std::size_t i = 0; i <= kExtra; ++i) {
    ASSERT_GE(silent.open(server.port()), 0);
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(healthz(), 200);
  EXPECT_LT(seconds_since(start), 0.5);
  // The extra silent sockets and the scrape each shed one, oldest first.
  EXPECT_EQ(shed.value(), shed_before + kExtra + 1);
  for (std::size_t i = 0; i < silent.fds.size(); ++i) {
    const int fd = silent.fds[i];
    if (i <= kExtra) {
      ASSERT_TRUE(answered_or_closed(fd, 1000)) << "socket " << i;
      char byte = 0;
      EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "shed socket " << i;
    } else {
      EXPECT_FALSE(answered_or_closed(fd, 0)) << "socket " << i;
    }
  }
}

// Regression (accept spin): out of descriptors, accept fails and leaves
// the connection queued, and the port's accept thread used to poll it
// again at once and spin. With no connection to shed the loop now backs
// off, so the failures stay few, and the request is served once a
// descriptor frees.
TEST(TelemetryServer, AcceptBacksOffWhileOutOfDescriptors) {
  const auto& errors = obs::MetricsRegistry::instance().counter(
      "lfo_telemetry_accept_errors_total");
  obs::TelemetryServer server({});
  ASSERT_TRUE(server.start()) << server.last_error();
  Sockets client;
  std::string response;
  {
    testutil::DescriptorExhaustion exhausted(256);
    ASSERT_GE(exhausted.held(), 2u);
    exhausted.release_one();  // for the client's own socket
    const auto errors_before = errors.value();
    const int fd = client.open(server.port());
    ASSERT_GE(fd, 0);
    const std::string request = "GET /healthz HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(util::send_all(fd, request.data(), request.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const auto failed = errors.value() - errors_before;
    EXPECT_GE(failed, 1u);
    EXPECT_LE(failed, 25u) << "the loop spun on accept";
    exhausted.release_one();  // for the server's end
    const auto t0 = std::chrono::steady_clock::now();
    char buf[512];
    for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
      response.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_LT(seconds_since(t0), 0.5);
  }
  const auto parts = parse_http_response(response);
  ASSERT_TRUE(parts.ok) << "no answer once a descriptor freed";
  EXPECT_EQ(parts.status, 200);
}

TEST(TelemetryServer, OversizedRequestHeadGets431) {
  obs::TelemetryServer server({});
  ASSERT_TRUE(server.start()) << server.last_error();
  const std::string huge_target(10000, 'a');  // head cap is 8 KiB
  const auto parts = parse_http_response(
      obs::fetch_local(server.port(), "/" + huge_target));
  ASSERT_TRUE(parts.ok);
  EXPECT_EQ(parts.status, 431);
  server.stop();
}

// ------------------------------------------------- decision neutrality

TEST(TelemetryServer, ScrapedRunMakesIdenticalDecisions) {
  const auto trace = testutil::golden_trace("web");
  const auto config = testutil::golden_lfo_config();
  const auto bare = core::run_windowed_lfo(trace, config);

  obs::TelemetryServer server({});
  ASSERT_TRUE(server.start()) << server.last_error();
  const testutil::CounterDelta windows("lfo_windows_total");

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const char* target :
           {"/metrics", "/stats", "/healthz", "/trace",
            "/vars?name=lfo_windows_total"}) {
        const auto raw = obs::fetch_local(server.port(), target);
        if (!raw.empty()) scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  const auto scraped = core::run_windowed_lfo(trace, config);
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GT(scrapes.load(), 0u) << "scraper never reached the server";
  EXPECT_TRUE(core::same_decisions(bare, scraped))
      << "serving telemetry changed caching decisions";
  // Every window boundary was published to the registry the scrapes read.
  EXPECT_EQ(windows(), scraped.windows.size());
  server.stop();
}

}  // namespace
