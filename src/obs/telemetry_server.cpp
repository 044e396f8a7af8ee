#include "obs/telemetry_server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/build_info.hpp"
#include "obs/exporters.hpp"
#include "obs/trace_span.hpp"
#include "util/socket.hpp"

namespace lfo::obs {

namespace {

/// Open connections; a new one past the cap closes the longest-idle one.
constexpr std::size_t kMaxConnections = 16;
/// Cap on a request head (start line + headers); longer gets 431.
constexpr std::size_t kMaxRequestBytes = 8192;

/// Per-endpoint request counters. A table (rather than inline literals)
/// so tools/lfo_lint.py's metric-name rule covers the registrations and
/// the routing below cannot drift from the instrumented set.
struct EndpointMetric {
  const char* path;
  const char* metric;
};
constexpr EndpointMetric kEndpointRequestCounters[] = {
    {"/metrics", "lfo_telemetry_metrics_requests_total"},
    {"/stats", "lfo_telemetry_stats_requests_total"},
    {"/healthz", "lfo_telemetry_healthz_requests_total"},
    {"/vars", "lfo_telemetry_vars_requests_total"},
    {"/trace", "lfo_telemetry_trace_requests_total"},
};

void count_request(std::string_view path) {
  MetricsRegistry::instance().counter("lfo_telemetry_requests_total").inc();
  for (const auto& e : kEndpointRequestCounters) {
    if (path == e.path) {
      MetricsRegistry::instance().counter(e.metric).inc();
      return;
    }
  }
}


const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpResponse error_response(int status, std::string_view detail) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::string(detail);
  resp.body += '\n';
  return resp;
}

/// error_response() for a request this server refuses, counted.
HttpResponse bad_request(int status, std::string_view detail) {
  MetricsRegistry::instance()
      .counter("lfo_telemetry_bad_requests_total")
      .inc();
  return error_response(status, detail);
}

/// Value of `key` in an application/x-www-form-urlencoded query string
/// ("a=1&b=2"). No percent-decoding: every parameter this server accepts
/// is [A-Za-z0-9_] by construction. Returns (found, value).
std::pair<bool, std::string_view> query_param(std::string_view query,
                                              std::string_view key) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    const std::size_t eq = pair.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (name == key) {
      return {true,
              eq == std::string_view::npos ? std::string_view{}
                                           : pair.substr(eq + 1)};
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return {false, {}};
}

}  // namespace

/// One scrape connection: read the request head, write the reply, close.
struct TelemetryServer::Connection {
  Connection(int fd, Clock::time_point deadline)
      : fd(fd), deadline(deadline) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  std::uint64_t last_active = 0;  ///< loop tick of its latest event
  /// Reading: the head deadline, counted from accept. Writing: when the
  /// reply fails unless the peer takes more of it.
  Clock::time_point deadline;
  std::string head;      ///< request bytes read so far
  std::string reply;     ///< the response; empty while reading the head
  std::size_t sent = 0;  ///< bytes of `reply` written so far
};

TelemetryServer::TelemetryServer(TelemetryServerConfig config)
    : config_(std::move(config)),
      io_timeout_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(
              std::clamp(config_.io_timeout_seconds, 0.0, 1e6)))) {}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start() {
  if (listen_fd_ >= 0) return true;
  last_error_.clear();
  std::uint16_t port = config_.port;
  listen_fd_ = util::listen_loopback(port, SOMAXCONN, last_error_);
  if (listen_fd_ < 0) return false;
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (wake_fd_ < 0 || epoll_fd_ < 0 ||
      !util::watch(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, EPOLLIN, nullptr) ||
      !util::watch(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, EPOLLIN,
                   &listen_fd_)) {
    last_error_ = std::string("epoll: ") + std::strerror(errno);
    stop();
    return false;
  }
  port_ = port;
  thread_ = std::thread([this] { run(); });
  return true;
}

void TelemetryServer::stop() {
  if (listen_fd_ < 0) return;
  if (thread_.joinable()) {
    util::wake(wake_fd_);
    thread_.join();
  }
  connections_.clear();
  accept_retry_ = Clock::time_point::max();
  for (int* fd : {&listen_fd_, &wake_fd_, &epoll_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  port_ = 0;
}

void TelemetryServer::run() {
  constexpr int kMaxEvents = 16;
  epoll_event events[kMaxEvents]{};
  int timeout_ms = -1;
  while (true) {
    const int ready = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    bool listening = false;
    for (int i = 0; i < ready; ++i) {
      void* const tag = events[i].data.ptr;
      if (tag == nullptr) return;  // stop()
      if (tag == &listen_fd_) {
        listening = true;
        continue;
      }
      // Only a connection's own event closes it during the batch, so no
      // later event in it points at a closed connection.
      auto* conn = static_cast<Connection*>(tag);
      conn->last_active = ++tick_;
      if (!advance(*conn)) {
        std::erase_if(connections_,
                      [conn](const auto& c) { return c.get() == conn; });
      }
    }
    // After the batch: shedding may close a connection with an event in it.
    if (listening) accept_connection();
    timeout_ms = expire();
  }
}

void TelemetryServer::accept_connection() {
  const auto accepted =
      util::accept_or_shed(listen_fd_, connections_, kMaxConnections);
  LFO_COUNTER_ADD("lfo_telemetry_accept_errors_total", accepted.errors);
  LFO_COUNTER_ADD("lfo_telemetry_shed_connections_total", accepted.shed);
  if (accepted.back_off) {
    // The listener is level-triggered and its connection still queued:
    // mute it until expire() re-arms it.
    util::watch(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, 0, &listen_fd_);
    accept_retry_ = Clock::now() + util::kAcceptBackoff;
    return;
  }
  if (accepted.fd < 0) return;
  auto conn =
      std::make_unique<Connection>(accepted.fd, Clock::now() + io_timeout_);
  conn->last_active = ++tick_;
  // Edge-triggered: advance() runs a connection until it would block, so
  // its interest never has to change.
  if (util::watch(epoll_fd_, EPOLL_CTL_ADD, conn->fd,
                  EPOLLIN | EPOLLOUT | EPOLLET, conn.get())) {
    connections_.push_back(std::move(conn));
  }
}

int TelemetryServer::expire() {
  const auto now = Clock::now();
  if (accept_retry_ <= now) {
    accept_retry_ = Clock::time_point::max();
    util::watch(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, EPOLLIN, &listen_fd_);
  }
  auto next = accept_retry_;
  std::erase_if(connections_, [&](const auto& conn) {
    // Past its deadline a reply is closed, and a head answered.
    if (conn->deadline <= now && (!conn->reply.empty() || !advance(*conn))) {
      return true;
    }
    next = std::min(next, conn->deadline);
    return false;
  });
  if (next == Clock::time_point::max()) return -1;
  return static_cast<int>(
      std::chrono::ceil<std::chrono::milliseconds>(next - now).count());
}

LFO_ENDPOINT_HANDLER
bool TelemetryServer::advance(Connection& conn) const {
  const auto respond = [&](const HttpResponse& resp) {
    std::ostringstream out;
    out << "HTTP/1.1 " << resp.status << ' ' << status_reason(resp.status)
        << "\r\nContent-Type: " << resp.content_type
        << "\r\nContent-Length: " << resp.body.size()
        << "\r\nConnection: close\r\n\r\n"
        << resp.body;
    conn.reply = out.str();
    conn.deadline = Clock::now() + io_timeout_;
  };
  while (conn.reply.empty()) {
    char buf[1024];
    const ssize_t n = Clock::now() < conn.deadline
                          ? ::recv(conn.fd, buf, sizeof(buf), 0)
                          : 0;
    if (util::would_block(n)) return true;
    if (n <= 0) {  // the head deadline, EOF or an error: answer what we have
      respond(bad_request(400, "incomplete request"));
      break;
    }
    conn.head.append(buf, static_cast<std::size_t>(n));
    if (conn.head.find("\r\n\r\n") != std::string::npos) {
      respond(handle_request(conn.head));
    } else if (conn.head.size() > kMaxRequestBytes) {
      respond(bad_request(431, "request head too large"));
    }
  }
  while (conn.sent < conn.reply.size()) {
    const ssize_t n = ::send(conn.fd, conn.reply.data() + conn.sent,
                             conn.reply.size() - conn.sent, MSG_NOSIGNAL);
    if (util::would_block(n)) return true;
    if (n <= 0) return false;
    conn.sent += static_cast<std::size_t>(n);
    conn.deadline = Clock::now() + io_timeout_;
  }
  return false;  // replied in full; every response is Connection: close
}

MetricsSnapshot TelemetryServer::snapshot() const {
  auto snap = MetricsRegistry::instance().snapshot();
  if (config_.collect) config_.collect(snap);
  return snap;
}

LFO_ENDPOINT_HANDLER
HttpResponse TelemetryServer::handle_request(
    std::string_view request) const {
  // Request line: METHOD SP TARGET SP VERSION CRLF. Anything that does
  // not parse maps to a 4xx — never an assertion — because the bytes
  // come from outside the process (lfo_lint `endpoint` rule).
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string_view::npos) {
    return bad_request(400, "malformed request line");
  }
  const std::string_view line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos
                                    : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp2 == sp1 + 1) {
    return bad_request(400, "malformed request line");
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (version.substr(0, 5) != "HTTP/") {
    return bad_request(400, "malformed request line");
  }
  if (method != "GET") return bad_request(405, "only GET is supported");
  const std::size_t qmark = target.find('?');
  const std::string_view path = target.substr(0, qmark);
  const std::string_view query =
      qmark == std::string_view::npos ? std::string_view{}
                                      : target.substr(qmark + 1);
  if (path.empty() || path.front() != '/') {
    return bad_request(400, "target must be an absolute path");
  }
  count_request(path);

  HttpResponse resp;
  if (path == "/metrics") {
    std::ostringstream body;
    write_prometheus_text(body, snapshot());
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = body.str();
    return resp;
  }
  if (path == "/stats") {
    std::ostringstream body;
    char ts[64];
    std::snprintf(ts, sizeof(ts), "%.17g",
                  static_cast<double>(detail::monotonic_ns()) * 1e-9);
    body << "{\"monotonic_seconds\":" << ts << ',';
    append_build_info_json(body);
    body << ',';
    append_snapshot_json(body, snapshot());
    body << '}';
    resp.content_type = "application/json";
    resp.body = body.str();
    return resp;
  }
  if (path == "/healthz") {
    HealthStatus health;
    if (config_.health) health = config_.health();
    resp.status = health.serving ? 200 : 503;
    resp.content_type = "application/json";
    resp.body = std::string("{\"serving\":") +
                (health.serving ? "true" : "false") + ",\"detail\":\"" +
                json_escaped(health.detail) + "\"}";
    return resp;
  }
  if (path == "/vars") {
    const auto [has_name, name] = query_param(query, "name");
    if (!has_name || name.empty()) {
      return bad_request(400, "missing ?name=<metric>");
    }
    const auto snap = snapshot();
    for (const auto& c : snap.counters) {
      if (c.name == name) {
        resp.body = std::to_string(c.value) + "\n";
        return resp;
      }
    }
    for (const auto& g : snap.gauges) {
      if (g.name == name) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g\n", g.value);
        resp.body = buf;
        return resp;
      }
    }
    for (const auto& h : snap.histograms) {
      if (h.name == name) {
        std::ostringstream body;
        MetricsSnapshot one;
        one.histograms.push_back(h);
        append_snapshot_json(body, one);
        resp.content_type = "application/json";
        resp.body = "{" + body.str() + "}";
        return resp;
      }
    }
    return error_response(404, "no such metric");
  }
  if (path == "/trace") {
    std::ostringstream body;
    write_chrome_trace(body);
    resp.content_type = "application/json";
    resp.body = body.str();
    return resp;
  }
  return error_response(404, "unknown endpoint");
}

std::string fetch_local(std::uint16_t port, std::string_view target,
                        double timeout_seconds) {
  const int fd = util::connect_loopback(port, timeout_seconds);
  if (fd < 0) return {};
  std::string request = "GET ";
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  if (!util::send_all(fd, request.data(), request.size())) {
    ::close(fd);
    return {};
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace lfo::obs
