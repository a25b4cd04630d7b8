#include "svc/introspect.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace_recorder.hpp"

namespace logpc::svc {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Internal Server Error";
  }
}

/// The spans /tracez lists verbatim (the Chrome trace below carries all of
/// them): newest-first would surprise trace viewers, so keep recorder order
/// and cap from the old end.
constexpr std::size_t kTracezSpans = 128;

}  // namespace

std::string IntrospectServer::HttpResponse::serialize() const {
  std::string out;
  out.reserve(body.size() + 160);
  out += "HTTP/1.1 " + std::to_string(status) + " " + status_text(status) +
         "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

IntrospectServer::IntrospectServer(const CollectiveService& service,
                                   Options options)
    : service_(service), opts_(std::move(options)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("introspect: socket(): ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.bind.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("introspect: bad bind address '" + opts_.bind +
                             "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("introspect: cannot listen on " + opts_.bind +
                             ":" + std::to_string(opts_.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  thread_ = std::thread([this] { serve(); });
}

IntrospectServer::~IntrospectServer() {
  stop_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    // Waking the blocked accept() is belt-and-braces: shutdown() makes it
    // fail with EINVAL on Linux, but on BSD/macOS shutdown() of a listening
    // socket is ENOTCONN and accept() stays parked — so also poke the
    // listener with a throwaway self-connect the serve loop discards once
    // it sees stop_.
    ::shutdown(listen_fd_, SHUT_RDWR);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0) {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port_));
      const char* host =
          opts_.bind == "0.0.0.0" ? "127.0.0.1" : opts_.bind.c_str();
      if (::inet_pton(AF_INET, host, &addr.sin_addr) == 1) {
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
      }
      ::close(fd);
    }
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void IntrospectServer::serve() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stop_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);  // the destructor's wakeup self-connect
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener shut down (or unrecoverable): stop serving
    }
    // A stalled client (connected but silent, or never reading the
    // response) must not wedge the single accept thread — nor the
    // destructor's join behind it. A couple of seconds is generous for a
    // scraper on loopback.
    timeval io_timeout{};
    io_timeout.tv_sec = 2;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &io_timeout, sizeof io_timeout);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &io_timeout, sizeof io_timeout);
    // One tiny request per connection: read until the header terminator
    // (we ignore bodies — every route is a GET), bounded so a hostile
    // client cannot grow the buffer.
    std::string req;
    char buf[2048];
    while (req.find("\r\n\r\n") == std::string::npos && req.size() < 16384) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      req.append(buf, static_cast<std::size_t>(n));
    }
    std::string_view method = "GET";
    std::string_view target = "/";
    const std::size_t sp1 = req.find(' ');
    if (sp1 != std::string::npos) {
      method = std::string_view(req).substr(0, sp1);
      const std::size_t sp2 = req.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) {
        target = std::string_view(req).substr(sp1 + 1, sp2 - sp1 - 1);
      }
    }
    const std::string wire = handle(method, target).serialize();
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }
}

IntrospectServer::HttpResponse IntrospectServer::handle(
    std::string_view method, std::string_view target) const {
  HttpResponse r;
  if (method != "GET") {
    r.status = 405;
    r.body = "method not allowed\n";
    return r;
  }
  const std::size_t q = target.find('?');
  const std::string_view path =
      q == std::string_view::npos ? target : target.substr(0, q);
  if (path == "/healthz") {
    r.body = "ok\n";
  } else if (path == "/metrics") {
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = obs::prometheus_text(obs::MetricsRegistry::global());
  } else if (path == "/statusz") {
    r.content_type = "application/json; charset=utf-8";
    r.body = statusz_json();
  } else if (path == "/tracez") {
    r.content_type = "application/json; charset=utf-8";
    r.body = tracez_json();
  } else if (path == "/") {
    r.body = "logpc collective service\n/healthz\n/metrics\n/statusz\n/tracez\n";
  } else {
    r.status = 404;
    r.body = "not found\n";
  }
  return r;
}

std::string IntrospectServer::statusz_json() const {
  const CollectiveService::ServiceStatus s = service_.status();
  std::string out = "{";
  out += "\"accepting\":" + std::string(s.accepting ? "true" : "false");
  out += ",\"paused\":" + std::string(s.paused ? "true" : "false");
  out += ",\"pools\":" + std::to_string(s.pools);
  out += ",\"queued\":" + std::to_string(s.queued);
  out += ",\"throughput\":{";
  out += "\"inflight\":" + std::to_string(s.inflight);
  out += ",\"fused_requests\":" + std::to_string(s.fused_requests);
  out += ",\"fused_batches\":" + std::to_string(s.fused_batches);
  out += ",\"segmented_runs\":" + std::to_string(s.segmented_runs);
  out += ",\"caller_runs\":" + std::to_string(s.caller_runs);
  out += "}";
  out += ",\"params\":{\"P\":" + std::to_string(s.params.P) +
         ",\"L\":" + std::to_string(s.params.L) +
         ",\"o\":" + std::to_string(s.params.o) +
         ",\"g\":" + std::to_string(s.params.g) + "}";
  out += ",\"tenants\":[";
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    const auto& t = s.tenants[i];
    if (i > 0) out += ",";
    out += "{\"id\":" + std::to_string(t.id);
    out += ",\"name\":" + obs::json_string(t.name);
    out += ",\"weight\":" + std::to_string(t.weight);
    out += ",\"queue_capacity\":" + std::to_string(t.queue_capacity);
    out += ",\"rate_per_sec\":" + obs::json_number(t.rate_per_sec);
    out += ",\"queue_depth\":{";
    for (std::size_t qc = 0; qc < kQoSClasses; ++qc) {
      if (qc > 0) out += ",";
      out += obs::json_string(qos_name(static_cast<QoS>(qc))) + ":" +
             std::to_string(t.depth_by_qos[qc]);
    }
    out += "}";
    out += ",\"admitted\":" + std::to_string(t.counters.admitted);
    out += ",\"completed\":" + std::to_string(t.counters.completed);
    out += ",\"rejected_queue_full\":" +
           std::to_string(t.counters.rejected_queue_full);
    out += ",\"rejected_rate_limited\":" +
           std::to_string(t.counters.rejected_rate_limited);
    out += ",\"fused\":" + std::to_string(t.counters.fused);
    out += "}";
  }
  out += "]";
  const obs::FlightRecorder& rec = service_.flight_recorder();
  out += ",\"flight_recorder\":{";
  out += "\"capacity\":" + std::to_string(rec.capacity());
  out += ",\"residual_threshold\":" +
         obs::json_number(rec.residual_threshold());
  out += ",\"recorded\":" + std::to_string(s.recorder.recorded);
  out += ",\"dropped\":" + std::to_string(s.recorder.dropped);
  out += ",\"anomalies\":" + std::to_string(s.recorder.anomalies);
  out += ",\"retained\":" + std::to_string(s.recorder.retained);
  out += ",\"last_residual\":" + obs::json_number(s.recorder.last_residual);
  out += ",\"last_critical_path_ns\":" +
         std::to_string(s.recorder.last_critical_path_ns);
  out += "}}";
  return out;
}

std::string IntrospectServer::tracez_json() const {
  const obs::TraceRecorder& rec = obs::TraceRecorder::global();
  const std::vector<obs::TraceEvent> events = rec.events();
  const std::shared_ptr<const obs::RunProfile> profile =
      service_.flight_recorder().last();

  std::string out = "{";
  out += "\"dropped\":" + std::to_string(rec.dropped());
  out += ",\"spans\":[";
  const std::size_t first =
      events.size() > kTracezSpans ? events.size() - kTracezSpans : 0;
  for (std::size_t i = first; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (i > first) out += ",";
    out += "{\"name\":" + obs::json_string(e.name);
    out += ",\"cat\":" + obs::json_string(e.cat);
    out += ",\"arg\":" + obs::json_string(e.arg);
    out += ",\"ts_ns\":" + std::to_string(e.ts_ns);
    out += ",\"dur_ns\":" + std::to_string(e.dur_ns);
    out += ",\"tid\":" + std::to_string(e.tid) + "}";
  }
  out += "]";
  if (profile != nullptr) {
    out += ",\"last_profile\":{";
    out += "\"label\":" + obs::json_string(profile->label);
    out += ",\"P\":" + std::to_string(profile->P);
    out += ",\"wall_ns\":" + std::to_string(profile->wall_ns);
    out += ",\"critical_path_ns\":" +
           std::to_string(profile->critical_path_ns);
    out += ",\"straggler\":" + std::to_string(profile->straggler);
    out += ",\"predicted_ns\":" + obs::json_number(profile->predicted_ns);
    out += ",\"residual\":" + obs::json_number(profile->residual);
    out += ",\"anomalous\":" +
           std::string(profile->anomalous ? "true" : "false");
    out += ",\"hops\":" + std::to_string(profile->critical_path.size());
    out += ",\"components_ns\":{";
    for (std::size_t c = 0; c < obs::kComponents; ++c) {
      if (c > 0) out += ",";
      const auto comp = static_cast<obs::Component>(c);
      out += obs::json_string(obs::component_name(comp)) + ":" +
             std::to_string(profile->total_ns(comp));
    }
    out += "}}";
  } else {
    out += ",\"last_profile\":null";
  }
  // A complete, loadable chrome://tracing / Perfetto document: the runtime
  // spans plus the last profiled run's color-coded component tracks.
  obs::ChromeTraceWriter writer;
  writer.add(rec);
  if (profile != nullptr) writer.add(*profile);
  out += ",\"chrome_trace\":" + writer.json();
  out += "}";
  return out;
}

}  // namespace logpc::svc
