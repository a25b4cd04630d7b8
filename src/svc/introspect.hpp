#pragma once

#include <atomic>
#include <string>
#include <string_view>
#include <thread>

#include "svc/service.hpp"

/// \file introspect.hpp
/// The live introspection endpoint of a CollectiveService: a deliberately
/// tiny blocking HTTP/1.1 server over plain POSIX sockets (no third-party
/// dependency), serving the four pages an operator reaches for first:
///
///   GET /healthz   liveness — "ok" while the service object exists
///   GET /metrics   Prometheus text exposition 0.0.4 of the global
///                  MetricsRegistry (what a scraper would pull)
///   GET /statusz   JSON snapshot of the daemon: admission state, engine
///                  pools, throughput totals (fused, segmented and
///                  caller-thread runs), per-tenant config + counters +
///                  per-QoS queue depths, flight-recorder summary
///   GET /tracez    JSON of the most recent runtime spans plus a complete
///                  Chrome-trace (chrome://tracing / Perfetto) timeline of
///                  the spans and the last profiled run's per-rank
///                  component tracks
///
/// Design constraints, in order: zero dependencies, zero effect on the
/// serving path (one accept thread, every page rendered from snapshots
/// taken under the service's ordinary locks), and testability — the
/// route handler is a pure function of (method, target) exposed as
/// handle(), so the conformance tests can lint full response bodies
/// without racing a socket, while the integration tests exercise the real
/// TCP path on an ephemeral port (Options::port = 0, read back via
/// port()).
///
/// One request per connection ("Connection: close"): introspection traffic
/// is a human or a scraper every few seconds, not a load target.  The
/// server binds loopback by default; exposing it wider is the caller's
/// explicit choice (CollectiveService::Options::introspect_bind).

namespace logpc::svc {

class IntrospectServer {
 public:
  struct Options {
    std::string bind = "127.0.0.1";  ///< IPv4 dotted-quad to bind
    int port = 0;                    ///< 0 = kernel-assigned ephemeral port
  };

  /// What one route produces; serialize() turns it into the bytes on the
  /// wire.
  struct HttpResponse {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
    [[nodiscard]] std::string serialize() const;
  };

  /// Binds, listens and starts the accept thread.  Throws
  /// std::runtime_error when the socket cannot be bound (port taken, bad
  /// address).  `service` must outlive the server — CollectiveService owns
  /// and destroys it first in shutdown().
  IntrospectServer(const CollectiveService& service, Options options);
  ~IntrospectServer();  ///< stops the listener and joins the thread
  IntrospectServer(const IntrospectServer&) = delete;
  IntrospectServer& operator=(const IntrospectServer&) = delete;

  /// The bound TCP port (the ephemeral one when Options::port was 0).
  [[nodiscard]] int port() const { return port_; }

  /// Pure routing: the response for one request line.  `target` may carry
  /// a query string; it is ignored.  Unknown paths get 404, non-GET
  /// methods 405.
  [[nodiscard]] HttpResponse handle(std::string_view method,
                                    std::string_view target) const;

 private:
  void serve();
  [[nodiscard]] std::string statusz_json() const;
  [[nodiscard]] std::string tracez_json() const;

  const CollectiveService& service_;
  Options opts_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace logpc::svc
