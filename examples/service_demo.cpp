/// Collective-service demo: the daemon view of the paper's collectives.
/// Instead of calling run_broadcast one collective at a time, three
/// tenants — an interactive dashboard, a batch analytics job and a
/// best-effort backfill — submit requests into a long-running
/// CollectiveService and get futures back while the service:
///
///   1. admits or rejects each request synchronously (bounded per-tenant
///      queues, a token-bucket rate limit on the backfill tenant),
///   2. orders dispatch by QoS class, then weighted fair share among the
///      tenants inside a class, and
///   3. executes on persistent, prewarmed engine pools, so every run
///      reports warm_pool — no thread is spawned on the request path.
///
///   ./service_demo                          # one-shot demo
///   ./service_demo --introspect 0           # also serve HTTP introspection
///   ./service_demo --introspect 8080 --serve-ms 5000
///
/// With --introspect the daemon binds the live endpoint (port 0 picks an
/// ephemeral port, printed as "introspect: listening on ..."), and
/// --serve-ms keeps the service alive that long after the demo workload so
/// /healthz, /metrics, /statusz and /tracez can be scraped.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "svc/service.hpp"

int main(int argc, char** argv) {
  using namespace logpc;
  const Params machine{8, 4, 1, 2};

  int introspect_port = -1;  // disabled unless --introspect is given
  int serve_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--introspect" && i + 1 < argc) {
      introspect_port = std::atoi(argv[++i]);
    } else if (arg == "--serve-ms" && i + 1 < argc) {
      serve_ms = std::atoi(argv[++i]);
    } else {
      std::cerr << "usage: service_demo [--introspect PORT] [--serve-ms MS]\n";
      return 2;
    }
  }

  svc::CollectiveService::Options opts;
  opts.pools = 2;
  opts.introspect_port = introspect_port;
  svc::CollectiveService service(machine, opts);
  service.pause();  // build a backlog first, so policy is visible

  if (introspect_port >= 0) {
    std::cout << "introspect: listening on 127.0.0.1:"
              << service.introspect_port() << "\n";
  }

  const svc::TenantId dashboard = service.register_tenant(
      {.name = "dashboard", .weight = 4, .queue_capacity = 16});
  const svc::TenantId analytics = service.register_tenant(
      {.name = "analytics", .weight = 2, .queue_capacity = 32});
  const svc::TenantId backfill = service.register_tenant(
      {.name = "backfill", .weight = 1, .queue_capacity = 8,
       .rate_per_sec = 4.0, .burst = 4.0});

  const auto payload = [](const std::string& s) {
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    return exec::Bytes(p, p + s.size());
  };
  const auto submit = [&](svc::TenantId t, svc::QoS qos,
                          const std::string& text) {
    svc::Request req;
    req.op = svc::OpKind::kBroadcast;
    req.qos = qos;
    req.payload = payload(text);
    return service.submit(t, std::move(req));
  };

  // A paused burst: analytics and backfill flood first, then the
  // dashboard's interactive requests arrive last — and still go first.
  std::vector<std::pair<std::string, std::future<svc::Response>>> inflight;
  int shed = 0;
  for (int i = 0; i < 12; ++i) {
    auto r = submit(analytics, svc::QoS::kBatch, "rollup");
    if (r.accepted()) inflight.emplace_back("analytics", std::move(r.response));
  }
  for (int i = 0; i < 12; ++i) {
    auto r = submit(backfill, svc::QoS::kBestEffort, "backfill");
    if (r.accepted()) {
      inflight.emplace_back("backfill ", std::move(r.response));
    } else {
      ++shed;  // rate limit + queue bound: overload is explicit, not queued
    }
  }
  for (int i = 0; i < 4; ++i) {
    auto r = submit(dashboard, svc::QoS::kInteractive, "refresh");
    if (r.accepted()) inflight.emplace_back("dashboard", std::move(r.response));
  }
  std::cout << "submitted " << inflight.size() << " requests, " << shed
            << " shed at admission (backfill over rate/capacity)\n\n";

  service.resume();

  std::vector<std::pair<std::uint64_t, std::string>> order;
  int warm = 0;
  for (auto& [who, fut] : inflight) {
    const svc::Response r = fut.get();
    if (r.status != svc::Status::kOk) {
      std::cout << "request failed: " << r.error << "\n";
      return 1;
    }
    warm += r.report.warm_pool ? 1 : 0;
    order.emplace_back(r.dispatch_seq, who);
  }
  std::sort(order.begin(), order.end());
  std::cout << "dispatch order (QoS class first, fair share within):\n  ";
  for (const auto& [seq, who] : order) {
    std::cout << who[0];  // d=dashboard, a=analytics, b=backfill
  }
  std::cout << "\n  (" << warm << "/" << order.size()
            << " runs on warm pools)\n\n";

  for (const svc::TenantId t : {dashboard, analytics, backfill}) {
    const auto c = service.tenant_counters(t);
    std::cout << "tenant " << t << ": admitted " << c.admitted
              << ", completed " << c.completed << ", rejected "
              << c.rejected_queue_full + c.rejected_rate_limited << "\n";
  }

  if (serve_ms > 0) {
    std::cout << "\nserving introspection for " << serve_ms << "ms...\n"
              << std::flush;
    std::this_thread::sleep_for(std::chrono::milliseconds(serve_ms));
  }

  service.shutdown(/*drain=*/true);
  std::cout << "\nservice drained and stopped\n";
  return 0;
}
