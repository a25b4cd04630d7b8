#include "svc/introspect.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "../support/http_client.hpp"
#include "../support/json_validator.hpp"
#include "svc/service.hpp"

/// Live-socket tests of the introspection endpoint: a real
/// CollectiveService bound to an ephemeral loopback port (introspect_port
/// = 0), exercised through actual HTTP GETs.  Routing corner cases (404,
/// 405, query strings) go through the same server; response bodies are
/// validated structurally, not just grepped.

namespace logpc::svc {
namespace {

using testsupport::http_get;
using testsupport::http_request;
using testsupport::HttpReply;
using testsupport::JsonValidator;

Params machine() { return Params{4, 4, 1, 2}; }

exec::Bytes payload() {
  const std::string s = "introspect-payload";
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return exec::Bytes(p, p + s.size());
}

class IntrospectTest : public ::testing::Test {
 protected:
  IntrospectTest() {
    CollectiveService::Options opts;
    opts.pools = 1;
    opts.introspect_port = 0;  // ephemeral: the kernel picks, we read back
    svc_ = std::make_unique<CollectiveService>(machine(), opts);
    tenant_ = svc_->register_tenant(
        {.name = "introspect \"quoted\" tenant", .weight = 3});
    // One completed run so /tracez has a profile and /metrics has series.
    Request req;
    req.op = OpKind::kBroadcast;
    req.payload = payload();
    SubmitResult sub = svc_->submit(tenant_, std::move(req));
    EXPECT_TRUE(sub.accepted());
    EXPECT_EQ(sub.response.get().status, Status::kOk);
    port_ = svc_->introspect_port();
  }

  std::unique_ptr<CollectiveService> svc_;
  TenantId tenant_ = -1;
  int port_ = -1;
};

TEST_F(IntrospectTest, BindsAnEphemeralPort) {
  EXPECT_GT(port_, 0);
  EXPECT_LE(port_, 65535);
}

TEST_F(IntrospectTest, HealthzIsOk) {
  const HttpReply r = http_get(port_, "/healthz");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");
  EXPECT_NE(r.headers.find("Content-Length: 3"), std::string::npos);
}

TEST_F(IntrospectTest, MetricsServesExpositionText) {
  const HttpReply r = http_get(port_, "/metrics");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.headers.find("version=0.0.4"), std::string::npos);
  EXPECT_FALSE(r.body.empty());
  EXPECT_NE(r.body.find("logpc_svc_admitted_total"), std::string::npos);
  EXPECT_NE(r.body.find("logpc_profile_runs_total"), std::string::npos);
}

TEST_F(IntrospectTest, StatuszIsValidJsonWithTenantsAndRecorder) {
  const HttpReply r = http_get(port_, "/statusz");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(JsonValidator(r.body).valid()) << r.body;
  EXPECT_NE(r.body.find("\"accepting\":true"), std::string::npos);
  EXPECT_NE(r.body.find("\"pools\":1"), std::string::npos);
  // The tenant's hostile name arrives escaped but intact.
  EXPECT_NE(r.body.find("introspect \\\"quoted\\\" tenant"),
            std::string::npos);
  EXPECT_NE(r.body.find("\"weight\":3"), std::string::npos);
  EXPECT_NE(r.body.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(r.body.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(r.body.find("\"interactive\""), std::string::npos);
  // The fixture's one request met an idle service and ran on its caller.
  EXPECT_NE(r.body.find("\"caller_runs\":1"), std::string::npos);
}

TEST_F(IntrospectTest, TracezIsValidJsonWithProfileAndChromeTrace) {
  const HttpReply r = http_get(port_, "/tracez");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(JsonValidator(r.body).valid()) << r.body;
  EXPECT_NE(r.body.find("\"last_profile\""), std::string::npos);
  EXPECT_NE(r.body.find("\"critical_path_ns\""), std::string::npos);
  EXPECT_NE(r.body.find("\"components_ns\""), std::string::npos);
  EXPECT_NE(r.body.find("\"send_overhead\""), std::string::npos);
  // The embedded Chrome trace document with the profile's rank tracks.
  EXPECT_NE(r.body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(r.body.find("\"run profile\""), std::string::npos);
  EXPECT_NE(r.body.find("\"critical path\""), std::string::npos);
}

TEST_F(IntrospectTest, QueryStringsAreIgnored) {
  const HttpReply r = http_get(port_, "/healthz?verbose=1");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");
}

TEST_F(IntrospectTest, UnknownPathIs404) {
  const HttpReply r = http_get(port_, "/nope");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 404);
}

TEST_F(IntrospectTest, NonGetIs405) {
  const HttpReply r = http_request(port_, "/metrics", "POST");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 405);
}

TEST_F(IntrospectTest, ProfileRidesOnTheResponse) {
  Request req;
  req.op = OpKind::kBroadcast;
  req.payload = payload();
  SubmitResult sub = svc_->submit(tenant_, std::move(req));
  ASSERT_TRUE(sub.accepted());
  const Response resp = sub.response.get();
  ASSERT_EQ(resp.status, Status::kOk);
  ASSERT_NE(resp.profile, nullptr);
  EXPECT_EQ(resp.profile->P, machine().P);
  EXPECT_FALSE(resp.profile->critical_path.empty());
  EXPECT_EQ(resp.profile->critical_path.back().rank,
            resp.profile->straggler);
  // The same profile is retained by the recorder.
  EXPECT_EQ(svc_->flight_recorder().last(), resp.profile);
}

TEST_F(IntrospectTest, ServerStopsWithShutdown) {
  svc_->shutdown(true);
  EXPECT_EQ(svc_->introspect_port(), -1);
  const HttpReply r = http_get(port_, "/healthz");
  EXPECT_FALSE(r.ok);  // connection refused or reset — nothing serving
}

TEST_F(IntrospectTest, SilentClientDoesNotWedgeShutdown) {
  // A client that connects and never sends (or reads) must not hang
  // shutdown(): the accepted socket carries recv/send timeouts, so the
  // accept thread frees itself and the destructor's join completes.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  // Give the accept thread a beat to park in recv() on the silent socket —
  // the case that used to deadlock the destructor's join.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  svc_->shutdown(true);  // must return (recv times out) instead of hanging
  EXPECT_EQ(svc_->introspect_port(), -1);
  ::close(fd);
}

TEST(Introspect, TakenPortSurfacesAsException) {
  CollectiveService::Options opts;
  opts.pools = 1;
  opts.introspect_port = 0;
  CollectiveService first(machine(), opts);
  ASSERT_GT(first.introspect_port(), 0);
  // Binding the same fixed port again must surface as a catchable
  // exception from the constructor, with nothing left running.
  opts.introspect_port = first.introspect_port();
  EXPECT_THROW(CollectiveService(machine(), opts), std::runtime_error);
}

TEST(Introspect, BadBindAddressSurfacesAsException) {
  CollectiveService::Options opts;
  opts.pools = 1;
  opts.introspect_port = 0;
  opts.introspect_bind = "not-an-address";
  EXPECT_THROW(CollectiveService(machine(), opts), std::runtime_error);
}

TEST(Introspect, DisabledByDefault) {
  CollectiveService svc(machine(), {});
  EXPECT_EQ(svc.introspect_port(), -1);
}

TEST(Introspect, ProfilingCanBeTurnedOff) {
  CollectiveService::Options opts;
  opts.pools = 1;
  opts.profile = false;
  CollectiveService svc(machine(), opts);
  const TenantId t = svc.register_tenant({.name = "no-profile"});
  Request req;
  req.op = OpKind::kBroadcast;
  req.payload = payload();
  SubmitResult sub = svc.submit(t, std::move(req));
  ASSERT_TRUE(sub.accepted());
  const Response resp = sub.response.get();
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.profile, nullptr);
  EXPECT_EQ(svc.flight_recorder().summary().recorded, 0u);
}

}  // namespace
}  // namespace logpc::svc
