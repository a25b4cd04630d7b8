#include <gtest/gtest.h>

#include <future>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../support/http_client.hpp"
#include "svc/service.hpp"

/// Prometheus text-exposition conformance lint: scrape a *live* service's
/// /metrics over HTTP and check every line against the 0.0.4 line grammar
/// — HELP/TYPE comments, metric names, label bodies (escaped values),
/// numeric sample values — plus the structural rules a real scraper
/// relies on: TYPE before samples, histograms ending in
/// _bucket/_sum/_count with a +Inf bucket, and one TYPE per family.

namespace logpc::obs {
namespace {

using testsupport::http_get;
using testsupport::HttpReply;

/// One scrape of a service that has done real work (runs completed, a
/// rejection recorded), shared by every lint below.
std::string scrape() {
  static const std::string body = [] {
    svc::CollectiveService::Options opts;
    opts.pools = 1;
    opts.introspect_port = 0;
    svc::CollectiveService svc(Params{4, 4, 1, 2}, opts);
    const svc::TenantId t = svc.register_tenant(
        {.name = "lint \"tenant\"\nwith\\escapes", .queue_capacity = 1});
    const std::string payload = "lint-payload";
    const auto* p = reinterpret_cast<const std::byte*>(payload.data());
    for (int i = 0; i < 3; ++i) {
      svc::Request req;
      req.op = svc::OpKind::kBroadcast;
      req.payload = exec::Bytes(p, p + payload.size());
      svc::SubmitResult sub = svc.submit(t, std::move(req));
      if (sub.accepted()) sub.response.get();
    }
    const HttpReply r = http_get(svc.introspect_port(), "/metrics");
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.status, 200);
    return r.body;
  }();
  return body;
}

const std::regex& help_re() {
  static const std::regex re(R"(^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$)");
  return re;
}

const std::regex& type_re() {
  static const std::regex re(
      R"(^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$)");
  return re;
}

/// A sample line: name, optional {labels}, a value, optional timestamp.
/// Label values allow any escaped content: (\\.|[^"\\])* inside quotes.
const std::regex& sample_re() {
  static const std::regex re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*)"
      R"((\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")"
      R"((,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})?)"
      R"( (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]?Inf|NaN)( [0-9]+)?$)");
  return re;
}

std::string family_of(const std::string& name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      return name.substr(0, name.size() - s.size());
    }
  }
  return name;
}

TEST(PrometheusLint, EveryLineMatchesTheGrammar) {
  const std::string body = scrape();
  ASSERT_FALSE(body.empty());
  std::istringstream in(body);
  std::string line;
  int lineno = 0, samples = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line.rfind("# HELP", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, help_re()))
          << "line " << lineno << ": " << line;
    } else if (line.rfind("# TYPE", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, type_re()))
          << "line " << lineno << ": " << line;
    } else if (line[0] == '#') {
      FAIL() << "line " << lineno << ": unknown comment form: " << line;
    } else {
      ++samples;
      EXPECT_TRUE(std::regex_match(line, sample_re()))
          << "line " << lineno << ": " << line;
    }
  }
  EXPECT_GT(samples, 0);
}

TEST(PrometheusLint, TypeComesBeforeSamplesOncePerFamily) {
  const std::string body = scrape();
  std::istringstream in(body);
  std::string line;
  std::set<std::string> typed;
  std::set<std::string> typed_twice;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string name;
      ls >> name;
      if (!typed.insert(name).second) typed_twice.insert(name);
    } else if (!line.empty() && line[0] != '#') {
      const std::string name = line.substr(0, line.find_first_of("{ "));
      EXPECT_TRUE(typed.count(family_of(name)) == 1 || typed.count(name) == 1)
          << "sample before its # TYPE: " << name;
    }
  }
  EXPECT_TRUE(typed_twice.empty())
      << "# TYPE repeated for: " << *typed_twice.begin();
}

TEST(PrometheusLint, HistogramsCarryInfBucketAndSumCount) {
  const std::string body = scrape();
  std::istringstream in(body);
  std::string line;
  std::set<std::string> histograms;
  std::set<std::string> inf_buckets, sums, counts;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string name, kind;
      ls >> name >> kind;
      if (kind == "histogram") histograms.insert(name);
    } else if (!line.empty() && line[0] != '#') {
      const std::string name = line.substr(0, line.find_first_of("{ "));
      const std::string fam = family_of(name);
      if (name == fam + "_bucket" &&
          line.find("le=\"+Inf\"") != std::string::npos) {
        inf_buckets.insert(fam);
      }
      if (name == fam + "_sum") sums.insert(fam);
      if (name == fam + "_count") counts.insert(fam);
    }
  }
  EXPECT_FALSE(histograms.empty());
  for (const std::string& h : histograms) {
    EXPECT_EQ(inf_buckets.count(h), 1u) << h << " lacks an le=\"+Inf\" bucket";
    EXPECT_EQ(sums.count(h), 1u) << h << " lacks _sum";
    EXPECT_EQ(counts.count(h), 1u) << h << " lacks _count";
  }
}

TEST(PrometheusLint, ThroughputSeriesExposedAndLintClean) {
  // Drive traffic that actually fuses: pause the service, stack up
  // identical-shape broadcasts, then resume so one dispatch coalesces
  // them.  All three high-throughput series must then carry non-trivial
  // values and every line must match the 0.0.4 grammar.
  svc::CollectiveService::Options opts;
  opts.pools = 1;
  opts.introspect_port = 0;
  svc::CollectiveService svc(Params{4, 4, 1, 2}, opts);
  svc.pause();
  const svc::TenantId t = svc.register_tenant({.name = "fused-lint"});
  const std::string payload = "fused-lint-data";
  const auto* p = reinterpret_cast<const std::byte*>(payload.data());
  std::vector<std::future<svc::Response>> futures;
  for (int i = 0; i < 4; ++i) {
    svc::Request req;
    req.op = svc::OpKind::kBroadcast;
    req.payload = exec::Bytes(p, p + payload.size());
    req.qos = svc::QoS::kBatch;
    svc::SubmitResult sub = svc.submit(t, std::move(req));
    ASSERT_TRUE(sub.accepted());
    futures.push_back(std::move(sub.response));
  }
  svc.resume();
  for (auto& f : futures) EXPECT_EQ(f.get().status, svc::Status::kOk);

  const HttpReply r = http_get(svc.introspect_port(), "/metrics");
  ASSERT_TRUE(r.ok);
  for (const char* name :
       {"logpc_svc_fused_requests_total", "logpc_svc_batch_size_bucket",
        "logpc_svc_batch_size_sum", "logpc_svc_batch_size_count",
        "logpc_svc_inflight", "logpc_svc_dispatch_total{path=\"caller\"}",
        "logpc_svc_dispatch_total{path=\"combined\"}"}) {
    EXPECT_NE(r.body.find(name), std::string::npos) << "missing " << name;
  }
  // All four resolved, so the inflight gauge must have returned to zero.
  EXPECT_NE(r.body.find("logpc_svc_inflight 0"), std::string::npos);
  std::istringstream in(r.body);
  std::string line;
  bool fused_nonzero = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, help_re())) << line;
    } else if (line.rfind("# TYPE", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, type_re())) << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_re())) << line;
      if (line.rfind("logpc_svc_fused_requests_total", 0) == 0 &&
          line.back() != '0') {
        fused_nonzero = true;
      }
    }
  }
  EXPECT_TRUE(fused_nonzero)
      << "expected the paused backlog to fuse at least one batch";
}

TEST(PrometheusLint, HostileTenantNameStaysOneParseableLine) {
  const std::string body = scrape();
  // The raw name would break the line grammar (embedded quote + newline);
  // escaped it must appear as one sample line that still matches.
  const std::size_t pos = body.find(R"(lint \"tenant\"\nwith\\escapes)");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t start = body.rfind('\n', pos) + 1;
  const std::size_t end = body.find('\n', pos);
  const std::string line = body.substr(start, end - start);
  EXPECT_TRUE(std::regex_match(line, sample_re())) << line;
}

}  // namespace
}  // namespace logpc::obs
