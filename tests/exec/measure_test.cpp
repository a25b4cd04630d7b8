#include "exec/measure.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace logpc::exec {
namespace {

// Synthetic-report round trip: generate event logs from known ground-truth
// parameters, fit, and assert the fit returns them.  Ground truth, in ns:
constexpr std::uint64_t kO = 20, kL = 100;
constexpr std::uint64_t kGap = 50;

void add_send(ExecReport& r, ProcId from, ProcId to, std::uint64_t start,
              std::uint64_t o) {
  ExecEvent ev;
  ev.kind = ExecEvent::Kind::kSend;
  ev.peer = to;
  ev.start_ns = start;
  ev.xfer_ns = start + o;  // push accepted after the send overhead
  ev.end_ns = ev.xfer_ns;
  r.events[static_cast<std::size_t>(from)].push_back(ev);
}

/// A receive on `at` that accepted the message of events[from][match].
void add_recv(ExecReport& r, ProcId at, ProcId from, std::uint32_t match,
              std::uint64_t wire_ns, std::uint64_t o) {
  const std::uint64_t push =
      r.events[static_cast<std::size_t>(from)][match].xfer_ns;
  ExecEvent ev;
  ev.kind = ExecEvent::Kind::kRecv;
  ev.peer = from;
  ev.match = match;
  ev.start_ns = push;
  ev.xfer_ns = push + wire_ns;     // payload arrived after the wire latency
  ev.end_ns = ev.xfer_ns + o;      // stored after the receive overhead
  r.events[static_cast<std::size_t>(at)].push_back(ev);
}

TEST(Measure, FlatFitRoundTripsKnownParameters) {
  ExecReport r;
  r.params = Params{4, 1, 0, 1};
  r.events.resize(4);
  add_send(r, 0, 1, 0, kO);
  add_send(r, 0, 2, kGap, kO);
  add_send(r, 0, 3, 2 * kGap, kO);
  add_recv(r, 1, 0, 0, kL, kO);
  add_recv(r, 2, 0, 1, kL, kO);
  add_recv(r, 3, 0, 2, kL, kO);

  const MeasuredLogP fit = measure(r);
  EXPECT_DOUBLE_EQ(fit.L_ns, static_cast<double>(kL));
  EXPECT_DOUBLE_EQ(fit.o_ns, static_cast<double>(kO));
  EXPECT_DOUBLE_EQ(fit.g_ns, static_cast<double>(kGap));
  EXPECT_EQ(fit.latency_samples, 3u);
  EXPECT_EQ(fit.overhead_samples, 6u);  // 3 sends + 3 receives
  EXPECT_EQ(fit.gap_samples, 2u);

  // Quantization to model cycles at 10 ns/cycle recovers exact integers.
  const sim::MeasuredParams cycles =
      fit.as_measured_params(10.0, Params{4, 1, 0, 1});
  EXPECT_EQ(cycles.L, 10);
  EXPECT_EQ(cycles.o, 2);
  EXPECT_EQ(cycles.g, 5);
}

}  // namespace
}  // namespace logpc::exec
