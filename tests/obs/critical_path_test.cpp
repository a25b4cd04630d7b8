#include "obs/critical_path.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "../exec/exec_test_util.hpp"
#include "api/communicator.hpp"
#include "exec/engine.hpp"
#include "exec/program.hpp"
#include "runtime/planner.hpp"
#include "sum/executor.hpp"

/// Tests of the run profiler: the five-component decomposition identity,
/// the recorded causal matches, the critical-path walk, the (L, o, g) fit
/// and the model residual — first on hand-built event logs where every
/// edge is known, then on real engine runs where the acceptance bounds
/// (components sum to the rank's span within 1%, path ends at the
/// last-finishing rank) must hold and the fit must equal, bit for bit,
/// the separate second walk that once computed it (the oracle below).

namespace logpc::obs {
namespace {

using exec::ExecEvent;

ExecEvent send_ev(ProcId peer, ItemId item, std::uint64_t start,
                  std::uint64_t xfer, std::uint64_t end, Time planned = 0) {
  return ExecEvent{ExecEvent::Kind::kSend, peer, item, ExecEvent::kNoMatch,
                   start, xfer, end, planned};
}

/// A receive of `item` from `peer` that accepted the message of the send
/// at index `match` in events[peer], as the engine records it at the pop.
ExecEvent recv_ev(ProcId peer, ItemId item, std::uint32_t match,
                  std::uint64_t start, std::uint64_t xfer, std::uint64_t end,
                  Time planned = 0) {
  return ExecEvent{ExecEvent::Kind::kRecv, peer, item, match, start, xfer,
                   end, planned};
}

/// A two-rank run: rank 0 sends at t=10..30 (pushed at 25), rank 1 waits
/// from t=5, the payload arrives at t=40, stored by t=50.
exec::ExecReport two_rank_report() {
  exec::ExecReport report;
  report.params = Params{2, 4, 1, 2};
  report.mode = exec::Mode::kMove;
  report.label = "synthetic";
  report.predicted_makespan = 7;  // o + L + o on the plan machine
  report.wall_ns = 50;
  report.events.resize(2);
  report.events[0].push_back(send_ev(1, 0, 10, 25, 30, 0));
  report.events[1].push_back(recv_ev(0, 0, 0, 5, 40, 50, 5));
  return report;
}

TEST(CriticalPath, TwoRankDecompositionIsExact) {
  const RunProfile profile = analyze(two_rank_report());
  ASSERT_EQ(profile.P, 2);

  const RankBreakdown& r0 = profile.ranks[0];
  EXPECT_EQ(r0.span_ns(), 20u);
  // A send's whole [start, end] is send overhead.
  EXPECT_EQ(r0.ns(Component::kSendOverhead), 20u);  // 10 -> 30
  EXPECT_EQ(r0.components_sum_ns(), r0.span_ns());
  EXPECT_EQ(r0.sends, 1u);
  ASSERT_EQ(profile.rank_phases(0).size(), 1u);
  EXPECT_EQ(profile.rank_phases(0)[0].end_ns, 30u);

  const RankBreakdown& r1 = profile.ranks[1];
  EXPECT_EQ(r1.span_ns(), 45u);
  EXPECT_EQ(r1.ns(Component::kLatencyWait), 35u);   // 5 -> 40
  EXPECT_EQ(r1.ns(Component::kRecvOverhead), 10u);  // 40 -> 50
  EXPECT_EQ(r1.components_sum_ns(), r1.span_ns());
  EXPECT_EQ(r1.recvs, 1u);
  // One phases array, rank by rank.
  EXPECT_EQ(profile.phases.size(), 3u);
  EXPECT_EQ(r1.phases_begin, r0.phases_end);
  EXPECT_EQ(profile.rank_phases(1)[0].component, Component::kLatencyWait);
  EXPECT_EQ(profile.rank_phases(1)[1].component, Component::kRecvOverhead);
}

TEST(CriticalPath, TwoRankPathCrossesTheWire) {
  const RunProfile profile = analyze(two_rank_report());
  EXPECT_EQ(profile.straggler, 1);
  EXPECT_EQ(profile.critical_path_ns, 50u);
  // The receive was waiting (start 5 < arrival 40), so its gating
  // predecessor is the matched send: path = send@0 -> recv@1.
  ASSERT_EQ(profile.critical_path.size(), 2u);
  EXPECT_EQ(profile.critical_path[0].rank, 0);
  EXPECT_EQ(profile.critical_path[0].kind, ExecEvent::Kind::kSend);
  EXPECT_FALSE(profile.critical_path[0].via_wire);
  EXPECT_EQ(profile.critical_path[1].rank, 1);
  EXPECT_EQ(profile.critical_path[1].kind, ExecEvent::Kind::kRecv);
  EXPECT_TRUE(profile.critical_path[1].via_wire);
}

TEST(CriticalPath, LateReceiverTakesTheStreamEdge) {
  // The receiver only *starts* its recv after the payload already sat in
  // the mailbox (start 35 >= xfer/arrival 35 means no wait on the wire):
  // the gating predecessor is its own previous event, not the send.
  exec::ExecReport report;
  report.params = Params{2, 4, 1, 2};
  report.mode = exec::Mode::kMove;
  report.events.resize(2);
  report.events[0].push_back(send_ev(1, 0, 0, 10, 12));
  report.events[1].push_back(send_ev(0, 1, 0, 20, 22));
  report.events[1].push_back(recv_ev(0, 0, 0, 35, 35, 45));
  const RunProfile profile = analyze(report);
  EXPECT_EQ(profile.straggler, 1);
  ASSERT_EQ(profile.critical_path.size(), 2u);
  EXPECT_EQ(profile.critical_path[0].rank, 1);
  EXPECT_EQ(profile.critical_path[0].kind, ExecEvent::Kind::kSend);
  EXPECT_EQ(profile.critical_path[1].rank, 1);
  EXPECT_FALSE(profile.critical_path[1].via_wire);
}

TEST(CriticalPath, FifoMatchingPairsIthSendWithIthRecv) {
  // Two messages on one link, each receive naming the send it popped: the
  // chain must thread through the *second* send (the one the straggling
  // recv recorded), not the first.
  exec::ExecReport report;
  report.params = Params{2, 4, 1, 2};
  report.mode = exec::Mode::kMove;
  report.events.resize(2);
  report.events[0].push_back(send_ev(1, 0, 0, 5, 6));
  report.events[0].push_back(send_ev(1, 1, 10, 60, 62));
  report.events[1].push_back(recv_ev(0, 0, 0, 1, 8, 9));
  report.events[1].push_back(recv_ev(0, 1, 1, 20, 70, 80));
  const RunProfile profile = analyze(report);
  ASSERT_FALSE(profile.critical_path.empty());
  const PathSegment& last = profile.critical_path.back();
  EXPECT_EQ(last.rank, 1);
  EXPECT_EQ(last.item, 1);
  EXPECT_TRUE(last.via_wire);
  // Its wire predecessor is the second send (item 1, start 10).
  const PathSegment& prev =
      profile.critical_path[profile.critical_path.size() - 2];
  EXPECT_EQ(prev.rank, 0);
  EXPECT_EQ(prev.item, 1);
  EXPECT_EQ(prev.start_ns, 10u);
}

TEST(CriticalPath, SumModeGapsCountAsFold) {
  exec::ExecReport report;
  report.params = Params{1, 4, 1, 2};
  report.mode = exec::Mode::kSum;
  report.events.resize(1);
  report.events[0].push_back(send_ev(0, 0, 0, 4, 5));
  report.events[0].push_back(send_ev(0, 1, 20, 24, 25));  // 15ns gap
  RunProfile profile = analyze(report);
  EXPECT_EQ(profile.ranks[0].ns(Component::kFold), 15u);
  EXPECT_EQ(profile.ranks[0].ns(Component::kGapStall), 0u);

  report.mode = exec::Mode::kMove;
  profile = analyze(report);
  EXPECT_EQ(profile.ranks[0].ns(Component::kFold), 0u);
  EXPECT_EQ(profile.ranks[0].ns(Component::kGapStall), 15u);
}

TEST(CriticalPath, EmptyRunProfilesCleanly) {
  exec::ExecReport report;
  report.params = Params{2, 4, 1, 2};
  report.events.resize(2);
  const RunProfile profile = analyze(report);
  EXPECT_TRUE(profile.critical_path.empty());
  EXPECT_EQ(profile.straggler, kNoProc);
  EXPECT_EQ(profile.critical_path_ns, 0u);
}

TEST(CriticalPath, RejectsOutOfOrderAndMalformedEvents) {
  exec::ExecReport report;
  report.params = Params{1, 4, 1, 2};
  report.events.resize(1);
  report.events[0].push_back(send_ev(0, 0, 10, 14, 15));
  report.events[0].push_back(send_ev(0, 1, 5, 20, 21));  // starts in the past
  EXPECT_THROW(analyze(report), std::invalid_argument);

  report.events[0].clear();
  report.events[0].push_back(send_ev(0, 0, 10, 8, 15));  // xfer before start
  EXPECT_THROW(analyze(report), std::invalid_argument);

  // A receive's match must name a send of its item to its rank.
  exec::ExecReport two = two_rank_report();
  two.events[1][0].match = 1;  // out of range: rank 0 logged one event
  EXPECT_THROW(analyze(two), std::invalid_argument);
  two = two_rank_report();
  two.events[0].push_back(recv_ev(1, 1, ExecEvent::kNoMatch, 60, 61, 62));
  two.events[1][0].match = 1;  // points at rank 0's receive
  EXPECT_THROW(analyze(two), std::invalid_argument);
  two = two_rank_report();
  two.events[1][0].item = 1;  // rank 0's send carried item 0
  EXPECT_THROW(analyze(two), std::invalid_argument);
  two = two_rank_report();
  two.events[1][0].peer = 5;  // no such rank
  EXPECT_THROW(analyze(two), std::invalid_argument);
  EXPECT_NO_THROW(analyze(two_rank_report()));
}

// --- the fit ----------------------------------------------------------------

// Synthetic-report round trip: generate event logs from known ground-truth
// parameters, fit, and assert the fit returns them.  Ground truth, in ns:
constexpr std::uint64_t kO = 20, kL = 100;
constexpr std::uint64_t kGap = 50;

void add_send(exec::ExecReport& r, ProcId from, ProcId to,
              std::uint64_t start, std::uint64_t o) {
  // Pushed, and so complete, after the send overhead.
  r.events[static_cast<std::size_t>(from)].push_back(
      send_ev(to, 0, start, start + o, start + o));
}

/// A receive on `at` that accepted the message of events[from][match].
void add_recv(exec::ExecReport& r, ProcId at, ProcId from,
              std::uint32_t match, std::uint64_t wire_ns, std::uint64_t o) {
  const std::uint64_t push =
      r.events[static_cast<std::size_t>(from)][match].xfer_ns;
  // Payload arrived after the wire latency, stored after the overhead.
  r.events[static_cast<std::size_t>(at)].push_back(
      recv_ev(from, 0, match, push, push + wire_ns, push + wire_ns + o));
}

TEST(Measure, FlatFitRoundTripsKnownParameters) {
  exec::ExecReport r;
  r.params = Params{4, 1, 0, 1};
  r.events.resize(4);
  add_send(r, 0, 1, 0, kO);
  add_send(r, 0, 2, kGap, kO);
  add_send(r, 0, 3, 2 * kGap, kO);
  add_recv(r, 1, 0, 0, kL, kO);
  add_recv(r, 2, 0, 1, kL, kO);
  add_recv(r, 3, 0, 2, kL, kO);

  const RunProfile profile = analyze(r);
  const MeasuredLogP& fit = profile.fit;
  EXPECT_DOUBLE_EQ(fit.L_ns, static_cast<double>(kL));
  EXPECT_DOUBLE_EQ(fit.o_ns, static_cast<double>(kO));
  EXPECT_DOUBLE_EQ(fit.g_ns, static_cast<double>(kGap));
  EXPECT_EQ(fit.latency_samples, 3u);
  EXPECT_EQ(fit.overhead_samples, 6u);  // 3 sends + 3 receives
  EXPECT_EQ(fit.gap_samples, 2u);
  // Least squares over the sampled pairs with cycles > 0: (L = 1, 100 ns)
  // and (g = 1, 50 ns); o = 0 cycles carries no weight.
  EXPECT_DOUBLE_EQ(profile.ns_per_cycle, 75.0);
}

// --- real engine runs ------------------------------------------------------

exec::ExecReport run_broadcast(int P) {
  api::Communicator comm(Params{P, 4, 1, 2});
  const std::string payload = "critical-path-payload";
  const auto* bytes = reinterpret_cast<const std::byte*>(payload.data());
  return comm.run_broadcast(std::span<const std::byte>(bytes, payload.size()));
}

TEST(CriticalPath, RealBroadcastDecompositionWithinOnePercent) {
  const exec::ExecReport report = run_broadcast(8);
  const RunProfile profile = analyze(report);
  ASSERT_EQ(profile.P, 8);
  for (int p = 0; p < 8; ++p) {
    const RankBreakdown& rb = profile.ranks[static_cast<std::size_t>(p)];
    if (rb.span_ns() == 0) continue;
    // The acceptance bound is 1%; the partition is exact by construction.
    const auto span = static_cast<double>(rb.span_ns());
    const auto sum = static_cast<double>(rb.components_sum_ns());
    EXPECT_LE(std::abs(sum - span), 0.01 * span) << "rank " << p;
    EXPECT_EQ(rb.components_sum_ns(), rb.span_ns()) << "rank " << p;
  }
}

TEST(CriticalPath, RealBroadcastPathEndsAtLastFinishingRank) {
  const exec::ExecReport report = run_broadcast(8);
  const RunProfile profile = analyze(report);
  std::uint64_t last_end = 0;
  for (const auto& evs : report.events) {
    if (!evs.empty()) last_end = std::max(last_end, evs.back().end_ns);
  }
  ASSERT_FALSE(profile.critical_path.empty());
  EXPECT_EQ(profile.critical_path_ns, last_end);
  EXPECT_EQ(profile.critical_path.back().rank, profile.straggler);
  EXPECT_EQ(profile.critical_path.back().end_ns, last_end);
  // Every rank received the payload, so everyone but the root appears in
  // someone's event log; the path itself is a causal chain: hops never go
  // backward in time.
  for (std::size_t i = 1; i < profile.critical_path.size(); ++i) {
    EXPECT_LE(profile.critical_path[i - 1].start_ns,
              profile.critical_path[i].end_ns);
  }
}

TEST(CriticalPath, RealBroadcastFitsAResidual) {
  const exec::ExecReport report = run_broadcast(8);
  const RunProfile profile = analyze(report);
  EXPECT_GT(profile.predicted_makespan, 0);
  EXPECT_GT(profile.ns_per_cycle, 0.0);
  EXPECT_GT(profile.predicted_ns, 0.0);
  EXPECT_TRUE(std::isfinite(profile.residual));
  // residual = measured/predicted - 1, so it can never undershoot -1.
  EXPECT_GT(profile.residual, -1.0);
}

// --- the fit against the two-walk oracle ------------------------------------
//
// The fit once had its own reader of the event log, a second walk after the
// decomposition's.  That walk and its least-squares scale are kept here as
// the oracle: analyze()'s one walk must reproduce them bit for bit.

namespace tu = exec::testutil;

/// The separate fit walk: rank by rank, event by event.
MeasuredLogP oracle_measure(const exec::ExecReport& report) {
  double latency_sum = 0;
  double overhead_sum = 0;
  double gap_sum = 0;
  MeasuredLogP out;
  for (const std::vector<ExecEvent>& evs : report.events) {
    std::uint64_t prev_send_start = 0;
    bool have_prev_send = false;
    for (const ExecEvent& ev : evs) {
      if (ev.kind == ExecEvent::Kind::kRecv) {
        overhead_sum += static_cast<double>(ev.end_ns - ev.xfer_ns);
        ++out.overhead_samples;
        const auto peer = static_cast<std::size_t>(ev.peer);
        if (peer < report.events.size() &&
            ev.match < report.events[peer].size()) {
          const std::uint64_t push = report.events[peer][ev.match].xfer_ns;
          if (ev.xfer_ns >= push) {
            latency_sum += static_cast<double>(ev.xfer_ns - push);
            ++out.latency_samples;
          }
        }
      } else {
        overhead_sum += static_cast<double>(ev.xfer_ns - ev.start_ns);
        ++out.overhead_samples;
        if (have_prev_send) {
          gap_sum += static_cast<double>(ev.start_ns - prev_send_start);
          ++out.gap_samples;
        }
        prev_send_start = ev.start_ns;
        have_prev_send = true;
      }
    }
  }
  if (out.latency_samples > 0) {
    out.L_ns = latency_sum / static_cast<double>(out.latency_samples);
  }
  if (out.overhead_samples > 0) {
    out.o_ns = overhead_sum / static_cast<double>(out.overhead_samples);
  }
  if (out.gap_samples > 0) {
    out.g_ns = gap_sum / static_cast<double>(out.gap_samples);
  }
  out.g_ns = std::max(out.g_ns, out.o_ns);
  return out;
}

/// The least-squares ns-per-cycle scale over the sampled (L, o, g) pairs.
double oracle_ns_per_cycle(const Params& machine, const MeasuredLogP& fit) {
  double num = 0, den = 0;
  auto pair = [&](Time cycles, double ns, std::size_t samples) {
    if (samples == 0 || cycles <= 0) return;
    num += static_cast<double>(cycles) * ns;
    den += static_cast<double>(cycles) * static_cast<double>(cycles);
  };
  pair(machine.L, fit.L_ns, fit.latency_samples);
  pair(machine.o, fit.o_ns, fit.overhead_samples);
  pair(machine.g, fit.g_ns, fit.gap_samples);
  return den > 0 ? num / den : 0;
}

/// Asserts analyze()'s fit, scale and residual equal the oracle's exactly.
void expect_fit_matches_oracle(const exec::ExecReport& report) {
  SCOPED_TRACE(report.label + " on " + report.params.to_string());
  ASSERT_FALSE(report.events.empty());
  const RunProfile profile = analyze(report);
  const MeasuredLogP want = oracle_measure(report);
  EXPECT_EQ(profile.fit.L_ns, want.L_ns);
  EXPECT_EQ(profile.fit.o_ns, want.o_ns);
  EXPECT_EQ(profile.fit.g_ns, want.g_ns);
  EXPECT_EQ(profile.fit.latency_samples, want.latency_samples);
  EXPECT_EQ(profile.fit.overhead_samples, want.overhead_samples);
  EXPECT_EQ(profile.fit.gap_samples, want.gap_samples);
  EXPECT_GT(want.latency_samples, 0u);
  const double scale = oracle_ns_per_cycle(report.params, want);
  EXPECT_EQ(profile.ns_per_cycle, scale);
  const double predicted =
      static_cast<double>(report.predicted_makespan) * scale;
  EXPECT_EQ(profile.predicted_ns, predicted);
  std::uint64_t last_end = 0;
  for (const auto& evs : report.events) {
    if (!evs.empty()) last_end = std::max(last_end, evs.back().end_ns);
  }
  ASSERT_GT(predicted, 0.0);
  EXPECT_EQ(profile.residual,
            (static_cast<double>(last_end) - predicted) / predicted);
}

const std::vector<Params>& oracle_machines() {
  static const std::vector<Params> machines = {
      Params{8, 4, 1, 2}, Params{12, 6, 1, 3}, Params{16, 5, 1, 2}};
  return machines;
}

TEST(FitOracle, BroadcastFitEqualsTheSeparateWalk) {
  for (const Params& machine : oracle_machines()) {
    const api::Communicator comm(machine);
    expect_fit_matches_oracle(
        comm.run_broadcast(tu::of_str("oracle broadcast payload")));
  }
}

TEST(FitOracle, KItemBroadcastFitEqualsTheSeparateWalk) {
  for (const Params& machine : oracle_machines()) {
    const auto plan = runtime::Planner::build_uncached(
        runtime::PlanKey::kitem(machine, 4));
    const exec::Program prog = exec::compile_broadcast(plan.schedule, "kitem");
    exec::Engine engine;
    expect_fit_matches_oracle(engine.run(
        prog, exec::Payload{tu::of_str("a k-item payload split in four")}));
  }
}

TEST(FitOracle, AllgatherFitEqualsTheSeparateWalk) {
  for (const Params& machine : oracle_machines()) {
    const api::Communicator comm(machine);
    std::vector<exec::Bytes> contributions;
    for (int p = 0; p < machine.P; ++p) {
      contributions.push_back(tu::of_str("from " + std::to_string(p)));
    }
    expect_fit_matches_oracle(comm.run_allgather(contributions));
  }
}

TEST(FitOracle, ReduceFitEqualsTheSeparateWalk) {
  for (const Params& machine : oracle_machines()) {
    const api::Communicator comm(machine);
    std::vector<exec::Bytes> values;
    for (int p = 0; p < machine.P; ++p) {
      values.push_back(tu::of_u64(static_cast<std::uint64_t>(p) + 1));
    }
    expect_fit_matches_oracle(comm.run_reduce(values, tu::add_u64()));
  }
}

TEST(FitOracle, SummationFitEqualsTheSeparateWalk) {
  for (const Params& machine : oracle_machines()) {
    const api::Communicator comm(machine);
    const Count n = static_cast<Count>(machine.P) * 4;
    const sum::SummationPlan plan = comm.reduce_operands(n);
    const auto layout = sum::operand_layout(plan);
    std::vector<std::vector<exec::Bytes>> operands(plan.procs.size());
    std::uint64_t v = 1;
    for (std::size_t i = 0; i < layout.size(); ++i) {
      for (std::size_t j = 0; j < layout[i].total(); ++j) {
        operands[i].push_back(tu::of_u64(v++));
      }
    }
    expect_fit_matches_oracle(
        comm.run_reduce_operands(n, operands, tu::add_u64()));
  }
}

}  // namespace
}  // namespace logpc::obs
