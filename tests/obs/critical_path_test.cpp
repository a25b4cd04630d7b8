#include "obs/critical_path.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/communicator.hpp"
#include "exec/engine.hpp"

/// Tests of the run profiler: the six-component decomposition identity,
/// the recorded causal matches, the critical-path walk, and the model
/// residual —
/// first on hand-built event logs where every edge is known, then on real
/// P=8 engine runs where the acceptance bounds (components sum to the
/// rank's span within 1%, path ends at the last-finishing rank) must hold.

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

/// A two-rank run: rank 0 sends at t=10..30, rank 1 waits from t=5, the
/// payload arrives at t=40 (after the send's push), stored by t=50.
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
  EXPECT_EQ(r0.ns(Component::kSendOverhead), 15u);  // 10 -> 25
  EXPECT_EQ(r0.ns(Component::kBlocked), 5u);        // 25 -> 30
  EXPECT_EQ(r0.components_sum_ns(), r0.span_ns());
  EXPECT_EQ(r0.sends, 1u);

  const RankBreakdown& r1 = profile.ranks[1];
  EXPECT_EQ(r1.span_ns(), 45u);
  EXPECT_EQ(r1.ns(Component::kLatencyWait), 35u);   // 5 -> 40
  EXPECT_EQ(r1.ns(Component::kRecvOverhead), 10u);  // 40 -> 50
  EXPECT_EQ(r1.components_sum_ns(), r1.span_ns());
  EXPECT_EQ(r1.recvs, 1u);
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

}  // namespace
}  // namespace logpc::obs
