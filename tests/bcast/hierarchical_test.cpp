#include "bcast/hierarchical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "bcast/single_item.hpp"
#include "bcast/tree.hpp"
#include "exec/engine.hpp"
#include "exec/program.hpp"

namespace logpc::bcast {
namespace {

const Params kIntra{0, 2, 1, 2};
const Params kCross{0, 16, 3, 10};

HierParams machine(int P, int clusters) {
  return HierParams::uniform(P, clusters, kIntra, kCross);
}

/// Every rank informed exactly once (root via its initial), tree edges
/// only from informed senders, availability consistent with `informed`.
void check_structure(const HierBroadcast& r, const HierParams& h,
                     ProcId root) {
  ASSERT_EQ(r.informed.size(), static_cast<std::size_t>(h.P()));
  EXPECT_EQ(r.informed[static_cast<std::size_t>(root)], 0);
  std::set<ProcId> reached{root};
  for (const SendOp& op : r.schedule.sends()) {
    EXPECT_TRUE(reached.count(op.from))
        << "rank " << op.from << " sends before it is informed";
    EXPECT_TRUE(reached.insert(op.to).second)
        << "rank " << op.to << " informed twice";
    EXPECT_GE(op.start, r.informed[static_cast<std::size_t>(op.from)]);
    EXPECT_EQ(r.schedule.available_at(op),
              r.informed[static_cast<std::size_t>(op.to)]);
  }
  EXPECT_EQ(reached.size(), static_cast<std::size_t>(h.P()));
  EXPECT_EQ(r.completion,
            *std::max_element(r.informed.begin(), r.informed.end()));
  EXPECT_EQ(r.completion, r.schedule.makespan());
}

TEST(HierarchicalBroadcast, CoversEveryRankOnMixedShapes) {
  for (const auto& [P, C] : std::vector<std::pair<int, int>>{
           {4, 2}, {8, 2}, {9, 3}, {16, 4}, {13, 5}, {32, 4}}) {
    for (const ProcId root : {ProcId{0}, static_cast<ProcId>(P / 2),
                              static_cast<ProcId>(P - 1)}) {
      const HierParams h = machine(P, C);
      const HierBroadcast r = hierarchical_broadcast(h, root);
      check_structure(r, h, root);
    }
  }
}

TEST(HierarchicalBroadcast, PortGapsRespectEachLinkClass) {
  const HierParams h = machine(12, 3);
  const HierBroadcast r = hierarchical_broadcast(h, 0);
  // Per sender, consecutive sends must be spaced by the gap of the
  // *earlier* send's class — the per-link-class LogP port rule.
  std::vector<std::vector<SendOp>> by_sender(12);
  for (const SendOp& op : r.schedule.sends()) {
    by_sender[static_cast<std::size_t>(op.from)].push_back(op);
  }
  for (auto& sends : by_sender) {
    std::sort(sends.begin(), sends.end(),
              [](const SendOp& a, const SendOp& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < sends.size(); ++i) {
      const Time gap = h.link(sends[i - 1].from, sends[i - 1].to).g;
      EXPECT_GE(sends[i].start - sends[i - 1].start, gap)
          << "sender " << sends[i].from << " violates its port gap";
    }
  }
  // And each send's explicit receive time is class-accurate.
  for (const SendOp& op : r.schedule.sends()) {
    const Params& cls = h.link(op.from, op.to);
    EXPECT_EQ(op.recv_start, op.start + cls.o + cls.L);
  }
}

TEST(HierarchicalBroadcast, OneClusterDegeneratesToIntraOptimalTree) {
  const HierParams h = machine(8, 1);
  const HierBroadcast r = hierarchical_broadcast(h, 0);
  check_structure(r, h, 0);
  Params intra = kIntra;
  intra.P = 8;
  EXPECT_EQ(r.completion, B_of_P(intra, 8));
}

TEST(HierarchicalBroadcast, AllSingletonsDegeneratesToCrossOptimalTree) {
  const HierParams h = machine(6, 6);
  const HierBroadcast r = hierarchical_broadcast(h, 0);
  check_structure(r, h, 0);
  Params cross = kCross;
  cross.P = 6;
  EXPECT_EQ(r.completion, B_of_P(cross, 6));
}

TEST(HierarchicalBroadcast, RejectsBadArguments) {
  const HierParams h = machine(8, 2);
  EXPECT_THROW((void)hierarchical_broadcast(h, -1), std::invalid_argument);
  EXPECT_THROW((void)hierarchical_broadcast(h, 8), std::invalid_argument);
  HierParams broken = h;
  broken.cluster_of[0] = 5;
  EXPECT_THROW((void)hierarchical_broadcast(broken, 0),
               std::invalid_argument);
}

TEST(HierarchicalBroadcast, PredictMakespanNeverExceedsConstruction) {
  // The emitted schedule charges receive overhead at the flat rate;
  // predict_makespan re-times with exact per-class overheads, so it can
  // only come in at or under the construction's completion.
  for (const auto& [P, C] : std::vector<std::pair<int, int>>{
           {8, 2}, {12, 3}, {16, 4}, {13, 5}}) {
    const HierParams h = machine(P, C);
    const HierBroadcast r = hierarchical_broadcast(h, 0);
    const Time exact = predict_makespan(r.schedule, h);
    EXPECT_LE(exact, r.completion) << "P=" << P << " C=" << C;
    EXPECT_GT(exact, 0);
  }
}

TEST(HierarchicalBroadcast, BeatsFlatOptimalTreeWhenCrossGapDominates) {
  // The property the two-level construction exists for: a topology-blind
  // plan has to state its send times on the conservative flat projection
  // (the only single machine that is feasible on every link), so the best
  // it can commit to is the Theorem 2.1 makespan B(flat) — every hop
  // priced at the expensive class.  The cluster-aware schedule books
  // intra hops at intra prices; its class-model makespan must be strictly
  // smaller on every shape, and the win must widen as the cross gap
  // grows while the hierarchical schedule absorbs it with intra helpers.
  for (const auto& [P, C] : std::vector<std::pair<int, int>>{
           {8, 2}, {12, 3}, {16, 4}, {24, 4}, {32, 8}}) {
    Time previous_margin = 0;
    for (const Time cross_g : {Time{10}, Time{24}, Time{60}}) {
      Params cross = kCross;
      cross.g = cross_g;
      const HierParams h = HierParams::uniform(P, C, kIntra, cross);
      const Time hier =
          predict_makespan(hierarchical_broadcast(h, 0).schedule, h);
      const Time flat = B_of_P(h.flat(), P);
      EXPECT_LT(hier, flat) << "P=" << P << " C=" << C << " cross_g="
                            << cross_g;
      EXPECT_GT(flat - hier, previous_margin)
          << "P=" << P << " C=" << C << " cross_g=" << cross_g
          << ": the hierarchical win should widen with the cross gap";
      previous_margin = flat - hier;
    }
  }
}

TEST(HierarchicalBroadcast, PredictMakespanMatchesFlatModelOnUniformMachine) {
  // When both classes are identical the two-class replay is plain ASAP
  // flat LogP: on the optimal tree it must reproduce B(P) exactly.
  Params cls = kIntra;
  const HierParams h = HierParams::uniform(9, 3, cls, cls);
  cls.P = 9;
  EXPECT_EQ(predict_makespan(optimal_single_item(cls, 0), h),
            B_of_P(cls, 9));
}

TEST(HierarchicalBroadcast, PredictMakespanRejectsIllFormedSchedules) {
  const HierParams h = machine(4, 2);
  Schedule no_initial(h.flat(), 1);
  EXPECT_THROW((void)predict_makespan(no_initial, h), std::invalid_argument);

  Schedule two_items(h.flat(), 2);
  two_items.add_initial(0, 0, 0);
  two_items.add_initial(1, 0, 0);
  EXPECT_THROW((void)predict_makespan(two_items, h), std::invalid_argument);

  Schedule orphan(h.flat(), 1);
  orphan.add_initial(0, 0, 0);
  orphan.add_send(0, /*from=*/2, /*to=*/3, 0);  // 2 never holds the item
  EXPECT_THROW((void)predict_makespan(orphan, h), std::invalid_argument);
}

TEST(HierarchicalBroadcast, ExecutesByteExactOnTheEngine) {
  const HierParams h = machine(12, 3);
  const HierBroadcast r = hierarchical_broadcast(h, 2);
  const exec::Program program =
      exec::compile_broadcast(r.schedule, "bcast-hier");
  exec::Bytes payload(512);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 37 + 11) & 0xff);
  }
  exec::Engine engine;
  const std::vector<exec::Bytes> items{payload};
  const exec::ExecReport report = engine.run(program, exec::Items{items});
  for (ProcId p = 0; p < 12; ++p) {
    EXPECT_EQ(report.item_at(p, 0), payload) << "rank " << p;
  }
}

}  // namespace
}  // namespace logpc::bcast
