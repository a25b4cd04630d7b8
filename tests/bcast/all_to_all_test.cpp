#include "bcast/all_to_all.hpp"

#include <gtest/gtest.h>

#include "sched/metrics.hpp"
#include "validate/checker.hpp"

namespace logpc::bcast {
namespace {

struct Machine {
  Params params;
};

class AllToAllSweep : public ::testing::TestWithParam<Params> {};

TEST_P(AllToAllSweep, MatchesLowerBoundExactly) {
  const Params params = GetParam();
  const Schedule s = all_to_all(params);
  // The paper's schedule needs duplex overheads when L < (P-2)g (see the
  // header note); everything else is strict.
  const auto check = validate::check(s, {.allow_duplex_overhead = true});
  EXPECT_TRUE(check.ok()) << params.to_string() << "\n" << check.summary();
  EXPECT_EQ(completion_time(s), all_to_all_lower_bound(params))
      << params.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Machines, AllToAllSweep,
    ::testing::Values(Params::postal(2, 1), Params::postal(5, 3),
                      Params::postal(10, 3), Params{4, 6, 2, 4},
                      Params{8, 6, 2, 4}, Params{7, 5, 1, 3},
                      Params{16, 4, 0, 2}, Params{3, 9, 2, 5}));

TEST(AllToAll, LowerBoundFormula) {
  // L + 2o + (P-2)g for one item each.
  EXPECT_EQ(all_to_all_lower_bound(Params{8, 6, 2, 4}), 6 + 4 + 6 * 4);
  EXPECT_EQ(all_to_all_lower_bound(Params::postal(10, 3)), 3 + 8);
  // k-item: L + 2o + (k(P-1) - 1)g.
  EXPECT_EQ(all_to_all_lower_bound(Params::postal(10, 3), 2), 3 + 17);
  EXPECT_EQ(all_to_all_lower_bound(Params{4, 6, 2, 4}, 3), 6 + 4 + 8 * 4);
  // Degenerate single processor.
  EXPECT_EQ(all_to_all_lower_bound(Params{1, 3, 1, 2}), 0);
}

TEST(AllToAll, KItemsMatchTheirBound) {
  for (const int k : {1, 2, 4}) {
    const Params params = Params::postal(6, 3);
    const Schedule s = all_to_all_k(params, k);
    EXPECT_TRUE(validate::is_valid(s, {.allow_duplex_overhead = true}))
        << validate::check(s).summary();
    EXPECT_EQ(completion_time(s), all_to_all_lower_bound(params, k));
    EXPECT_EQ(s.num_items(), 6 * k);
  }
}

TEST(AllToAll, EveryProcessorReceivesOncePerRound) {
  const Params params = Params::postal(7, 2);
  const Schedule s = all_to_all(params);
  // 6 rounds, 7 receptions per round: every processor receives exactly one
  // message per round time slot.
  for (ItemId i = 0; i < 7; ++i) {
    const auto counts = receive_counts(s, i);
    int total = 0;
    for (const int c : counts) total += c;
    EXPECT_EQ(total, 6);
  }
}

TEST(AllToAll, KItemSendsComeOutInSortedOrder) {
  for (const int P : {2, 3, 8, 65, 128}) {
    for (const int k : {1, 3}) {
      const Schedule s = all_to_all_k(Params{P, 5, 1, 2}, k);
      Schedule sorted = s;
      sorted.sort();
      EXPECT_EQ(s, sorted) << "P=" << P << " k=" << k;
      EXPECT_EQ(s.sends().size(), static_cast<std::size_t>(P * (P - 1) * k));
    }
  }
}

TEST(AllToAll, SingleProcessorIsTrivial) {
  const Schedule s = all_to_all(Params{1, 3, 1, 2});
  EXPECT_TRUE(s.sends().empty());
  EXPECT_EQ(completion_time(s), 0);
}

TEST(AllToAllPersonalized, DeliversExactlyTheAddressedItems) {
  const Params params{6, 6, 2, 4};
  const Schedule s = all_to_all_personalized(params);
  EXPECT_TRUE(personalized_complete(s));
  // Timing rules still hold (completeness of the broadcast goal does not).
  const auto check = validate::check(
      s, {.require_complete = false, .allow_duplex_overhead = true});
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_EQ(s.makespan(), all_to_all_lower_bound(params));
  // Exactly one transmission per (source, destination) pair.
  EXPECT_EQ(s.sends().size(), 30u);
}

TEST(AllToAllPersonalized, IncompleteWithoutAllRounds) {
  Schedule s = all_to_all_personalized(Params::postal(4, 2));
  EXPECT_TRUE(personalized_complete(s));
  // Drop the last send: some pair is missing.
  Schedule truncated(s.params(), s.num_items());
  for (const auto& init : s.initials()) {
    truncated.add_initial(init.item, init.proc, init.time);
  }
  for (std::size_t i = 0; i + 1 < s.sends().size(); ++i) {
    truncated.add_send(s.sends()[i]);
  }
  EXPECT_FALSE(personalized_complete(truncated));
}

TEST(AllToAll, RejectsBadArguments) {
  EXPECT_THROW(all_to_all_k(Params::postal(4, 2), 0), std::invalid_argument);
  EXPECT_THROW(all_to_all(Params{0, 1, 0, 1}), std::invalid_argument);
  EXPECT_THROW((void)all_to_all_lower_bound(Params{4, 0, 0, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace logpc::bcast
