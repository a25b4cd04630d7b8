#include "sched/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bcast/kitem.hpp"
#include "bcast/kitem_buffered.hpp"
#include "bcast/single_item.hpp"
#include "sched/metrics.hpp"

namespace logpc {
namespace {

TEST(ScheduleIO, RoundTripSingleItem) {
  const Schedule original = bcast::optimal_single_item(Params{8, 6, 2, 4});
  const Schedule parsed = schedule_from_text(to_text(original));
  EXPECT_EQ(parsed, original);
}

TEST(ScheduleIO, RoundTripKItemWithGeneratedInitials) {
  const auto r = bcast::kitem_broadcast(10, 3, 5);
  const Schedule parsed = schedule_from_text(to_text(r.schedule));
  EXPECT_EQ(parsed, r.schedule);
  EXPECT_EQ(completion_time(parsed), r.completion);
}

TEST(ScheduleIO, RoundTripBufferedRecvStarts) {
  const auto r = bcast::kitem_buffered(9, 2, 6);
  const Schedule parsed = schedule_from_text(to_text(r.schedule));
  EXPECT_EQ(parsed, r.schedule);
  bool any_delayed = false;
  for (const auto& op : parsed.sends()) {
    any_delayed = any_delayed || op.recv_start != kNever;
  }
  EXPECT_TRUE(any_delayed);
}

TEST(ScheduleIO, TextFormatIsStable) {
  Schedule s(Params::postal(3, 2), 1);
  s.add_initial(0, 0, 0);
  s.add_send(0, 0, 1, 0);
  s.add_send(SendOp{1, 0, 2, 0, 5});
  EXPECT_EQ(to_text(s),
            "logpc-schedule v1\n"
            "params 3 2 0 1\n"
            "items 1\n"
            "init 0 0 0\n"
            "send 0 0 1 0\n"
            "send 1 0 2 0 5\n");
}

TEST(ScheduleIO, CommentsAndBlankLinesIgnored) {
  const Schedule parsed = schedule_from_text(
      "logpc-schedule v1\n"
      "# a comment\n"
      "params 2 3 0 1\n"
      "\n"
      "items 1\n"
      "   # indented comment\n"
      "init 0 0 0\n"
      "send 0 0 1 0\n");
  EXPECT_EQ(parsed.params(), Params::postal(2, 3));
  EXPECT_EQ(parsed.sends().size(), 1u);
}

TEST(ScheduleIO, RejectsMalformedInput) {
  EXPECT_THROW(schedule_from_text(""), std::invalid_argument);
  EXPECT_THROW(schedule_from_text("not-a-schedule\n"), std::invalid_argument);
  EXPECT_THROW(schedule_from_text("logpc-schedule v1\nparams 2 3 0\n"),
               std::invalid_argument);
  EXPECT_THROW(schedule_from_text("logpc-schedule v1\nparams 0 3 0 1\n"),
               std::invalid_argument);
  EXPECT_THROW(
      schedule_from_text("logpc-schedule v1\nparams 2 3 0 1\nitems 0\n"),
      std::invalid_argument);
  EXPECT_THROW(schedule_from_text("logpc-schedule v1\nparams 2 3 0 1\n"
                                  "items 1\nfrobnicate 1 2 3\n"),
               std::invalid_argument);
}

TEST(ScheduleIO, RejectsOutOfRangeIds) {
  const std::string head =
      "logpc-schedule v1\nparams 2 3 0 1\nitems 1\n";
  EXPECT_THROW(schedule_from_text(head + "init 0 5 0\n"),
               std::invalid_argument);
  EXPECT_THROW(schedule_from_text(head + "init 3 0 0\n"),
               std::invalid_argument);
  EXPECT_THROW(schedule_from_text(head + "send 0 0 9 0\n"),
               std::invalid_argument);
  EXPECT_THROW(schedule_from_text(head + "send 0 0 1 7\n"),
               std::invalid_argument);
}

TEST(ScheduleIO, ErrorMessagesCarryLineNumbers) {
  try {
    (void)schedule_from_text("logpc-schedule v1\nparams 2 3 0 1\nitems 1\n"
                             "send bogus\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

bool ids_in_range(const Schedule& s) {
  const auto proc_ok = [&](ProcId p) { return p >= 0 && p < s.params().P; };
  const auto item_ok = [&](ItemId i) { return i >= 0 && i < s.num_items(); };
  for (const InitialPlacement& init : s.initials()) {
    if (!proc_ok(init.proc) || !item_ok(init.item)) return false;
  }
  for (const SendOp& op : s.sends()) {
    if (!proc_ok(op.from) || !proc_ok(op.to) || !item_ok(op.item)) {
      return false;
    }
  }
  return true;
}

TEST(ScheduleIO, MutationCorpusThrowsOrKeepsIdsInRange) {
  const std::string good = to_text(bcast::kitem_buffered(5, 2, 3).schedule);
  std::vector<std::string> corpus;
  for (std::size_t len = 0; len < good.size(); ++len) {
    corpus.push_back(good.substr(0, len));
  }
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string flipped = good;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    corpus.push_back(std::move(flipped));
  }
  // The count fields: the processor count P and the item count.
  const std::size_t params_at = good.find("params ") + 7;
  const std::size_t items_at = good.find("items ") + 6;
  for (const char* count : {"4611686018427387904", "-1"}) {
    for (const std::size_t at : {params_at, items_at}) {
      std::string edited = good;
      edited.replace(at, good.find_first_of(" \n", at) - at, count);
      corpus.push_back(std::move(edited));
    }
  }

  int parsed = 0;
  for (const std::string& input : corpus) {
    try {
      const Schedule s = schedule_from_text(input);
      ++parsed;
      EXPECT_TRUE(s.params().valid()) << input;
      EXPECT_TRUE(ids_in_range(s)) << input;
    } catch (const std::invalid_argument&) {
    }
  }
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace logpc
