#include "obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <string>

#include "../support/json_validator.hpp"
#include "obs/json.hpp"
#include "sched/schedule.hpp"

namespace logpc::obs {
namespace {

using testsupport::JsonValidator;

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_TRUE(JsonValidator(json_string("tricky \"\\\t\x02 payload")).valid());
}

TEST(ChromeTrace, EmptyWriterIsValidJson) {
  ChromeTraceWriter w;
  EXPECT_TRUE(JsonValidator(w.json()).valid());
  EXPECT_NE(w.json().find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeTrace, RecorderExportIsValidJsonWithSlices) {
  TraceRecorder rec(16);
  {
    Span span("planner.build", "planner", &rec);
    span.set_arg("kitem(P=9 L=3, k=4) with \"quotes\"");
  }
  ChromeTraceWriter w;
  w.add(rec);
  const std::string json = w.json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"planner.build\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
}

TEST(ChromeTrace, SimTraceExportHasSendAndRecvSlices) {
  // Figure 1 machine: o = 2, so every overhead interval is a real slice.
  Schedule s(Params{3, 6, 2, 4}, 1);
  s.add_initial(0, 0, 0);
  s.add_send(0, 0, 1, 0);
  s.add_send(4, 0, 2, 0);
  const sim::Trace trace = sim::Trace::from(s);
  ChromeTraceWriter w;
  w.add(trace);
  const std::string json = w.json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"send i0 -> p1\""), std::string::npos);
  EXPECT_NE(json.find("\"recv i0 <- p0\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.send\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.recv\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2"), std::string::npos);  // o = 2 cycles
  EXPECT_NE(json.find("\"proc 0\""), std::string::npos);
  EXPECT_NE(json.find("\"proc 2\""), std::string::npos);
}

TEST(ChromeTrace, ZeroOverheadBecomesInstantEvents) {
  // Postal machine: o = 0, zero-length intervals must render as instants.
  Schedule s(Params::postal(2, 3), 1);
  s.add_initial(0, 0, 0);
  s.add_send(0, 0, 1, 0);
  const sim::Trace trace = sim::Trace::from(s);
  ChromeTraceWriter w;
  w.add(trace);
  const std::string json = w.json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ChromeTrace, RunProfileExportsColorCodedComponentTracks) {
  // Two-rank profiled run: rank 0 sends (all of it send overhead), rank 1
  // waits then stores — three phases and a two-hop critical path.
  exec::ExecReport report;
  report.params = Params{2, 4, 1, 2};
  report.mode = exec::Mode::kMove;
  report.events.resize(2);
  report.events[0].push_back(
      exec::ExecEvent{exec::ExecEvent::Kind::kSend, 1, 0,
                      exec::ExecEvent::kNoMatch, 10, 25, 30, 0});
  report.events[1].push_back(exec::ExecEvent{
      exec::ExecEvent::Kind::kRecv, 0, 0, /*match=*/0, 5, 40, 50, 5});
  const RunProfile profile = analyze(report);

  ChromeTraceWriter w;
  w.add(profile);
  const std::string json = w.json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"run profile\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 1\""), std::string::npos);
  // Component slices are color-coded for the viewer's palette.
  EXPECT_NE(json.find("\"send_overhead\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"cname\""), std::string::npos);
  EXPECT_EQ(json.find("\"blocked\""), std::string::npos);
  std::size_t slices = 0;
  for (std::size_t at = json.find("\"cat\":\"profile\"");
       at != std::string::npos;
       at = json.find("\"cat\":\"profile\"", at + 1)) {
    ++slices;
  }
  EXPECT_EQ(slices, 3u);
  // The critical path lands on its own track past the rank rows.
  EXPECT_NE(json.find("\"critical path\""), std::string::npos);
  EXPECT_NE(json.find("\"profile.critical\""), std::string::npos);
}

TEST(ChromeTrace, CombinedSourcesShareOneValidFile) {
  TraceRecorder rec(4);
  { Span span("comm.bcast", "comm", &rec); }
  Schedule s(Params{2, 6, 2, 4}, 1);
  s.add_initial(0, 0, 0);
  s.add_send(0, 0, 1, 0);
  ChromeTraceWriter w;
  w.add(rec, 1, "runtime");
  w.add(sim::Trace::from(s), 2, "sim");
  const std::string json = w.json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
}

}  // namespace
}  // namespace logpc::obs
