#include "rcsim/timeline.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rat::rcsim {
namespace {

Timeline simple() {
  Timeline tl;
  tl.add(Event{EventKind::kInputTransfer, 0, 0.0, 1.0});
  tl.add(Event{EventKind::kCompute, 0, 1.0, 4.0});
  tl.add(Event{EventKind::kOutputTransfer, 0, 4.0, 5.0});
  return tl;
}

TEST(Timeline, EmptyDefaults) {
  const Timeline tl;
  EXPECT_TRUE(tl.empty());
  EXPECT_DOUBLE_EQ(tl.end_sec(), 0.0);
  EXPECT_DOUBLE_EQ(tl.comm_busy_sec(), 0.0);
  EXPECT_TRUE(tl.lanes_consistent());
  EXPECT_EQ(tl.to_gantt(), "(empty timeline)\n");
}

TEST(Timeline, BusyAccounting) {
  const Timeline tl = simple();
  EXPECT_DOUBLE_EQ(tl.end_sec(), 5.0);
  EXPECT_DOUBLE_EQ(tl.comm_busy_sec(), 2.0);
  EXPECT_DOUBLE_EQ(tl.comp_busy_sec(), 3.0);
  EXPECT_DOUBLE_EQ(tl.sync_busy_sec(), 0.0);
}

TEST(Timeline, SyncCountedSeparately) {
  Timeline tl = simple();
  tl.add(Event{EventKind::kHostSync, 1, 5.0, 5.5});
  EXPECT_DOUBLE_EQ(tl.sync_busy_sec(), 0.5);
  EXPECT_DOUBLE_EQ(tl.comm_busy_sec(), 2.0);  // sync not counted as comm
}

TEST(Timeline, RejectsNegativeDuration) {
  Timeline tl;
  EXPECT_THROW(tl.add(Event{EventKind::kCompute, 0, 2.0, 1.0}),
               std::invalid_argument);
}

TEST(Timeline, LaneConsistencyDetectsBusOverlap) {
  Timeline tl;
  tl.add(Event{EventKind::kInputTransfer, 0, 0.0, 2.0});
  tl.add(Event{EventKind::kOutputTransfer, 0, 1.0, 3.0});  // overlaps on bus
  EXPECT_FALSE(tl.lanes_consistent());
}

TEST(Timeline, LaneConsistencyAllowsCommCompOverlap) {
  Timeline tl;
  tl.add(Event{EventKind::kInputTransfer, 1, 0.0, 2.0});
  tl.add(Event{EventKind::kCompute, 0, 0.5, 1.5});  // different lane: fine
  EXPECT_TRUE(tl.lanes_consistent());
}

TEST(Timeline, SyncSharesTheBusLane) {
  Timeline tl;
  tl.add(Event{EventKind::kHostSync, 0, 0.0, 1.0});
  tl.add(Event{EventKind::kInputTransfer, 0, 0.5, 2.0});  // overlaps sync
  EXPECT_FALSE(tl.lanes_consistent());
}

TEST(Timeline, GanttHasTwoLanesAndLegend) {
  const std::string g = simple().to_gantt(50);
  EXPECT_NE(g.find("Comm |"), std::string::npos);
  EXPECT_NE(g.find("Comp |"), std::string::npos);
  EXPECT_NE(g.find('R'), std::string::npos);
  EXPECT_NE(g.find('C'), std::string::npos);
  EXPECT_NE(g.find('W'), std::string::npos);
  EXPECT_NE(g.find("legend"), std::string::npos);
}

TEST(Timeline, ChromeTraceStructure) {
  const std::string j = simple().to_chrome_trace();
  EXPECT_EQ(j.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"name\":\"input transfer #1\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"compute #1\""), std::string::npos);
  // Comm on tid 1, compute on tid 2.
  EXPECT_NE(j.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(j.find("\"tid\":2"), std::string::npos);
  // Compute event: starts at 1s = 1e6 us, lasts 3e6 us.
  EXPECT_NE(j.find("\"ts\":1000000,\"dur\":3000000"), std::string::npos);
}

TEST(Timeline, ChromeTraceEmptyTimeline) {
  const Timeline tl;
  EXPECT_EQ(tl.to_chrome_trace(), "{\"traceEvents\":[]}");
}

TEST(Timeline, GanttProportionsRoughlyMatchDurations) {
  const std::string g = simple().to_gantt(100);
  // The compute block spans 3/5 of the makespan: expect ~60 'C' columns.
  const std::size_t c_count = std::count(g.begin(), g.end(), 'C');
  EXPECT_GE(c_count, 50u);
  EXPECT_LE(c_count, 70u);
}

}  // namespace
}  // namespace rat::rcsim
