#include <gtest/gtest.h>

#include <cmath>

#include "sim/trace.h"

namespace h2p {
namespace {

Timeline sample_timeline() {
  Timeline t;
  t.num_procs = 2;
  t.num_models = 2;
  t.tasks = {
      {0, 0, 0, 0.0, 10.0, 10.0},   // model 0 stage 0 on proc 0
      {0, 1, 1, 10.0, 25.0, 12.0},  // model 0 stage 1 on proc 1 (3ms contention)
      {1, 0, 0, 15.0, 30.0, 15.0},  // model 1 stage 0 on proc 0 (5ms gap before)
  };
  return t;
}

TEST(Timeline, Makespan) {
  EXPECT_DOUBLE_EQ(sample_timeline().makespan_ms(), 30.0);
  EXPECT_DOUBLE_EQ(Timeline{}.makespan_ms(), 0.0);
}

TEST(Timeline, Throughput) {
  const Timeline t = sample_timeline();
  EXPECT_NEAR(t.throughput_per_s(), 2.0 / 0.030, 1e-9);
  EXPECT_DOUBLE_EQ(Timeline{}.throughput_per_s(), 0.0);
}

TEST(Timeline, ModelFinish) {
  const Timeline t = sample_timeline();
  EXPECT_DOUBLE_EQ(t.model_finish_ms(0), 25.0);
  EXPECT_DOUBLE_EQ(t.model_finish_ms(1), 30.0);
}

TEST(Timeline, ModelSpansMatchPerSlotScans) {
  Timeline t = sample_timeline();
  t.num_models = 3;                           // slot 2 has no tasks
  t.tasks.push_back({3, 1, 1, 31.0, 33.0, 2.0});  // slot 3: no lead task
  const std::vector<ModelSpan> spans = t.model_spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t s = 0; s < spans.size(); ++s) {
    EXPECT_EQ(spans[s].finish_ms, t.model_finish_ms(s)) << "slot " << s;
  }
  EXPECT_EQ(spans[0].lead_start_ms, 0.0);
  EXPECT_EQ(spans[1].lead_start_ms, 15.0);
  EXPECT_TRUE(std::isinf(spans[2].lead_start_ms));
  EXPECT_TRUE(std::isinf(spans[3].lead_start_ms));
  EXPECT_TRUE(Timeline{}.model_spans().empty());
}

TEST(Timeline, ProcIdleBetweenTasks) {
  const Timeline t = sample_timeline();
  EXPECT_DOUBLE_EQ(t.proc_idle_ms(0), 5.0);  // gap 10..15
  EXPECT_DOUBLE_EQ(t.proc_idle_ms(1), 0.0);
  EXPECT_DOUBLE_EQ(t.total_bubble_ms(), 5.0);
}

TEST(Timeline, ProcIdleNoTasks) {
  Timeline t;
  t.num_procs = 3;
  EXPECT_DOUBLE_EQ(t.proc_idle_ms(2), 0.0);
}

TEST(Timeline, Utilization) {
  const Timeline t = sample_timeline();
  const auto util = t.utilization();
  ASSERT_EQ(util.size(), 2u);
  EXPECT_NEAR(util[0], 25.0 / 30.0, 1e-12);
  EXPECT_NEAR(util[1], 15.0 / 30.0, 1e-12);
}

TEST(Timeline, ContentionAccounting) {
  const Timeline t = sample_timeline();
  EXPECT_DOUBLE_EQ(t.total_contention_ms(), 3.0);
}

TEST(Timeline, TaskRecordHelpers) {
  const TaskRecord r{0, 0, 0, 5.0, 12.0, 6.0};
  EXPECT_DOUBLE_EQ(r.duration_ms(), 7.0);
  EXPECT_DOUBLE_EQ(r.contention_ms(), 1.0);
}

TEST(Timeline, GanttRenders) {
  const Timeline t = sample_timeline();
  const std::string g = t.gantt({"P0", "P1"}, 40);
  EXPECT_NE(g.find("P0"), std::string::npos);
  EXPECT_NE(g.find('0'), std::string::npos);  // model-0 glyph
  EXPECT_NE(g.find('.'), std::string::npos);  // idle glyph
}

TEST(Timeline, GanttEmptyTimeline) {
  EXPECT_EQ(Timeline{}.gantt({}), "(empty timeline)\n");
}

}  // namespace
}  // namespace h2p
