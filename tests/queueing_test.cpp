#include <gtest/gtest.h>

#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "sim/pipeline_sim.h"
#include "sim/queueing.h"
#include "test_helpers.h"

namespace h2p {
namespace {

using testing_util::Fixture;

TEST(Queueing, SerialDelayAccumulates) {
  Fixture fx(testing_util::mixed_six());
  const std::size_t cpu_b =
      static_cast<std::size_t>(fx.soc.find(ProcKind::kCpuBig));
  const std::vector<double> arrivals(fx.models.size(), 0.0);
  const QueueStats s = serial_queueing(*fx.eval, cpu_b, arrivals);

  ASSERT_EQ(s.queueing_ms.size(), fx.models.size());
  // FIFO backlog: queueing delay is non-decreasing for simultaneous arrivals.
  for (std::size_t i = 1; i < s.queueing_ms.size(); ++i) {
    EXPECT_GE(s.queueing_ms[i], s.queueing_ms[i - 1] - 1e-9);
  }
  EXPECT_DOUBLE_EQ(s.queueing_ms[0], 0.0);
  EXPECT_GT(s.queueing_ms.back(), 0.0);
}

TEST(Queueing, SerialRespectsArrivalTimes) {
  Fixture fx({ModelId::kSqueezeNet, ModelId::kSqueezeNet});
  // Second request arrives long after the first completes: no queueing.
  const QueueStats s = serial_queueing(
      *fx.eval, static_cast<std::size_t>(fx.soc.find(ProcKind::kCpuBig)),
      {0.0, 1.0e6});
  EXPECT_DOUBLE_EQ(s.queueing_ms[1], 0.0);
}

TEST(Queueing, PipelinedBeatsSerialMakespan) {
  // Fig 2(a): heterogeneous pipelining removes the serial bottleneck.
  Fixture fx(testing_util::mixed_six());
  const std::vector<double> arrivals(fx.models.size(), 0.0);
  const QueueStats serial = serial_queueing(
      *fx.eval, static_cast<std::size_t>(fx.soc.find(ProcKind::kCpuBig)),
      arrivals);
  const QueueStats piped = pipelined_queueing(*fx.eval, arrivals);
  EXPECT_LT(piped.makespan_ms, serial.makespan_ms);
}

TEST(Queueing, PipelinedCompletionsPositive) {
  Fixture fx(testing_util::mixed_four());
  const std::vector<double> arrivals(fx.models.size(), 0.0);
  const QueueStats piped = pipelined_queueing(*fx.eval, arrivals);
  ASSERT_EQ(piped.completion_ms.size(), fx.models.size());
  for (double c : piped.completion_ms) EXPECT_GT(c, 0.0);
}

TEST(Queueing, TailRequestGainsMost) {
  // The last request in a long serial backlog benefits most from pipelining.
  Fixture fx(testing_util::mixed_six());
  const std::vector<double> arrivals(fx.models.size(), 0.0);
  const QueueStats serial = serial_queueing(
      *fx.eval, static_cast<std::size_t>(fx.soc.find(ProcKind::kCpuBig)),
      arrivals);
  const QueueStats piped = pipelined_queueing(*fx.eval, arrivals);
  const double serial_max =
      *std::max_element(serial.completion_ms.begin(), serial.completion_ms.end());
  const double piped_max =
      *std::max_element(piped.completion_ms.begin(), piped.completion_ms.end());
  EXPECT_LT(piped_max, serial_max);
}

TEST(Queueing, PipelinedMatchesPerSlotTimelineScans) {
  // pipelined_queueing reads every slot's lead start and finish from one
  // pass over the timeline; rebuild the same timeline here and derive both
  // with per-slot scans over every task.  Staggered arrivals make the lead
  // starts and finishes differ per slot.
  Fixture fx(testing_util::mixed_six());
  std::vector<double> arrivals;
  for (std::size_t i = 0; i < fx.models.size(); ++i) {
    arrivals.push_back(7.5 * static_cast<double>(i));
  }
  const QueueStats piped = pipelined_queueing(*fx.eval, arrivals);

  const PlannerReport report = Hetero2PipePlanner(*fx.eval).plan();
  const exec::CompiledPlan compiled = exec::compile(report.plan, *fx.eval);
  std::vector<SimTask> tasks = tasks_from_compiled(compiled);
  for (SimTask& t : tasks) {
    const std::size_t original = compiled.original_index[t.model_idx];
    if (t.deps.empty()) t.arrival_ms = arrivals[original];
  }
  const Timeline timeline = simulate(fx.eval->soc(), tasks, {});
  ASSERT_EQ(piped.completion_ms.size(), fx.models.size());
  EXPECT_EQ(piped.makespan_ms, timeline.makespan_ms());
  for (std::size_t slot = 0; slot < compiled.num_models; ++slot) {
    const std::size_t original = compiled.original_index[slot];
    double first_start = timeline.makespan_ms();
    for (const TaskRecord& t : timeline.tasks) {
      if (t.model_idx == slot && t.seq_in_model == 0) first_start = t.start_ms;
    }
    const double arrive = arrivals[original];
    EXPECT_EQ(piped.completion_ms[original],
              timeline.model_finish_ms(slot) - arrive);
    EXPECT_EQ(piped.queueing_ms[original],
              std::max(0.0, first_start - arrive));
  }
}

}  // namespace
}  // namespace h2p
