#include "sim/queueing.h"

#include <algorithm>
#include <cmath>

#include "core/planner.h"
#include "exec/compiled_plan.h"
#include "sim/pipeline_sim.h"

namespace h2p {

QueueStats serial_queueing(const StaticEvaluator& eval, std::size_t proc_idx,
                           const std::vector<double>& arrival_ms) {
  QueueStats stats;
  const std::size_t m = eval.num_models();
  stats.completion_ms.resize(m, 0.0);
  stats.queueing_ms.resize(m, 0.0);
  double busy_until = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double arrive = i < arrival_ms.size() ? arrival_ms[i] : 0.0;
    const double start = std::max(arrive, busy_until);
    const Model& model = eval.model(i);
    const double service =
        eval.table(i).exec_ms(proc_idx, 0, model.num_layers() - 1);
    busy_until = start + service;
    stats.queueing_ms[i] = start - arrive;
    stats.completion_ms[i] = busy_until - arrive;
  }
  stats.makespan_ms = busy_until;
  return stats;
}

QueueStats pipelined_queueing(const StaticEvaluator& eval,
                              const std::vector<double>& arrival_ms) {
  QueueStats stats;
  const std::size_t m = eval.num_models();

  Hetero2PipePlanner planner(eval);
  const PlannerReport report = planner.plan();
  const exec::CompiledPlan compiled = exec::compile(report.plan, eval);
  std::vector<SimTask> tasks = tasks_from_compiled(compiled);

  // Release each model's root tasks at its arrival time (a DAG plan may
  // have several roots; a chain has exactly its seq-0 task).
  for (SimTask& t : tasks) {
    const std::size_t original = compiled.original_index[t.model_idx];
    const bool root = t.explicit_deps ? t.deps.empty() : t.seq_in_model == 0;
    if (root && original < arrival_ms.size()) {
      t.arrival_ms = arrival_ms[original];
    }
  }

  const Timeline timeline = simulate(eval.soc(), tasks, {});
  stats.completion_ms.resize(m, 0.0);
  stats.queueing_ms.resize(m, 0.0);
  stats.makespan_ms = timeline.makespan_ms();
  const std::vector<ModelSpan> spans = timeline.model_spans();
  for (std::size_t slot = 0; slot < compiled.num_models; ++slot) {
    const std::size_t original = compiled.original_index[slot];
    const double arrive = original < arrival_ms.size() ? arrival_ms[original] : 0.0;
    const ModelSpan span = slot < spans.size() ? spans[slot] : ModelSpan{};
    // A slot without a lead task is charged as if it started at the end.
    const double first_start = std::isfinite(span.lead_start_ms)
                                   ? span.lead_start_ms
                                   : stats.makespan_ms;
    stats.completion_ms[original] = span.finish_ms - arrive;
    stats.queueing_ms[original] = std::max(0.0, first_start - arrive);
  }
  return stats;
}

}  // namespace h2p
