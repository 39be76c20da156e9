#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "models/model_zoo.h"
#include "sim/fault_injector.h"
#include "sim/online.h"
#include "soc/soc.h"

namespace perfbench {

/// One benchmark workload: an open-loop seeded Poisson request stream plus
/// the serving-loop configuration it is driven through.
struct Workload {
  std::string name;
  h2p::Soc soc = h2p::Soc::kirin990();
  std::size_t window = 4;
  bool async_planning = false;
  /// Prefetch pool workers when planning asynchronously.
  unsigned pool_threads = 0;
  /// Weather mode: sampled weather-only fault script over the stream's
  /// span, closed thermal loop, kDefer admission and drift tracking.
  bool weather = false;
  /// Window mix: app scenes (each window is one scene's models, in the
  /// scene's order), or models from the 10-model zoo when empty.
  std::vector<std::vector<h2p::ModelId>> scenes;
  /// Zoo windows only: each consecutive group of `window` requests issues
  /// its models in zoo order instead of deck order.
  bool sorted_windows = false;
  std::size_t requests = 2000;
  double nominal_rps = 1.0;
  /// Fixed ascending rate ladder for max_rate_rps.
  std::vector<double> ladder_rps;
  /// p99 latency limit of the ladder, and the relative deadline of every
  /// request on the ladder's streams.
  double latency_limit_ms = 3000.0;
  /// Relative deadline of every request on the nominal streams (the SLO
  /// behind slo_attainment); set near the p90 latency so attainment can move
  /// both ways.
  double deadline_ms = 1000.0;
  /// Weather only: mean gap and mean duration of the sampled weather events
  /// (modeled ms), and the accelerated aging of the closed thermal loop.
  double weather_gap_ms = 0.0;
  double weather_duration_ms = 0.0;
  double thermal_time_scale = 1.0;
};

/// The named workload; throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name);

/// Seeded stream at `rate_rps` whose requests are due `deadline_ms` after
/// arrival.  The model sequence and the unit-rate inter-arrival draws depend
/// only on the seed, so the rungs of a rate ladder replay the same requests
/// compressed in time.
std::vector<h2p::OnlineRequest> make_stream(const Workload& w,
                                            std::uint64_t seed,
                                            double rate_rps,
                                            double deadline_ms);

/// Weather-only fault script sampled over the stream's own span (empty for
/// workloads without weather).
h2p::FaultScript make_faults(const Workload& w, std::uint64_t seed,
                             const std::vector<h2p::OnlineRequest>& stream);

/// Serving-loop options for the workload; `pool` is used only when the
/// workload plans asynchronously.
h2p::OnlineOptions make_options(const Workload& w, const h2p::FaultScript& faults,
                                h2p::ThreadPool* pool);

}  // namespace perfbench
