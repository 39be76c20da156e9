#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Name of the span the benchmark records around each run_online call.
inline constexpr const char* kCallSpan = "bench.run_online";

/// Aggregate of one span name over one traced call.
struct SpanStats {
  std::size_t count = 0;
  double total_us = 0.0;
  /// Duration minus the part covered by direct children on the same track.
  double self_us = 0.0;
  std::vector<double> durations_us;
};

/// Everything the per-layer report needs from one traced run_online call.
struct CallProfile {
  std::map<std::string, SpanStats> spans;
  /// Sum of the `submitted` args of online.prefetch_pump spans: prefetched
  /// cold plans handed to the pool.
  double prefetch_submitted = 0.0;
  /// Host latency of each served window on the calling thread, from the
  /// start of its online.probe span to the end of its online.consume span.
  std::vector<double> window_us;

  [[nodiscard]] const SpanStats& span(const std::string& name) const;
};

/// Builds the profile from the events of one call (instants are ignored).
CallProfile profile_call(const std::vector<h2p::obs::TraceEvent>& events);

/// Layer (module) a span name belongs to; "other" when unmapped.
const char* layer_of(const std::string& span_name);

}  // namespace perfbench
