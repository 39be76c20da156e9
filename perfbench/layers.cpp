#include "layers.h"

#include <algorithm>

namespace perfbench {

const SpanStats& CallProfile::span(const std::string& name) const {
  static const SpanStats kEmpty;
  const auto it = spans.find(name);
  return it == spans.end() ? kEmpty : it->second;
}

CallProfile profile_call(const std::vector<h2p::obs::TraceEvent>& events) {
  CallProfile out;
  std::map<std::uint32_t, std::vector<const h2p::obs::TraceEvent*>> by_track;
  for (const h2p::obs::TraceEvent& ev : events) {
    if (!ev.instant) by_track[ev.track].push_back(&ev);
  }
  std::uint32_t call_track = 0;
  bool have_call_track = false;
  for (auto& [track, evs] : by_track) {
    // Parents start no later than their children and last at least as long.
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      if (a->start_us != b->start_us) return a->start_us < b->start_us;
      return a->dur_us > b->dur_us;
    });
    std::vector<double> child_us(evs.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const h2p::obs::TraceEvent& ev = *evs[i];
      while (!stack.empty()) {
        const h2p::obs::TraceEvent& top = *evs[stack.back()];
        if (top.start_us + top.dur_us > ev.start_us) break;
        stack.pop_back();
      }
      if (!stack.empty()) child_us[stack.back()] += ev.dur_us;
      stack.push_back(i);
      if (ev.name == kCallSpan) {
        call_track = track;
        have_call_track = true;
      }
    }
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const h2p::obs::TraceEvent& ev = *evs[i];
      SpanStats& s = out.spans[ev.name];
      ++s.count;
      s.total_us += ev.dur_us;
      s.self_us += std::max(0.0, ev.dur_us - child_us[i]);
      s.durations_us.push_back(ev.dur_us);
      if (ev.name == "online.prefetch_pump") {
        for (const h2p::obs::TraceArg& arg : ev.args) {
          if (arg.key == "submitted" && arg.is_number) {
            out.prefetch_submitted += arg.number;
          }
        }
      }
    }
  }
  if (have_call_track) {
    double probe_start = -1.0;
    for (const h2p::obs::TraceEvent* ev : by_track[call_track]) {
      if (ev->name == "online.probe") {
        probe_start = ev->start_us;
      } else if (ev->name == "online.consume" && probe_start >= 0.0) {
        out.window_us.push_back(ev->start_us + ev->dur_us - probe_start);
        probe_start = -1.0;
      }
    }
  }
  return out;
}

const char* layer_of(const std::string& span_name) {
  static const std::map<std::string, const char*> kLayers = {
      {"planner.cost_tables", "soc.cost_tables"},
      {"planner.horizontal", "core.horizontal"},
      {"planner.mitigation", "core.mitigation"},
      {"planner.tail_sweep", "core.tail_sweep"},
      {"planner.plan_cold", "core.plan_cold"},
      {"planner.plan_warm", "core.plan_warm"},
      {"planner.plan_degraded", "core.plan_degraded"},
      {"des.simulate", "sim.des"},
      {kCallSpan, "sim.online"},
      {"online.probe", "sim.online"},
      {"online.plan", "sim.online"},
      {"online.consume", "sim.online"},
      {"online.prefetch_pump", "util.thread_pool"},
      {"online.prefetch_wait", "util.thread_pool"},
      {"pool.job", "util.thread_pool"},
  };
  const auto it = kLayers.find(span_name);
  return it == kLayers.end() ? "other" : it->second;
}

}  // namespace perfbench
