#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace perfbench {
namespace {

using h2p::ModelId;

/// App scenes a phone serves over and over: scene understanding (after
/// examples/scene_understanding.cpp), captioning, video analytics (after
/// examples/video_analytics.cpp) and photo tagging.  Every two scenes differ
/// by at least two models, so no scene warm-starts from another and each
/// scene's plan is the same cold plan on every seed.
std::vector<std::vector<ModelId>> app_scenes() {
  return {
      {ModelId::kYOLOv4, ModelId::kFaceNet, ModelId::kAgeGenderNet, ModelId::kViT},
      {ModelId::kViT, ModelId::kGPT2Decoder, ModelId::kFaceNet, ModelId::kMobileNetV2},
      {ModelId::kYOLOv4, ModelId::kBERT, ModelId::kMobileNetV2, ModelId::kSqueezeNet},
      {ModelId::kResNet50, ModelId::kSqueezeNet, ModelId::kMobileNetV2, ModelId::kGoogLeNet},
  };
}

std::vector<double> ladder(double lo, double step, std::size_t n) {
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(lo + step * static_cast<double>(i));
  return out;
}

}  // namespace

// Each nominal rate sits below the workload's knee (latency there is mostly
// the wait for a window to fill), and each ladder runs from it to past the
// rate where the backlog starts to grow.
Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "serve-hot") {
    // Repeated scenes: the plan cache serves >99% of windows, bypassing the
    // planner.
    w.soc = h2p::Soc::kirin990();
    w.window = 4;
    w.scenes = app_scenes();
    w.requests = 8000;
    w.nominal_rps = 7.0;
    w.ladder_rps = ladder(7.0, 0.25, 16);
  } else if (name == "serve-cold") {
    // Random zoo windows: cold and warm plans dominate, prefetched on a pool.
    // One worker: on a 4-core VM three served no faster (324 vs 320 ms per
    // call) and their wall time followed the other tenants' load twice as
    // much.
    w.soc = h2p::Soc::kirin990();
    w.window = 6;
    w.async_planning = true;
    w.pool_threads = 1;
    // Each window's models come in zoo order.  In arrival order a window
    // can consume a plan prefetched for another order of its model multiset
    // (run_online keys the prefetch by the multiset, and a prefetch left in
    // flight outlives its key's eviction), so the async run diverges from a
    // serial one; serve_bench --window-order arrival reproduces that.
    w.sorted_windows = true;
    w.requests = 6000;
    w.nominal_rps = 9.0;
    w.ladder_rps = ladder(9.0, 0.25, 16);
  } else if (name == "serve-weather") {
    // serve-hot's scenes under faults, a closed thermal loop and deadlines.
    w.soc = h2p::Soc::snapdragon870();
    w.window = 4;
    w.weather = true;
    w.scenes = app_scenes();
    w.requests = 8000;
    w.nominal_rps = 6.0;
    w.ladder_rps = ladder(6.0, 0.25, 16);
    w.weather_gap_ms = 5000.0;
    w.weather_duration_ms = 750.0;
    w.thermal_time_scale = 50.0;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::vector<h2p::OnlineRequest> make_stream(const Workload& w,
                                            std::uint64_t seed,
                                            double rate_rps,
                                            double deadline_ms) {
  h2p::Rng mix_rng(seed * 0x9e3779b97f4a7c15ull + 1);
  h2p::Rng gap_rng(seed * 0xbf58476d1ce4e5b9ull + 2);
  const std::vector<ModelId>& zoo = h2p::all_model_ids();

  // Shuffled decks keep the mix proportions fixed across seeds: every deck
  // holds each scene (or each zoo model) once, in a seeded random order, so
  // a seed changes which windows form and when they arrive, not how heavy
  // the stream is.  An app issues its scene's models in the same order every
  // frame; the planner is order-sensitive and a cached plan is reused for
  // every repeat, so a per-seed random first order would make the whole
  // stream's plan quality a coin toss.
  std::vector<ModelId> ids;
  ids.reserve(w.requests);
  while (ids.size() < w.requests) {
    if (w.scenes.empty()) {
      std::vector<ModelId> deck = zoo;
      mix_rng.shuffle(deck);
      ids.insert(ids.end(), deck.begin(), deck.end());
      continue;
    }
    std::vector<std::vector<ModelId>> deck = w.scenes;
    mix_rng.shuffle(deck);
    for (const std::vector<ModelId>& scene : deck) {
      ids.insert(ids.end(), scene.begin(), scene.end());
    }
  }
  ids.resize(w.requests);
  if (w.sorted_windows && w.scenes.empty()) {
    for (std::size_t i = 0; i < ids.size(); i += w.window) {
      const std::size_t end = std::min(i + w.window, ids.size());
      std::sort(ids.begin() + static_cast<std::ptrdiff_t>(i),
                ids.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }

  std::vector<h2p::OnlineRequest> stream;
  stream.reserve(ids.size());
  double t = 0.0;
  for (const ModelId id : ids) {
    // Unit-rate exponential gap scaled to the rung: 1 - U lies in (0, 1].
    t += -std::log(1.0 - gap_rng.uniform()) * 1000.0 / rate_rps;
    h2p::OnlineRequest req;
    req.model = &h2p::zoo_model(id);
    req.arrival_ms = t;
    req.deadline_ms = t + deadline_ms;
    stream.push_back(req);
  }
  return stream;
}

h2p::FaultScript make_faults(const Workload& w, std::uint64_t seed,
                             const std::vector<h2p::OnlineRequest>& stream) {
  if (!w.weather || stream.empty()) return {};
  const double horizon = stream.back().arrival_ms + 50.0;
  h2p::FaultSamplerOptions opts;
  opts.per_proc_faults = false;
  opts.horizon_ms = horizon;
  opts.mean_weather_gap_ms = w.weather_gap_ms;
  opts.mean_weather_duration_ms = w.weather_duration_ms;
  return h2p::FaultScript::sample(w.soc, seed * 0x94d049bb133111ebull + 3, opts);
}

h2p::OnlineOptions make_options(const Workload& w, const h2p::FaultScript& faults,
                                h2p::ThreadPool* pool) {
  h2p::OnlineOptions o;
  o.replan_window = w.window;
  o.warm_start = true;
  if (w.async_planning) {
    o.pool = pool;
    o.async_planning = true;
  }
  if (w.weather) {
    o.faults = &faults;
    o.thermal_loop = true;
    o.thermal.time_scale = w.thermal_time_scale;
    o.deadline_policy = h2p::DeadlinePolicy::kDefer;
    o.drift_tracking = true;
  }
  return o;
}

}  // namespace perfbench
