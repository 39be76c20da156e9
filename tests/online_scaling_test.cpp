#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "sim/online.h"

namespace h2p {
namespace {

// The serving loop's work must grow linearly with the stream: doubling a
// steady, below-capacity stream may at most ~double the DES start scan's
// work.  A scan that walks every later window's unreleased tasks on every
// event quadruples it.

/// Four app scenes (every two differ by at least two models, so each scene
/// keeps its own cached plan), repeated in a fixed order, one request every
/// `spacing_ms` — slower than the pipeline drains them, so the backlog stays
/// bounded and per-window work stays constant.
std::vector<OnlineRequest> scene_stream(std::size_t requests,
                                        double spacing_ms) {
  const std::vector<std::vector<ModelId>> scenes = {
      {ModelId::kYOLOv4, ModelId::kFaceNet, ModelId::kAgeGenderNet,
       ModelId::kViT},
      {ModelId::kViT, ModelId::kGPT2Decoder, ModelId::kFaceNet,
       ModelId::kMobileNetV2},
      {ModelId::kYOLOv4, ModelId::kBERT, ModelId::kMobileNetV2,
       ModelId::kSqueezeNet},
      {ModelId::kResNet50, ModelId::kSqueezeNet, ModelId::kMobileNetV2,
       ModelId::kGoogLeNet},
  };
  std::vector<OnlineRequest> stream;
  stream.reserve(requests);
  for (std::size_t i = 0; stream.size() < requests; ++i) {
    const std::vector<ModelId>& scene = scenes[(i / 4) % scenes.size()];
    stream.push_back(OnlineRequest{&zoo_model(scene[i % 4]),
                                   static_cast<double>(i) * spacing_ms});
  }
  return stream;
}

/// des.scan_steps spent by one run_online call (planning DES included).
std::uint64_t scan_steps_of(const std::vector<OnlineRequest>& stream) {
  obs::Counter& steps = obs::Registry::global().counter("des.scan_steps");
  const std::uint64_t before = steps.value();
  const OnlineResult r = run_online(Soc::kirin990(), stream, {});
  EXPECT_EQ(r.cache_hits + r.replans, r.windows.size());
  return steps.value() - before;
}

TEST(OnlineScaling, ScanStepsGrowLinearlyWithStreamLength) {
  const bool was_enabled = obs::Registry::global().enabled();
  obs::Registry::global().set_enabled(true);
  const std::uint64_t n = scan_steps_of(scene_stream(400, 200.0));
  const std::uint64_t n2 = scan_steps_of(scene_stream(800, 200.0));
  obs::Registry::global().set_enabled(was_enabled);
  ASSERT_GT(n, 0u);
  EXPECT_LE(static_cast<double>(n2), 2.2 * static_cast<double>(n))
      << "scan steps: " << n << " at N, " << n2 << " at 2N";
}

}  // namespace
}  // namespace h2p
