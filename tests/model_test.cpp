#include <gtest/gtest.h>

#include "models/model.h"
#include "models/model_zoo.h"

namespace h2p {
namespace {

Model tiny_model() {
  std::vector<Layer> layers;
  layers.push_back(make_conv2d("c1", 3, 16, 3, 32, 32));
  layers.push_back(make_activation("relu", LayerKind::kReLU, 16.0 * 32 * 32));
  layers.push_back(make_attention("attn", 64, 128, 4));
  layers.push_back(make_fully_connected("fc", 128, 10));
  return Model("tiny", std::move(layers));
}

TEST(Model, AggregatesMatchLayerSums) {
  const Model m = tiny_model();
  double flops = 0.0, params = 0.0;
  for (const Layer& l : m.layers()) {
    flops += l.flops;
    params += l.param_bytes;
  }
  EXPECT_DOUBLE_EQ(m.total_flops(), flops);
  EXPECT_DOUBLE_EQ(m.total_param_bytes(), params);
}

TEST(Model, RangeQueriesMatchManualSums) {
  const Model m = tiny_model();
  EXPECT_DOUBLE_EQ(m.range_flops(0, 3), m.total_flops());
  EXPECT_DOUBLE_EQ(m.range_flops(1, 2),
                   m.layer(1).flops + m.layer(2).flops);
  EXPECT_DOUBLE_EQ(m.range_flops(2, 2), m.layer(2).flops);
}

TEST(Model, EmptyAndInvertedRangesAreZero) {
  const Model m = tiny_model();
  EXPECT_DOUBLE_EQ(m.range_flops(2, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.range_param_bytes(3, 2), 0.0);
  EXPECT_DOUBLE_EQ(m.range_flops(0, 99), 0.0);  // out of range guarded
}

TEST(Model, BoundaryBytes) {
  const Model m = tiny_model();
  EXPECT_DOUBLE_EQ(m.boundary_bytes(0), m.layer(0).input_bytes);
  EXPECT_DOUBLE_EQ(m.boundary_bytes(2), m.layer(1).output_bytes);
  EXPECT_DOUBLE_EQ(m.boundary_bytes(m.num_layers()), m.layer(3).output_bytes);
}

TEST(Model, PeakActivation) {
  const Model m = tiny_model();
  double expected = 0.0;
  for (std::size_t i = 0; i < m.num_layers(); ++i) {
    expected = std::max(expected, m.layer(i).input_bytes + m.layer(i).output_bytes);
  }
  EXPECT_DOUBLE_EQ(m.peak_activation_bytes(0, m.num_layers() - 1), expected);
}

TEST(Model, RangeLocalityIsTrafficWeighted) {
  const Model m = tiny_model();
  const double loc = m.range_locality(0, m.num_layers() - 1);
  EXPECT_GT(loc, 0.0);
  EXPECT_LE(loc, 1.0);
  // Single-layer range equals the layer's own locality.
  EXPECT_DOUBLE_EQ(m.range_locality(3, 3), m.layer(3).locality);
}

TEST(Model, FirstNpuUnsupportedFindsAttention) {
  const Model m = tiny_model();
  EXPECT_EQ(m.first_npu_unsupported(0, 3), 2u);  // attention at index 2
  EXPECT_EQ(m.first_npu_unsupported(0, 1), 2u);  // none in range -> j+1
  EXPECT_EQ(m.first_npu_unsupported(3, 3), 4u);  // FC supported
  EXPECT_FALSE(m.fully_npu_supported());
}

TEST(Model, FullyNpuSupportedWhenNoBlockers) {
  std::vector<Layer> layers;
  layers.push_back(make_conv2d("c", 3, 8, 3, 8, 8));
  layers.push_back(make_pool("p", 8, 4, 4, 2));
  const Model m("cnn", std::move(layers));
  EXPECT_TRUE(m.fully_npu_supported());
}

TEST(Model, EmptyModel) {
  const Model m("empty", {});
  EXPECT_EQ(m.num_layers(), 0u);
  EXPECT_DOUBLE_EQ(m.total_flops(), 0.0);
  EXPECT_DOUBLE_EQ(m.boundary_bytes(0), 0.0);
  EXPECT_TRUE(m.fully_npu_supported());
}

TEST(Model, ContentHashIsPinned) {
  // Computed once at construction; the values are the plan-cache key
  // components of every cached plan, so they must not drift.
  EXPECT_EQ(Model().content_hash(), 0x47fe0d7eaf8e51e3ull);
  EXPECT_EQ(Model("empty", {}).content_hash(), Model().content_hash());
  EXPECT_EQ(zoo_model(ModelId::kResNet50).content_hash(), 0x25ef24150fa4e853ull);
  EXPECT_EQ(zoo_model(ModelId::kBERT).content_hash(), 0xd8105ac37798e7cbull);
  const Model copy = zoo_model(ModelId::kBERT);
  EXPECT_EQ(copy.content_hash(), zoo_model(ModelId::kBERT).content_hash());
  EXPECT_NE(tiny_model().content_hash(), Model().content_hash());
}

TEST(Model, MaxWorkingSet) {
  const Model m = tiny_model();
  double expected = 0.0;
  for (const Layer& l : m.layers()) expected = std::max(expected, l.working_set_bytes);
  EXPECT_DOUBLE_EQ(m.max_working_set_bytes(0, m.num_layers() - 1), expected);
}

}  // namespace
}  // namespace h2p
