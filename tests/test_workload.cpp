// Tests for the scene-driven synthetic workload generator: determinism,
// shapes, and the three statistical properties the pruning algorithms rely
// on (probability skew, sampling locality, bounded offsets).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/stats.h"
#include "nn/bilinear.h"
#include "nn/softmax.h"
#include "workload/scene.h"

namespace defa::workload {
namespace {

SceneWorkload make(const ModelConfig& m) {
  SceneParams p;
  p.seed = m.seed;
  return SceneWorkload(m, p);
}

TEST(Scene, DeterministicAcrossInstances) {
  const ModelConfig m = ModelConfig::tiny();
  SceneWorkload a = make(m);
  SceneWorkload b = make(m);
  ASSERT_EQ(a.fmap().numel(), b.fmap().numel());
  for (std::int64_t i = 0; i < a.fmap().numel(); ++i) {
    EXPECT_EQ(a.fmap().at_flat(i), b.fmap().at_flat(i));
  }
  const nn::MsdaFields fa = a.layer_fields(0);
  const nn::MsdaFields fb = b.layer_fields(0);
  for (std::int64_t i = 0; i < fa.locs.numel(); ++i) {
    EXPECT_EQ(fa.locs.at_flat(i), fb.locs.at_flat(i));
  }
}

TEST(Scene, SeedChangesContent) {
  ModelConfig m = ModelConfig::tiny();
  SceneWorkload a = make(m);
  m.seed = m.seed + 1;
  SceneWorkload b = make(m);
  double diff = 0;
  for (std::int64_t i = 0; i < a.fmap().numel(); ++i) {
    diff += std::abs(a.fmap().at_flat(i) - b.fmap().at_flat(i));
  }
  EXPECT_GT(diff, 1.0);
}

TEST(Scene, FieldShapes) {
  const ModelConfig m = ModelConfig::tiny();
  SceneWorkload wl = make(m);
  EXPECT_EQ(wl.fmap().dim(0), m.n_in());
  EXPECT_EQ(wl.fmap().dim(1), m.d_model);
  EXPECT_EQ(wl.ref_norm().dim(0), m.n_in());
  const nn::MsdaFields f = wl.layer_fields(0);
  EXPECT_EQ(f.logits.dim(0), m.n_in());
  EXPECT_EQ(f.logits.dim(1), m.n_heads);
  EXPECT_EQ(f.logits.dim(2), m.points_per_head());
  EXPECT_EQ(f.locs.dim(2), m.n_levels);
  EXPECT_EQ(f.locs.dim(3), m.n_points);
  EXPECT_EQ(f.locs.dim(4), 2);
}

TEST(Scene, LayerOutOfRangeThrows) {
  const ModelConfig m = ModelConfig::tiny();
  SceneWorkload wl = make(m);
  EXPECT_THROW((void)wl.layer_fields(m.n_layers), CheckError);
  EXPECT_THROW((void)wl.layer_fields(-1), CheckError);
}

TEST(Scene, ObjectsWithinFrame) {
  const ModelConfig m = ModelConfig::small();
  SceneWorkload wl = make(m);
  EXPECT_GE(static_cast<int>(wl.objects().size()), 1);
  for (const ObjectBlob& b : wl.objects()) {
    EXPECT_GT(b.cx, 0.0f);
    EXPECT_LT(b.cx, 1.0f);
    EXPECT_GT(b.cy, 0.0f);
    EXPECT_LT(b.cy, 1.0f);
    EXPECT_GT(b.sigma, 0.0f);
    EXPECT_GT(b.weight, 0.0f);
  }
}

TEST(Scene, SaliencyPeaksAtObjectCenters) {
  const ModelConfig m = ModelConfig::small();
  SceneWorkload wl = make(m);
  const ObjectBlob& b = wl.objects().front();
  const float at_center = wl.saliency(b.cx, b.cy);
  const float far = wl.saliency(std::fmod(b.cx + 0.45f, 1.0f), std::fmod(b.cy + 0.45f, 1.0f));
  EXPECT_GT(at_center, far);
  EXPECT_GT(at_center, 0.3f);
}

TEST(Scene, AttentionProbabilitiesAreHeavilySkewed) {
  // Basis of PAP: the paper observes >80% of softmax probabilities are
  // near zero; the generator must reproduce that skew.
  const ModelConfig m = ModelConfig::small();
  SceneWorkload wl = make(m);
  const Tensor probs = nn::softmax_lastdim(wl.layer_fields(0).logits);
  std::int64_t near_zero = 0;
  for (float p : probs.data()) {
    if (p < 0.03f) ++near_zero;
  }
  const double frac = static_cast<double>(near_zero) / static_cast<double>(probs.numel());
  EXPECT_GT(frac, 0.70);
  EXPECT_LT(frac, 0.95);
}

TEST(Scene, SampledFrequencyIsNonUniform) {
  // Basis of FWP: access frequency concentrates on salient pixels.
  const ModelConfig m = ModelConfig::small();
  SceneWorkload wl = make(m);
  const nn::MsdaFields f = wl.layer_fields(0);
  std::vector<int> freq(static_cast<std::size_t>(m.n_in()), 0);
  for (std::int64_t q = 0; q < m.n_in(); ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      for (int l = 0; l < m.n_levels; ++l) {
        for (int p = 0; p < m.n_points; ++p) {
          nn::for_each_neighbor(m, l, nn::bi_locate(f.locs(q, h, l, p, 0), f.locs(q, h, l, p, 1)),
                                [&](int, std::int64_t tok) { ++freq[static_cast<std::size_t>(tok)]; });
        }
      }
    }
  }
  RunningStats s;
  for (int c : freq) s.add(c);
  // Coefficient of variation well above a uniform pattern's.
  EXPECT_GT(s.stddev() / s.mean(), 0.8);
}

TEST(Scene, OffsetsMostlyWithinBoundedRange) {
  // Basis of range narrowing: offsets concentrate within the per-level
  // radii, so clamping is rare.
  const ModelConfig m = ModelConfig::small();
  SceneWorkload wl = make(m);
  const nn::MsdaFields f = wl.layer_fields(0);
  const RangeSpec ranges = RangeSpec::level_wise_default(m.n_levels);
  std::int64_t outside = 0, total = 0;
  for (std::int64_t q = 0; q < m.n_in(); ++q) {
    const float rx = wl.ref_norm()(q, 0);
    const float ry = wl.ref_norm()(q, 1);
    for (int h = 0; h < m.n_heads; ++h) {
      for (int l = 0; l < m.n_levels; ++l) {
        const LevelShape& lv = m.levels[static_cast<std::size_t>(l)];
        const float cx = rx * lv.w - 0.5f;
        const float cy = ry * lv.h - 0.5f;
        for (int p = 0; p < m.n_points; ++p, ++total) {
          const float dx = std::abs(f.locs(q, h, l, p, 0) - cx);
          const float dy = std::abs(f.locs(q, h, l, p, 1) - cy);
          if (std::max(dx, dy) > static_cast<float>(ranges.radius(l))) ++outside;
        }
      }
    }
  }
  const double frac = static_cast<double>(outside) / static_cast<double>(total);
  EXPECT_LT(frac, 0.15);
  EXPECT_GT(frac, 0.001);  // but not degenerate: narrowing must do something
}

TEST(Scene, LayersAreCorrelatedButNotIdentical) {
  // FWP transfers masks across blocks: sampling patterns must be similar
  // layer to layer, yet not bitwise identical.
  const ModelConfig m = ModelConfig::tiny();
  SceneWorkload wl = make(m);
  const nn::MsdaFields f0 = wl.layer_fields(0);
  const nn::MsdaFields f1 = wl.layer_fields(1);
  double mean_dist = 0;
  std::int64_t n = 0;
  bool any_diff = false;
  for (std::int64_t i = 0; i < f0.locs.numel(); i += 2) {
    const double dx = f0.locs.at_flat(i) - f1.locs.at_flat(i);
    const double dy = f0.locs.at_flat(i + 1) - f1.locs.at_flat(i + 1);
    mean_dist += std::sqrt(dx * dx + dy * dy);
    if (dx != 0 || dy != 0) any_diff = true;
    ++n;
  }
  mean_dist /= static_cast<double>(n);
  EXPECT_TRUE(any_diff);
  EXPECT_LT(mean_dist, 8.0);  // same neighborhoods, jittered
}

TEST(Scene, InvalidParamsThrow) {
  const ModelConfig m = ModelConfig::tiny();
  SceneParams p;
  p.n_objects = 0;
  EXPECT_THROW(SceneWorkload(m, p), CheckError);
  SceneParams p2;
  p2.seek_fraction = 1.5;
  EXPECT_THROW(SceneWorkload(m, p2), CheckError);
  SceneParams p3;
  p3.n_objects = kMaxObjects + 1;
  EXPECT_THROW(SceneWorkload(m, p3), CheckError);
  p3.n_objects = kMaxObjects;
  EXPECT_NO_THROW(SceneWorkload(m, p3));
}

TEST(Scene, FmapValuesFinite) {
  const ModelConfig m = ModelConfig::tiny();
  SceneWorkload wl = make(m);
  for (float v : wl.fmap().data()) EXPECT_TRUE(std::isfinite(v));
}

// ------------------------------------------------------------------ goldens
// FNV-1a over the bit patterns of layer_fields(0) (locations, then logits),
// pinned so restructuring the generator (hoisting, chunking) is held to
// its output bit for bit.

std::uint64_t fields_checksum(const nn::MsdaFields& f) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const Tensor* t : {&f.locs, &f.logits}) {
    for (const float v : t->data()) {
      const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
      for (int k = 0; k < 4; ++k) {
        h ^= (bits >> (8 * k)) & 0xFFu;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

TEST(SceneGolden, LayerFieldsTiny) {
  SceneParams p;
  p.seed = 7;
  const SceneWorkload wl(ModelConfig::tiny(), p);
  EXPECT_EQ(fields_checksum(wl.layer_fields(0)), 0x1708ed0f7d0fe107ULL);
}

TEST(SceneGolden, LayerFields16x20) {
  // The frame16x20 request shape: 426 queries, enough that the
  // per-query loop fans out.
  ModelConfig m;
  m.name = "golden16x20";
  m.n_layers = 2;
  m.levels = {{16, 20}, {8, 10}, {4, 5}, {2, 3}};
  m.seed = 7;
  m.validate();
  SceneParams p;
  p.seed = 3;
  const SceneWorkload wl(m, p);
  EXPECT_EQ(fields_checksum(wl.layer_fields(0)), 0x0282705b1b07a350ULL);
}

}  // namespace
}  // namespace defa::workload
