// Tests for the pruning algorithms: PAP (Sec. 3.2), FWP (Sec. 3.1, Eq. 2)
// and level-wise range narrowing (Sec. 4.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "nn/bilinear.h"
#include "nn/softmax.h"
#include "prune/fwp.h"
#include "prune/masks.h"
#include "prune/pap.h"
#include "prune/range.h"
#include "quant/fixed_point.h"
#include "workload/scene.h"

namespace defa::prune {
namespace {

// --------------------------------------------------------------------- masks
TEST(PointMask, StartsAllKeep) {
  const ModelConfig m = ModelConfig::tiny();
  PointMask mask(m);
  EXPECT_EQ(mask.kept_count(), mask.total());
  EXPECT_DOUBLE_EQ(mask.fraction_pruned(), 0.0);
  EXPECT_EQ(mask.total(), m.n_in() * m.n_heads * m.n_levels * m.n_points);
}

TEST(PointMask, SetAndQuery) {
  const ModelConfig m = ModelConfig::tiny();
  PointMask mask(m);
  mask.set_keep(3, 1, 0, 1, false);
  EXPECT_FALSE(mask.keep(3, 1, 0, 1));
  EXPECT_TRUE(mask.keep(3, 1, 0, 0));
  EXPECT_EQ(mask.kept_count(), mask.total() - 1);
  EXPECT_EQ(mask.kept_in_level(3, 1, 0), m.n_points - 1);
  EXPECT_EQ(mask.kept_in_level(3, 1, 1), m.n_points);
}

TEST(FmapMask, StartsAllKeepAndCountsPerLevel) {
  const ModelConfig m = ModelConfig::tiny();
  FmapMask mask(m);
  EXPECT_EQ(mask.kept_count(), m.n_in());
  mask.set_keep(m.level_offset(1), false);
  EXPECT_EQ(mask.kept_in_level(m, 0), m.levels[0].numel());
  EXPECT_EQ(mask.kept_in_level(m, 1), m.levels[1].numel() - 1);
}

// ----------------------------------------------------------------------- PAP
TEST(Pap, ThresholdZeroPrunesNothing) {
  const ModelConfig m = ModelConfig::tiny();
  Tensor probs = Tensor::full({m.n_in(), m.n_heads, m.points_per_head()},
                              1.0f / m.points_per_head());
  PapStats stats;
  const PointMask mask = pap_prune(m, probs, 0.0, &stats);
  EXPECT_EQ(stats.pruned_points, 0);
  EXPECT_EQ(mask.kept_count(), mask.total());
}

TEST(Pap, PrunesExactlyBelowThreshold) {
  const ModelConfig m = ModelConfig::tiny();
  Tensor probs = Tensor::full({m.n_in(), m.n_heads, m.points_per_head()}, 0.1f);
  probs(0, 0, 0) = 0.01f;
  probs(0, 0, 1) = 0.02f;
  PapStats stats;
  const PointMask mask = pap_prune(m, probs, 0.05, &stats);
  EXPECT_EQ(stats.pruned_points, 2);
  EXPECT_FALSE(mask.keep(0, 0, 0, 0));
  EXPECT_FALSE(mask.keep(0, 0, 0, 1));
  EXPECT_TRUE(mask.keep(0, 0, 0, 2));
}

TEST(Pap, DroppedMassTracksPrunedProbabilities) {
  const ModelConfig m = ModelConfig::tiny();
  Tensor probs = Tensor::full({m.n_in(), m.n_heads, m.points_per_head()}, 0.1f);
  probs(0, 0, 0) = 0.01f;
  PapStats stats;
  (void)pap_prune(m, probs, 0.05, &stats);
  // One pruned point of prob 0.01 averaged over all (q, h) pairs.
  const double qh = static_cast<double>(m.n_in()) * m.n_heads;
  EXPECT_NEAR(stats.mean_dropped_mass, 0.01 / qh, 1e-9);
}

TEST(Pap, InvalidThresholdThrows) {
  const ModelConfig m = ModelConfig::tiny();
  Tensor probs({m.n_in(), m.n_heads, m.points_per_head()});
  EXPECT_THROW((void)pap_prune(m, probs, -0.1, nullptr), CheckError);
  EXPECT_THROW((void)pap_prune(m, probs, 1.0, nullptr), CheckError);
}

/// Property: pruned fraction is monotone non-decreasing in the threshold.
class PapMonotone : public ::testing::TestWithParam<double> {};

TEST_P(PapMonotone, FractionIncreasesWithTau) {
  const ModelConfig m = ModelConfig::small();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const Tensor probs = nn::softmax_lastdim(wl.layer_fields(0).logits);
  const double tau = GetParam();
  PapStats lo, hi;
  (void)pap_prune(m, probs, tau, &lo);
  (void)pap_prune(m, probs, tau * 1.5, &hi);
  EXPECT_LE(lo.pruned_points, hi.pruned_points);
  EXPECT_GE(lo.pruned_points, 0);
  EXPECT_LE(hi.fraction_pruned(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Taus, PapMonotone,
                         ::testing::Values(0.005, 0.01, 0.02, 0.03, 0.05, 0.08));

// ----------------------------------------------------------------------- FWP
TEST(FreqCounter, CountsAndMerges) {
  const ModelConfig m = ModelConfig::tiny();
  FreqCounter a(m), b(m);
  a.add(0);
  a.add(0);
  b.add(0);
  b.add(5);
  a.merge(b);
  EXPECT_EQ(a.count(0), 3u);
  EXPECT_EQ(a.count(5), 1u);
  EXPECT_EQ(a.count(1), 0u);
}

TEST(FreqCounter, LevelMean) {
  const ModelConfig m = ModelConfig::tiny();
  FreqCounter f(m);
  // Put 80 counts uniformly on level 0 (80 pixels).
  for (std::int64_t t = 0; t < m.levels[0].numel(); ++t) f.add(t);
  EXPECT_DOUBLE_EQ(f.level_mean(m, 0), 1.0);
  EXPECT_DOUBLE_EQ(f.level_mean(m, 1), 0.0);
}

TEST(Fwp, Eq2ThresholdPerLevel) {
  const ModelConfig m = ModelConfig::tiny();
  FreqCounter f(m);
  // Level 0: one pixel sampled 80 times -> mean = 1.0; k=0.5 -> T=0.5.
  for (int i = 0; i < 80; ++i) f.add(0);
  FwpStats stats;
  const FmapMask mask = fwp_prune(m, f, 0.5, &stats);
  ASSERT_EQ(stats.level_threshold.size(), static_cast<std::size_t>(m.n_levels));
  EXPECT_DOUBLE_EQ(stats.level_threshold[0], 0.5);
  // Pixel 0 (freq 80) survives; all other level-0 pixels (freq 0) pruned.
  EXPECT_TRUE(mask.keep(0));
  EXPECT_FALSE(mask.keep(1));
  // Level 1: all-zero frequencies -> threshold 0 -> nothing pruned (F >= 0).
  EXPECT_EQ(mask.kept_in_level(m, 1), m.levels[1].numel());
}

TEST(Fwp, KZeroPrunesNothing) {
  const ModelConfig m = ModelConfig::tiny();
  FreqCounter f(m);
  f.add(3);
  FwpStats stats;
  (void)fwp_prune(m, f, 0.0, &stats);
  EXPECT_EQ(stats.pruned_pixels, 0);
}

TEST(Fwp, NegativeKThrows) {
  const ModelConfig m = ModelConfig::tiny();
  FreqCounter f(m);
  EXPECT_THROW((void)fwp_prune(m, f, -1.0, nullptr), CheckError);
}

/// Property: pruned pixel fraction is monotone in k.
class FwpMonotone : public ::testing::TestWithParam<double> {};

TEST_P(FwpMonotone, FractionIncreasesWithK) {
  const ModelConfig m = ModelConfig::small();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const PointMask all_keep(m);
  const FreqCounter freq = count_sampled_frequency(m, wl.layer_fields(0).locs, all_keep);
  const double k = GetParam();
  FwpStats lo, hi;
  (void)fwp_prune(m, freq, k, &lo);
  (void)fwp_prune(m, freq, k * 1.3, &hi);
  EXPECT_LE(lo.pruned_pixels, hi.pruned_pixels);
}

INSTANTIATE_TEST_SUITE_P(Ks, FwpMonotone, ::testing::Values(0.3, 0.5, 0.66, 0.8, 1.0));

TEST(Fwp, CountSampledFrequencyRespectsPointMask) {
  const ModelConfig m = ModelConfig::tiny();
  // One point squarely inside level 0; everything else far out of bounds.
  Tensor locs = Tensor::full({m.n_in(), m.n_heads, m.n_levels, m.n_points, 2}, -100.0f);
  locs(0, 0, 0, 0, 0) = 2.5f;
  locs(0, 0, 0, 0, 1) = 2.5f;
  PointMask mask(m);
  const FreqCounter with = count_sampled_frequency(m, locs, mask);
  EXPECT_EQ(with.count(m.flat_index(0, 2, 2)), 1u);
  EXPECT_EQ(with.count(m.flat_index(0, 3, 3)), 1u);
  mask.set_keep(0, 0, 0, 0, false);
  const FreqCounter without = count_sampled_frequency(m, locs, mask);
  EXPECT_EQ(without.count(m.flat_index(0, 2, 2)), 0u);
}

TEST(Fwp, FrequencyMatchesBilinearNeighborCount) {
  // Every in-bounds sampled point contributes exactly 4 neighbor counts.
  const ModelConfig m = ModelConfig::tiny();
  Tensor locs = Tensor::full({m.n_in(), m.n_heads, m.n_levels, m.n_points, 2}, 1.5f);
  const PointMask mask(m);
  const FreqCounter freq = count_sampled_frequency(m, locs, mask);
  std::int64_t total = 0;
  for (std::int64_t t = 0; t < m.n_in(); ++t) total += freq.count(t);
  EXPECT_EQ(total, m.n_in() * m.n_heads * m.n_levels * m.n_points * 4);
}

// ------------------------------------- parallel PAP and frequency counting

/// Serial pap_prune, written independently of the library's chunked loop.
/// The dropped mass is a fixed-block sum: serial within each block of 4096
/// points in (q, h, l, p) order, the block partials added in block order.
PointMask serial_pap(const ModelConfig& m, const Tensor& probs, double tau,
                     std::int64_t& pruned, double& dropped_mass) {
  PointMask mask(m);
  pruned = 0;
  dropped_mass = 0.0;
  double block_mass = 0.0;
  std::int64_t point = 0;
  for (std::int64_t q = 0; q < m.n_in(); ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      for (int l = 0; l < m.n_levels; ++l) {
        for (int p = 0; p < m.n_points; ++p) {
          const float prob = probs(q, h, static_cast<std::int64_t>(l) * m.n_points + p);
          if (prob < static_cast<float>(tau)) {
            mask.set_keep(q, h, l, p, false);
            ++pruned;
            block_mass += prob;
          }
          if (++point % 4096 == 0) {
            dropped_mass += block_mass;
            block_mass = 0.0;
          }
        }
      }
    }
  }
  if (point % 4096 != 0) dropped_mass += block_mass;
  return mask;
}

/// Serial count_sampled_frequency.
std::vector<std::uint32_t> serial_frequency(const ModelConfig& m, const Tensor& locs,
                                            const PointMask& pmask) {
  std::vector<std::uint32_t> counts(static_cast<std::size_t>(m.n_in()), 0);
  for (std::int64_t q = 0; q < m.n_in(); ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      for (int l = 0; l < m.n_levels; ++l) {
        for (int p = 0; p < m.n_points; ++p) {
          if (!pmask.keep(q, h, l, p)) continue;
          const nn::BiPoint bp = nn::bi_locate(locs(q, h, l, p, 0), locs(q, h, l, p, 1));
          nn::for_each_neighbor(m, l, bp, [&](int, std::int64_t token) {
            ++counts[static_cast<std::size_t>(token)];
          });
        }
      }
    }
  }
  return counts;
}

/// Both passes fan out over query chunks on the small preset (1700
/// queries x 128 points) and must reproduce a serial pass exactly: mask
/// bytes, pruned count, dropped-mass bits and every pixel count.
class PruneMatchesSerial : public ::testing::TestWithParam<double> {};

TEST_P(PruneMatchesSerial, MaskCountsAndMassBitIdentical) {
  const ModelConfig m = ModelConfig::small();
  ASSERT_GT(parallel_chunks(m.n_in(), m.points_per_query(), 4).count, 1);
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const nn::MsdaFields f = wl.layer_fields(1);
  const Tensor probs = nn::softmax_lastdim(f.logits);
  const double tau = GetParam();

  std::int64_t want_pruned = 0;
  double want_mass = 0.0;
  const PointMask want = serial_pap(m, probs, tau, want_pruned, want_mass);
  PapStats stats;
  const PointMask got = pap_prune(m, probs, tau, &stats);
  ASSERT_GT(want_pruned, 0);
  std::int64_t mask_mismatches = 0;
  for (std::int64_t q = 0; q < m.n_in(); ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      for (int l = 0; l < m.n_levels; ++l) {
        for (int p = 0; p < m.n_points; ++p) {
          if (got.keep(q, h, l, p) != want.keep(q, h, l, p)) ++mask_mismatches;
        }
      }
    }
  }
  EXPECT_EQ(mask_mismatches, 0);
  EXPECT_EQ(stats.pruned_points, want_pruned);
  EXPECT_EQ(stats.total_points, want.total());
  const double qh = static_cast<double>(m.n_in()) * m.n_heads;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.mean_dropped_mass),
            std::bit_cast<std::uint64_t>(want_mass / qh));

  const std::vector<std::uint32_t> want_counts = serial_frequency(m, f.locs, got);
  const FreqCounter freq = count_sampled_frequency(m, f.locs, got);
  ASSERT_EQ(freq.size(), m.n_in());
  std::int64_t count_mismatches = 0;
  for (std::int64_t t = 0; t < m.n_in(); ++t) {
    if (freq.count(t) != want_counts[static_cast<std::size_t>(t)]) ++count_mismatches;
  }
  EXPECT_EQ(count_mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Taus, PruneMatchesSerial, ::testing::Values(0.005, 0.031, 0.08));

/// A one-head, one-level, one-point model whose single level has h x w
/// pixels: h * w sampling points.
ModelConfig point_model(int h, int w) {
  ModelConfig m;
  m.name = "points" + std::to_string(h * w);
  m.n_heads = 1;
  m.n_levels = 1;
  m.n_points = 1;
  m.n_layers = 1;
  m.levels = {LevelShape{h, w}};
  m.validate();
  return m;
}

TEST(FixedBlockSum, PapDroppedMassMatchesSerialPerBlockLoop) {
  // 1, 4095, 4096 and 4097 points, then the small preset's 217,600
  // points, which fan out over several chunks of blocks.
  std::vector<ModelConfig> models{point_model(1, 1), point_model(63, 65), point_model(64, 64),
                                  point_model(1, 4097), ModelConfig::small()};
  Rng rng(71);
  for (const ModelConfig& m : models) {
    Tensor probs({m.n_in(), m.n_heads, m.points_per_head()});
    // Probabilities over many binades, so the order of the adds shows.
    for (float& p : probs.data()) p = static_cast<float>(0.1 * std::exp(rng.uniform(-20.0, 0.0)));
    std::int64_t want_pruned = 0;
    double want_mass = 0.0;
    const PointMask want = serial_pap(m, probs, 0.05, want_pruned, want_mass);
    PapStats stats;
    const PointMask got = pap_prune(m, probs, 0.05, &stats);
    SCOPED_TRACE(m.name + ": " + std::to_string(got.total()) + " points");
    EXPECT_TRUE(std::equal(got.bytes().begin(), got.bytes().end(), want.bytes().begin(),
                           want.bytes().end()));
    EXPECT_EQ(stats.pruned_points, want_pruned);
    const double qh = static_cast<double>(m.n_in()) * m.n_heads;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.mean_dropped_mass),
              std::bit_cast<std::uint64_t>(want_mass / qh));
    // Without stats the mask is the same.
    const PointMask bare = pap_prune(m, probs, 0.05);
    EXPECT_TRUE(std::equal(bare.bytes().begin(), bare.bytes().end(), want.bytes().begin(),
                           want.bytes().end()));
  }
}

// ----------------------------------------------------------- range narrowing
TEST(Range, NoClampWhenInside) {
  const ModelConfig m = ModelConfig::tiny();
  const Tensor ref = nn::reference_points(m);
  Tensor locs({m.n_in(), m.n_heads, m.n_levels, m.n_points, 2});
  // Zero offsets: locations == reference centers, always inside the range.
  Tensor offsets({m.n_in(), m.n_heads, m.n_levels, m.n_points, 2});
  locs = nn::locs_from_offsets(m, ref, offsets);
  const RangeSpec ranges = RangeSpec::level_wise_default(m.n_levels);
  const ClampStats stats = clamp_to_range(m, ref, ranges, locs);
  EXPECT_EQ(stats.clamped_points, 0);
  EXPECT_DOUBLE_EQ(stats.fraction_clamped(), 0.0);
}

TEST(Range, ClampsToBox) {
  const ModelConfig m = ModelConfig::tiny();
  const Tensor ref = nn::reference_points(m);
  Tensor offsets({m.n_in(), m.n_heads, m.n_levels, m.n_points, 2});
  offsets(0, 0, 0, 0, 0) = 100.0f;  // way outside the radius
  Tensor locs = nn::locs_from_offsets(m, ref, offsets);
  const RangeSpec ranges = RangeSpec::level_wise_default(m.n_levels);
  const ClampStats stats = clamp_to_range(m, ref, ranges, locs);
  EXPECT_EQ(stats.clamped_points, 1);
  const float cx = ref(0, 0) * m.levels[0].w - 0.5f;
  EXPECT_NEAR(locs(0, 0, 0, 0, 0), cx + ranges.radius(0), 1e-5);
  EXPECT_NEAR(stats.max_excess_px, 100.0 - ranges.radius(0), 1e-4);
}

TEST(Range, PerLevelFractions) {
  const ModelConfig m = ModelConfig::tiny();
  const Tensor ref = nn::reference_points(m);
  Tensor offsets({m.n_in(), m.n_heads, m.n_levels, m.n_points, 2});
  offsets(0, 0, 1, 0, 1) = -50.0f;  // clamp in level 1 only
  Tensor locs = nn::locs_from_offsets(m, ref, offsets);
  const RangeSpec ranges = RangeSpec::level_wise_default(m.n_levels);
  const ClampStats stats = clamp_to_range(m, ref, ranges, locs);
  EXPECT_EQ(stats.clamped_points, 1);
  EXPECT_EQ(stats.level_fraction[0], 0.0);
  EXPECT_GT(stats.level_fraction[1], 0.0);
}

TEST(Range, ClampIsIdempotent) {
  const ModelConfig m = ModelConfig::small();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  Tensor locs = wl.layer_fields(0).locs;
  const RangeSpec ranges = RangeSpec::level_wise_default(m.n_levels);
  (void)clamp_to_range(m, wl.ref_norm(), ranges, locs);
  const ClampStats second = clamp_to_range(m, wl.ref_norm(), ranges, locs);
  EXPECT_EQ(second.clamped_points, 0);
}

/// Property: a wider range clamps no more points than a narrower one.
class RangeMonotone : public ::testing::TestWithParam<int> {};

TEST_P(RangeMonotone, WiderRangeClampsFewer) {
  const ModelConfig m = ModelConfig::small();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const int r = GetParam();
  Tensor locs_narrow = wl.layer_fields(0).locs;
  Tensor locs_wide = wl.layer_fields(0).locs;
  const ClampStats narrow =
      clamp_to_range(m, wl.ref_norm(), RangeSpec::unified(m.n_levels, r), locs_narrow);
  const ClampStats wide =
      clamp_to_range(m, wl.ref_norm(), RangeSpec::unified(m.n_levels, r + 2), locs_wide);
  EXPECT_GE(narrow.clamped_points, wide.clamped_points);
}

INSTANTIATE_TEST_SUITE_P(Radii, RangeMonotone, ::testing::Values(2, 4, 6, 8));

/// Serial recomputation of clamp_to_range, written independently of the
/// library's chunked loop.
ClampStats serial_clamp(const ModelConfig& m, const Tensor& ref, const RangeSpec& ranges,
                        Tensor& locs) {
  ClampStats stats;
  stats.total_points = m.n_in() * m.n_heads * m.n_levels * m.n_points;
  std::vector<std::int64_t> per_level(static_cast<std::size_t>(m.n_levels), 0);
  for (std::int64_t q = 0; q < m.n_in(); ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      for (int l = 0; l < m.n_levels; ++l) {
        const LevelShape& lv = m.levels[static_cast<std::size_t>(l)];
        const float cx = ref(q, 0) * static_cast<float>(lv.w) - 0.5f;
        const float cy = ref(q, 1) * static_cast<float>(lv.h) - 0.5f;
        const float r = static_cast<float>(ranges.radius(l));
        for (int p = 0; p < m.n_points; ++p) {
          float& x = locs(q, h, l, p, 0);
          float& y = locs(q, h, l, p, 1);
          const float nx = std::clamp(x, cx - r, cx + r);
          const float ny = std::clamp(y, cy - r, cy + r);
          const double excess = std::max(std::abs(static_cast<double>(x - nx)),
                                         std::abs(static_cast<double>(y - ny)));
          if (excess > 0.0) {
            ++stats.clamped_points;
            ++per_level[static_cast<std::size_t>(l)];
            stats.max_excess_px = std::max(stats.max_excess_px, excess);
            x = nx;
            y = ny;
          }
        }
      }
    }
  }
  const double per_level_total = static_cast<double>(m.n_in()) * m.n_heads * m.n_points;
  for (std::int64_t c : per_level) {
    stats.level_fraction.push_back(static_cast<double>(c) / per_level_total);
  }
  return stats;
}

/// The parallel clamp reproduces a serial pass bit for bit: same location
/// bytes, same counts, same max excess, same per-level fractions.
class RangeMatchesSerial : public ::testing::TestWithParam<int> {};

TEST_P(RangeMatchesSerial, LocsAndStatsBitIdentical) {
  // small: 1700 queries x 128 points, several parallel chunks.
  const ModelConfig m = ModelConfig::small();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const int radius = GetParam();
  const RangeSpec ranges = radius > 0 ? RangeSpec::unified(m.n_levels, radius)
                                      : RangeSpec::level_wise_default(m.n_levels);
  Tensor expected = wl.layer_fields(1).locs;
  Tensor actual = expected;
  const ClampStats want = serial_clamp(m, wl.ref_norm(), ranges, expected);
  const ClampStats got = clamp_to_range(m, wl.ref_norm(), ranges, actual);

  ASSERT_GT(want.clamped_points, 0);
  ASSERT_EQ(actual.numel(), expected.numel());
  EXPECT_EQ(std::memcmp(actual.data().data(), expected.data().data(),
                        expected.data().size_bytes()),
            0);
  EXPECT_EQ(got.total_points, want.total_points);
  EXPECT_EQ(got.clamped_points, want.clamped_points);
  EXPECT_EQ(got.max_excess_px, want.max_excess_px);
  EXPECT_EQ(got.level_fraction, want.level_fraction);
}

// 0 = DEFA's level-wise default radii; the others are unified radii.
INSTANTIATE_TEST_SUITE_P(Radii, RangeMatchesSerial, ::testing::Values(0, 1, 3));

// ------------------------------------ the fused offset-quantize + clamp passes

/// The chain quantize_and_clamp replaces, serially: turn every location
/// into its offset from the reference center, fit one spec over all
/// offsets, write back center + the requantized offset, then clamp.
ClampStats old_narrow_chain(const ModelConfig& m, const Tensor& ref, int bits,
                            const RangeSpec* ranges, Tensor& locs) {
  const auto for_each_point = [&](const auto& fn) {
    for (std::int64_t q = 0; q < m.n_in(); ++q) {
      for (int h = 0; h < m.n_heads; ++h) {
        for (int l = 0; l < m.n_levels; ++l) {
          const LevelShape& lv = m.levels[static_cast<std::size_t>(l)];
          const float cx = ref(q, 0) * static_cast<float>(lv.w) - 0.5f;
          const float cy = ref(q, 1) * static_cast<float>(lv.h) - 0.5f;
          for (int p = 0; p < m.n_points; ++p) {
            fn(locs(q, h, l, p, 0), locs(q, h, l, p, 1), cx, cy);
          }
        }
      }
    }
  };
  for_each_point([](float& x, float& y, float cx, float cy) {
    x -= cx;
    y -= cy;
  });
  const quant::QuantSpec spec = quant::QuantSpec::fit(locs.data(), bits);
  const auto requantize = [&spec](float offset) {
    return quant::dequantize_value(quant::quantize_value(offset, spec), spec);
  };
  for_each_point([&](float& x, float& y, float cx, float cy) {
    x = cx + requantize(x);
    y = cy + requantize(y);
  });
  return ranges != nullptr ? serial_clamp(m, ref, *ranges, locs) : ClampStats{};
}

/// quantize_and_clamp equals the old chain: same location bytes, same
/// counts, same bits in every double.
void expect_narrow_matches(const ModelConfig& m, const Tensor& ref, const Tensor& locs, int bits,
                           const RangeSpec* ranges) {
  Tensor want_locs = locs;
  const ClampStats want = old_narrow_chain(m, ref, bits, ranges, want_locs);
  Tensor got_locs;
  const ClampStats got = quantize_and_clamp(m, ref, bits, ranges, locs, got_locs);
  ASSERT_EQ(got_locs.shape(), want_locs.shape());
  EXPECT_EQ(std::memcmp(got_locs.data().data(), want_locs.data().data(),
                        want_locs.data().size_bytes()),
            0)
      << "bits " << bits;
  EXPECT_EQ(got.total_points, want.total_points);
  EXPECT_EQ(got.clamped_points, want.clamped_points);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_excess_px),
            std::bit_cast<std::uint64_t>(want.max_excess_px));
  ASSERT_EQ(got.level_fraction.size(), want.level_fraction.size());
  for (std::size_t l = 0; l < want.level_fraction.size(); ++l) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.level_fraction[l]),
              std::bit_cast<std::uint64_t>(want.level_fraction[l]))
        << "level " << l;
  }
}

/// tiny has 2 points per (query, head, level): its groups are all scalar
/// tail.  small's 4 points fill one 8-lane vector per group and fan out
/// over several chunks.
class NarrowPass : public ::testing::TestWithParam<bool> {
 protected:
  [[nodiscard]] ModelConfig model() const {
    return GetParam() ? ModelConfig::small() : ModelConfig::tiny();
  }
};

TEST_P(NarrowPass, MatchesOldChain) {
  const ModelConfig m = model();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const RangeSpec level_wise = RangeSpec::level_wise_default(m.n_levels);
  const RangeSpec unified = RangeSpec::unified(m.n_levels, 1);
  for (const int layer : {0, 1}) {
    const Tensor& locs = wl.layer_fields(layer).locs;
    for (const int bits : {2, 8, 12, 16}) {
      expect_narrow_matches(m, wl.ref_norm(), locs, bits, nullptr);
      expect_narrow_matches(m, wl.ref_norm(), locs, bits, &level_wise);
      expect_narrow_matches(m, wl.ref_norm(), locs, bits, &unified);
    }
  }
  // The unified radius-1 box clamps many points on every level.
  Tensor out;
  EXPECT_GT(quantize_and_clamp(m, wl.ref_norm(), 12, &unified, wl.layer_fields(0).locs, out)
                .clamped_points,
            0);
}

TEST_P(NarrowPass, NonFiniteInputsMatchOldChain) {
  const ModelConfig m = model();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const RangeSpec unified = RangeSpec::unified(m.n_levels, 1);
  const Tensor& locs = wl.layer_fields(0).locs;

  // A NaN reference x: that query's x coordinates stay NaN, so its
  // points never count as clamped and keep their own y, clamped or not.
  Tensor ref = wl.ref_norm();
  ref(3, 0) = std::numeric_limits<float>::quiet_NaN();
  expect_narrow_matches(m, ref, locs, 12, &unified);
  expect_narrow_matches(m, ref, locs, 12, nullptr);

  // NaN locations requantize to the center; an infinite one makes the
  // fitted scale infinite and every location NaN.  The largest offset
  // sits in the same point slot as a NaN one group later, so a max-abs
  // that let the NaN replace its running maximum would lose it.
  Tensor with_nan = locs;
  with_nan(1, 0, 0, 1, 0) = std::numeric_limits<float>::quiet_NaN();
  with_nan(2, 0, 1, 0, 1) = std::numeric_limits<float>::quiet_NaN();
  with_nan(5, 0, 0, 1, 0) = 500.0f;
  with_nan(5, 0, 1, 1, 0) = std::numeric_limits<float>::quiet_NaN();
  expect_narrow_matches(m, wl.ref_norm(), with_nan, 12, &unified);
  Tensor with_inf = locs;
  with_inf(4, 1, 0, 1, 1) = -std::numeric_limits<float>::infinity();
  expect_narrow_matches(m, wl.ref_norm(), with_inf, 12, &unified);
  expect_narrow_matches(m, wl.ref_norm(), with_inf, 8, nullptr);
}

INSTANTIATE_TEST_SUITE_P(Presets, NarrowPass, ::testing::Values(false, true),
                         [](const auto& info) { return info.param ? "small" : "tiny"; });

TEST(Range, WindowBytesMatchSpec) {
  const ModelConfig m = ModelConfig::deformable_detr();
  const RangeSpec ranges = RangeSpec::level_wise_default(m.n_levels);
  const std::int64_t bytes = range_window_bytes(m, ranges, 12);
  EXPECT_EQ(bytes, ranges.window_pixels() * (256 * 12 / 8));
  // The paper-scale working set is a few hundred KB.
  EXPECT_GT(bytes, 200 * 1024);
  EXPECT_LT(bytes, 600 * 1024);
}

}  // namespace
}  // namespace defa::prune
