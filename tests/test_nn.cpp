// Tests for linear algebra, softmax, bilinear interpolation (the Eq.3/Eq.4
// equivalence property central to the BA-mode datapath) and the reference
// MSDeformAttn.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "nn/bilinear.h"
#include "nn/linear.h"
#include "nn/msdeform.h"
#include "nn/norm.h"
#include "nn/softmax.h"
#include "quant/fixed_point.h"

namespace defa {
namespace {

// --------------------------------------------------------------------- linear
TEST(Linear, MatmulKnownValues) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data().begin());
  std::copy(bv, bv + 6, b.data().begin());
  const Tensor c = nn::matmul(a, b);
  EXPECT_EQ(c(0, 0), 58.0f);
  EXPECT_EQ(c(0, 1), 64.0f);
  EXPECT_EQ(c(1, 0), 139.0f);
  EXPECT_EQ(c(1, 1), 154.0f);
}

TEST(Linear, MatmulIdentity) {
  Rng rng(1);
  const Tensor a = Tensor::randn({5, 5}, rng);
  Tensor eye({5, 5});
  for (int i = 0; i < 5; ++i) eye(i, i) = 1.0f;
  const Tensor c = nn::matmul(a, eye);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(c.at_flat(i), a.at_flat(i));
}

TEST(Linear, MatmulShapeMismatchThrows) {
  Tensor a({2, 3}), b({2, 3});
  EXPECT_THROW((void)nn::matmul(a, b), CheckError);
}

TEST(Linear, BiasBroadcast) {
  Tensor x = Tensor::full({2, 2}, 1.0f);
  Tensor w = Tensor::full({2, 2}, 1.0f);
  Tensor bias({2});
  bias(0) = 10.0f;
  bias(1) = 20.0f;
  const Tensor y = nn::linear(x, w, &bias);
  EXPECT_EQ(y(0, 0), 12.0f);
  EXPECT_EQ(y(1, 1), 22.0f);
}

TEST(Linear, LargeMatmulMatchesSerialReference) {
  // Parallel path must agree with a simple serial triple loop.
  Rng rng(2);
  const Tensor a = Tensor::randn({64, 32}, rng);
  const Tensor b = Tensor::randn({32, 48}, rng);
  const Tensor c = nn::matmul(a, b);
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t i = rng.randint(0, 63);
    const std::int64_t j = rng.randint(0, 47);
    double acc = 0;
    for (std::int64_t k = 0; k < 32; ++k) {
      acc += static_cast<double>(a(i, k)) * b(k, j);
    }
    EXPECT_NEAR(c(i, j), acc, 1e-3);
  }
}

/// The serial i-k-j loop every matmul tier must reproduce bit for bit.
Tensor serial_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a(i, kk);
      if (av == 0.0f) continue;
      for (std::int64_t j = 0; j < n; ++j) c(i, j) += av * b(kk, j);
    }
  }
  return c;
}

TEST(Linear, MatmulBitIdenticalToSerialLoop) {
  // Covers whichever tier the build and CPU resolve.  The m and n values
  // hit every row and column tail of the AVX2 tier's 4 x 16 tile; m = 130
  // with k * n = 256 * 256 is above kMinParallelWork, so on a multi-core
  // host parallel_for's chunk boundaries fall mid-block.
  Rng rng(17);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::int64_t k : {1, 256}) {
    for (const std::int64_t m : {1, 3, 5, 130}) {
      for (const std::int64_t n : {8, 17, 40, 256}) {
        SCOPED_TRACE("m " + std::to_string(m) + " k " + std::to_string(k) + " n " +
                     std::to_string(n));
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b = Tensor::randn({k, n}, rng);
        // Scattered +0 and -0 entries, as quantization leaves them.
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t kk = 0; kk < k; ++kk) {
            if ((i + 2 * kk) % 5 == 0) a(i, kk) = 0.0f;
            if ((3 * i + kk) % 7 == 0) a(i, kk) = -0.0f;
          }
        }
        // Non-finite B entries, each in a row of B whose A column is all
        // zero, so only skipping those terms keeps the output finite.
        if (k > 1) {
          for (const std::int64_t kk : {std::int64_t{3}, k - 1}) {
            for (std::int64_t i = 0; i < m; ++i) a(i, kk) = (i % 2 == 0) ? 0.0f : -0.0f;
            for (std::int64_t j = 0; j < n; ++j) {
              b(kk, j) = (j % 3 == 0) ? inf : (j % 3 == 1) ? -inf : nan;
            }
          }
          // A +inf row of B whose A column is zero in every fifth row, so
          // in at most one row of a four-row block, at each position in
          // turn, and positive elsewhere: the zero rows stay finite only if
          // their own term is skipped, the others turn +inf.
          for (std::int64_t i = 0; i < m; ++i) {
            a(i, 5) = (i % 5 == 0) ? 0.0f : std::abs(a(i, 5)) + 1.0f;
          }
          for (std::int64_t j = 0; j < n; ++j) b(5, j) = inf;
        }
        // Whole zero rows, as FWP-pruned pixels would leave them.
        for (std::int64_t i = 1; i < m; i += 4) {
          for (std::int64_t kk = 0; kk < k; ++kk) a(i, kk) = (i % 8 == 1) ? 0.0f : -0.0f;
        }
        // -0 entries of B, whose products keep or flip the sign of a zero.
        for (std::int64_t j = 0; j < n; j += 3) b(0, j) = -0.0f;

        const Tensor got = nn::matmul(a, b);
        const Tensor want = serial_matmul(a, b);
        ASSERT_EQ(got.shape(), want.shape());
        EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                              static_cast<std::size_t>(want.numel()) * sizeof(float)),
                  0);
      }
    }
  }
}

// -------------------------------------------------------------------- softmax
/// softmax_lastdim(fake_quantize(t, bits)), the path the fused softmax
/// replaces, against the fused one: same shape, memcmp-equal data.
void expect_quantized_softmax_matches(const Tensor& t, int bits) {
  const Tensor want = nn::softmax_lastdim(quant::fake_quantize(t, bits));
  const Tensor got = nn::quantized_softmax_lastdim(t, bits);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(), want.data().size_bytes()), 0)
      << "bits " << bits;
}

TEST(QuantizedSoftmax, MatchesFakeQuantizeThenSoftmax) {
  // Row widths with and without an 8-lane tail; 4000 x 16 rows fan out.
  for (const auto& shape : {std::vector<std::int64_t>{4000, 8, 16},
                            std::vector<std::int64_t>{37, 3, 11},
                            std::vector<std::int64_t>{5, 2}}) {
    for (const int bits : {2, 8, 12, 16}) {
      Rng rng(static_cast<std::uint64_t>(shape[0] * 7 + bits));
      expect_quantized_softmax_matches(Tensor::randn(shape, rng, 0.0f, 4.0f), bits);
    }
  }
}

TEST(QuantizedSoftmax, NonFiniteLogitsMatch) {
  Rng rng(3);
  Tensor t = Tensor::randn({300, 4, 16}, rng, 0.0f, 4.0f);
  t(7, 1, 3) = std::numeric_limits<float>::quiet_NaN();
  t(9, 0, 15) = -std::numeric_limits<float>::infinity();
  expect_quantized_softmax_matches(t, 12);
  t(11, 2, 0) = std::numeric_limits<float>::infinity();  // infinite scale
  expect_quantized_softmax_matches(t, 12);
}

TEST(Softmax, SumsToOne) {
  Rng rng(3);
  Tensor t = Tensor::randn({10, 7}, rng, 0.0f, 4.0f);
  const Tensor p = nn::softmax_lastdim(t);
  for (std::int64_t i = 0; i < 10; ++i) {
    double sum = 0;
    for (std::int64_t j = 0; j < 7; ++j) {
      EXPECT_GE(p(i, j), 0.0f);
      sum += p(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, StableUnderLargeLogits) {
  Tensor t({1, 3});
  t(0, 0) = 10000.0f;
  t(0, 1) = 9999.0f;
  t(0, 2) = -10000.0f;
  const Tensor p = nn::softmax_lastdim(t);
  EXPECT_TRUE(std::isfinite(p(0, 0)));
  EXPECT_GT(p(0, 0), p(0, 1));
  EXPECT_NEAR(p(0, 2), 0.0f, 1e-6);
}

TEST(Softmax, ShiftInvariance) {
  Tensor a({1, 4}), b({1, 4});
  for (int j = 0; j < 4; ++j) {
    a(0, j) = static_cast<float>(j);
    b(0, j) = static_cast<float>(j) + 100.0f;
  }
  const Tensor pa = nn::softmax_lastdim(a);
  const Tensor pb = nn::softmax_lastdim(b);
  for (int j = 0; j < 4; ++j) EXPECT_NEAR(pa(0, j), pb(0, j), 1e-6);
}

TEST(Softmax, MonotoneInLogit) {
  Tensor t({1, 3});
  t(0, 0) = 1.0f;
  t(0, 1) = 2.0f;
  t(0, 2) = 3.0f;
  const Tensor p = nn::softmax_lastdim(t);
  EXPECT_LT(p(0, 0), p(0, 1));
  EXPECT_LT(p(0, 1), p(0, 2));
}

TEST(Softmax, UniformLogitsUniformProbs) {
  Tensor t = Tensor::full({1, 16}, 2.5f);
  const Tensor p = nn::softmax_lastdim(t);
  for (int j = 0; j < 16; ++j) EXPECT_NEAR(p(0, j), 1.0f / 16.0f, 1e-6);
}

TEST(Softmax, Rank3LastDim) {
  Rng rng(4);
  Tensor t = Tensor::randn({3, 2, 5}, rng);
  const Tensor p = nn::softmax_lastdim(t);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 2; ++j) {
      double sum = 0;
      for (std::int64_t k = 0; k < 5; ++k) sum += p(i, j, k);
      EXPECT_NEAR(sum, 1.0, 1e-5);
    }
  }
}

// ------------------------------------------------------------------- bilinear
TEST(Bilinear, LocateFractions) {
  const nn::BiPoint p = nn::bi_locate(2.25f, 3.75f);
  EXPECT_EQ(p.x0, 2);
  EXPECT_EQ(p.y0, 3);
  EXPECT_NEAR(p.t1, 0.25f, 1e-6);
  EXPECT_NEAR(p.t0, 0.75f, 1e-6);
}

TEST(Bilinear, LocateNegativeCoordinates) {
  const nn::BiPoint p = nn::bi_locate(-0.5f, -1.25f);
  EXPECT_EQ(p.x0, -1);
  EXPECT_EQ(p.y0, -2);
  EXPECT_NEAR(p.t1, 0.5f, 1e-6);
  EXPECT_NEAR(p.t0, 0.75f, 1e-6);
}

TEST(Bilinear, CornersReturnExactNeighbors) {
  // t0 = t1 = 0 -> S = N0 in both forms.
  EXPECT_FLOAT_EQ(nn::bi_direct(5, 6, 7, 8, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(nn::bi_horner(5, 6, 7, 8, 0, 0), 5.0f);
}

TEST(Bilinear, CenterIsAverage) {
  EXPECT_FLOAT_EQ(nn::bi_direct(1, 2, 3, 4, 0.5f, 0.5f), 2.5f);
  EXPECT_FLOAT_EQ(nn::bi_horner(1, 2, 3, 4, 0.5f, 0.5f), 2.5f);
}

/// Property: the Horner form (Eq. 4, 3 mul / 7 add) equals the direct form
/// (Eq. 3) for random neighbors and fractions — the key identity behind the
/// BI operator in the reconfigurable PE array.
class HornerEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(HornerEquivalence, MatchesDirectForm) {
  SmallRng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const float n0 = static_cast<float>(rng.normal(0, 10));
    const float n1 = static_cast<float>(rng.normal(0, 10));
    const float n2 = static_cast<float>(rng.normal(0, 10));
    const float n3 = static_cast<float>(rng.normal(0, 10));
    const float t0 = static_cast<float>(rng.uniform01());
    const float t1 = static_cast<float>(rng.uniform01());
    EXPECT_NEAR(nn::bi_horner(n0, n1, n2, n3, t0, t1),
                nn::bi_direct(n0, n1, n2, n3, t0, t1), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HornerEquivalence, ::testing::Range(1, 9));

TEST(Bilinear, SampleAccumulateInterpolatesChannels) {
  const ModelConfig m = ModelConfig::tiny();
  Tensor values({m.n_in(), m.d_model});
  // Give level 0 a gradient along x in channel 0: value = x.
  const LevelShape& lv = m.levels[0];
  for (int y = 0; y < lv.h; ++y) {
    for (int x = 0; x < lv.w; ++x) {
      values(m.flat_index(0, y, x), 0) = static_cast<float>(x);
    }
  }
  std::vector<float> out(static_cast<std::size_t>(m.d_head()), 0.0f);
  nn::bi_sample_accumulate(m, values, 0, 2.5f, 1.0f, 0, m.d_head(), 1.0f, out);
  EXPECT_NEAR(out[0], 2.5f, 1e-5);
}

TEST(Bilinear, OutOfBoundsIsZeroPadded) {
  const ModelConfig m = ModelConfig::tiny();
  Tensor values = Tensor::full({m.n_in(), m.d_model}, 1.0f);
  std::vector<float> out(static_cast<std::size_t>(m.d_head()), 0.0f);
  // Far outside the 8x10 level-0 grid: all four neighbors out of bounds.
  nn::bi_sample_accumulate(m, values, 0, -10.0f, -10.0f, 0, m.d_head(), 1.0f, out);
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(Bilinear, BorderPartialContribution) {
  const ModelConfig m = ModelConfig::tiny();
  Tensor values = Tensor::full({m.n_in(), m.d_model}, 2.0f);
  std::vector<float> out(static_cast<std::size_t>(m.d_head()), 0.0f);
  // x = -0.5: left neighbors out of bounds -> half the weight survives.
  nn::bi_sample_accumulate(m, values, 0, -0.5f, 1.0f, 0, m.d_head(), 1.0f, out);
  EXPECT_NEAR(out[0], 1.0f, 1e-5);
}

TEST(Bilinear, ForEachNeighborSkipsOutOfBounds) {
  const ModelConfig m = ModelConfig::tiny();
  int count = 0;
  nn::for_each_neighbor(m, 0, nn::bi_locate(0.5f, 0.5f),
                        [&](int, std::int64_t) { ++count; });
  EXPECT_EQ(count, 4);
  count = 0;
  nn::for_each_neighbor(m, 0, nn::bi_locate(-0.5f, -0.5f),
                        [&](int, std::int64_t) { ++count; });
  EXPECT_EQ(count, 1);  // only the bottom-right neighbor is inside
}

// ----------------------------------------------------------------- msdeform
TEST(Msdeform, ReferencePointsAreCellCenters) {
  const ModelConfig m = ModelConfig::tiny();
  const Tensor ref = nn::reference_points(m);
  EXPECT_EQ(ref.dim(0), m.n_in());
  // First token of level 0 is pixel (0,0) of an 8x10 grid.
  EXPECT_NEAR(ref(0, 0), 0.5f / 10.0f, 1e-6);
  EXPECT_NEAR(ref(0, 1), 0.5f / 8.0f, 1e-6);
  for (std::int64_t q = 0; q < m.n_in(); ++q) {
    EXPECT_GT(ref(q, 0), 0.0f);
    EXPECT_LT(ref(q, 0), 1.0f);
    EXPECT_GT(ref(q, 1), 0.0f);
    EXPECT_LT(ref(q, 1), 1.0f);
  }
}

TEST(Msdeform, LocsFromZeroOffsetsLandOnReference) {
  const ModelConfig m = ModelConfig::tiny();
  const Tensor ref = nn::reference_points(m);
  const Tensor offsets({m.n_in(), m.n_heads, m.n_levels, m.n_points, 2});
  const Tensor locs = nn::locs_from_offsets(m, ref, offsets);
  // Query 0 (pixel (0,0) of level 0): its level-0 location must be (0, 0).
  EXPECT_NEAR(locs(0, 0, 0, 0, 0), 0.0f, 1e-5);
  EXPECT_NEAR(locs(0, 0, 0, 0, 1), 0.0f, 1e-5);
}

TEST(Msdeform, ForwardShapesAndFiniteness) {
  const ModelConfig m = ModelConfig::tiny();
  Rng rng(11);
  const Tensor x = Tensor::randn({m.n_in(), m.d_model}, rng);
  const Tensor ref = nn::reference_points(m);
  const nn::MsdaWeights w = nn::MsdaWeights::random(m, rng);
  const Tensor out = nn::msdeform_forward_ref(m, x, ref, w);
  EXPECT_EQ(out.dim(0), m.n_in());
  EXPECT_EQ(out.dim(1), m.d_model);
  for (float v : out.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Msdeform, UniformProbsAverageConstantValues) {
  // With constant values and weights summing to 1, output equals the value.
  const ModelConfig m = ModelConfig::tiny();
  const Tensor values = Tensor::full({m.n_in(), m.d_model}, 3.0f);
  Tensor probs = Tensor::full({m.n_in(), m.n_heads, m.points_per_head()},
                              1.0f / static_cast<float>(m.points_per_head()));
  // Put all sampling points well inside the grid.
  Tensor locs({m.n_in(), m.n_heads, m.n_levels, m.n_points, 2});
  for (std::int64_t q = 0; q < m.n_in(); ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      for (int l = 0; l < m.n_levels; ++l) {
        for (int p = 0; p < m.n_points; ++p) {
          locs(q, h, l, p, 0) = 1.5f;
          locs(q, h, l, p, 1) = 1.5f;
        }
      }
    }
  }
  const Tensor out = nn::msgs_aggregate_ref(m, values, probs, locs);
  for (float v : out.data()) EXPECT_NEAR(v, 3.0f, 1e-4);
}

TEST(Msdeform, ZeroProbabilityPointContributesNothing) {
  const ModelConfig m = ModelConfig::tiny();
  Rng rng(5);
  const Tensor values = Tensor::randn({m.n_in(), m.d_model}, rng);
  Tensor probs({m.n_in(), m.n_heads, m.points_per_head()});
  Tensor locs = Tensor::full({m.n_in(), m.n_heads, m.n_levels, m.n_points, 2}, 1.0f);
  const Tensor out = nn::msgs_aggregate_ref(m, values, probs, locs);
  for (float v : out.data()) EXPECT_EQ(v, 0.0f);
}

// ----------------------------------------------------------------------- norm
TEST(Norm, RowsHaveUnitRms) {
  Rng rng(6);
  Tensor x = Tensor::randn({20, 16}, rng, 1.0f, 5.0f);
  nn::rms_norm_rows(x);
  for (std::int64_t i = 0; i < 20; ++i) {
    double ss = 0;
    for (float v : x.row(i)) ss += static_cast<double>(v) * v;
    EXPECT_NEAR(std::sqrt(ss / 16.0), 1.0, 1e-3);
  }
}

TEST(Norm, ZeroRowStaysFinite) {
  Tensor x({2, 4});
  nn::rms_norm_rows(x);
  for (float v : x.data()) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace defa
