// Tests for fixed-point quantization and the integer MSGS datapath kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "nn/bilinear.h"
#include "quant/fixed_point.h"
#include "quant/qmsgs.h"

namespace defa::quant {
namespace {

TEST(QuantSpec, FitCoversMaxAbs) {
  const std::vector<float> data{-3.0f, 1.0f, 2.5f};
  const QuantSpec spec = QuantSpec::fit(data, 12);
  EXPECT_EQ(spec.bits, 12);
  EXPECT_EQ(spec.qmax(), 2047);
  EXPECT_EQ(spec.qmin(), -2047);
  EXPECT_NEAR(spec.scale, 3.0f / 2047.0f, 1e-9);
}

TEST(QuantSpec, AllZeroDataGetsUnitScale) {
  const std::vector<float> data{0.0f, 0.0f};
  const QuantSpec spec = QuantSpec::fit(data, 12);
  EXPECT_EQ(spec.scale, 1.0f);
}

TEST(QuantSpec, RejectsBadWidths) {
  const std::vector<float> data{1.0f};
  EXPECT_THROW((void)QuantSpec::fit(data, 1), CheckError);
  EXPECT_THROW((void)QuantSpec::fit(data, 17), CheckError);
}

TEST(Quantize, RoundTripErrorBoundedByHalfScale) {
  Rng rng(1);
  Tensor t = Tensor::randn({1000}, rng, 0.0f, 2.0f);
  const QTensor q(t, 12);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::abs(q.value(i) - t.at_flat(i)), q.spec().scale * 0.5f + 1e-7f);
  }
}

TEST(Quantize, SaturatesAtRangeEnds) {
  QuantSpec spec;
  spec.bits = 8;
  spec.scale = 1.0f;
  EXPECT_EQ(quantize_value(1e9f, spec), spec.qmax());
  EXPECT_EQ(quantize_value(-1e9f, spec), spec.qmin());
}

TEST(Quantize, SaturatesBeyondInt32WithTheRightSign) {
  // |v / scale| >= 2^31 does not fit an int32 code: it must still
  // saturate toward its own sign.
  QuantSpec spec;
  spec.bits = 12;
  spec.scale = 1.0f;
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(quantize_value(3e9f, spec), 2047);
  EXPECT_EQ(quantize_value(-3e9f, spec), -2047);
  EXPECT_EQ(quantize_value(1e12f, spec), 2047);
  EXPECT_EQ(quantize_value(-1e12f, spec), -2047);
  EXPECT_EQ(quantize_value(std::numeric_limits<float>::max(), spec), 2047);
  EXPECT_EQ(quantize_value(inf, spec), 2047);
  EXPECT_EQ(quantize_value(-inf, spec), -2047);
  // Overflow in the division itself saturates too.
  spec.scale = 1e-30f;
  EXPECT_EQ(quantize_value(1e10f, spec), 2047);
  EXPECT_EQ(quantize_value(-1e10f, spec), -2047);
}

TEST(Quantize, NanMapsToCodeZero) {
  QuantSpec spec;
  spec.bits = 12;
  spec.scale = 0.5f;
  EXPECT_EQ(quantize_value(std::numeric_limits<float>::quiet_NaN(), spec), 0);
  EXPECT_EQ(quantize_value(-std::numeric_limits<float>::quiet_NaN(), spec), 0);
}

TEST(Quantize, InRangeRoundsHalfAwayFromZero) {
  QuantSpec spec;
  spec.bits = 12;
  spec.scale = 1.0f;
  EXPECT_EQ(quantize_value(0.5f, spec), 1);
  EXPECT_EQ(quantize_value(-0.5f, spec), -1);
  EXPECT_EQ(quantize_value(2.5f, spec), 3);
  EXPECT_EQ(quantize_value(-2.5f, spec), -3);
  EXPECT_EQ(quantize_value(std::nextafter(0.5f, 0.0f), spec), 0);
  EXPECT_EQ(quantize_value(2046.5f, spec), 2047);
  EXPECT_EQ(quantize_value(2047.4f, spec), 2047);
  EXPECT_EQ(quantize_value(-2047.6f, spec), -2047);
}

TEST(Quantize, SymmetricAroundZero) {
  QuantSpec spec;
  spec.bits = 12;
  spec.scale = 0.01f;
  EXPECT_EQ(quantize_value(0.123f, spec), -quantize_value(-0.123f, spec));
  EXPECT_EQ(quantize_value(0.0f, spec), 0);
}

TEST(Quantize, InlineRoundingMatchesLroundOnEveryReachableFloat) {
  // A fitted spec clamps v / scale into [-qmax, qmax] with qmax <= 32767
  // before rounding.  With scale 1 and 16 bits, quantize_value is exactly
  // clamp + round, so compare it with std::lround on every float of
  // magnitude 2^-2 ... 2^15, both signs.  Below 2^-2 both return 0: the
  // truncation is 0 and the remainder is the input itself, under 0.5.
  QuantSpec spec;
  spec.bits = 16;
  spec.scale = 1.0f;
  const std::int64_t lo = std::bit_cast<std::uint32_t>(0.25f);
  const std::int64_t hi = std::bit_cast<std::uint32_t>(32768.0f);
  std::atomic<std::int64_t> mismatches{0};
  std::atomic<std::uint32_t> first_bad{0};
  parallel_for(lo, hi + 1, 2 * kQuantizeWork, [&](std::int64_t b0, std::int64_t b1) {
    std::int64_t bad = 0;
    for (std::int64_t b = b0; b < b1; ++b) {
      const float x = std::bit_cast<float>(static_cast<std::uint32_t>(b));
      for (const float v : {x, -x}) {
        const long want = std::clamp<long>(std::lround(v), spec.qmin(), spec.qmax());
        if (quantize_value(v, spec) != want) {
          ++bad;
          std::uint32_t none = 0;
          first_bad.compare_exchange_strong(none, std::bit_cast<std::uint32_t>(v));
        }
      }
    }
    mismatches += bad;
  });
  EXPECT_EQ(mismatches.load(), 0)
      << "first mismatch at " << std::bit_cast<float>(first_bad.load());
  EXPECT_EQ(quantize_value(std::nextafter(0.25f, 0.0f), spec), 0);
  EXPECT_EQ(quantize_value(std::numeric_limits<float>::denorm_min(), spec), 0);
  EXPECT_EQ(quantize_value(-0.0f, spec), 0);
}

class QuantWidthError : public ::testing::TestWithParam<int> {};

TEST_P(QuantWidthError, NrmseShrinksWithWidth) {
  const int bits = GetParam();
  Rng rng(2);
  Tensor t = Tensor::randn({4096}, rng);
  const Tensor rt = fake_quantize(t, bits);
  const double err = nrmse(t.data(), rt.data());
  // Error roughly halves per extra bit; check monotone bands.
  const double expected = 1.0 / static_cast<double>(1 << bits);
  EXPECT_LT(err, expected * 8.0);
  EXPECT_GT(err, expected / 8.0);
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantWidthError, ::testing::Values(6, 8, 10, 12, 14));

TEST(Quantize, Int8ErrorExceedsInt12Error) {
  Rng rng(3);
  Tensor t = Tensor::randn({4096}, rng);
  const double e8 = nrmse(t.data(), fake_quantize(t, 8).data());
  const double e12 = nrmse(t.data(), fake_quantize(t, 12).data());
  EXPECT_GT(e8, e12 * 8.0);  // ~16x in theory
}

TEST(QTensor, PreservesShapeAndSpec) {
  Rng rng(4);
  Tensor t = Tensor::randn({3, 5}, rng);
  const QTensor q(t, 10);
  EXPECT_EQ(q.shape(), t.shape());
  EXPECT_EQ(q.numel(), t.numel());
  EXPECT_EQ(q.spec().bits, 10);
  const Tensor d = q.dequantize();
  EXPECT_EQ(d.shape(), t.shape());
}

// ----------------------------------------- parallel quantizer vs serial golden
// The whole-tensor operations split work across threads from kGrain
// elements on; they must match a plain serial loop bit for bit.

/// Fewest elements whose quantization parallel_for fans out.
constexpr std::int64_t kGrain = kMinParallelWork / kQuantizeWork;

TEST(QuantizerGrain, FansOutFromGrainElements) {
  EXPECT_EQ(parallel_chunks(kGrain - 1, kQuantizeWork, 4).count, 1);
  EXPECT_GT(parallel_chunks(kGrain, kQuantizeWork, 4).count, 1);
}

QuantSpec serial_fit(std::span<const float> data, int bits) {
  float max_abs = 0.0f;
  for (float v : data) max_abs = std::max(max_abs, std::abs(v));
  QuantSpec spec;
  spec.bits = bits;
  spec.scale = max_abs > 0.0f ? max_abs / static_cast<float>(spec.qmax()) : 1.0f;
  return spec;
}

std::int16_t serial_code(float v, const QuantSpec& spec) {
  const long code = std::lround(v / spec.scale);
  return static_cast<std::int16_t>(
      std::clamp<long>(code, spec.qmin(), spec.qmax()));
}

void expect_matches_serial(const Tensor& t, int bits) {
  const QuantSpec want = serial_fit(t.data(), bits);
  const QuantSpec got = QuantSpec::fit(t.data(), bits);
  EXPECT_EQ(got.bits, want.bits);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got.scale), std::bit_cast<std::uint32_t>(want.scale));

  const QTensor q(t, bits);
  const Tensor round_trip = q.dequantize();
  const Tensor fake = fake_quantize(t, bits);
  ASSERT_EQ(q.numel(), t.numel());
  std::int64_t code_mismatches = 0;
  std::int64_t value_mismatches = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const std::int16_t code = serial_code(t.at_flat(i), want);
    const float value = dequantize_value(code, want);
    if (q.code(i) != code) ++code_mismatches;
    if (std::bit_cast<std::uint32_t>(fake.at_flat(i)) != std::bit_cast<std::uint32_t>(value) ||
        std::bit_cast<std::uint32_t>(round_trip.at_flat(i)) !=
            std::bit_cast<std::uint32_t>(value)) {
      ++value_mismatches;
    }
  }
  EXPECT_EQ(code_mismatches, 0);
  EXPECT_EQ(value_mismatches, 0);
}

class ParallelQuantizer
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int>> {};

TEST_P(ParallelQuantizer, TiesSignedZeroAndNegativeMaxMatchSerial) {
  const auto [n, bits] = GetParam();
  QuantSpec unit;
  unit.bits = bits;
  const float qmax = static_cast<float>(unit.qmax());
  Rng rng(static_cast<std::uint64_t>(n) * 31 + static_cast<std::uint64_t>(bits));
  Tensor t({n});
  for (std::int64_t i = 0; i < n; ++i) {
    const float u = static_cast<float>(rng.uniform(-qmax, qmax));
    switch (i % 4) {
      case 0:  // exact .5 tie once the scale is 1
        t.at_flat(i) = std::floor(u) + 0.5f;
        break;
      case 1:
        t.at_flat(i) = -0.0f;
        break;
      default:
        t.at_flat(i) = u;
    }
  }
  // The max-abs element is negative and sits in the last chunk, so the
  // fitted scale is exactly 1 and every tie above is exact.
  t.at_flat(n - 1) = -qmax;
  ASSERT_EQ(serial_fit(t.data(), bits).scale, 1.0f);
  expect_matches_serial(t, bits);
}

TEST_P(ParallelQuantizer, RandomNormalMatchesSerial) {
  const auto [n, bits] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) + 7);
  expect_matches_serial(Tensor::randn({n}, rng, 0.0f, 3.0f), bits);
}

TEST_P(ParallelQuantizer, AllZeroGetsUnitScale) {
  const auto [n, bits] = GetParam();
  Tensor t({n});
  for (std::int64_t i = 0; i < n; i += 2) t.at_flat(i) = -0.0f;
  EXPECT_EQ(QuantSpec::fit(t.data(), bits).scale, 1.0f);
  expect_matches_serial(t, bits);
}

INSTANTIATE_TEST_SUITE_P(
    GrainEdges, ParallelQuantizer,
    ::testing::Combine(::testing::Values(kGrain - 1, kGrain, 4 * kGrain + 3),
                       ::testing::Values(8, 12, 16)));

// --------------------------- the activation operand of the INTn projection

/// quantize_rows written out: the spec fitted over the kept rows'
/// elements alone, the scalar chain on them, 0 elsewhere.
QTensor serial_kept_rows(const Tensor& t, int bits, const std::vector<std::uint8_t>& keep) {
  const std::int64_t rows = t.dim(0), cols = t.dim(1);
  const auto kept = [&](std::int64_t r) {
    return keep.empty() || keep[static_cast<std::size_t>(r)] != 0;
  };
  std::vector<float> kept_values;
  for (std::int64_t r = 0; r < rows; ++r) {
    if (kept(r)) kept_values.insert(kept_values.end(), t.row(r).begin(), t.row(r).end());
  }
  const QuantSpec spec = QuantSpec::fit(kept_values, bits);
  std::vector<std::int16_t> codes(static_cast<std::size_t>(t.numel()), 0);
  for (std::int64_t r = 0; r < rows; ++r) {
    if (!kept(r)) continue;
    for (std::int64_t c = 0; c < cols; ++c) {
      codes[static_cast<std::size_t>(r * cols + c)] =
          static_cast<std::int16_t>(quantize_value(t(r, c), spec));
    }
  }
  return QTensor(t.shape(), std::move(codes), spec);
}

/// Same shape, same scale bits, memcmp-equal codes.
void expect_same_codes(const QTensor& got, const QTensor& want) {
  EXPECT_EQ(got.shape(), want.shape());
  EXPECT_EQ(got.spec().bits, want.spec().bits);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got.spec().scale),
            std::bit_cast<std::uint32_t>(want.spec().scale));
  ASSERT_EQ(got.numel(), want.numel());
  EXPECT_EQ(std::memcmp(got.codes().data(), want.codes().data(), got.codes().size_bytes()), 0);
}

void expect_rows_match(const Tensor& t, int bits, const std::vector<std::uint8_t>& keep) {
  expect_same_codes(quantize_rows(t, bits, keep), serial_kept_rows(t, bits, keep));
}

/// Every third row pruned.
std::vector<std::uint8_t> every_third_pruned(std::int64_t rows) {
  std::vector<std::uint8_t> keep(static_cast<std::size_t>(rows), 1);
  for (std::size_t r = 0; r < keep.size(); r += 3) keep[r] = 0;
  return keep;
}

class QuantizeRows : public ::testing::TestWithParam<int> {};

// 300 x 256 elements fan out over several chunks; 7 x 16 stays inline.
TEST_P(QuantizeRows, MatchesTheFitOverTheKeptRows) {
  const int bits = GetParam();
  for (const auto& [rows, cols] : {std::pair<std::int64_t, std::int64_t>{7, 16}, {300, 256}}) {
    Rng rng(static_cast<std::uint64_t>(rows * 131 + bits));
    Tensor t = Tensor::randn({rows, cols}, rng, 0.0f, 3.0f);
    t(0, 1) = -40.0f;  // the maximum sits in row 0, pruned below
    expect_rows_match(t, bits, {});
    expect_rows_match(t, bits, every_third_pruned(rows));
    std::vector<std::uint8_t> random_keep(static_cast<std::size_t>(rows));
    for (auto& k : random_keep) k = rng.uniform() < 0.6 ? 1 : 0;
    expect_rows_match(t, bits, random_keep);
  }
}

TEST_P(QuantizeRows, EveryRowPrunedGivesUnitScaleAndZeroCodes) {
  const int bits = GetParam();
  Rng rng(11);
  const Tensor t = Tensor::randn({300, 256}, rng);
  const QTensor got = quantize_rows(t, bits, std::vector<std::uint8_t>(300, 0));
  EXPECT_EQ(got.spec().scale, 1.0f);
  for (const std::int16_t c : got.codes()) ASSERT_EQ(c, 0);
}

TEST_P(QuantizeRows, PrunedRowContentsAreNeverRead) {
  const int bits = GetParam();
  const std::vector<std::uint8_t> keep = every_third_pruned(300);
  Rng rng(13);
  Tensor zeroed = Tensor::randn({300, 256}, rng);
  for (float& x : zeroed.row(6)) x = 0.0f;
  const QTensor want = quantize_rows(zeroed, bits, keep);
  for (const float fill : {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(), 1e30f}) {
    Tensor filled = zeroed;
    for (float& x : filled.row(6)) x = fill;
    expect_same_codes(quantize_rows(filled, bits, keep), want);
  }
}

TEST_P(QuantizeRows, NanAndInfInKeptRowsFollowTheFit) {
  const int bits = GetParam();
  Rng rng(17);
  const Tensor base = Tensor::randn({300, 256}, rng);
  Tensor with_nan = base;
  with_nan(1, 3) = std::numeric_limits<float>::quiet_NaN();
  expect_rows_match(with_nan, bits, {});
  expect_rows_match(with_nan, bits, every_third_pruned(300));
  Tensor with_inf = base;
  with_inf(2, 9) = -std::numeric_limits<float>::infinity();
  expect_rows_match(with_inf, bits, every_third_pruned(300));
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantizeRows, ::testing::Values(8, 12, 16));

// ------------------------------------------ the AVX2 tier vs the scalar chain
// Every tier must equal quantize_value / dequantize_value bit for bit.

/// Values that stress each step of the chain under `spec`: NaN, +-inf,
/// +-0, exact .5 ties, +-qmax and beyond, subnormals and huge values,
/// then random normals.  Every special value appears both as given and
/// multiplied by the scale, so ties stay exact ties after the divide.
std::vector<float> edge_values(const QuantSpec& spec, std::size_t n) {
  const float inf = std::numeric_limits<float>::infinity();
  const float qmax = static_cast<float>(spec.qmax());
  std::vector<float> special{std::numeric_limits<float>::quiet_NaN(),
                             -std::numeric_limits<float>::quiet_NaN(),
                             inf, -inf, 0.0f, -0.0f, 0.5f, -0.5f, 1.5f, -1.5f, 2.5f, -2.5f,
                             0.49999997f, -0.49999997f, 0.50000006f, -0.50000006f,
                             qmax, -qmax, qmax - 0.5f, -(qmax - 0.5f), qmax + 0.5f,
                             -(qmax + 0.5f), qmax + 1.0f, -(qmax + 1.0f), 3e9f, -3e9f,
                             std::numeric_limits<float>::max(),
                             -std::numeric_limits<float>::max(),
                             std::numeric_limits<float>::denorm_min(),
                             -std::numeric_limits<float>::denorm_min(),
                             std::numeric_limits<float>::min() / 3.0f,
                             -std::numeric_limits<float>::min() / 3.0f};
  std::vector<float> v;
  for (const float x : special) {
    v.push_back(x);
    v.push_back(x * spec.scale);
  }
  Rng rng(static_cast<std::uint64_t>(spec.bits) * 977 + n);
  while (v.size() < n) v.push_back(static_cast<float>(rng.normal(0.0, 2.0 * qmax)) * spec.scale);
  v.resize(n);
  return v;
}

/// The specs each width is checked under: the unit scale, an infinite
/// one, a subnormal one and the fit of the edge values.
std::vector<QuantSpec> tier_specs(int bits) {
  std::vector<QuantSpec> specs;
  for (const float scale : {1.0f, std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min() * 8.0f, 0.0123f}) {
    QuantSpec spec;
    spec.bits = bits;
    spec.scale = scale;
    specs.push_back(spec);
  }
  QuantSpec unit;
  unit.bits = bits;
  const std::vector<float> sample = edge_values(unit, 200);
  std::vector<float> finite;
  for (const float x : sample) {
    if (std::isfinite(x)) finite.push_back(x);
  }
  specs.push_back(QuantSpec::fit(finite, bits));
  return specs;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Lengths below, at and above multiples of the 8 lanes.
constexpr std::size_t kTierLengths[] = {0, 1, 7, 8, 9, 15, 16, 17, 64, 69, 1003};

class QuantTiers : public ::testing::TestWithParam<int> {};

TEST_P(QuantTiers, VectorKernelsMatchScalarChain) {
  if (!detail::use_quantize_avx2()) GTEST_SKIP() << "AVX2 tier does not run here";
  const int bits = GetParam();
  for (const QuantSpec& spec : tier_specs(bits)) {
    for (const std::size_t n : kTierLengths) {
      const std::vector<float> src = edge_values(spec, n);
      const std::size_t vec = n - n % 8;
      std::vector<std::int16_t> want_codes(vec);
      std::vector<float> want_values(vec);
      std::int32_t want_max = 0;
      for (std::size_t i = 0; i < vec; ++i) {
        const std::int32_t c = quantize_value(src[i], spec);
        want_codes[i] = static_cast<std::int16_t>(c);
        want_values[i] = dequantize_value(c, spec);
        want_max = std::max(want_max, std::abs(c));
      }
      const auto len = static_cast<std::int64_t>(n);
      std::vector<std::int16_t> codes(vec);
      EXPECT_EQ(detail::quantize_avx2(src.data(), len, spec.scale, spec.qmax(), codes.data()),
                want_max);
      EXPECT_TRUE(same_bytes(codes, want_codes)) << "codes, scale " << spec.scale << ", n " << n;
      std::vector<float> values(vec);
      detail::dequantize_avx2(want_codes.data(), len, spec.scale, values.data());
      EXPECT_TRUE(same_bytes(values, want_values)) << "dequantize, scale " << spec.scale;
      std::vector<float> fake(vec);
      detail::fake_quantize_avx2(src.data(), len, spec.scale, spec.qmax(), fake.data());
      EXPECT_TRUE(same_bytes(fake, want_values)) << "fake, scale " << spec.scale << ", n " << n;
    }
  }
}

TEST_P(QuantTiers, PublicEntryPointsMatchScalarChain) {
  // QTensor, its dequantize and fake_quantize_into, whichever tier runs,
  // tails included.
  const int bits = GetParam();
  for (const QuantSpec& spec : tier_specs(bits)) {
    for (const std::size_t n : kTierLengths) {
      const std::vector<float> src = edge_values(spec, n);
      Tensor t({static_cast<std::int64_t>(n)});
      std::copy(src.begin(), src.end(), t.data().begin());
      std::vector<std::int16_t> want_codes(n);
      std::vector<float> want_values(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t c = quantize_value(src[i], spec);
        want_codes[i] = static_cast<std::int16_t>(c);
        want_values[i] = dequantize_value(c, spec);
      }
      const QTensor q(t, spec);
      const std::vector<std::int16_t> codes(q.codes().begin(), q.codes().end());
      EXPECT_TRUE(same_bytes(codes, want_codes)) << "scale " << spec.scale << ", n " << n;
      const Tensor back = q.dequantize();
      EXPECT_TRUE(same_bytes(std::vector<float>(back.data().begin(), back.data().end()),
                             want_values));
      std::vector<float> fake(n);
      fake_quantize_into(src, spec, fake);
      EXPECT_TRUE(same_bytes(fake, want_values)) << "scale " << spec.scale << ", n " << n;
    }
  }
}

TEST_P(QuantTiers, KeptRowsWithEdgeValuesMatchScalarChain) {
  // quantize_rows' per-row fit and vector pack, on rows whose width leaves
  // a scalar tail, with edge values in kept and pruned rows.
  const int bits = GetParam();
  QuantSpec unit;
  unit.bits = bits;
  std::vector<float> values = edge_values(unit, 300 * 37 + 64);
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](float x) { return std::isinf(x); }),
               values.end());
  Tensor v({300, 37});
  ASSERT_GE(static_cast<std::int64_t>(values.size()), v.numel());
  std::copy_n(values.begin(), v.numel(), v.data().begin());
  expect_rows_match(v, bits, {});
  expect_rows_match(v, bits, every_third_pruned(300));
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantTiers, ::testing::Values(2, 8, 12, 16));

TEST(QuantizeFraction, GridBehaviour) {
  EXPECT_EQ(quantize_fraction(0.0f, 12), 0.0f);
  EXPECT_NEAR(quantize_fraction(0.5f, 12), 0.5f, 1e-3);
  EXPECT_LE(quantize_fraction(0.999999f, 12), 1.0f);
}

// --------------------------------------------------------- integer datapath
TEST(QMsgs, FractionCodeRange) {
  EXPECT_EQ(to_fraction_code(0.0f, 12), 0);
  EXPECT_EQ(to_fraction_code(1.0f, 12), (1 << 12) - 1);  // saturates below 1.0
  EXPECT_EQ(to_fraction_code(-0.5f, 12), 0);
  EXPECT_EQ(to_fraction_code(2.0f, 12), (1 << 12) - 1);
  EXPECT_NEAR(to_fraction_code(0.5f, 12), 1 << 11, 1);
}

TEST(QMsgs, FractionCodeMatchesLlroundOnEveryReachableFloat) {
  // to_fraction_code rounds inline; std::llround of the exact double
  // product is the rule it must keep.  Every float in [2^-18, 1] at 16
  // bits (below 2^-18 the product is under 0.25 and both give 0), every
  // 61st at 12 and 8 bits, then the edges.
  const auto want = [](float f, int bits) {
    const std::int64_t steps = std::int64_t{1} << bits;
    const std::int64_t code =
        std::llround(static_cast<double>(std::clamp(f, 0.0f, 1.0f)) * static_cast<double>(steps));
    return static_cast<std::int32_t>(std::min<std::int64_t>(code, steps - 1));
  };
  const std::int64_t lo = std::bit_cast<std::uint32_t>(std::ldexp(1.0f, -18));
  const std::int64_t hi = std::bit_cast<std::uint32_t>(1.0f);
  for (const auto& [bits, stride] : {std::pair<int, std::int64_t>{16, 1}, {12, 61}, {8, 61}}) {
    std::atomic<std::int64_t> mismatches{0};
    parallel_for(0, (hi - lo) / stride + 1, 2 * kQuantizeWork, [&](std::int64_t b0, std::int64_t b1) {
      std::int64_t bad = 0;
      for (std::int64_t b = b0; b < b1; ++b) {
        const float f = std::bit_cast<float>(static_cast<std::uint32_t>(lo + b * stride));
        bad += to_fraction_code(f, bits) != want(f, bits) ? 1 : 0;
      }
      mismatches += bad;
    });
    EXPECT_EQ(mismatches.load(), 0) << bits << " bits";
    for (const float f : {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
                          std::nextafter(1.0f, 0.0f), 1.0f, 2.0f, -1.0f,
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
      EXPECT_EQ(to_fraction_code(f, bits), want(f, bits)) << f << " at " << bits << " bits";
    }
    // Ties round up: (k + 1/2) / 2^bits.
    for (const int k : {0, 1, 2, 100}) {
      const float tie = (static_cast<float>(k) + 0.5f) / static_cast<float>(1 << bits);
      EXPECT_EQ(to_fraction_code(tie, bits), k + 1) << bits << " bits";
    }
  }
  EXPECT_EQ(to_fraction_code(std::numeric_limits<float>::quiet_NaN(), 12), 0);
}

TEST(QMsgs, HornerIntCorners) {
  // t0 = t1 = 0 -> N0 exactly.
  EXPECT_EQ(bi_horner_int(100, 200, 300, 400, 0, 0, 12), 100);
}

TEST(QMsgs, HornerIntCenter) {
  const std::int32_t half = 1 << 11;
  const std::int32_t s = bi_horner_int(100, 200, 300, 400, half, half, 12);
  EXPECT_NEAR(s, 250, 2);
}

/// Property: the integer Horner BI tracks the float Horner BI within a few
/// LSBs for random codes and fractions.
class IntHornerAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(IntHornerAccuracy, TracksFloatWithinLsb) {
  SmallRng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int i = 0; i < 300; ++i) {
    const auto n0 = static_cast<std::int32_t>(rng.below(4095)) - 2047;
    const auto n1 = static_cast<std::int32_t>(rng.below(4095)) - 2047;
    const auto n2 = static_cast<std::int32_t>(rng.below(4095)) - 2047;
    const auto n3 = static_cast<std::int32_t>(rng.below(4095)) - 2047;
    const float t0 = static_cast<float>(rng.uniform01());
    const float t1 = static_cast<float>(rng.uniform01());
    const std::int32_t t0q = to_fraction_code(t0, 12);
    const std::int32_t t1q = to_fraction_code(t1, 12);
    const std::int32_t si = bi_horner_int(n0, n1, n2, n3, t0q, t1q, 12);
    const float sf = nn::bi_horner(static_cast<float>(n0), static_cast<float>(n1),
                                   static_cast<float>(n2), static_cast<float>(n3),
                                   t0, t1);
    // Two fraction multiplies with rounding plus fraction-code error:
    // stay within a few code steps of the float result.
    EXPECT_NEAR(static_cast<float>(si), sf, 6.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntHornerAccuracy, ::testing::Range(1, 7));

TEST(QMsgs, AgWeightHalvesAtHalfProbability) {
  const std::int32_t half = 1 << 11;
  EXPECT_NEAR(ag_weight_int(1000, half, 12), 500, 1);
  EXPECT_EQ(ag_weight_int(1000, 0, 12), 0);
}

TEST(QMsgs, AgWeightNegativeValues) {
  const std::int32_t half = 1 << 11;
  EXPECT_NEAR(ag_weight_int(-1000, half, 12), -500, 1);
}

TEST(QMsgs, HornerIntBoundedByNeighborRange) {
  // Interpolation never exceeds [min, max] of the neighbors (within
  // rounding), for random in-range fractions.
  SmallRng rng(42);
  for (int i = 0; i < 200; ++i) {
    const std::int32_t n0 = static_cast<std::int32_t>(rng.below(2000));
    const std::int32_t n1 = static_cast<std::int32_t>(rng.below(2000));
    const std::int32_t n2 = static_cast<std::int32_t>(rng.below(2000));
    const std::int32_t n3 = static_cast<std::int32_t>(rng.below(2000));
    const std::int32_t t0q = to_fraction_code(static_cast<float>(rng.uniform01()), 12);
    const std::int32_t t1q = to_fraction_code(static_cast<float>(rng.uniform01()), 12);
    const std::int32_t s = bi_horner_int(n0, n1, n2, n3, t0q, t1q, 12);
    const std::int32_t lo = std::min({n0, n1, n2, n3});
    const std::int32_t hi = std::max({n0, n1, n2, n3});
    EXPECT_GE(s, lo - 2);
    EXPECT_LE(s, hi + 2);
  }
}

}  // namespace
}  // namespace defa::quant
