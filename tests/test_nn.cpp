// Tests for linear algebra, softmax, bilinear interpolation (the Eq.3/Eq.4
// equivalence property central to the BA-mode datapath) and the reference
// MSDeformAttn.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
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

// ------------------------------------------------------- integer projection
// Every tier of nn::int_matmul against an int64 loop, byte for byte.

/// Codes of a (rows x cols) tensor at width `bits`.
quant::QTensor codes_of(std::int64_t rows, std::int64_t cols, int bits,
                        std::vector<std::int16_t> codes, float scale = 0.01f) {
  quant::QuantSpec spec;
  spec.bits = bits;
  spec.scale = scale;
  return quant::QTensor({rows, cols}, std::move(codes), spec);
}

/// Uniform random codes in [-qmax, qmax], with scattered zeros.
std::vector<std::int16_t> random_codes(std::int64_t count, int bits, Rng& rng) {
  const std::int32_t qmax = (1 << (bits - 1)) - 1;
  std::vector<std::int16_t> codes(static_cast<std::size_t>(count));
  for (auto& c : codes) {
    c = rng.uniform() < 0.1 ? std::int16_t{0}
                            : static_cast<std::int16_t>(rng.randint(-qmax, qmax));
  }
  return codes;
}

/// acc[t * n + j] = sum_kk a[rows[t]][kk] * b[kk][j] in int64.
std::vector<std::int64_t> int64_product(const std::vector<std::int16_t>& a,
                                        const std::vector<std::int64_t>& rows,
                                        const std::vector<std::int16_t>& b, std::int64_t k,
                                        std::int64_t n) {
  std::vector<std::int64_t> acc(rows.size() * static_cast<std::size_t>(n), 0);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t sum = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        sum += std::int64_t{a[static_cast<std::size_t>(rows[t] * k + kk)]} *
               b[static_cast<std::size_t>(kk * n + j)];
      }
      acc[t * static_cast<std::size_t>(n) + static_cast<std::size_t>(j)] = sum;
    }
  }
  return acc;
}

/// int_matmul written with int64 sums and an int64 divide per element.
quant::QTensor int64_projection(const quant::QTensor& x, const quant::QTensor& w,
                                const std::vector<std::uint8_t>& keep) {
  const std::int64_t m = x.shape()[0], k = x.shape()[1], n = w.shape()[1];
  std::vector<std::int64_t> rows;
  for (std::int64_t r = 0; r < m; ++r) {
    if (keep.empty() || keep[static_cast<std::size_t>(r)] != 0) rows.push_back(r);
  }
  const std::vector<std::int16_t> a(x.codes().begin(), x.codes().end());
  const std::vector<std::int16_t> b(w.codes().begin(), w.codes().end());
  const std::vector<std::int64_t> acc = int64_product(a, rows, b, k, n);
  std::int64_t max_acc = 0;
  for (const std::int64_t v : acc) max_acc = std::max(max_acc, v < 0 ? -v : v);
  quant::QuantSpec spec;
  spec.bits = x.spec().bits;
  const std::int64_t qmax = spec.qmax();
  std::vector<std::int16_t> codes(static_cast<std::size_t>(m * n), 0);
  if (max_acc > 0) {
    for (std::size_t t = 0; t < rows.size(); ++t) {
      for (std::int64_t j = 0; j < n; ++j) {
        const std::int64_t v = acc[t * static_cast<std::size_t>(n) + static_cast<std::size_t>(j)];
        const std::int64_t mag = ((v < 0 ? -v : v) * 2 * qmax + max_acc) / (2 * max_acc);
        codes[static_cast<std::size_t>(rows[t] * n + j)] =
            static_cast<std::int16_t>(v < 0 ? -mag : mag);
      }
    }
    spec.scale = static_cast<float>(static_cast<double>(max_acc) * x.spec().scale *
                                    w.spec().scale / static_cast<double>(qmax));
  }
  return quant::QTensor({m, n}, std::move(codes), spec);
}

void expect_same_codes(const quant::QTensor& got, const quant::QTensor& want) {
  EXPECT_EQ(got.shape(), want.shape());
  EXPECT_EQ(got.spec().bits, want.spec().bits);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got.spec().scale),
            std::bit_cast<std::uint32_t>(want.spec().scale));
  ASSERT_EQ(got.numel(), want.numel());
  EXPECT_EQ(std::memcmp(got.codes().data(), want.codes().data(), got.codes().size_bytes()), 0);
}

/// Each accumulation tier on (a rows `rows`) x b, widened to int64 and
/// compared with the int64 loop.  The AVX2 tier covers its whole tiles;
/// the int32 tiers only run on operands int32_sums_exact admits.
void expect_tiers_match(const std::vector<std::int16_t>& a, const std::vector<std::int64_t>& rows,
                        const std::vector<std::int16_t>& b, std::int64_t k, std::int64_t n,
                        bool int32_route) {
  SCOPED_TRACE("k " + std::to_string(k) + " n " + std::to_string(n) + " rows " +
               std::to_string(rows.size()));
  const std::vector<std::int64_t> want = int64_product(a, rows, b, k, n);
  std::int64_t want_max = 0;
  for (const std::int64_t v : want) want_max = std::max(want_max, v < 0 ? -v : v);
  const auto t1 = static_cast<std::int64_t>(rows.size());

  std::vector<std::int64_t> acc64(want.size(), -1);
  EXPECT_EQ(nn::detail::int_matmul_int64(a.data(), rows.data(), 0, t1, b.data(), k, n, 0, n,
                                         acc64.data()),
            want_max);
  EXPECT_EQ(acc64, want) << "int64 tier";
  if (!int32_route) return;

  std::vector<std::int32_t> acc32(want.size(), -1);
  EXPECT_EQ(nn::detail::int_matmul_int32(a.data(), rows.data(), 0, t1, b.data(), k, n, 0, n,
                                         acc32.data()),
            want_max);
  EXPECT_EQ(std::vector<std::int64_t>(acc32.begin(), acc32.end()), want) << "int32 tier";

  if (!nn::detail::matmul_avx2_compiled() || !simd::cpu_supports(simd::Isa::kAvx2)) return;
  const std::int64_t tile_rows = t1 - t1 % nn::detail::kIntTileRows;
  const std::int64_t tile_cols = n - n % nn::detail::kIntTileCols;
  std::vector<std::int32_t> tiles(want.size(), -1);
  const std::vector<std::int16_t> panels = nn::detail::pack_int_panels(b.data(), k, n);
  const std::int32_t got_max = nn::detail::int_matmul_avx2(a.data(), rows.data(), 0, tile_rows,
                                                           panels.data(), k, n, tiles.data());
  std::int64_t tile_max = 0;
  for (std::int64_t t = 0; t < tile_rows; ++t) {
    for (std::int64_t j = 0; j < n; ++j) {
      const auto i = static_cast<std::size_t>(t * n + j);
      if (j < tile_cols) {
        ASSERT_EQ(tiles[i], want[i]) << "AVX2 tier, row " << t << " col " << j;
        tile_max = std::max(tile_max, want[i] < 0 ? -want[i] : want[i]);
      } else {
        ASSERT_EQ(tiles[i], -1) << "AVX2 tier wrote past its columns";
      }
    }
  }
  EXPECT_EQ(got_max, tile_max) << "AVX2 tier max";
}

std::vector<std::int64_t> all_rows(std::int64_t m) {
  std::vector<std::int64_t> rows(static_cast<std::size_t>(m));
  for (std::int64_t r = 0; r < m; ++r) rows[static_cast<std::size_t>(r)] = r;
  return rows;
}

TEST(IntGemm, Int32RouteBoundIsExact) {
  EXPECT_TRUE(nn::detail::int32_sums_exact(512, 2047, 2047));    // 2,145,387,008
  EXPECT_FALSE(nn::detail::int32_sums_exact(513, 2047, 2047));   // 2,149,577,217
  EXPECT_FALSE(nn::detail::int32_sums_exact(1024, 2047, 2047));  // d_model 1024, INT12
  EXPECT_TRUE(nn::detail::int32_sums_exact(2, 32767, 32767));    // 2,147,352,578
  EXPECT_FALSE(nn::detail::int32_sums_exact(3, 32767, 32767));   // INT16 from k = 3 on
  EXPECT_TRUE(nn::detail::int32_sums_exact(256, 127, 127));      // INT8
}

TEST(IntGemm, TiersMatchInt64LoopAtTheOverflowEdge) {
  // d_model 512 at INT12 with every code +-qmax: the largest |acc| is
  // 512 * 2047^2, one step below 2^31.
  const std::int64_t k = 512, n = 48, m = 9;
  const std::int16_t q = 2047;
  std::vector<std::int16_t> a(static_cast<std::size_t>(m * k), q), b(static_cast<std::size_t>(k * n), q);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    a[static_cast<std::size_t>(1 * k + kk)] = -q;                       // row 1 all -qmax
    a[static_cast<std::size_t>(2 * k + kk)] = kk % 2 == 0 ? q : -q;     // alternating
  }
  for (std::int64_t kk = 0; kk < k; ++kk) b[static_cast<std::size_t>(kk * n + 17)] = -q;
  ASSERT_TRUE(nn::detail::int32_sums_exact(k, q, q));
  expect_tiers_match(a, all_rows(m), b, k, n, true);
  const quant::QTensor x = codes_of(m, k, 12, a), w = codes_of(k, n, 12, b);
  expect_same_codes(nn::int_matmul(x, w), int64_projection(x, w, {}));
}

TEST(IntGemm, TiersMatchInt64LoopOnRandomShapes) {
  // Odd k, every row and column tail of the 4 x 16 tile, chunked rows.
  Rng rng(31);
  for (const std::int64_t k : {1, 2, 37, 256}) {
    for (const std::int64_t n : {8, 17, 40, 256}) {
      const std::int64_t m = 131;
      const std::vector<std::int16_t> a = random_codes(m * k, 12, rng);
      const std::vector<std::int16_t> b = random_codes(k * n, 12, rng);
      std::vector<std::int64_t> rows;
      for (std::int64_t r = 0; r < m; ++r) {
        if (r % 3 != 1) rows.push_back(r);
      }
      expect_tiers_match(a, rows, b, k, n, true);
    }
  }
}

TEST(IntGemm, Int16TakesTheInt64Route) {
  Rng rng(37);
  const std::int64_t m = 21, k = 64, n = 40;
  std::vector<std::int16_t> a = random_codes(m * k, 16, rng);
  std::vector<std::int16_t> b = random_codes(k * n, 16, rng);
  for (std::int64_t kk = 0; kk < k; ++kk) a[static_cast<std::size_t>(kk)] = 32767;  // row 0
  for (std::int64_t kk = 0; kk < k; ++kk) b[static_cast<std::size_t>(kk * n)] = -32767;
  ASSERT_FALSE(nn::detail::int32_sums_exact(k, 32767, 32767));
  expect_tiers_match(a, all_rows(m), b, k, n, false);
  const quant::QTensor x = codes_of(m, k, 16, a), w = codes_of(k, n, 16, b, 3e-4f);
  std::vector<std::uint8_t> keep(static_cast<std::size_t>(m), 1);
  keep[4] = keep[9] = 0;
  expect_same_codes(nn::int_matmul(x, w, keep), int64_projection(x, w, keep));
}

TEST(IntGemm, DModel1024AtInt12TakesTheInt64Route) {
  // 1024 * 2047^2 > 2^31: every code +-qmax would wrap an int32.
  const std::int64_t m = 6, k = 1024, n = 32;
  const std::int16_t q = 2047;
  std::vector<std::int16_t> a(static_cast<std::size_t>(m * k), q), b(static_cast<std::size_t>(k * n), q);
  for (std::int64_t kk = 0; kk < k; ++kk) a[static_cast<std::size_t>(3 * k + kk)] = -q;
  ASSERT_FALSE(nn::detail::int32_sums_exact(k, q, q));
  expect_tiers_match(a, all_rows(m), b, k, n, false);
  const quant::QTensor x = codes_of(m, k, 12, a), w = codes_of(k, n, 12, b);
  const quant::QTensor got = nn::int_matmul(x, w);
  expect_same_codes(got, int64_projection(x, w, {}));
  EXPECT_EQ(got.code(0), q);
  EXPECT_EQ(got.code(3 * n), -q);
}

TEST(IntGemm, ProjectionMatchesInt64LoopWithKeepMasks) {
  Rng rng(41);
  for (const int bits : {8, 12}) {
    for (const std::int64_t k : {37, 256}) {
      const std::int64_t m = 150, n = 40;
      std::vector<std::int16_t> a = random_codes(m * k, bits, rng);
      // Whole zero rows, kept and pruned.
      for (std::int64_t r = 2; r < m; r += 7) {
        std::fill_n(a.begin() + r * k, k, std::int16_t{0});
      }
      const quant::QTensor x = codes_of(m, k, bits, a, 0.02f);
      const quant::QTensor w = codes_of(k, n, bits, random_codes(k * n, bits, rng), 0.003f);
      std::vector<std::uint8_t> keep(static_cast<std::size_t>(m));
      for (auto& f : keep) f = rng.uniform() < 0.5 ? 1 : 0;
      expect_same_codes(nn::int_matmul(x, w), int64_projection(x, w, {}));
      expect_same_codes(nn::int_matmul(x, w, keep), int64_projection(x, w, keep));
    }
  }
}

TEST(IntGemm, ZeroRowsAndAnEmptyKeepMaskGiveUnitScale) {
  Rng rng(43);
  const std::int64_t m = 12, k = 37, n = 17;
  const quant::QTensor w = codes_of(k, n, 12, random_codes(k * n, 12, rng));
  const quant::QTensor zeros = codes_of(m, k, 12, std::vector<std::int16_t>(m * k, 0));
  const quant::QTensor all_zero = nn::int_matmul(zeros, w);
  EXPECT_EQ(all_zero.spec().scale, 1.0f);
  for (const std::int16_t c : all_zero.codes()) ASSERT_EQ(c, 0);

  const quant::QTensor x = codes_of(m, k, 12, random_codes(m * k, 12, rng));
  const quant::QTensor none = nn::int_matmul(x, w, std::vector<std::uint8_t>(m, 0));
  EXPECT_EQ(none.shape(), (std::vector<std::int64_t>{m, n}));
  EXPECT_EQ(none.spec().scale, 1.0f);
  for (const std::int16_t c : none.codes()) ASSERT_EQ(c, 0);
  expect_same_codes(none, int64_projection(x, w, std::vector<std::uint8_t>(m, 0)));
}

/// Requantizer and requantize_avx2 against the int64 divide on `accs`,
/// all within +-max_acc.
void expect_requantizers_match(const std::vector<std::int64_t>& accs, std::int64_t max_acc,
                               std::int32_t qmax) {
  const nn::detail::Requantizer requantize(max_acc, qmax);
  std::vector<std::int16_t> want;
  for (const std::int64_t acc : accs) {
    const std::int64_t mag = ((acc < 0 ? -acc : acc) * 2 * qmax + max_acc) / (2 * max_acc);
    want.push_back(static_cast<std::int16_t>(acc < 0 ? -mag : mag));
    ASSERT_EQ(requantize(acc), want.back())
        << "acc " << acc << " max_acc " << max_acc << " qmax " << qmax;
  }
  // The AVX2 form, on the int32 route's accumulators.
  if (max_acc > std::numeric_limits<std::int32_t>::max() || !nn::detail::matmul_avx2_compiled() ||
      !simd::cpu_supports(simd::Isa::kAvx2)) {
    return;
  }
  const std::vector<std::int32_t> acc32(accs.begin(), accs.end());
  const std::size_t vec = acc32.size() - acc32.size() % 8;
  std::vector<std::int16_t> got(vec);
  nn::detail::requantize_avx2(acc32.data(), static_cast<std::int64_t>(vec),
                              static_cast<std::int32_t>(max_acc), qmax, got.data());
  for (std::size_t i = 0; i < vec; ++i) {
    ASSERT_EQ(got[i], want[i]) << "AVX2: acc " << acc32[i] << " max_acc " << max_acc << " qmax "
                               << qmax;
  }
}

TEST(IntGemm, RequantizersEqualTheInt64Divide) {
  Rng rng(47);
  for (const std::int32_t qmax : {1, 127, 2047, 32767}) {
    for (const std::int64_t max_acc :
         {std::int64_t{1}, std::int64_t{2}, std::int64_t{3}, std::int64_t{7}, std::int64_t{4096},
          std::int64_t{2147483647}, std::int64_t{512} * 2047 * 2047,
          std::int64_t{1024} * 32767 * 32767}) {
      std::vector<std::int64_t> accs{0, 1, -1, max_acc, -max_acc, max_acc / 2, -(max_acc / 2),
                                     max_acc - 1, -(max_acc - 1)};
      // Every exact tie a * qmax / max_acc = c + 1/2 that fits, and its
      // neighbours.
      for (std::int64_t c = 0; c < 4; ++c) {
        const std::int64_t twice = (2 * c + 1) * max_acc;  // 2 a qmax at the tie
        if (twice % (2 * qmax) == 0 && twice / (2 * qmax) <= max_acc) {
          const std::int64_t a = twice / (2 * qmax);
          for (const std::int64_t v : {a - 1, a, a + 1}) {
            if (v <= max_acc) {
              accs.push_back(v);
              accs.push_back(-v);
            }
          }
        }
      }
      for (int i = 0; i < 2000; ++i) accs.push_back(rng.randint(-max_acc, max_acc));
      expect_requantizers_match(accs, max_acc, qmax);
    }
    // Every max_acc up to 4096 at the tie acc = max_acc / 2, where the
    // quotient is exact and a double estimate of it can come out one low
    // (e.g. qmax 127, max_acc 1790, acc 895), and beside it.
    for (std::int64_t max_acc = 1; max_acc <= 4096; ++max_acc) {
      const std::int64_t half = max_acc / 2;
      expect_requantizers_match({half, -half, half + 1, -(half + 1), max_acc, -max_acc, 0, 1},
                                max_acc, qmax);
    }
  }
  // A tie rounds away from zero: 1 * 1 / 2 = 0.5.
  EXPECT_EQ(nn::detail::Requantizer(2, 1)(1), 1);
  EXPECT_EQ(nn::detail::Requantizer(2, 1)(-1), -1);
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

TEST(Norm, ResidualNormMatchesAddThenNorm) {
  // 300 x 256 fans out over row chunks; rows of NaN and +-inf in either
  // operand.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(8);
  for (const auto& [rows, cols] : {std::pair<std::int64_t, std::int64_t>{3, 5}, {300, 256}}) {
    Tensor x = Tensor::randn({rows, cols}, rng, 0.5f, 3.0f);
    Tensor out = Tensor::randn({rows, cols}, rng, 0.0f, 2.0f);
    for (float& v : x.row(0)) v = nan;
    for (float& v : out.row(1)) v = inf;
    out(2, 1) = -inf;
    if (rows > 4) {
      for (float& v : x.row(3)) v = -inf;
      for (float& v : out.row(4)) v = 0.0f;
      for (float& v : x.row(4)) v = -0.0f;
    }
    Tensor want = x;
    want.add_(out);
    nn::rms_norm_rows(want);
    nn::residual_rms_norm_rows(x, out);
    EXPECT_EQ(std::memcmp(x.data().data(), want.data().data(), want.data().size_bytes()), 0)
        << rows << " x " << cols;
  }
}

TEST(Norm, ResidualNormWithNrmseMatchesBothCalls) {
  // Rows of 256 (16 per 4096-element block), 48 and 100 (rows that
  // straddle block boundaries), some fanning out over row chunks.
  Rng rng(9);
  for (const auto& [rows, cols] : {std::pair<std::int64_t, std::int64_t>{3, 5},
                                   {300, 256}, {1020, 48}, {777, 100}}) {
    Tensor x = Tensor::randn({rows, cols}, rng, 0.5f, 3.0f);
    Tensor out = Tensor::randn({rows, cols}, rng, 0.0f, 2.0f);
    Tensor ref = out;
    for (float& v : ref.data()) {
      v += static_cast<float>(rng.normal(0.0, 1.0) * std::exp(rng.uniform(-10.0, 10.0)));
    }
    Tensor want = x;
    nn::residual_rms_norm_rows(want, out);
    const double want_nrmse = nrmse(ref.data(), out.data());
    const double got_nrmse = nn::residual_rms_norm_rows_nrmse(x, out, ref);
    EXPECT_EQ(std::memcmp(x.data().data(), want.data().data(), want.data().size_bytes()), 0)
        << rows << " x " << cols;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got_nrmse), std::bit_cast<std::uint64_t>(want_nrmse))
        << rows << " x " << cols;
  }
}

}  // namespace
}  // namespace defa
