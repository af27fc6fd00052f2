#include "nn/linear.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/simd.h"

namespace defa::nn {

namespace {

/// The portable tier: rows [i0, i1) x columns [j0, j1) of C += A * B.
void matmul_serial(const float* a, const float* b, float* c, std::int64_t k, std::int64_t n,
                   std::int64_t i0, std::int64_t i1, std::int64_t j0, std::int64_t j1) {
  for (std::int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // pruned rows/columns short-circuit
      const float* brow = b + kk * n;
      for (std::int64_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

/// B's leading n / 16 * 16 columns as the column panels
/// matmul_blocks_avx2 reads.
std::vector<float> pack_panels(const float* b, std::int64_t k, std::int64_t n) {
  constexpr std::int64_t kCols = detail::kMatmulBlockCols;
  std::vector<float> panels(static_cast<std::size_t>(k * (n - n % kCols)));
  float* dst = panels.data();
  for (std::int64_t j = 0; j + kCols <= n; j += kCols) {
    for (std::int64_t kk = 0; kk < k; ++kk, dst += kCols) {
      std::memcpy(dst, b + kk * n + j, kCols * sizeof(float));
    }
  }
  return panels;
}

bool use_avx2() {
  static const bool yes = detail::matmul_avx2_compiled() && simd::cpu_supports(simd::Isa::kAvx2);
  return yes;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  DEFA_CHECK(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2 tensors");
  DEFA_CHECK(a.dim(1) == b.dim(0), "matmul inner dimension mismatch");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});

  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  const bool avx2 = use_avx2();
  const std::vector<float> panels = avx2 ? pack_panels(pb, k, n) : std::vector<float>{};

  parallel_for(0, m, k * n, [&](std::int64_t row_begin, std::int64_t row_end) {
    if (!avx2) {
      matmul_serial(pa, pb, pc, k, n, row_begin, row_end, 0, n);
      return;
    }
    const std::int64_t rows = row_end - row_begin;
    const std::int64_t block_end = row_begin + rows - rows % detail::kMatmulBlockRows;
    const std::int64_t col_end = n - n % detail::kMatmulBlockCols;
    std::vector<std::int64_t> stops(static_cast<std::size_t>(k) + 1);
    detail::matmul_blocks_avx2(pa, panels.data(), pc, k, n, row_begin, block_end, stops.data());
    matmul_serial(pa, pb, pc, k, n, row_begin, block_end, col_end, n);
    matmul_serial(pa, pb, pc, k, n, block_end, row_end, 0, n);
  });
  return c;
}

namespace {

/// Runs the kernels of one accumulator width over the kept rows: acc
/// (rows.size() x n) and the largest |acc|, merged across chunks with a
/// max, which is order-free.
template <typename Acc>
Acc accumulate_kept_rows(const std::int16_t* a, const std::vector<std::int64_t>& rows,
                         const std::int16_t* b, std::int64_t k, std::int64_t n, Acc* acc) {
  constexpr bool kInt32 = sizeof(Acc) == sizeof(std::int32_t);
  const bool avx2 = kInt32 && use_avx2();
  const std::vector<std::int16_t> panels =
      avx2 ? detail::pack_int_panels(b, k, n) : std::vector<std::int16_t>{};
  const std::int64_t col_end = n - n % detail::kIntTileCols;
  const std::int64_t* r = rows.data();
  Acc max_acc = 0;
  std::mutex mu;
  parallel_for(0, static_cast<std::int64_t>(rows.size()), k * n,
               [&](std::int64_t t0, std::int64_t t1) {
                 Acc chunk_max = 0;
                 if constexpr (kInt32) {
                   std::int64_t tile_end = t0;
                   if (avx2) {
                     tile_end = t1 - (t1 - t0) % detail::kIntTileRows;
                     chunk_max = detail::int_matmul_avx2(a, r, t0, tile_end, panels.data(), k,
                                                         n, acc);
                     chunk_max = std::max(chunk_max, detail::int_matmul_int32(
                                                         a, r, t0, tile_end, b, k, n, col_end,
                                                         n, acc));
                   }
                   chunk_max = std::max(
                       chunk_max, detail::int_matmul_int32(a, r, tile_end, t1, b, k, n, 0, n, acc));
                 } else {
                   chunk_max = detail::int_matmul_int64(a, r, t0, t1, b, k, n, 0, n, acc);
                 }
                 const std::lock_guard<std::mutex> lock(mu);
                 max_acc = std::max(max_acc, chunk_max);
               });
  return max_acc;
}

/// The (m x n) codes of kept accumulators (row t of acc is output row
/// rows[t]) whose largest |acc| is max_acc; pruned rows get code 0.
template <typename Acc>
quant::QTensor requantized(const Acc* acc, Acc max_acc, const std::vector<std::int64_t>& rows,
                           std::int64_t m, std::int64_t n, const quant::QuantSpec& sx,
                           const quant::QuantSpec& sw) {
  std::vector<std::int16_t> codes(static_cast<std::size_t>(m * n));
  quant::QuantSpec spec;
  spec.bits = sx.bits;
  if (max_acc == 0) return quant::QTensor({m, n}, std::move(codes), spec);  // unit scale
  const std::int32_t qmax = spec.qmax();
  spec.scale = static_cast<float>(static_cast<double>(max_acc) * sx.scale * sw.scale / qmax);
  const detail::Requantizer requantize(max_acc, qmax);
  // The AVX2 tier covers each row's leading n / 8 * 8 int32 accumulators.
  constexpr bool kInt32 = sizeof(Acc) == sizeof(std::int32_t);
  const std::int64_t vec_end = kInt32 && use_avx2() ? n - n % 8 : 0;
  parallel_for(0, static_cast<std::int64_t>(rows.size()), n * quant::kQuantizeWork,
               [&](std::int64_t t0, std::int64_t t1) {
                 for (std::int64_t t = t0; t < t1; ++t) {
                   const Acc* src = acc + t * n;
                   std::int16_t* dst = codes.data() + rows[static_cast<std::size_t>(t)] * n;
                   if constexpr (kInt32) {
                     if (vec_end > 0) detail::requantize_avx2(src, vec_end, max_acc, qmax, dst);
                   }
                   for (std::int64_t j = vec_end; j < n; ++j) dst[j] = requantize(src[j]);
                 }
               });
  return quant::QTensor({m, n}, std::move(codes), spec);
}

/// The scalar kernels' shared loop (detail::int_matmul_int32 / _int64).
template <typename Acc>
Acc int_matmul_scalar(const std::int16_t* a, const std::int64_t* rows, std::int64_t t0,
                      std::int64_t t1, const std::int16_t* b, std::int64_t k, std::int64_t n,
                      std::int64_t j0, std::int64_t j1, Acc* acc) {
  Acc max_acc = 0;
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int16_t* arow = a + rows[t] * k;
    Acc* crow = acc + t * n;
    std::fill(crow + j0, crow + j1, Acc{0});
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const Acc av = arow[kk];
      if (av == 0) continue;
      const std::int16_t* brow = b + kk * n;
      for (std::int64_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
    }
    for (std::int64_t j = j0; j < j1; ++j) max_acc = std::max(max_acc, std::abs(crow[j]));
  }
  return max_acc;
}

}  // namespace

quant::QTensor int_matmul(const quant::QTensor& x, const quant::QTensor& w,
                          std::span<const std::uint8_t> keep_rows) {
  DEFA_CHECK(x.shape().size() == 2 && w.shape().size() == 2,
             "int_matmul expects rank-2 code tensors");
  const std::int64_t m = x.shape()[0], k = x.shape()[1], n = w.shape()[1];
  DEFA_CHECK(w.shape()[0] == k, "int_matmul inner dimension mismatch");
  DEFA_CHECK(x.spec().bits == w.spec().bits, "int_matmul operands must share a width");
  DEFA_CHECK(keep_rows.empty() || static_cast<std::int64_t>(keep_rows.size()) == m,
             "int_matmul: one keep flag per row");
  std::vector<std::int64_t> rows;
  rows.reserve(static_cast<std::size_t>(m));
  for (std::int64_t r = 0; r < m; ++r) {
    if (keep_rows.empty() || keep_rows[static_cast<std::size_t>(r)] != 0) rows.push_back(r);
  }
  const std::int16_t* a = x.codes().data();
  const std::int16_t* b = w.codes().data();
  const auto count = rows.size() * static_cast<std::size_t>(n);
  if (detail::int32_sums_exact(k, x.spec().qmax(), w.spec().qmax())) {
    // Every kept accumulator is written by a kernel: no zeroing first.
    const auto acc = std::make_unique_for_overwrite<std::int32_t[]>(count);
    const std::int32_t max_acc = accumulate_kept_rows(a, rows, b, k, n, acc.get());
    return requantized(acc.get(), max_acc, rows, m, n, x.spec(), w.spec());
  }
  const auto acc = std::make_unique_for_overwrite<std::int64_t[]>(count);
  const std::int64_t max_acc = accumulate_kept_rows(a, rows, b, k, n, acc.get());
  return requantized(acc.get(), max_acc, rows, m, n, x.spec(), w.spec());
}

namespace detail {

Requantizer::Requantizer(std::int64_t max_acc, std::int32_t qmax)
    : max_acc_(static_cast<std::uint64_t>(max_acc)), qmax_(static_cast<std::uint64_t>(qmax)) {
  DEFA_CHECK(max_acc >= 1 && qmax >= 1, "Requantizer: max_acc and qmax must be positive");
  __extension__ using U128 = unsigned __int128;
  constexpr int kNumeratorBits = 62;
  DEFA_CHECK(static_cast<U128>(max_acc_) * (4 * qmax_ + 2) < (U128{1} << kNumeratorBits),
             "Requantizer: accumulators too wide for an exact quotient");
  const std::uint64_t d = 4 * max_acc_;
  const int l = std::bit_width(d - 1);
  magic_ = static_cast<std::uint64_t>(((U128{1} << (kNumeratorBits + l)) + d - 1) / d);
  shift_ = l - 2;
}

std::vector<std::int16_t> pack_int_panels(const std::int16_t* b, std::int64_t k, std::int64_t n) {
  const std::int64_t pairs = (k + 1) / 2;
  const std::int64_t panels = n / kIntTileCols;
  std::vector<std::int16_t> out(static_cast<std::size_t>(panels * pairs * 2 * kIntTileCols));
  std::int16_t* dst = out.data();
  for (std::int64_t j = 0; j < panels * kIntTileCols; j += kIntTileCols) {
    for (std::int64_t p = 0; p < pairs; ++p) {
      for (std::int64_t c = 0; c < kIntTileCols; ++c, dst += 2) {
        dst[0] = b[2 * p * n + j + c];
        dst[1] = 2 * p + 1 < k ? b[(2 * p + 1) * n + j + c] : std::int16_t{0};
      }
    }
  }
  return out;
}

std::int32_t int_matmul_int32(const std::int16_t* a, const std::int64_t* rows, std::int64_t t0,
                              std::int64_t t1, const std::int16_t* b, std::int64_t k,
                              std::int64_t n, std::int64_t j0, std::int64_t j1,
                              std::int32_t* acc) {
  return int_matmul_scalar(a, rows, t0, t1, b, k, n, j0, j1, acc);
}

std::int64_t int_matmul_int64(const std::int16_t* a, const std::int64_t* rows, std::int64_t t0,
                              std::int64_t t1, const std::int16_t* b, std::int64_t k,
                              std::int64_t n, std::int64_t j0, std::int64_t j1,
                              std::int64_t* acc) {
  return int_matmul_scalar(a, rows, t0, t1, b, k, n, j0, j1, acc);
}

}  // namespace detail

Tensor linear(const Tensor& x, const Tensor& w, const Tensor* bias) {
  Tensor y = matmul(x, w);
  if (bias != nullptr) {
    DEFA_CHECK(bias->rank() == 1 && bias->dim(0) == y.dim(1), "bias shape mismatch");
    const std::int64_t m = y.dim(0), n = y.dim(1);
    std::span<float> py = y.data();
    std::span<const float> pbias = bias->data();
    for (std::int64_t i = 0; i < m; ++i) {
      float* row = &py[static_cast<std::size_t>(i * n)];
      for (std::int64_t j = 0; j < n; ++j) row[j] += pbias[static_cast<std::size_t>(j)];
    }
  }
  return y;
}

}  // namespace defa::nn
