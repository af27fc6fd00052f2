#include "nn/linear.h"

#include <cstring>
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
