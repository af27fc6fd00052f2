// AVX2 tier of nn::matmul.
//
// This file is compiled with -mavx2 (see the DEFA_KERNELS_SIMD handling in
// CMakeLists.txt) so the rest of the binary keeps its portable ISA floor;
// nn::matmul probes the CPU at runtime before calling in.  When the option
// is off, or the target is not x86, the file compiles to a stub and
// matmul_avx2_compiled() reports false.
//
// Each step computes a 4-row x 16-column tile of C in eight __m256
// accumulators over the whole k range, so the tile never leaves registers,
// reading B from a copy packed into contiguous k x 16 column panels (16 KB
// at k = 256, so a panel stays in L1 across the row blocks).
// Bit-exactness with the serial loop in linear.cpp (the contract
// Linear.MatmulBitIdenticalToSerialLoop enforces): every lane starts from
// +0 and runs `acc = acc + (a_ik * b_kj)` for increasing k as a separate
// vmulps and vaddps (never FMA: the build sets -ffp-contract=off and this
// file uses explicit non-fused intrinsics), skipping the term of each row
// whose a_ik == 0 exactly as the serial loop does.

#include "nn/linear.h"

#if defined(DEFA_SIMD_AVX2) && defined(__AVX2__)
#define DEFA_AVX2_REAL 1
#include <immintrin.h>
#else
#define DEFA_AVX2_REAL 0
#endif

#include "common/check.h"

namespace defa::nn::detail {

bool matmul_avx2_compiled() noexcept { return DEFA_AVX2_REAL != 0; }

#if DEFA_AVX2_REAL

namespace {

/// One 4 x 16 tile of C in eight accumulators.
struct Tile {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
};

/// acc = acc + (x * b), for the two 8-column halves of one tile row.
inline void madd_row(__m256& lo, __m256& hi, float x, __m256 b0, __m256 b1) noexcept {
  const __m256 xv = _mm256_set1_ps(x);
  lo = _mm256_add_ps(lo, _mm256_mul_ps(xv, b0));
  hi = _mm256_add_ps(hi, _mm256_mul_ps(xv, b1));
}

}  // namespace

void matmul_blocks_avx2(const float* a, const float* panels, float* c, std::int64_t k,
                        std::int64_t n, std::int64_t row_begin, std::int64_t row_end,
                        std::int64_t* stops) {
  static_assert(kMatmulBlockRows == 4 && kMatmulBlockCols == 16);
  const std::int64_t col_end = n - n % kMatmulBlockCols;
  for (std::int64_t i = row_begin; i < row_end; i += kMatmulBlockRows) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    // The k at which some row of the block has a_ik == 0, then k as a
    // sentinel.  Between two of them the tile runs without tests.
    std::int64_t n_stops = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      if (a0[kk] == 0.0f || a1[kk] == 0.0f || a2[kk] == 0.0f || a3[kk] == 0.0f) {
        stops[n_stops++] = kk;
      }
    }
    stops[n_stops++] = k;
    for (std::int64_t j = 0; j < col_end; j += kMatmulBlockCols) {
      const float* panel = panels + j * k;
      Tile t;
      std::int64_t kk = 0;
      for (std::int64_t s = 0; s < n_stops; ++s) {
        for (; kk < stops[s]; ++kk) {
          const float* bp = panel + kk * kMatmulBlockCols;
          const __m256 b0 = _mm256_loadu_ps(bp);
          const __m256 b1 = _mm256_loadu_ps(bp + 8);
          madd_row(t.c00, t.c01, a0[kk], b0, b1);
          madd_row(t.c10, t.c11, a1[kk], b0, b1);
          madd_row(t.c20, t.c21, a2[kk], b0, b1);
          madd_row(t.c30, t.c31, a3[kk], b0, b1);
        }
        if (kk == k) break;
        // A zero a_ik skips only its own row's term, as in the serial loop.
        const float* bp = panel + kk * kMatmulBlockCols;
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        if (a0[kk] != 0.0f) madd_row(t.c00, t.c01, a0[kk], b0, b1);
        if (a1[kk] != 0.0f) madd_row(t.c10, t.c11, a1[kk], b0, b1);
        if (a2[kk] != 0.0f) madd_row(t.c20, t.c21, a2[kk], b0, b1);
        if (a3[kk] != 0.0f) madd_row(t.c30, t.c31, a3[kk], b0, b1);
        ++kk;
      }
      float* cp = c + i * n + j;
      _mm256_storeu_ps(cp, t.c00);
      _mm256_storeu_ps(cp + 8, t.c01);
      _mm256_storeu_ps(cp + n, t.c10);
      _mm256_storeu_ps(cp + n + 8, t.c11);
      _mm256_storeu_ps(cp + 2 * n, t.c20);
      _mm256_storeu_ps(cp + 2 * n + 8, t.c21);
      _mm256_storeu_ps(cp + 3 * n, t.c30);
      _mm256_storeu_ps(cp + 3 * n + 8, t.c31);
    }
  }
}

#else

void matmul_blocks_avx2(const float*, const float*, float*, std::int64_t, std::int64_t,
                        std::int64_t, std::int64_t, std::int64_t*) {
  DEFA_CHECK(false, "matmul AVX2 tier not compiled into this binary");
}

#endif

}  // namespace defa::nn::detail
