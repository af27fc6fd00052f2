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
//
// The integer tier (int_matmul_avx2) computes a 4-row x 16-column tile of
// int32 accumulators from int16 codes with vpmaddwd: each lane multiplies
// the pair (a_i,2p, a_i,2p+1), broadcast, by the column pair
// (b_2p,j, b_2p+1,j) from the packed panels and adds both products.  Each
// partial sum is bounded by k * qmax_a * qmax_b < 2^31 (the caller
// routes wider operands to the int64 loop), so nothing wraps, and integer
// addition is exact in any order: the tile equals the scalar loops
// exactly.  The largest |acc| is taken as the tile is stored.

#include "nn/linear.h"

#if defined(DEFA_SIMD_AVX2) && defined(__AVX2__)
#define DEFA_AVX2_REAL 1
#include <immintrin.h>
#else
#define DEFA_AVX2_REAL 0
#endif

#include <cstring>

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

namespace {

/// One 4 x 16 tile of int32 accumulators.
struct IntTile {
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
};

/// acc += pair * b, for the two 8-column halves of one tile row; `pair`
/// holds (a_2p, a_2p+1) as one int32.
inline void madd_pair(__m256i& lo, __m256i& hi, std::int32_t pair, __m256i b0,
                      __m256i b1) noexcept {
  const __m256i av = _mm256_set1_epi32(pair);
  lo = _mm256_add_epi32(lo, _mm256_madd_epi16(av, b0));
  hi = _mm256_add_epi32(hi, _mm256_madd_epi16(av, b1));
}

/// The codes a[2p], a[2p+1] as one little-endian int32.
inline std::int32_t load_pair(const std::int16_t* a) noexcept {
  std::int32_t v;
  std::memcpy(&v, a, sizeof(v));
  return v;
}

/// The lone last code of an odd k, paired with 0.
inline std::int32_t last_pair(std::int16_t a) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint16_t>(a));
}

inline __m256i tile_max(__m256i m, __m256i c) noexcept {
  return _mm256_max_epi32(m, _mm256_abs_epi32(c));
}

}  // namespace

std::int32_t int_matmul_avx2(const std::int16_t* a, const std::int64_t* rows, std::int64_t t0,
                             std::int64_t t1, const std::int16_t* panels, std::int64_t k,
                             std::int64_t n, std::int32_t* acc) {
  static_assert(kIntTileRows == 4 && kIntTileCols == 16);
  const std::int64_t pairs = (k + 1) / 2;
  const std::int64_t full_pairs = k / 2;
  const std::int64_t col_end = n - n % kIntTileCols;
  __m256i max_acc = _mm256_setzero_si256();
  for (std::int64_t t = t0; t < t1; t += kIntTileRows) {
    const std::int16_t* a0 = a + rows[t] * k;
    const std::int16_t* a1 = a + rows[t + 1] * k;
    const std::int16_t* a2 = a + rows[t + 2] * k;
    const std::int16_t* a3 = a + rows[t + 3] * k;
    for (std::int64_t j = 0; j < col_end; j += kIntTileCols) {
      const std::int16_t* panel = panels + j * 2 * pairs;
      IntTile c;
      const std::int16_t* bp = panel;
      for (std::int64_t p = 0; p < full_pairs; ++p, bp += 2 * kIntTileCols) {
        const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
        const __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 8 * 2));
        madd_pair(c.c00, c.c01, load_pair(a0 + 2 * p), b0, b1);
        madd_pair(c.c10, c.c11, load_pair(a1 + 2 * p), b0, b1);
        madd_pair(c.c20, c.c21, load_pair(a2 + 2 * p), b0, b1);
        madd_pair(c.c30, c.c31, load_pair(a3 + 2 * p), b0, b1);
      }
      // An odd k's last pair reads only its one code, not past the row.
      if (pairs > full_pairs) {
        const std::int64_t kl = k - 1;
        const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
        const __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 8 * 2));
        madd_pair(c.c00, c.c01, last_pair(a0[kl]), b0, b1);
        madd_pair(c.c10, c.c11, last_pair(a1[kl]), b0, b1);
        madd_pair(c.c20, c.c21, last_pair(a2[kl]), b0, b1);
        madd_pair(c.c30, c.c31, last_pair(a3[kl]), b0, b1);
      }
      std::int32_t* cp = acc + t * n + j;
      const auto store = [&](std::int64_t r, __m256i lo, __m256i hi) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cp + r * n), lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cp + r * n + 8), hi);
      };
      store(0, c.c00, c.c01);
      store(1, c.c10, c.c11);
      store(2, c.c20, c.c21);
      store(3, c.c30, c.c31);
      max_acc = tile_max(tile_max(tile_max(tile_max(max_acc, c.c00), c.c01), c.c10), c.c11);
      max_acc = tile_max(tile_max(tile_max(tile_max(max_acc, c.c20), c.c21), c.c30), c.c31);
    }
  }
  __m128i m = _mm_max_epi32(_mm256_castsi256_si128(max_acc), _mm256_extracti128_si256(max_acc, 1));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(m);
}

void requantize_avx2(const std::int32_t* acc, std::int64_t count, std::int32_t max_acc,
                     std::int32_t qmax, std::int16_t* codes) {
  const double m = max_acc;
  const __m256d d = _mm256_set1_pd(4.0 * m);
  const __m256d inv_d = _mm256_set1_pd(1.0 / (4.0 * m));
  const __m256d scale = _mm256_set1_pd(4.0 * qmax);
  const __m256d half = _mm256_set1_pd(2.0 * m);
  const __m256d one = _mm256_set1_pd(1.0);
  // floor(num / d) for the four |acc| in `mag`, as four int32.
  const auto quotient = [&](__m128i mag) {
    const __m256d num = _mm256_add_pd(_mm256_mul_pd(_mm256_cvtepi32_pd(mag), scale), half);
    __m256d q = _mm256_round_pd(_mm256_mul_pd(num, inv_d), _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    const __m256d r = _mm256_sub_pd(num, _mm256_mul_pd(q, d));
    q = _mm256_add_pd(q, _mm256_and_pd(_mm256_cmp_pd(r, d, _CMP_GE_OQ), one));
    return _mm256_cvttpd_epi32(q);
  };
  for (std::int64_t i = 0; i + 8 <= count; i += 8) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i mag = _mm256_abs_epi32(v);
    const __m256i q = _mm256_set_m128i(quotient(_mm256_extracti128_si256(mag, 1)),
                                       quotient(_mm256_castsi256_si128(mag)));
    // Restore each lane's sign (vpsignd leaves q where acc > 0 and 0 where
    // acc == 0, which is q there too).
    const __m256i code = _mm256_sign_epi32(q, v);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + i),
                     _mm_packs_epi32(_mm256_castsi256_si128(code),
                                     _mm256_extracti128_si256(code, 1)));
  }
}

#else

void requantize_avx2(const std::int32_t*, std::int64_t, std::int32_t, std::int32_t,
                     std::int16_t*) {
  DEFA_CHECK(false, "integer matmul AVX2 tier not compiled into this binary");
}

std::int32_t int_matmul_avx2(const std::int16_t*, const std::int64_t*, std::int64_t,
                             std::int64_t, const std::int16_t*, std::int64_t, std::int64_t,
                             std::int32_t*) {
  DEFA_CHECK(false, "integer matmul AVX2 tier not compiled into this binary");
  return 0;
}

void matmul_blocks_avx2(const float*, const float*, float*, std::int64_t, std::int64_t,
                        std::int64_t, std::int64_t, std::int64_t*) {
  DEFA_CHECK(false, "matmul AVX2 tier not compiled into this binary");
}

#endif

}  // namespace defa::nn::detail
