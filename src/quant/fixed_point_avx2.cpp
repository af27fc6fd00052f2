// AVX2 tier of the INTn quantizer (quant/fixed_point.h).
//
// This file is compiled with -mavx2 (see the DEFA_KERNELS_SIMD handling in
// CMakeLists.txt) so the rest of the binary keeps its portable ISA floor;
// the callers probe the CPU at runtime before calling in.  When the option
// is off, or the target is not x86, the file compiles to stubs and
// quantize_avx2_compiled() reports false.
//
// Bit-exactness with quantize_value / dequantize_value (the contract
// QuantTiers.* enforces): every lane runs the scalar chain's steps in the
// same order on the same operands, each an exactly-rounded IEEE operation
// or an exact integer one.
//   scaled  = v / scale                      vdivps
//   clamped = min(qmax, max(-qmax, scaled))  vmaxps/vminps: std::clamp's
//                                            result for every non-NaN input
//   whole   = trunc(clamped)                 vcvttps2dq
//   frac    = clamped - whole                exact, as in the scalar code
//   code    = whole + (frac >= .5) - (frac <= -.5), from compare masks
//   code    = 0 where scaled is NaN
//   value   = float(code) * scale            vcvtdq2ps, vmulps (never FMA)
// The location kernels add the reference center with one vaddps and clamp
// with the same max/min pair, which is std::clamp's result whenever
// lo <= hi (radii are >= 0).  Nothing here calls a header inline function
// or instantiates a library template, so no -mavx2 copy of one can be
// linked into the portable code.

#include "quant/fixed_point.h"

#if defined(DEFA_SIMD_AVX2) && defined(__AVX2__)
#define DEFA_AVX2_REAL 1
#include <immintrin.h>
#else
#define DEFA_AVX2_REAL 0
#endif

#include "common/check.h"

namespace defa::quant::detail {

bool quantize_avx2_compiled() noexcept { return DEFA_AVX2_REAL != 0; }

#if DEFA_AVX2_REAL

namespace {

constexpr std::int64_t kLanes = kQuantizeLanes;

/// quantize_value / dequantize_value for one spec, eight lanes at a time.
struct Quantizer {
  __m256 scale;
  __m256 limit;
  __m256 neg_limit;

  Quantizer(float s, std::int32_t qmax)
      : scale(_mm256_set1_ps(s)),
        limit(_mm256_set1_ps(static_cast<float>(qmax))),
        neg_limit(_mm256_set1_ps(-static_cast<float>(qmax))) {}

  [[nodiscard]] __m256i codes(__m256 v) const noexcept {
    const __m256 scaled = _mm256_div_ps(v, scale);
    const __m256 nan = _mm256_cmp_ps(scaled, scaled, _CMP_UNORD_Q);
    const __m256 clamped = _mm256_min_ps(limit, _mm256_max_ps(neg_limit, scaled));
    const __m256i whole = _mm256_cvttps_epi32(clamped);
    const __m256 frac = _mm256_sub_ps(clamped, _mm256_cvtepi32_ps(whole));
    // A true compare mask reads as -1: subtracting `up` adds one, adding
    // `down` takes one away.
    const __m256i up =
        _mm256_castps_si256(_mm256_cmp_ps(frac, _mm256_set1_ps(0.5f), _CMP_GE_OQ));
    const __m256i down =
        _mm256_castps_si256(_mm256_cmp_ps(frac, _mm256_set1_ps(-0.5f), _CMP_LE_OQ));
    const __m256i code = _mm256_add_epi32(_mm256_sub_epi32(whole, up), down);
    return _mm256_andnot_si256(_mm256_castps_si256(nan), code);
  }

  [[nodiscard]] __m256 values(__m256i code) const noexcept {
    return _mm256_mul_ps(_mm256_cvtepi32_ps(code), scale);
  }
};

/// The eight int32 codes of `c` as int16, in order (|code| <= 32767).
inline __m128i pack16(__m256i c) noexcept {
  return _mm_packs_epi32(_mm256_castsi256_si128(c), _mm256_extracti128_si256(c, 1));
}

inline std::int32_t hmax_epi32(__m256i v) noexcept {
  __m128i m = _mm_max_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(m);
}

/// Max of eight non-NaN floats; any order gives the same value.
inline float hmax_ps(__m256 v) noexcept {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ps(m, _mm_movehdup_ps(m));
  return _mm_cvtss_f32(m);
}

inline __m256 abs_ps(__m256 v) noexcept {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
}

/// Lanes (a, b, a, b, ...): the x/y pattern of one group's points.
inline __m256 pair(float a, float b) noexcept { return _mm256_setr_ps(a, b, a, b, a, b, a, b); }

/// Walk the vector blocks of every (query, head, level) group of queries
/// [q0, q1): fn(level, center, flat index of the block), with the level's
/// reference center as (cx, cy, cx, cy, ...).  The centers depend on the
/// query and level only, so they are built once per query, not per head.
template <typename Fn>
void for_blocks(const PointGrid& g, std::int64_t q0, std::int64_t q1, Fn&& fn) {
  const std::int64_t group = 2 * g.points;
  const std::int64_t vec_end = group - group % kLanes;
  const std::int64_t per_query = g.heads * g.levels * group;
  __m256 center[kMaxGridLevels];
  for (std::int64_t q = q0; q < q1; ++q) {
    const float rx = g.ref_norm[2 * q];
    const float ry = g.ref_norm[2 * q + 1];
    for (std::int64_t l = 0; l < g.levels; ++l) {
      center[l] = pair(rx * g.level_w[l] - 0.5f, ry * g.level_h[l] - 0.5f);
    }
    std::int64_t base = q * per_query;
    for (std::int64_t h = 0; h < g.heads; ++h) {
      for (std::int64_t l = 0; l < g.levels; ++l, base += group) {
        for (std::int64_t i = 0; i < vec_end; i += kLanes) fn(l, center[l], base + i);
      }
    }
  }
}

}  // namespace

std::int32_t quantize_avx2(const float* src, std::int64_t n, float scale, std::int32_t qmax,
                           std::int16_t* codes) {
  const Quantizer q(scale, qmax);
  __m256i max_code = _mm256_setzero_si256();
  for (std::int64_t i = 0; i + kLanes <= n; i += kLanes) {
    const __m256i c = q.codes(_mm256_loadu_ps(src + i));
    max_code = _mm256_max_epi32(max_code, _mm256_abs_epi32(c));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + i), pack16(c));
  }
  return hmax_epi32(max_code);
}

void dequantize_avx2(const std::int16_t* codes, std::int64_t n, float scale, float* dst) {
  const Quantizer q(scale, 0);
  for (std::int64_t i = 0; i + kLanes <= n; i += kLanes) {
    const __m128i c16 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    _mm256_storeu_ps(dst + i, q.values(_mm256_cvtepi16_epi32(c16)));
  }
}

void fake_quantize_avx2(const float* src, std::int64_t n, float scale, std::int32_t qmax,
                        float* dst) {
  const Quantizer q(scale, qmax);
  for (std::int64_t i = 0; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(dst + i, q.values(q.codes(_mm256_loadu_ps(src + i))));
  }
}

float offsets_max_abs_avx2(const PointGrid& g, const float* locs, std::int64_t q0,
                           std::int64_t q1) {
  __m256 max_abs = _mm256_setzero_ps();
  for_blocks(g, q0, q1, [&](std::int64_t, __m256 center, std::int64_t i) {
    const __m256 off = _mm256_sub_ps(_mm256_loadu_ps(locs + i), center);
    // vmaxps returns its second operand when the first is NaN: NaN skipped.
    max_abs = _mm256_max_ps(abs_ps(off), max_abs);
  });
  return hmax_ps(max_abs);
}

void requantize_points_avx2(const PointGrid& g, float scale, std::int32_t qmax,
                            const float* locs, float* out, std::int64_t q0, std::int64_t q1,
                            std::int64_t* level_clamped, float* max_excess) {
  const Quantizer q(scale, qmax);
  const auto requantized = [&](__m256 center, std::int64_t i) {
    const __m256 off = _mm256_sub_ps(_mm256_loadu_ps(locs + i), center);
    return _mm256_add_ps(center, q.values(q.codes(off)));
  };
  if (g.radius == nullptr) {
    for_blocks(g, q0, q1, [&](std::int64_t, __m256 center, std::int64_t i) {
      _mm256_storeu_ps(out + i, requantized(center, i));
    });
    return;
  }
  const __m256 zero = _mm256_setzero_ps();
  // Even lanes hold x: the lanes a point's verdict is read from.
  const __m256 x_lanes = _mm256_castsi256_ps(_mm256_setr_epi32(-1, 0, -1, 0, -1, 0, -1, 0));
  __m256 excess = zero;
  for_blocks(g, q0, q1, [&](std::int64_t l, __m256 center, std::int64_t i) {
    const __m256 r = _mm256_set1_ps(g.radius[l]);
    const __m256 loc = requantized(center, i);
    const __m256 clamped = _mm256_min_ps(_mm256_add_ps(center, r),
                                         _mm256_max_ps(_mm256_sub_ps(center, r), loc));
    // In each x lane: dx = |x - nx| and, swapped in from the y lane,
    // dy = |y - ny|.  clamp_to_range moves the point when
    // std::max(dx, dy) > 0, i.e. dx < dy or dx > 0, and then records that
    // max as its excess.
    const __m256 d = abs_ps(_mm256_sub_ps(loc, clamped));
    const __m256 d_swapped = _mm256_permute_ps(d, 0xB1);
    const __m256 y_larger = _mm256_cmp_ps(d, d_swapped, _CMP_LT_OQ);
    const __m256 moved = _mm256_and_ps(
        x_lanes, _mm256_or_ps(y_larger, _mm256_cmp_ps(d, zero, _CMP_GT_OQ)));
    level_clamped[l] += __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(moved)));
    excess = _mm256_max_ps(_mm256_and_ps(moved, _mm256_blendv_ps(d, d_swapped, y_larger)),
                           excess);
    // A moved point takes both clamped coordinates, an unmoved one keeps
    // both of its own.
    _mm256_storeu_ps(out + i, _mm256_blendv_ps(loc, clamped, _mm256_moveldup_ps(moved)));
  });
  const float m = hmax_ps(excess);
  if (m > *max_excess) *max_excess = m;
}

#else

std::int32_t quantize_avx2(const float*, std::int64_t, float, std::int32_t, std::int16_t*) {
  DEFA_CHECK(false, "quantize AVX2 tier not compiled into this binary");
  return 0;
}

void dequantize_avx2(const std::int16_t*, std::int64_t, float, float*) {
  DEFA_CHECK(false, "quantize AVX2 tier not compiled into this binary");
}

void fake_quantize_avx2(const float*, std::int64_t, float, std::int32_t, float*) {
  DEFA_CHECK(false, "quantize AVX2 tier not compiled into this binary");
}

float offsets_max_abs_avx2(const PointGrid&, const float*, std::int64_t, std::int64_t) {
  DEFA_CHECK(false, "quantize AVX2 tier not compiled into this binary");
  return 0.0f;
}

void requantize_points_avx2(const PointGrid&, float, std::int32_t, const float*, float*,
                            std::int64_t, std::int64_t, std::int64_t*, float*) {
  DEFA_CHECK(false, "quantize AVX2 tier not compiled into this binary");
}

#endif

}  // namespace defa::quant::detail
