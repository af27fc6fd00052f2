// AVX2 tier of the `reference` backend's INTn loop.
//
// This file is compiled with -mavx2 (see the DEFA_KERNELS_SIMD handling in
// CMakeLists.txt) so the rest of the binary keeps its portable ISA floor;
// the reference backend probes the CPU at runtime before calling in.  When
// the option is off, or the target is not x86, the file compiles to a stub
// and reference_avx2_compiled() reports false.
//
// The loop is the scalar one in reference_backend.cpp, over one query
// range (kernels/reference_int.h), with the channel loop vectorized.  It
// visits a head's kept points through a bit mask built 16 keep bytes at a
// time, in the scalar loop's ascending order, so a pruned point costs no
// branch.  Per kept point, the zero-probability skip, nn::bi_locate, the
// neighbor bounds checks and frequency counts, and the fraction codes run
// exactly as there, once; then 8 int32 lanes run the quant::bi_horner_int /
// ag_weight_int chain across a head's channels.  frac_mul is done in int32
// lanes (vpmulld, add the rounding half, arithmetic shift), which equals
// the scalar int64 frac_mul whenever the product cannot overflow int32:
// |bi| <= 9 * 2^(act_bits-1) and the fraction is below 2^frac_bits, so
// every product plus the half stays under 2^31 when
// act_bits + frac_bits <= kMaxVectorQuantBits (28), which the dispatcher
// checks.  Integer adds are exact and the per-channel accumulation order is
// the scalar loop's, so the tier is bit-identical to it.  There is no
// floating-point arithmetic in the vector path (so no FMA to contract);
// channels past the last full 8-lane block run the scalar chain.

#include "kernels/simd_kernels.h"

#include "common/check.h"

#if defined(DEFA_SIMD_AVX2) && defined(__AVX2__)
#define DEFA_AVX2_REAL 1
#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "nn/bilinear.h"
#include "quant/qmsgs.h"
#else
#define DEFA_AVX2_REAL 0
#endif

namespace defa::kernels::simd_detail {

bool reference_avx2_compiled() noexcept { return DEFA_AVX2_REAL != 0; }

#if DEFA_AVX2_REAL

namespace {

/// frac_mul in int32 lanes: (code * frac + half) >> frac_bits, arithmetic
/// shift.  Exact under the kMaxVectorQuantBits precondition.
inline __m256i frac_mul_v(__m256i code, __m256i frac, __m256i half,
                          __m128i shift) noexcept {
  const __m256i prod = _mm256_mullo_epi32(code, frac);
  return _mm256_sra_epi32(_mm256_add_epi32(prod, half), shift);
}

/// Load 8 int16 codes and widen to int32 lanes.
inline __m256i load_codes8(const std::int16_t* p) noexcept {
  return _mm256_cvtepi16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// Bit j set when point j of keep[0, n) (n <= 64) is kept: 16 keep bytes
/// per compare.
inline std::uint64_t kept_bits(const std::uint8_t* keep, int n) noexcept {
  std::uint64_t bits = 0;
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keep + i));
    const auto dropped = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(k, _mm_setzero_si128())));
    bits |= std::uint64_t{~dropped & 0xFFFFu} << i;
  }
  for (; i < n; ++i) bits |= std::uint64_t{keep[i] != 0} << i;
  return bits;
}

/// One pyramid level's shape and first token.
struct Level {
  int w = 0;
  int h = 0;
  std::int64_t base = 0;
};

}  // namespace

void run_reference_quant_avx2(const IntGatherRange& a) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int dh8 = dh & ~7;
  const int lp = m.points_per_head();
  const std::int64_t d = m.d_model;
  const int fb = a.frac_bits;
  std::vector<Level> levels;
  for (int l = 0; l < m.n_levels; ++l) {
    const LevelShape& lv = m.levels[static_cast<std::size_t>(l)];
    levels.push_back({lv.w, lv.h, m.level_offset(l)});
  }
  const std::vector<std::int16_t> zero_row(static_cast<std::size_t>(dh), 0);
  const std::int16_t* zero = zero_row.data();
  const __m256i half = _mm256_set1_epi32(1 << (fb - 1));
  const __m128i shift = _mm_cvtsi32_si128(fb);

  // The level of each point of a head, in (level, point) order.
  std::vector<int> point_level(static_cast<std::size_t>(lp));
  for (int i = 0; i < lp; ++i) point_level[static_cast<std::size_t>(i)] = i / m.n_points;

  std::vector<std::int32_t> acc(static_cast<std::size_t>(dh));
  for (std::int64_t q = 0; q < a.n; ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      const std::int64_t qh = q * m.n_heads + h;
      const float* prow = a.probs + qh * lp;
      const float* lrow = a.locs + qh * lp * 2;
      const std::uint8_t* krow = a.keep != nullptr ? a.keep + qh * lp : nullptr;
      const std::int16_t* head_codes = a.codes + static_cast<std::int64_t>(h) * dh;
      std::fill(acc.begin(), acc.end(), 0);
      // The kept points of the head in ascending (level, point) order,
      // 64 at a time, visited through their mask bits: a pruned point
      // costs no branch.
      for (int w0 = 0; w0 < lp; w0 += 64) {
        const int wn = std::min(64, lp - w0);
        std::uint64_t live = krow != nullptr ? kept_bits(krow + w0, wn)
                                             : ~std::uint64_t{0} >> (64 - wn);
        for (; live != 0; live &= live - 1) {
          const int i = w0 + std::countr_zero(live);
          const Level& lv =
              levels[static_cast<std::size_t>(point_level[static_cast<std::size_t>(i)])];
          const std::int32_t prob_q = quant::to_fraction_code(prow[i], fb);
          if (prob_q == 0 && a.freq == nullptr) continue;

          const nn::BiPoint bp = nn::bi_locate(lrow[2 * i], lrow[2 * i + 1]);
          // Neighbor code rows, N0..N3; the zero row pads out-of-bounds ones.
          std::array<const std::int16_t*, 4> nb{};
          for (std::size_t k = 0; k < 4; ++k) {
            const int x = bp.x0 + nn::kBiNeighborOffsets[k][0];
            const int y = bp.y0 + nn::kBiNeighborOffsets[k][1];
            const bool inside = x >= 0 && x < lv.w && y >= 0 && y < lv.h;
            const std::int64_t token = lv.base + static_cast<std::int64_t>(y) * lv.w + x;
            if (inside && a.freq != nullptr) a.freq->add(token);
            nb[k] = inside ? head_codes + token * d : zero;
          }
          if (prob_q == 0) continue;
          const std::int32_t t0_q = quant::to_fraction_code(bp.t0, fb);
          const std::int32_t t1_q = quant::to_fraction_code(bp.t1, fb);

          const __m256i t0v = _mm256_set1_epi32(t0_q);
          const __m256i t1v = _mm256_set1_epi32(t1_q);
          const __m256i pv = _mm256_set1_epi32(prob_q);
          for (int c = 0; c < dh8; c += 8) {
            const __m256i n0 = load_codes8(nb[0] + c);
            const __m256i n1 = load_codes8(nb[1] + c);
            const __m256i n2 = load_codes8(nb[2] + c);
            const __m256i n3 = load_codes8(nb[3] + c);
            const __m256i vert = frac_mul_v(_mm256_sub_epi32(n2, n0), t0v, half, shift);
            const __m256i cross = frac_mul_v(
                _mm256_add_epi32(_mm256_sub_epi32(_mm256_sub_epi32(n3, n2), n1), n0), t0v,
                half, shift);
            const __m256i horiz = frac_mul_v(
                _mm256_add_epi32(_mm256_sub_epi32(n1, n0), cross), t1v, half, shift);
            const __m256i bi = _mm256_add_epi32(_mm256_add_epi32(n0, vert), horiz);
            const __m256i ag = frac_mul_v(bi, pv, half, shift);
            auto* accv = reinterpret_cast<__m256i*>(acc.data() + c);
            _mm256_storeu_si256(accv, _mm256_add_epi32(_mm256_loadu_si256(accv), ag));
          }
          for (int c = dh8; c < dh; ++c) {
            const std::int32_t bi =
                quant::bi_horner_int(nb[0][c], nb[1][c], nb[2][c], nb[3][c], t0_q, t1_q, fb);
            acc[static_cast<std::size_t>(c)] += quant::ag_weight_int(bi, prob_q, fb);
          }
        }
      }
      float* head_out = a.out + q * d + static_cast<std::int64_t>(h) * dh;
      for (int c = 0; c < dh; ++c) {
        head_out[c] = static_cast<float>(acc[static_cast<std::size_t>(c)]) * a.out_scale;
      }
    }
  }
}

#else  // !DEFA_AVX2_REAL

void run_reference_quant_avx2(const IntGatherRange&) {
  DEFA_CHECK(false, "reference backend: AVX2 kernels are not compiled into this binary");
}

#endif  // DEFA_AVX2_REAL

}  // namespace defa::kernels::simd_detail
