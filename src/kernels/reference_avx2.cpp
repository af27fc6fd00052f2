// AVX2 tier of the `reference` backend's INTn loop.
//
// This file is compiled with -mavx2 (see the DEFA_KERNELS_SIMD handling in
// CMakeLists.txt) so the rest of the binary keeps its portable ISA floor;
// the reference backend probes the CPU at runtime before calling in.  When
// the option is off, or the target is not x86, the file compiles to a stub
// and reference_avx2_compiled() reports false.
//
// The loop is the scalar one in reference_backend.cpp with the channel
// loop vectorized: per point, the mask and zero-probability skips,
// nn::bi_locate, the fraction codes and the neighbor bounds checks run
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
#include <vector>

#include "common/parallel.h"
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

/// One pyramid level's shape and first token.
struct Level {
  int w = 0;
  int h = 0;
  std::int64_t base = 0;
};

}  // namespace

void run_reference_quant_avx2(const RefQuantArgs& a) {
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

  parallel_for(0, m.n_in(), m.msgs_work_per_query(), [&](std::int64_t begin, std::int64_t end) {
    std::vector<std::int32_t> acc(static_cast<std::size_t>(dh));
    for (std::int64_t q = begin; q < end; ++q) {
      for (int h = 0; h < m.n_heads; ++h) {
        const std::int64_t qh = q * m.n_heads + h;
        const float* prow = a.probs + qh * lp;
        const float* lrow = a.locs + qh * lp * 2;
        const std::int16_t* head_codes = a.codes + static_cast<std::int64_t>(h) * dh;
        std::fill(acc.begin(), acc.end(), 0);
        for (int l = 0; l < m.n_levels; ++l) {
          const Level& lv = levels[static_cast<std::size_t>(l)];
          for (int p = 0; p < m.n_points; ++p) {
            if (a.mask != nullptr && !a.mask->keep(q, h, l, p)) continue;
            const int i = l * m.n_points + p;
            const std::int32_t prob_q = quant::to_fraction_code(prow[i], fb);
            if (prob_q == 0) continue;

            const nn::BiPoint bp = nn::bi_locate(lrow[2 * i], lrow[2 * i + 1]);
            const std::int32_t t0_q = quant::to_fraction_code(bp.t0, fb);
            const std::int32_t t1_q = quant::to_fraction_code(bp.t1, fb);
            // Neighbor code rows, N0..N3; the zero row pads out-of-bounds ones.
            std::array<const std::int16_t*, 4> nb{};
            for (std::size_t k = 0; k < 4; ++k) {
              const int x = bp.x0 + nn::kBiNeighborOffsets[k][0];
              const int y = bp.y0 + nn::kBiNeighborOffsets[k][1];
              const bool inside = x >= 0 && x < lv.w && y >= 0 && y < lv.h;
              nb[k] = inside ? head_codes + (lv.base + static_cast<std::int64_t>(y) * lv.w + x) * d
                             : zero;
            }

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
  });
}

#else  // !DEFA_AVX2_REAL

void run_reference_quant_avx2(const RefQuantArgs&) {
  DEFA_CHECK(false, "reference backend: AVX2 kernels are not compiled into this binary");
}

#endif  // DEFA_AVX2_REAL

}  // namespace defa::kernels::simd_detail
