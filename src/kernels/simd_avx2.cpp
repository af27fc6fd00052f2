// AVX2 tier of the `simd` backend.
//
// This translation unit is the only one compiled with -mavx2 (see the
// DEFA_KERNELS_SIMD handling in CMakeLists.txt), so the rest of the binary
// keeps its portable ISA floor and the backend can probe the CPU at
// runtime before jumping here.  When the knob is off — or the target is
// not x86 — the file compiles to stubs and `avx2_compiled()` reports
// false, which the dispatcher and the microbench skip logic consume.
//
// Bit-exactness (the contract tests/test_backend_differential.cpp
// enforces): each 8-float lane executes exactly the scalar chain of
// nn::bi_horner —
//   (n0 + (n2-n0)*t0) + (((n1-n0) + (((n3-n2)-n1)+n0)*t0) * t1)
// — as individual vmulps/vaddps/vsubps (never FMA: the build sets
// -ffp-contract=off and this file uses explicit non-fused intrinsics), so
// per-lane results are IEEE-identical to the scalar tier.  The INTn chain
// mirrors quant::bi_horner_int / ag_weight_int with frac_mul done in
// int32: the dispatcher only routes configurations here when
// act_bits + frac_bits <= kMaxVectorQuantBits, under which every
// intermediate provably fits (|bi| <= 9*2^(act_bits-1), times a Q0.frac
// code plus the rounding half stays under 2^31), making the int32
// vpmulld + arithmetic-shift sequence exactly equal to the scalar tier's
// int64 math.  Channels not covered by a full 8-lane block run the scalar
// chain directly.

#include "kernels/simd_kernels.h"

#include "common/check.h"

#if defined(DEFA_SIMD_AVX2) && defined(__AVX2__)
#define DEFA_AVX2_REAL 1
#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "kernels/plan.h"
#include "nn/bilinear.h"
#include "quant/qmsgs.h"
#else
#define DEFA_AVX2_REAL 0
#endif

namespace defa::kernels::simd_detail {

bool avx2_compiled() noexcept { return DEFA_AVX2_REAL != 0; }

#if DEFA_AVX2_REAL

namespace {

/// frac_mul in int32 lanes: (code * frac + half) >> frac_bits, arithmetic
/// shift.  Valid only under the kMaxVectorQuantBits precondition.
inline __m256i frac_mul_v(__m256i code, __m256i frac, __m256i half,
                          __m128i shift) noexcept {
  const __m256i prod = _mm256_mullo_epi32(code, frac);
  return _mm256_sra_epi32(_mm256_add_epi32(prod, half), shift);
}

/// Load 8 int16 codes and widen to int32 lanes.
inline __m256i load_codes8(const std::int16_t* p) noexcept {
  return _mm256_cvtepi16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

}  // namespace

void run_fp32_avx2(const Fp32Args& a) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int dh8 = dh & ~7;
  const int lp = m.points_per_head();
  const std::int32_t* offs = a.plan->offsets().data();
  const float* t0s = a.plan->t0().data();
  const float* t1s = a.plan->t1().data();
  const std::vector<float> zero_row(static_cast<std::size_t>(dh), 0.0f);
  const float* zero = zero_row.data();

  parallel_for(0, m.n_in(), m.msgs_work_per_query(), [&](std::int64_t begin, std::int64_t end) {
    std::vector<float> acc(static_cast<std::size_t>(dh));
    for (std::int64_t q = begin; q < end; ++q) {
      for (int h = 0; h < m.n_heads; ++h) {
        const float* prow = a.probs + static_cast<std::size_t>((q * m.n_heads + h) * lp);
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (int l = 0; l < m.n_levels; ++l) {
          const std::int64_t base = a.plan->slot(l, q, h, 0);
          for (int p = 0; p < m.n_points; ++p) {
            if (a.mask != nullptr && !a.mask->keep(q, h, l, p)) continue;
            const std::int64_t s = (base + p) * 4;
            const float* r0 = offs[s + 0] >= 0 ? a.values + offs[s + 0] : zero;
            const float* r1 = offs[s + 1] >= 0 ? a.values + offs[s + 1] : zero;
            const float* r2 = offs[s + 2] >= 0 ? a.values + offs[s + 2] : zero;
            const float* r3 = offs[s + 3] >= 0 ? a.values + offs[s + 3] : zero;
            const float t0 = t0s[base + p];
            const float t1 = t1s[base + p];
            const float w = prow[l * m.n_points + p];
            const __m256 t0v = _mm256_set1_ps(t0);
            const __m256 t1v = _mm256_set1_ps(t1);
            const __m256 wv = _mm256_set1_ps(w);
            for (int c = 0; c < dh8; c += 8) {
              const __m256 n0 = _mm256_loadu_ps(r0 + c);
              const __m256 n1 = _mm256_loadu_ps(r1 + c);
              const __m256 n2 = _mm256_loadu_ps(r2 + c);
              const __m256 n3 = _mm256_loadu_ps(r3 + c);
              // (n2 - n0) * t0
              const __m256 vert = _mm256_mul_ps(_mm256_sub_ps(n2, n0), t0v);
              // (((n3 - n2) - n1) + n0) * t0
              const __m256 cross = _mm256_mul_ps(
                  _mm256_add_ps(_mm256_sub_ps(_mm256_sub_ps(n3, n2), n1), n0), t0v);
              // ((n1 - n0) + cross) * t1
              const __m256 horiz =
                  _mm256_mul_ps(_mm256_add_ps(_mm256_sub_ps(n1, n0), cross), t1v);
              // (n0 + vert) + horiz, then weight and accumulate
              const __m256 bi = _mm256_add_ps(_mm256_add_ps(n0, vert), horiz);
              const __m256 av = _mm256_loadu_ps(acc.data() + c);
              _mm256_storeu_ps(acc.data() + c,
                               _mm256_add_ps(av, _mm256_mul_ps(wv, bi)));
            }
            for (int c = dh8; c < dh; ++c) {
              acc[static_cast<std::size_t>(c)] +=
                  w * nn::bi_horner(r0[c], r1[c], r2[c], r3[c], t0, t1);
            }
          }
        }
        float* head_out = a.out + static_cast<std::size_t>(q * m.d_model + h * dh);
        for (int c = 0; c < dh; ++c) head_out[c] = acc[static_cast<std::size_t>(c)];
      }
    }
  });
}

void run_quant_avx2(const QuantArgs& a) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int dh8 = dh & ~7;
  const int lp = m.points_per_head();
  const std::int32_t* offs = a.plan->offsets().data();
  const float* t0s = a.plan->t0().data();
  const float* t1s = a.plan->t1().data();
  const std::vector<std::int16_t> zero_row(static_cast<std::size_t>(dh), 0);
  const std::int16_t* zero = zero_row.data();
  const __m256i half = _mm256_set1_epi32(1 << (a.frac_bits - 1));
  const __m128i shift = _mm_cvtsi32_si128(a.frac_bits);

  parallel_for(0, m.n_in(), m.msgs_work_per_query(), [&](std::int64_t begin, std::int64_t end) {
    std::vector<std::int32_t> acc(static_cast<std::size_t>(dh));
    for (std::int64_t q = begin; q < end; ++q) {
      for (int h = 0; h < m.n_heads; ++h) {
        const float* prow = a.probs + static_cast<std::size_t>((q * m.n_heads + h) * lp);
        std::fill(acc.begin(), acc.end(), 0);
        for (int l = 0; l < m.n_levels; ++l) {
          const std::int64_t base = a.plan->slot(l, q, h, 0);
          for (int p = 0; p < m.n_points; ++p) {
            if (a.mask != nullptr && !a.mask->keep(q, h, l, p)) continue;
            const std::int32_t prob_q =
                quant::to_fraction_code(prow[l * m.n_points + p], a.frac_bits);
            if (prob_q == 0) continue;
            const std::int64_t s = (base + p) * 4;
            const std::int16_t* r0 = offs[s + 0] >= 0 ? a.codes + offs[s + 0] : zero;
            const std::int16_t* r1 = offs[s + 1] >= 0 ? a.codes + offs[s + 1] : zero;
            const std::int16_t* r2 = offs[s + 2] >= 0 ? a.codes + offs[s + 2] : zero;
            const std::int16_t* r3 = offs[s + 3] >= 0 ? a.codes + offs[s + 3] : zero;
            const std::int32_t t0_q = quant::to_fraction_code(t0s[base + p], a.frac_bits);
            const std::int32_t t1_q = quant::to_fraction_code(t1s[base + p], a.frac_bits);
            const __m256i t0v = _mm256_set1_epi32(t0_q);
            const __m256i t1v = _mm256_set1_epi32(t1_q);
            const __m256i pv = _mm256_set1_epi32(prob_q);
            for (int c = 0; c < dh8; c += 8) {
              const __m256i n0 = load_codes8(r0 + c);
              const __m256i n1 = load_codes8(r1 + c);
              const __m256i n2 = load_codes8(r2 + c);
              const __m256i n3 = load_codes8(r3 + c);
              const __m256i vert = frac_mul_v(_mm256_sub_epi32(n2, n0), t0v, half, shift);
              const __m256i cross = frac_mul_v(
                  _mm256_add_epi32(_mm256_sub_epi32(_mm256_sub_epi32(n3, n2), n1), n0),
                  t0v, half, shift);
              const __m256i horiz = frac_mul_v(
                  _mm256_add_epi32(_mm256_sub_epi32(n1, n0), cross), t1v, half, shift);
              const __m256i bi = _mm256_add_epi32(_mm256_add_epi32(n0, vert), horiz);
              const __m256i ag = frac_mul_v(bi, pv, half, shift);
              __m256i* accv = reinterpret_cast<__m256i*>(acc.data() + c);
              _mm256_storeu_si256(accv,
                                  _mm256_add_epi32(_mm256_loadu_si256(accv), ag));
            }
            for (int c = dh8; c < dh; ++c) {
              const std::int32_t bi = quant::bi_horner_int(r0[c], r1[c], r2[c], r3[c],
                                                           t0_q, t1_q, a.frac_bits);
              acc[static_cast<std::size_t>(c)] +=
                  quant::ag_weight_int(bi, prob_q, a.frac_bits);
            }
          }
        }
        float* head_out = a.out + static_cast<std::size_t>(q * m.d_model + h * dh);
        for (int c = 0; c < dh; ++c) {
          head_out[c] = static_cast<float>(acc[static_cast<std::size_t>(c)]) * a.out_scale;
        }
      }
    }
  });
}

// Level-scoped forms for the quill backend: one level's points, queries
// visited in `order`.  Same lane chains as above; fp32 resumes the
// accumulator through the output row (fp32 memory round-trips bits), INTn
// accumulates into the caller's int32 scratch.

void run_fp32_level_avx2(const Fp32Args& a, int level, const std::int32_t* order) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int dh8 = dh & ~7;
  const int lp = m.points_per_head();
  const std::int32_t* offs = a.plan->offsets().data();
  const float* t0s = a.plan->t0().data();
  const float* t1s = a.plan->t1().data();
  const std::vector<float> zero_row(static_cast<std::size_t>(dh), 0.0f);
  const float* zero = zero_row.data();

  parallel_for(0, m.n_in(), m.msgs_work_per_query(), [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      const std::int64_t q = order[i];
      for (int h = 0; h < m.n_heads; ++h) {
        const float* prow = a.probs + static_cast<std::size_t>((q * m.n_heads + h) * lp);
        float* head_out = a.out + static_cast<std::size_t>(q * m.d_model + h * dh);
        const std::int64_t base = a.plan->slot(level, q, h, 0);
        for (int p = 0; p < m.n_points; ++p) {
          if (a.mask != nullptr && !a.mask->keep(q, h, level, p)) continue;
          const std::int64_t s = (base + p) * 4;
          const float* r0 = offs[s + 0] >= 0 ? a.values + offs[s + 0] : zero;
          const float* r1 = offs[s + 1] >= 0 ? a.values + offs[s + 1] : zero;
          const float* r2 = offs[s + 2] >= 0 ? a.values + offs[s + 2] : zero;
          const float* r3 = offs[s + 3] >= 0 ? a.values + offs[s + 3] : zero;
          const float t0 = t0s[base + p];
          const float t1 = t1s[base + p];
          const float w = prow[level * m.n_points + p];
          const __m256 t0v = _mm256_set1_ps(t0);
          const __m256 t1v = _mm256_set1_ps(t1);
          const __m256 wv = _mm256_set1_ps(w);
          for (int c = 0; c < dh8; c += 8) {
            const __m256 n0 = _mm256_loadu_ps(r0 + c);
            const __m256 n1 = _mm256_loadu_ps(r1 + c);
            const __m256 n2 = _mm256_loadu_ps(r2 + c);
            const __m256 n3 = _mm256_loadu_ps(r3 + c);
            const __m256 vert = _mm256_mul_ps(_mm256_sub_ps(n2, n0), t0v);
            const __m256 cross = _mm256_mul_ps(
                _mm256_add_ps(_mm256_sub_ps(_mm256_sub_ps(n3, n2), n1), n0), t0v);
            const __m256 horiz =
                _mm256_mul_ps(_mm256_add_ps(_mm256_sub_ps(n1, n0), cross), t1v);
            const __m256 bi = _mm256_add_ps(_mm256_add_ps(n0, vert), horiz);
            const __m256 av = _mm256_loadu_ps(head_out + c);
            _mm256_storeu_ps(head_out + c,
                             _mm256_add_ps(av, _mm256_mul_ps(wv, bi)));
          }
          for (int c = dh8; c < dh; ++c) {
            head_out[c] += w * nn::bi_horner(r0[c], r1[c], r2[c], r3[c], t0, t1);
          }
        }
      }
    }
  });
}

void run_quant_level_avx2(const QuantArgs& a, int level, const std::int32_t* order,
                          std::int32_t* acc) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int dh8 = dh & ~7;
  const int lp = m.points_per_head();
  const std::int32_t* offs = a.plan->offsets().data();
  const float* t0s = a.plan->t0().data();
  const float* t1s = a.plan->t1().data();
  const std::vector<std::int16_t> zero_row(static_cast<std::size_t>(dh), 0);
  const std::int16_t* zero = zero_row.data();
  const __m256i half = _mm256_set1_epi32(1 << (a.frac_bits - 1));
  const __m128i shift = _mm_cvtsi32_si128(a.frac_bits);

  parallel_for(0, m.n_in(), m.msgs_work_per_query(), [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      const std::int64_t q = order[i];
      for (int h = 0; h < m.n_heads; ++h) {
        const float* prow = a.probs + static_cast<std::size_t>((q * m.n_heads + h) * lp);
        std::int32_t* arow = acc + static_cast<std::size_t>(q * m.d_model + h * dh);
        const std::int64_t base = a.plan->slot(level, q, h, 0);
        for (int p = 0; p < m.n_points; ++p) {
          if (a.mask != nullptr && !a.mask->keep(q, h, level, p)) continue;
          const std::int32_t prob_q =
              quant::to_fraction_code(prow[level * m.n_points + p], a.frac_bits);
          if (prob_q == 0) continue;
          const std::int64_t s = (base + p) * 4;
          const std::int16_t* r0 = offs[s + 0] >= 0 ? a.codes + offs[s + 0] : zero;
          const std::int16_t* r1 = offs[s + 1] >= 0 ? a.codes + offs[s + 1] : zero;
          const std::int16_t* r2 = offs[s + 2] >= 0 ? a.codes + offs[s + 2] : zero;
          const std::int16_t* r3 = offs[s + 3] >= 0 ? a.codes + offs[s + 3] : zero;
          const std::int32_t t0_q = quant::to_fraction_code(t0s[base + p], a.frac_bits);
          const std::int32_t t1_q = quant::to_fraction_code(t1s[base + p], a.frac_bits);
          const __m256i t0v = _mm256_set1_epi32(t0_q);
          const __m256i t1v = _mm256_set1_epi32(t1_q);
          const __m256i pv = _mm256_set1_epi32(prob_q);
          for (int c = 0; c < dh8; c += 8) {
            const __m256i n0 = load_codes8(r0 + c);
            const __m256i n1 = load_codes8(r1 + c);
            const __m256i n2 = load_codes8(r2 + c);
            const __m256i n3 = load_codes8(r3 + c);
            const __m256i vert = frac_mul_v(_mm256_sub_epi32(n2, n0), t0v, half, shift);
            const __m256i cross = frac_mul_v(
                _mm256_add_epi32(_mm256_sub_epi32(_mm256_sub_epi32(n3, n2), n1), n0),
                t0v, half, shift);
            const __m256i horiz = frac_mul_v(
                _mm256_add_epi32(_mm256_sub_epi32(n1, n0), cross), t1v, half, shift);
            const __m256i bi = _mm256_add_epi32(_mm256_add_epi32(n0, vert), horiz);
            const __m256i ag = frac_mul_v(bi, pv, half, shift);
            __m256i* accv = reinterpret_cast<__m256i*>(arow + c);
            _mm256_storeu_si256(accv,
                                _mm256_add_epi32(_mm256_loadu_si256(accv), ag));
          }
          for (int c = dh8; c < dh; ++c) {
            const std::int32_t bi = quant::bi_horner_int(r0[c], r1[c], r2[c], r3[c],
                                                         t0_q, t1_q, a.frac_bits);
            arow[c] += quant::ag_weight_int(bi, prob_q, a.frac_bits);
          }
        }
      }
    }
  });
}

#else  // !DEFA_AVX2_REAL

void run_fp32_avx2(const Fp32Args&) {
  DEFA_CHECK(false, "simd backend: AVX2 kernels are not compiled into this binary");
}

void run_quant_avx2(const QuantArgs&) {
  DEFA_CHECK(false, "simd backend: AVX2 kernels are not compiled into this binary");
}

void run_fp32_level_avx2(const Fp32Args&, int, const std::int32_t*) {
  DEFA_CHECK(false, "quill backend: AVX2 kernels are not compiled into this binary");
}

void run_quant_level_avx2(const QuantArgs&, int, const std::int32_t*, std::int32_t*) {
  DEFA_CHECK(false, "quill backend: AVX2 kernels are not compiled into this binary");
}

#endif  // DEFA_AVX2_REAL

}  // namespace defa::kernels::simd_detail
