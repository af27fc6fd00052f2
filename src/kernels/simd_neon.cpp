// NEON tier of the `simd` backend.
//
// Compiled to real kernels only when the build targets ARM with the
// DEFA_KERNELS_SIMD knob on (Advanced SIMD is baseline on AArch64, so no
// per-file -m flag is needed — the guard is the knob plus the
// architecture); elsewhere this file is stubs and `neon_compiled()` is
// false.
//
// Bit-exactness follows the same rule as the AVX2 tier: 4-float lanes run
// the exact scalar chain of nn::bi_horner as discrete vmul/vadd/vsub —
// vfma is never used (and the build sets -ffp-contract=off so the
// compiler cannot introduce it behind these intrinsics' backs) — and the
// INTn chain mirrors quant::bi_horner_int / ag_weight_int with int32
// frac_muls, valid under the dispatcher's
// act_bits + frac_bits <= kMaxVectorQuantBits precondition.  The
// arithmetic right shift is vshlq_s32 by a negative count, which
// truncates like the scalar `>>`, not the rounding vrshlq form.

#include "kernels/simd_kernels.h"

#include "common/check.h"

#if defined(DEFA_SIMD_NEON) && (defined(__aarch64__) || defined(__ARM_NEON))
#define DEFA_NEON_REAL 1
#include <arm_neon.h>

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "kernels/plan.h"
#include "nn/bilinear.h"
#include "quant/qmsgs.h"
#else
#define DEFA_NEON_REAL 0
#endif

namespace defa::kernels::simd_detail {

bool neon_compiled() noexcept { return DEFA_NEON_REAL != 0; }

#if DEFA_NEON_REAL

namespace {

/// frac_mul in int32 lanes: (code * frac + half) >> frac_bits, arithmetic
/// shift.  Valid only under the kMaxVectorQuantBits precondition.
inline int32x4_t frac_mul_v(int32x4_t code, int32x4_t frac, int32x4_t half,
                            int32x4_t neg_shift) noexcept {
  const int32x4_t prod = vmulq_s32(code, frac);
  return vshlq_s32(vaddq_s32(prod, half), neg_shift);
}

/// Load 4 int16 codes and widen to int32 lanes.
inline int32x4_t load_codes4(const std::int16_t* p) noexcept {
  return vmovl_s16(vld1_s16(p));
}

}  // namespace

void run_fp32_neon(const Fp32Args& a) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int dh4 = dh & ~3;
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
            const float32x4_t t0v = vdupq_n_f32(t0);
            const float32x4_t t1v = vdupq_n_f32(t1);
            const float32x4_t wv = vdupq_n_f32(w);
            for (int c = 0; c < dh4; c += 4) {
              const float32x4_t n0 = vld1q_f32(r0 + c);
              const float32x4_t n1 = vld1q_f32(r1 + c);
              const float32x4_t n2 = vld1q_f32(r2 + c);
              const float32x4_t n3 = vld1q_f32(r3 + c);
              const float32x4_t vert = vmulq_f32(vsubq_f32(n2, n0), t0v);
              const float32x4_t cross = vmulq_f32(
                  vaddq_f32(vsubq_f32(vsubq_f32(n3, n2), n1), n0), t0v);
              const float32x4_t horiz =
                  vmulq_f32(vaddq_f32(vsubq_f32(n1, n0), cross), t1v);
              const float32x4_t bi = vaddq_f32(vaddq_f32(n0, vert), horiz);
              const float32x4_t av = vld1q_f32(acc.data() + c);
              vst1q_f32(acc.data() + c, vaddq_f32(av, vmulq_f32(wv, bi)));
            }
            for (int c = dh4; c < dh; ++c) {
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

void run_quant_neon(const QuantArgs& a) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int dh4 = dh & ~3;
  const int lp = m.points_per_head();
  const std::int32_t* offs = a.plan->offsets().data();
  const float* t0s = a.plan->t0().data();
  const float* t1s = a.plan->t1().data();
  const std::vector<std::int16_t> zero_row(static_cast<std::size_t>(dh), 0);
  const std::int16_t* zero = zero_row.data();
  const int32x4_t half = vdupq_n_s32(1 << (a.frac_bits - 1));
  const int32x4_t neg_shift = vdupq_n_s32(-a.frac_bits);

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
            const int32x4_t t0v = vdupq_n_s32(t0_q);
            const int32x4_t t1v = vdupq_n_s32(t1_q);
            const int32x4_t pv = vdupq_n_s32(prob_q);
            for (int c = 0; c < dh4; c += 4) {
              const int32x4_t n0 = load_codes4(r0 + c);
              const int32x4_t n1 = load_codes4(r1 + c);
              const int32x4_t n2 = load_codes4(r2 + c);
              const int32x4_t n3 = load_codes4(r3 + c);
              const int32x4_t vert = frac_mul_v(vsubq_s32(n2, n0), t0v, half, neg_shift);
              const int32x4_t cross = frac_mul_v(
                  vaddq_s32(vsubq_s32(vsubq_s32(n3, n2), n1), n0), t0v, half, neg_shift);
              const int32x4_t horiz = frac_mul_v(
                  vaddq_s32(vsubq_s32(n1, n0), cross), t1v, half, neg_shift);
              const int32x4_t bi = vaddq_s32(vaddq_s32(n0, vert), horiz);
              const int32x4_t ag = frac_mul_v(bi, pv, half, neg_shift);
              vst1q_s32(acc.data() + c, vaddq_s32(vld1q_s32(acc.data() + c), ag));
            }
            for (int c = dh4; c < dh; ++c) {
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

void run_fp32_level_neon(const Fp32Args& a, int level, const std::int32_t* order) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int dh4 = dh & ~3;
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
          const float32x4_t t0v = vdupq_n_f32(t0);
          const float32x4_t t1v = vdupq_n_f32(t1);
          const float32x4_t wv = vdupq_n_f32(w);
          for (int c = 0; c < dh4; c += 4) {
            const float32x4_t n0 = vld1q_f32(r0 + c);
            const float32x4_t n1 = vld1q_f32(r1 + c);
            const float32x4_t n2 = vld1q_f32(r2 + c);
            const float32x4_t n3 = vld1q_f32(r3 + c);
            const float32x4_t vert = vmulq_f32(vsubq_f32(n2, n0), t0v);
            const float32x4_t cross = vmulq_f32(
                vaddq_f32(vsubq_f32(vsubq_f32(n3, n2), n1), n0), t0v);
            const float32x4_t horiz =
                vmulq_f32(vaddq_f32(vsubq_f32(n1, n0), cross), t1v);
            const float32x4_t bi = vaddq_f32(vaddq_f32(n0, vert), horiz);
            const float32x4_t av = vld1q_f32(head_out + c);
            vst1q_f32(head_out + c, vaddq_f32(av, vmulq_f32(wv, bi)));
          }
          for (int c = dh4; c < dh; ++c) {
            head_out[c] += w * nn::bi_horner(r0[c], r1[c], r2[c], r3[c], t0, t1);
          }
        }
      }
    }
  });
}

void run_quant_level_neon(const QuantArgs& a, int level, const std::int32_t* order,
                          std::int32_t* acc) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int dh4 = dh & ~3;
  const int lp = m.points_per_head();
  const std::int32_t* offs = a.plan->offsets().data();
  const float* t0s = a.plan->t0().data();
  const float* t1s = a.plan->t1().data();
  const std::vector<std::int16_t> zero_row(static_cast<std::size_t>(dh), 0);
  const std::int16_t* zero = zero_row.data();
  const int32x4_t half = vdupq_n_s32(1 << (a.frac_bits - 1));
  const int32x4_t neg_shift = vdupq_n_s32(-a.frac_bits);

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
          const int32x4_t t0v = vdupq_n_s32(t0_q);
          const int32x4_t t1v = vdupq_n_s32(t1_q);
          const int32x4_t pv = vdupq_n_s32(prob_q);
          for (int c = 0; c < dh4; c += 4) {
            const int32x4_t n0 = load_codes4(r0 + c);
            const int32x4_t n1 = load_codes4(r1 + c);
            const int32x4_t n2 = load_codes4(r2 + c);
            const int32x4_t n3 = load_codes4(r3 + c);
            const int32x4_t vert = frac_mul_v(vsubq_s32(n2, n0), t0v, half, neg_shift);
            const int32x4_t cross = frac_mul_v(
                vaddq_s32(vsubq_s32(vsubq_s32(n3, n2), n1), n0), t0v, half, neg_shift);
            const int32x4_t horiz = frac_mul_v(
                vaddq_s32(vsubq_s32(n1, n0), cross), t1v, half, neg_shift);
            const int32x4_t bi = vaddq_s32(vaddq_s32(n0, vert), horiz);
            const int32x4_t ag = frac_mul_v(bi, pv, half, neg_shift);
            vst1q_s32(arow + c, vaddq_s32(vld1q_s32(arow + c), ag));
          }
          for (int c = dh4; c < dh; ++c) {
            const std::int32_t bi = quant::bi_horner_int(r0[c], r1[c], r2[c], r3[c],
                                                         t0_q, t1_q, a.frac_bits);
            arow[c] += quant::ag_weight_int(bi, prob_q, a.frac_bits);
          }
        }
      }
    }
  });
}

#else  // !DEFA_NEON_REAL

void run_fp32_neon(const Fp32Args&) {
  DEFA_CHECK(false, "simd backend: NEON kernels are not compiled into this binary");
}

void run_quant_neon(const QuantArgs&) {
  DEFA_CHECK(false, "simd backend: NEON kernels are not compiled into this binary");
}

void run_fp32_level_neon(const Fp32Args&, int, const std::int32_t*) {
  DEFA_CHECK(false, "quill backend: NEON kernels are not compiled into this binary");
}

void run_quant_level_neon(const QuantArgs&, int, const std::int32_t*, std::int32_t*) {
  DEFA_CHECK(false, "quill backend: NEON kernels are not compiled into this binary");
}

#endif  // DEFA_NEON_REAL

}  // namespace defa::kernels::simd_detail
