// The `simd` backend: explicitly vectorized MSGS + aggregation.
//
// Where `fused` leaves vectorization to the compiler, this backend commits
// to it: the per-point channel loop runs as AVX2 (x86-64) or NEON
// (aarch64) intrinsics chosen by *runtime* dispatch — one portable binary,
// CPUID-probed at the call site (src/common/simd.h) — with this file's
// scalar tier as the always-available fallback and semantic model.  The
// INTn quantized path is vectorized too, replacing the scalar Horner
// round-trip that kept `fused` at ~1.2x on quantized configs.
//
// Dispatch policy (see docs/KERNELS.md):
//  * DEFA_SIMD unset/"auto": best tier that is both compiled into the
//    binary (DEFA_KERNELS_SIMD cmake knob) and supported by this CPU.
//  * DEFA_SIMD=scalar: force the portable fallback (how CI proves the
//    shim bit-identical without special hardware).
//  * DEFA_SIMD=avx2|neon: *require* the tier.  If the build or the CPU
//    cannot honor it the backend reports itself unavailable — loudly —
//    instead of silently degrading and skewing a measurement.
//
// Bit-exactness: vector lanes execute exactly the scalar operation chain
// (nn::bi_horner / quant::bi_horner_int) on the same operands in the same
// order; vectorization runs across *channels*, whose accumulator chains
// are independent, never across points.  The INTn vector tiers keep their
// fraction multiplies in int32 only where the intermediates provably fit
// (act_bits + frac_bits <= kMaxVectorQuantBits); wider configs take the
// scalar tier's int64 path, still exactly equal to reference.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "kernels/backend.h"
#include "kernels/plan.h"
#include "kernels/simd_kernels.h"
#include "nn/bilinear.h"
#include "nn/linear.h"
#include "nn/softmax.h"
#include "quant/fixed_point.h"
#include "quant/qmsgs.h"

namespace defa::kernels {
namespace simd_detail {

// ------------------------------------------------------------- scalar tier
//
// The portable fallback: same structure as the vector tiers (plan-driven
// gather, zero-row padding, per-(query, head) accumulator) with the
// channel loop in scalar form.  This is the code the AVX2/NEON tiers must
// reproduce lane-for-lane.

void run_fp32_scalar(const Fp32Args& a) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
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
            for (int c = 0; c < dh; ++c) {
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

void run_quant_scalar(const QuantArgs& a) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int lp = m.points_per_head();
  const std::int32_t* offs = a.plan->offsets().data();
  const float* t0s = a.plan->t0().data();
  const float* t1s = a.plan->t1().data();
  const std::vector<std::int16_t> zero_row(static_cast<std::size_t>(dh), 0);
  const std::int16_t* zero = zero_row.data();

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
            for (int c = 0; c < dh; ++c) {
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

// --------------------------------------------------- level-scoped scalar tier
//
// The quill backend's inner loops (see simd_kernels.h): one level's points
// for every query, visited in `order`.  fp32 resumes the accumulator chain
// through the output row (load, add the level's points, implicit store per
// add) — bit-identical to the one-pass chain because fp32 memory
// round-trips bits; INTn accumulates into the caller's int32 scratch.

void run_fp32_level_scalar(const Fp32Args& a, int level, const std::int32_t* order) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
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
          for (int c = 0; c < dh; ++c) {
            head_out[c] += w * nn::bi_horner(r0[c], r1[c], r2[c], r3[c], t0, t1);
          }
        }
      }
    }
  });
}

void run_quant_level_scalar(const QuantArgs& a, int level, const std::int32_t* order,
                            std::int32_t* acc) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int lp = m.points_per_head();
  const std::int32_t* offs = a.plan->offsets().data();
  const float* t0s = a.plan->t0().data();
  const float* t1s = a.plan->t1().data();
  const std::vector<std::int16_t> zero_row(static_cast<std::size_t>(dh), 0);
  const std::int16_t* zero = zero_row.data();

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
          for (int c = 0; c < dh; ++c) {
            const std::int32_t bi = quant::bi_horner_int(r0[c], r1[c], r2[c], r3[c],
                                                         t0_q, t1_q, a.frac_bits);
            arow[c] += quant::ag_weight_int(bi, prob_q, a.frac_bits);
          }
        }
      }
    }
  });
}

namespace {

using simd::Isa;

bool tier_compiled(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx2: return avx2_compiled();
    case Isa::kNeon: return neon_compiled();
    case Isa::kScalar: break;
  }
  return true;
}

}  // namespace

TierResolution resolve_tier() {
  const simd::IsaRequest req = simd::requested_isa();
  TierResolution r;
  if (!req.valid) {
    r.reason = "unknown DEFA_SIMD value '" + req.raw +
               "' (known: auto, scalar, avx2, neon)";
    return r;
  }
  if (req.forced) {
    if (!tier_compiled(req.isa)) {
      r.reason = std::string("DEFA_SIMD=") + simd::isa_name(req.isa) + " but the " +
                 simd::isa_name(req.isa) +
                 " kernels are not compiled into this binary (DEFA_KERNELS_SIMD "
                 "cmake knob off, or wrong target architecture)";
    } else if (!simd::cpu_supports(req.isa)) {
      r.reason = std::string("DEFA_SIMD=") + simd::isa_name(req.isa) +
                 " but this CPU does not support " + simd::isa_name(req.isa);
    } else {
      r.isa = req.isa;
    }
    return r;
  }
  for (const Isa candidate : {Isa::kAvx2, Isa::kNeon}) {
    if (tier_compiled(candidate) && simd::cpu_supports(candidate)) {
      r.isa = candidate;
      return r;
    }
  }
  r.isa = Isa::kScalar;
  return r;
}

}  // namespace simd_detail

namespace {

using simd::Isa;
using simd_detail::TierResolution;

class SimdBackend final : public Backend {
 public:
  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "simd";
    return kName;
  }

  [[nodiscard]] bool wants_plan() const noexcept override { return true; }

  [[nodiscard]] std::string unavailable_reason() const override {
    return simd_detail::resolve_tier().reason;
  }

  [[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b) const override {
    return nn::matmul(a, b);
  }

  [[nodiscard]] Tensor linear(const Tensor& x, const Tensor& w,
                              const Tensor* bias) const override {
    return nn::linear(x, w, bias);
  }

  [[nodiscard]] Tensor softmax_lastdim(const Tensor& t) const override {
    return nn::softmax_lastdim(t);
  }

  [[nodiscard]] Tensor run_msgs_fp32(const ModelConfig& m, const Tensor& values,
                                     const Tensor& probs, const Tensor& locs,
                                     const MsgsSpec& spec) const override {
    return run(m, &values, nullptr, probs, locs, spec);
  }

  [[nodiscard]] Tensor run_msgs_int(const ModelConfig& m, const quant::QTensor& values,
                                    const Tensor& probs, const Tensor& locs,
                                    const MsgsSpec& spec) const override {
    return run(m, nullptr, &values, probs, locs, spec);
  }

 private:
  /// The fp32 path on `values`, or the INTn path on `codes` (one is null).
  static Tensor run(const ModelConfig& m, const Tensor* values, const quant::QTensor* codes,
                    const Tensor& probs, const Tensor& locs, const MsgsSpec& spec) {
    // Resolved per call, like kernels::default_backend_name re-reads
    // DEFA_BACKEND: getenv cost is noise next to the kernel, and tests can
    // flip tiers without rebuilding process state.
    const TierResolution res = simd_detail::resolve_tier();
    DEFA_CHECK(res.reason.empty(), "simd backend unavailable: " + res.reason);

    SamplingPlan local;
    const SamplingPlan* plan = spec.plan;
    if (plan == nullptr) {
      local = SamplingPlan::build(m, locs);
      plan = &local;
    }
    DEFA_CHECK(plan->matches(m), "simd backend: sampling plan does not match the model");

    Tensor out({m.n_in(), m.d_model});
    if (codes != nullptr) {
      const quant::QTensor& qvalues = *codes;
      simd_detail::QuantArgs qa;
      qa.m = &m;
      qa.codes = qvalues.codes().data();
      qa.probs = probs.data().data();
      qa.plan = plan;
      qa.mask = spec.point_mask;
      qa.out = out.data().data();
      qa.out_scale = qvalues.spec().scale;
      qa.frac_bits = spec.frac_bits;
      // Wide configs would overflow the vector tiers' int32 intermediates;
      // the scalar tier multiplies in int64 like the reference backend.
      const bool vector_safe =
          qvalues.spec().bits + spec.frac_bits <= simd_detail::kMaxVectorQuantBits;
      switch (vector_safe ? res.isa : Isa::kScalar) {
        case Isa::kAvx2: simd_detail::run_quant_avx2(qa); break;
        case Isa::kNeon: simd_detail::run_quant_neon(qa); break;
        case Isa::kScalar: simd_detail::run_quant_scalar(qa); break;
      }
    } else {
      simd_detail::Fp32Args fa;
      fa.m = &m;
      fa.values = values->data().data();
      fa.probs = probs.data().data();
      fa.plan = plan;
      fa.mask = spec.point_mask;
      fa.out = out.data().data();
      switch (res.isa) {
        case Isa::kAvx2: simd_detail::run_fp32_avx2(fa); break;
        case Isa::kNeon: simd_detail::run_fp32_neon(fa); break;
        case Isa::kScalar: simd_detail::run_fp32_scalar(fa); break;
      }
    }
    return out;
  }
};

}  // namespace

namespace detail {
std::unique_ptr<Backend> make_simd_backend() { return std::make_unique<SimdBackend>(); }
}  // namespace detail

}  // namespace defa::kernels
