// The `fused` backend: the optimized CPU implementation of the fused
// MSGS + aggregation kernel.
//
// Three ideas, in execution order:
//  1. **Sampling plan (SoA).**  Bilinear corner discovery — floor, 2x2
//     neighborhood, per-neighbor bounds checks, token flattening — is
//     hoisted out of the hot loop into a `SamplingPlan` (level-major SoA
//     of value-row indices + fractions).  Callers that run one geometry
//     many times (the EncoderPipeline's dense per-layer fields, the
//     microbench) pass a cached plan; otherwise one is built on the spot.
//  2. **Skip-don't-gather PAP handling, branchless channels.**  A masked
//     point costs one predictable branch and zero arithmetic (pruning
//     removes iterations), and out-of-bounds corners resolve to a shared
//     zero row, so the per-channel loop carries no padding branches at
//     all — unlike the reference path, whose four nullptr selects sit
//     inside the gather.  (Compacting survivors into dense per-query
//     point lists first was tried and measured *slower* — the list
//     build/indirection cost more than the branch it removed.)
//  3. **d_head-contiguous vector loop.**  Per point the aggregation is one
//     straight-line loop over the head's contiguous channel slice with all
//     row pointers and scalars hoisted; the compiler vectorizes it at the
//     target ISA width (add -march=native via the DEFA_KERNELS_NATIVE
//     cmake knob to widen it).
//
// Bit-exactness: per output channel the accumulation chain visits the
// same surviving points in the same (l, p) order and performs the same
// Horner-form operations on the same operands as the reference backend,
// so fp32 results are bit-identical and INTn results are exactly equal.
// tests/test_kernels.cpp enforces both.  matmul/linear/softmax delegate
// to the nn/ kernels — MSGS is the operator the paper shows dominates,
// and the one this backend rewrites.

#include <vector>

#include "common/parallel.h"
#include "kernels/backend.h"
#include "kernels/plan.h"
#include "nn/bilinear.h"
#include "nn/linear.h"
#include "nn/softmax.h"
#include "quant/fixed_point.h"
#include "quant/qmsgs.h"

namespace defa::kernels {

namespace {

/// fp32 aggregation loop body.  DH > 0 is a compile-time head width (the
/// common 8/16/32/64 cases): the channel loops fully unroll with no
/// prologue, and the per-(query, head) accumulator tile lives in
/// registers across the whole point loop, so a point costs four gathers
/// and arithmetic — no output load/store per point.  DH == 0 handles any
/// runtime width by accumulating straight into the (zero-initialized)
/// output row — same per-channel operation chain, one load/store more
/// per point.
template <int DH>
void run_fp32_impl(const ModelConfig& m, const Tensor& values, const Tensor& probs,
                   const SamplingPlan& plan, const prune::PointMask* pmask,
                   Tensor& out) {
  const int dh = DH > 0 ? DH : m.d_head();
  const int lp = m.points_per_head();
  const std::int32_t* offs = plan.offsets().data();
  const float* t0s = plan.t0().data();
  const float* t1s = plan.t1().data();
  const std::vector<float> zero_row(static_cast<std::size_t>(dh), 0.0f);
  const float* zero = zero_row.data();

  parallel_for(0, m.n_in(), m.msgs_work_per_query(), [&](std::int64_t begin, std::int64_t end) {
    const float* vdata = values.data().data();
    const float* pdata = probs.data().data();
    for (std::int64_t q = begin; q < end; ++q) {
      std::span<float> orow = out.row(q);
      for (int h = 0; h < m.n_heads; ++h) {
        const float* prow = &pdata[static_cast<std::size_t>((q * m.n_heads + h) * lp)];
        float* head_out = &orow[static_cast<std::size_t>(h * dh)];
        float acc[DH > 0 ? DH : 1] = {};
        for (int l = 0; l < m.n_levels; ++l) {
          const std::int64_t base = plan.slot(l, q, h, 0);
          for (int p = 0; p < m.n_points; ++p) {
            if (pmask != nullptr && !pmask->keep(q, h, l, p)) continue;
            const std::int64_t s = (base + p) * 4;
            const float* r0 = offs[s + 0] >= 0 ? vdata + offs[s + 0] : zero;
            const float* r1 = offs[s + 1] >= 0 ? vdata + offs[s + 1] : zero;
            const float* r2 = offs[s + 2] >= 0 ? vdata + offs[s + 2] : zero;
            const float* r3 = offs[s + 3] >= 0 ? vdata + offs[s + 3] : zero;
            const float t0 = t0s[base + p];
            const float t1 = t1s[base + p];
            const float w = prow[l * m.n_points + p];
            if constexpr (DH > 0) {
              for (int c = 0; c < DH; ++c) {
                acc[c] += w * nn::bi_horner(r0[c], r1[c], r2[c], r3[c], t0, t1);
              }
            } else {
              for (int c = 0; c < dh; ++c) {
                head_out[c] += w * nn::bi_horner(r0[c], r1[c], r2[c], r3[c], t0, t1);
              }
            }
          }
        }
        if constexpr (DH > 0) {
          for (int c = 0; c < DH; ++c) head_out[c] = acc[c];
        }
      }
    }
  });
}

void run_fp32_planned(const ModelConfig& m, const Tensor& values, const Tensor& probs,
                      const SamplingPlan& plan, const prune::PointMask* pmask,
                      Tensor& out) {
  switch (m.d_head()) {
    case 8:  run_fp32_impl<8>(m, values, probs, plan, pmask, out); break;
    case 16: run_fp32_impl<16>(m, values, probs, plan, pmask, out); break;
    case 32: run_fp32_impl<32>(m, values, probs, plan, pmask, out); break;
    case 64: run_fp32_impl<64>(m, values, probs, plan, pmask, out); break;
    default: run_fp32_impl<0>(m, values, probs, plan, pmask, out); break;
  }
}

void run_quantized_planned(const ModelConfig& m, const quant::QTensor& qvalues,
                           const Tensor& probs, const SamplingPlan& plan,
                           const MsgsSpec& spec, Tensor& out) {
  const int dh = m.d_head();
  const int lp = m.points_per_head();
  const std::int32_t* offs = plan.offsets().data();
  const float* t0s = plan.t0().data();
  const float* t1s = plan.t1().data();
  const float out_scale = qvalues.spec().scale;
  const std::vector<std::int16_t> zero_row(static_cast<std::size_t>(dh), 0);
  const std::int16_t* zero = zero_row.data();

  parallel_for(0, m.n_in(), m.msgs_work_per_query(), [&](std::int64_t begin, std::int64_t end) {
    std::vector<std::int32_t> acc(static_cast<std::size_t>(dh));
    const std::int16_t* codes = qvalues.codes().data();
    const float* pdata = probs.data().data();
    for (std::int64_t q = begin; q < end; ++q) {
      std::span<float> orow = out.row(q);
      for (int h = 0; h < m.n_heads; ++h) {
        const float* prow = &pdata[static_cast<std::size_t>((q * m.n_heads + h) * lp)];
        std::fill(acc.begin(), acc.end(), 0);
        for (int l = 0; l < m.n_levels; ++l) {
          const std::int64_t base = plan.slot(l, q, h, 0);
          for (int p = 0; p < m.n_points; ++p) {
            if (spec.point_mask != nullptr && !spec.point_mask->keep(q, h, l, p)) continue;
            const std::int32_t prob_q =
                quant::to_fraction_code(prow[l * m.n_points + p], spec.frac_bits);
            if (prob_q == 0) continue;
            const std::int64_t s = (base + p) * 4;
            const std::int16_t* r0 = offs[s + 0] >= 0 ? codes + offs[s + 0] : zero;
            const std::int16_t* r1 = offs[s + 1] >= 0 ? codes + offs[s + 1] : zero;
            const std::int16_t* r2 = offs[s + 2] >= 0 ? codes + offs[s + 2] : zero;
            const std::int16_t* r3 = offs[s + 3] >= 0 ? codes + offs[s + 3] : zero;
            const std::int32_t t0_q = quant::to_fraction_code(t0s[base + p], spec.frac_bits);
            const std::int32_t t1_q = quant::to_fraction_code(t1s[base + p], spec.frac_bits);
            for (int c = 0; c < dh; ++c) {
              const std::int32_t bi =
                  quant::bi_horner_int(r0[c], r1[c], r2[c], r3[c], t0_q, t1_q,
                                       spec.frac_bits);
              acc[static_cast<std::size_t>(c)] +=
                  quant::ag_weight_int(bi, prob_q, spec.frac_bits);
            }
          }
        }
        float* head_out = &orow[static_cast<std::size_t>(h) * dh];
        for (int c = 0; c < dh; ++c) {
          head_out[c] = static_cast<float>(acc[static_cast<std::size_t>(c)]) * out_scale;
        }
      }
    }
  });
}

class FusedBackend final : public Backend {
 public:
  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "fused";
    return kName;
  }

  [[nodiscard]] bool wants_plan() const noexcept override { return true; }

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
    SamplingPlan local;
    const SamplingPlan* plan = spec.plan;
    if (plan == nullptr) {
      local = SamplingPlan::build(m, locs);
      plan = &local;
    }
    DEFA_CHECK(plan->matches(m), "fused backend: sampling plan does not match the model");
    Tensor out({m.n_in(), m.d_model});
    if (codes != nullptr) {
      run_quantized_planned(m, *codes, probs, *plan, spec, out);
    } else {
      run_fp32_planned(m, *values, probs, *plan, spec.point_mask, out);
    }
    return out;
  }
};

}  // namespace

namespace detail {
std::unique_ptr<Backend> make_fused_backend() { return std::make_unique<FusedBackend>(); }
}  // namespace detail

}  // namespace defa::kernels
