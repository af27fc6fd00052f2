// The `reference` backend: the historical scalar code paths, verbatim.
//
// linear/GEMM and softmax delegate to the nn/ kernels; the fused MSGS +
// aggregation kernel is the query-at-a-time loop that used to live in
// core/msgs.cpp (fp32 path identical to nn::msgs_aggregate_ref plus point
// masking; INTn path per Sec. 4.3).  This backend is the bit-exactness
// anchor every optimized backend is tested against — keep it boring.
// The INTn loop has an AVX2 tier (reference_avx2.cpp) that vectorizes its
// channel loop and is bit-identical to the scalar loop below.

#include <array>
#include <vector>

#include "common/parallel.h"
#include "common/simd.h"
#include "kernels/backend.h"
#include "kernels/simd_kernels.h"
#include "nn/bilinear.h"
#include "nn/linear.h"
#include "nn/softmax.h"
#include "quant/fixed_point.h"
#include "quant/qmsgs.h"

namespace defa::kernels {

namespace {

/// fp32 path: identical math to nn::msgs_aggregate_ref, plus point masking.
void run_fp32(const ModelConfig& m, const Tensor& values, const Tensor& probs,
              const Tensor& locs, const prune::PointMask* pmask, Tensor& out) {
  const int dh = m.d_head();
  parallel_for(0, m.n_in(), m.msgs_work_per_query(), [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t q = begin; q < end; ++q) {
      std::span<float> orow = out.row(q);
      for (int h = 0; h < m.n_heads; ++h) {
        std::span<float> head_out = orow.subspan(static_cast<std::size_t>(h * dh),
                                                 static_cast<std::size_t>(dh));
        for (int l = 0; l < m.n_levels; ++l) {
          for (int p = 0; p < m.n_points; ++p) {
            if (pmask != nullptr && !pmask->keep(q, h, l, p)) continue;
            const float weight = probs(q, h, static_cast<std::int64_t>(l) * m.n_points + p);
            nn::bi_sample_accumulate(m, values, l, locs(q, h, l, p, 0),
                                     locs(q, h, l, p, 1), h * dh, dh, weight, head_out);
          }
        }
      }
    }
  });
}

/// The INTn AVX2 tier runs when it is compiled in, the CPU has AVX2 and
/// its int32 fraction multiplies are exact for the widths.
bool use_avx2(int act_bits, int frac_bits) {
  static const bool compiled_and_supported =
      simd_detail::reference_avx2_compiled() && simd::cpu_supports(simd::Isa::kAvx2);
  return compiled_and_supported && act_bits + frac_bits <= simd_detail::kMaxVectorQuantBits;
}

/// Integer datapath: INTn value codes, Q0.frac fractions, Horner BI,
/// fixed-point aggregation with int32 accumulation at the value scale.
void run_quantized(const ModelConfig& m, const quant::QTensor& qvalues, const Tensor& probs,
                   const Tensor& locs, const MsgsSpec& opt, Tensor& out) {
  const float out_scale = qvalues.spec().scale;
  if (use_avx2(qvalues.spec().bits, opt.frac_bits)) {
    simd_detail::RefQuantArgs a;
    a.m = &m;
    a.codes = qvalues.codes().data();
    a.probs = probs.data().data();
    a.locs = locs.data().data();
    a.mask = opt.point_mask;
    a.out = out.data().data();
    a.out_scale = out_scale;
    a.frac_bits = opt.frac_bits;
    simd_detail::run_reference_quant_avx2(a);
    return;
  }
  const int dh = m.d_head();
  const std::int64_t d = m.d_model;

  parallel_for(0, m.n_in(), m.msgs_work_per_query(), [&](std::int64_t begin, std::int64_t end) {
    std::vector<std::int32_t> acc(static_cast<std::size_t>(dh));
    for (std::int64_t q = begin; q < end; ++q) {
      std::span<float> orow = out.row(q);
      for (int h = 0; h < m.n_heads; ++h) {
        std::fill(acc.begin(), acc.end(), 0);
        for (int l = 0; l < m.n_levels; ++l) {
          for (int p = 0; p < m.n_points; ++p) {
            if (opt.point_mask != nullptr && !opt.point_mask->keep(q, h, l, p)) continue;
            const float prob = probs(q, h, static_cast<std::int64_t>(l) * m.n_points + p);
            const std::int32_t prob_q = quant::to_fraction_code(prob, opt.frac_bits);
            if (prob_q == 0) continue;

            const nn::BiPoint bp =
                nn::bi_locate(locs(q, h, l, p, 0), locs(q, h, l, p, 1));
            const std::int32_t t0_q = quant::to_fraction_code(bp.t0, opt.frac_bits);
            const std::int32_t t1_q = quant::to_fraction_code(bp.t1, opt.frac_bits);

            // Gather neighbor code rows (nullptr => zero padding).
            std::array<const std::int16_t*, 4> nb{nullptr, nullptr, nullptr, nullptr};
            nn::for_each_neighbor(m, l, bp, [&](int which, std::int64_t token) {
              nb[static_cast<std::size_t>(which)] =
                  &qvalues.codes()[static_cast<std::size_t>(token * d + h * dh)];
            });

            for (int c = 0; c < dh; ++c) {
              const std::int32_t n0 = nb[0] != nullptr ? nb[0][c] : 0;
              const std::int32_t n1 = nb[1] != nullptr ? nb[1][c] : 0;
              const std::int32_t n2 = nb[2] != nullptr ? nb[2][c] : 0;
              const std::int32_t n3 = nb[3] != nullptr ? nb[3][c] : 0;
              const std::int32_t s =
                  quant::bi_horner_int(n0, n1, n2, n3, t0_q, t1_q, opt.frac_bits);
              acc[static_cast<std::size_t>(c)] +=
                  quant::ag_weight_int(s, prob_q, opt.frac_bits);
            }
          }
        }
        for (int c = 0; c < dh; ++c) {
          orow[static_cast<std::size_t>(h * dh + c)] =
              static_cast<float>(acc[static_cast<std::size_t>(c)]) * out_scale;
        }
      }
    }
  });
}

class ReferenceBackend final : public Backend {
 public:
  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "reference";
    return kName;
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
    Tensor out({m.n_in(), m.d_model});
    run_fp32(m, values, probs, locs, spec.point_mask, out);
    return out;
  }

  [[nodiscard]] Tensor run_msgs_int(const ModelConfig& m, const quant::QTensor& values,
                                    const Tensor& probs, const Tensor& locs,
                                    const MsgsSpec& spec) const override {
    Tensor out({m.n_in(), m.d_model});
    run_quantized(m, values, probs, locs, spec, out);
    return out;
  }
};

}  // namespace

namespace detail {
std::unique_ptr<Backend> make_reference_backend() {
  return std::make_unique<ReferenceBackend>();
}
}  // namespace detail

}  // namespace defa::kernels
