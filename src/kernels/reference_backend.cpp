// The `reference` backend: the historical scalar code paths, verbatim.
//
// linear/GEMM and softmax delegate to the nn/ kernels; the fused MSGS +
// aggregation kernel is the query-at-a-time loop that used to live in
// core/msgs.cpp (fp32 path identical to nn::msgs_aggregate_ref plus point
// masking; INTn path per Sec. 4.3).  This backend is the bit-exactness
// anchor every optimized backend is tested against — keep it boring.
// The INTn loop runs one query range at a time (kernels/reference_int.h,
// shared with the encoder's fused INTn layer pass) and has an AVX2 tier
// (reference_avx2.cpp) that vectorizes its channel loop and is
// bit-identical to the scalar loop below.

#include <algorithm>
#include <array>
#include <vector>

#include "common/parallel.h"
#include "common/simd.h"
#include "kernels/backend.h"
#include "kernels/reference_int.h"
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

/// The scalar tier of reference_int_gather.  Integer datapath: INTn value
/// codes, Q0.frac fractions, Horner BI, fixed-point aggregation with int32
/// accumulation at the value scale.
void gather_scalar(const IntGatherRange& a) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int lp = m.points_per_head();
  const std::int64_t d = m.d_model;
  const int fb = a.frac_bits;
  std::vector<std::int32_t> acc(static_cast<std::size_t>(dh));
  for (std::int64_t q = 0; q < a.n; ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      const std::int64_t qh = q * m.n_heads + h;
      std::fill(acc.begin(), acc.end(), 0);
      for (int l = 0; l < m.n_levels; ++l) {
        for (int p = 0; p < m.n_points; ++p) {
          const std::int64_t i = qh * lp + l * m.n_points + p;
          if (a.keep != nullptr && a.keep[i] == 0) continue;
          const std::int32_t prob_q = quant::to_fraction_code(a.probs[i], fb);
          if (prob_q == 0 && a.freq == nullptr) continue;

          const nn::BiPoint bp = nn::bi_locate(a.locs[2 * i], a.locs[2 * i + 1]);
          // Gather neighbor code rows (nullptr => zero padding).
          std::array<const std::int16_t*, 4> nb{nullptr, nullptr, nullptr, nullptr};
          nn::for_each_neighbor(m, l, bp, [&](int which, std::int64_t token) {
            if (a.freq != nullptr) a.freq->add(token);
            nb[static_cast<std::size_t>(which)] = a.codes + token * d + h * dh;
          });
          if (prob_q == 0) continue;
          const std::int32_t t0_q = quant::to_fraction_code(bp.t0, fb);
          const std::int32_t t1_q = quant::to_fraction_code(bp.t1, fb);

          for (int c = 0; c < dh; ++c) {
            const std::int32_t n0 = nb[0] != nullptr ? nb[0][c] : 0;
            const std::int32_t n1 = nb[1] != nullptr ? nb[1][c] : 0;
            const std::int32_t n2 = nb[2] != nullptr ? nb[2][c] : 0;
            const std::int32_t n3 = nb[3] != nullptr ? nb[3][c] : 0;
            const std::int32_t s = quant::bi_horner_int(n0, n1, n2, n3, t0_q, t1_q, fb);
            acc[static_cast<std::size_t>(c)] += quant::ag_weight_int(s, prob_q, fb);
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
    IntGatherRange all;
    all.m = &m;
    all.codes = values.codes().data();
    all.act_bits = values.spec().bits;
    all.out_scale = values.spec().scale;
    all.frac_bits = spec.frac_bits;
    const std::int64_t pq = m.points_per_query();
    parallel_for(0, m.n_in(), m.msgs_work_per_query(), [&](std::int64_t q0, std::int64_t q1) {
      IntGatherRange a = all;
      a.n = q1 - q0;
      a.probs = probs.data().data() + q0 * pq;
      a.locs = locs.data().data() + q0 * pq * 2;
      a.keep = spec.point_mask != nullptr ? spec.point_mask->bytes().data() + q0 * pq : nullptr;
      a.out = out.data().data() + q0 * m.d_model;
      reference_int_gather(a);
    });
    return out;
  }
};

}  // namespace

void reference_int_gather(const IntGatherRange& a) {
  if (use_avx2(a.act_bits, a.frac_bits)) {
    simd_detail::run_reference_quant_avx2(a);
  } else {
    gather_scalar(a);
  }
}

namespace detail {
std::unique_ptr<Backend> make_reference_backend() {
  return std::make_unique<ReferenceBackend>();
}
}  // namespace detail

}  // namespace defa::kernels
