// The `quill` backend: cache-local MSGS execution for large scenes.
//
// On DETR-class spatial shapes the value memory of one layer far exceeds
// L2, and the plan-driven gather of `fused`/`simd` becomes a random-access
// miss storm — the measured speedup collapses from ~3.2x (tiny scenes) to
// ~1.9x.  QUILL's observation (PAPERS.md) is that the fix is algorithmic:
// queries whose sampling footprints land in the same region of value
// memory should be executed together, so the region is pulled through the
// cache once instead of once per query.
//
// This backend realizes that in software:
//  * A `LocalityPlan` (kernels/plan.h) buckets each level's queries by the
//    value-memory tile their resolved footprint first touches — tile size
//    from the DEFA_L2_KB knob — and caches the resulting per-level visit
//    permutation in the `PlanCache` next to the `SamplingPlan`, so the
//    reorder is planned once per layer.
//  * Execution walks levels sequentially (the plan's level-major SoA
//    layout already keeps each level's gathers in one token range) and
//    visits queries in locality order inside each level, using the level
//    -scoped simd-tier kernels (simd_kernels.h) so fp32 and INTn stay
//    vectorized with the same runtime AVX2/NEON/scalar dispatch as `simd`.
//
// Bit-exactness (the differential harness enforces it): only the order
// *queries* are visited changes; every query's own accumulation chain —
// levels ascending, points ascending, per-channel — is exactly the
// reference chain.  fp32 partials live in the zero-initialized output row
// between levels, which is exact because fp32 load/store round-trips bit
// patterns.  INTn partials do NOT round-trip through float, so they
// accumulate in a per-call (N x D) int32 scratch and convert to float in
// one fixed-order pass after the last level — the "permute-then-scatter"
// scheme, with int32 adds that are exact regardless of order anyway.
//
// DEFA_QUILL_REORDER=off keeps the level-sequential walk but visits
// queries in identity order — the control the microbench locality section
// uses to isolate the reorder win from the level restructuring.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "kernels/backend.h"
#include "kernels/plan.h"
#include "kernels/simd_kernels.h"
#include "nn/linear.h"
#include "nn/softmax.h"
#include "quant/fixed_point.h"
#include "quant/qmsgs.h"

namespace defa::kernels {
namespace {

using simd::Isa;
using simd_detail::TierResolution;

/// DEFA_QUILL_REORDER: unset/"on"/"1" => locality order (the point of the
/// backend); "off"/"0" => identity order.  Re-read per call, like
/// DEFA_BACKEND, so benchmarks can flip it without rebuilding state.
bool reorder_enabled() {
  const char* env = std::getenv("DEFA_QUILL_REORDER");
  if (env == nullptr || *env == '\0') return true;
  const std::string v(env);
  return !(v == "off" || v == "0");
}

class QuillBackend final : public Backend {
 public:
  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "quill";
    return kName;
  }

  [[nodiscard]] bool wants_plan() const noexcept override { return true; }
  [[nodiscard]] bool wants_locality() const noexcept override { return true; }

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
    const TierResolution res = simd_detail::resolve_tier();
    DEFA_CHECK(res.reason.empty(), "quill backend unavailable: " + res.reason);

    SamplingPlan local_plan;
    const SamplingPlan* plan = spec.plan;
    if (plan == nullptr) {
      local_plan = SamplingPlan::build(m, locs);
      plan = &local_plan;
    }
    DEFA_CHECK(plan->matches(m), "quill backend: sampling plan does not match the model");

    LocalityPlan local_loc;
    const LocalityPlan* loc = spec.locality;
    if (loc == nullptr) {
      local_loc = LocalityPlan::build(m, *plan, locality_tile_elems());
      loc = &local_loc;
    }
    DEFA_CHECK(loc->matches(m), "quill backend: locality plan does not match the model");

    // Identity order under DEFA_QUILL_REORDER=off (the bench control).
    std::vector<std::int32_t> identity;
    const bool reorder = reorder_enabled();
    if (!reorder) {
      identity.resize(static_cast<std::size_t>(m.n_in()));
      std::iota(identity.begin(), identity.end(), 0);
    }
    const auto level_order = [&](int l) {
      return reorder ? loc->order(l) : identity.data();
    };

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
      // int32 partials between levels: float rows cannot hold them.
      std::vector<std::int32_t> acc(
          static_cast<std::size_t>(m.n_in()) * static_cast<std::size_t>(m.d_model), 0);
      const bool vector_safe =
          qvalues.spec().bits + spec.frac_bits <= simd_detail::kMaxVectorQuantBits;
      const Isa isa = vector_safe ? res.isa : Isa::kScalar;
      for (int l = 0; l < m.n_levels; ++l) {
        switch (isa) {
          case Isa::kAvx2:
            simd_detail::run_quant_level_avx2(qa, l, level_order(l), acc.data());
            break;
          case Isa::kNeon:
            simd_detail::run_quant_level_neon(qa, l, level_order(l), acc.data());
            break;
          case Isa::kScalar:
            simd_detail::run_quant_level_scalar(qa, l, level_order(l), acc.data());
            break;
        }
      }
      // Fixed-order scatter: the same final conversion every other INTn
      // backend performs, in plain query order.
      float* o = out.data().data();
      const float scale = qa.out_scale;
      parallel_for(0, m.n_in(), m.d_model, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t q = begin; q < end; ++q) {
          const std::size_t row = static_cast<std::size_t>(q * m.d_model);
          for (int c = 0; c < m.d_model; ++c) {
            o[row + c] = static_cast<float>(acc[row + c]) * scale;
          }
        }
      });
    } else {
      simd_detail::Fp32Args fa;
      fa.m = &m;
      fa.values = values->data().data();
      fa.probs = probs.data().data();
      fa.plan = plan;
      fa.mask = spec.point_mask;
      fa.out = out.data().data();
      for (int l = 0; l < m.n_levels; ++l) {
        switch (res.isa) {
          case Isa::kAvx2:
            simd_detail::run_fp32_level_avx2(fa, l, level_order(l));
            break;
          case Isa::kNeon:
            simd_detail::run_fp32_level_neon(fa, l, level_order(l));
            break;
          case Isa::kScalar:
            simd_detail::run_fp32_level_scalar(fa, l, level_order(l));
            break;
        }
      }
    }
    return out;
  }
};

}  // namespace

namespace detail {
std::unique_ptr<Backend> make_quill_backend() { return std::make_unique<QuillBackend>(); }
}  // namespace detail

}  // namespace defa::kernels
