#include "core/msgs.h"

namespace defa::core {

namespace {

void check_shapes(const ModelConfig& m, const std::vector<std::int64_t>& values_shape,
                  const Tensor& probs, const Tensor& locs) {
  DEFA_CHECK(values_shape.size() == 2 && values_shape[0] == m.n_in() &&
                 values_shape[1] == m.d_model,
             "values must be (N_in, D)");
  DEFA_CHECK(probs.rank() == 3 && probs.dim(0) == m.n_in(), "probs must be (N, H, L*P)");
  DEFA_CHECK(locs.rank() == 5 && locs.dim(0) == m.n_in(), "locs must be (N, H, L, P, 2)");
}

kernels::MsgsSpec to_spec(const MsgsOptions& options) {
  kernels::MsgsSpec spec;
  spec.point_mask = options.point_mask;
  spec.quantized = options.quantized;
  spec.act_bits = options.act_bits;
  spec.frac_bits = options.frac_bits;
  spec.plan = options.plan;
  spec.locality = options.locality;
  return spec;
}

}  // namespace

Tensor run_msgs(const ModelConfig& m, const Tensor& values, const Tensor& probs,
                const Tensor& locs, const MsgsOptions& options) {
  check_shapes(m, values.shape(), probs, locs);
  return kernels::backend_or_default(options.backend)
      .run_msgs(m, values, probs, locs, to_spec(options));
}

Tensor run_msgs(const ModelConfig& m, const quant::QTensor& values, const Tensor& probs,
                const Tensor& locs, const MsgsOptions& options) {
  check_shapes(m, values.shape(), probs, locs);
  return kernels::backend_or_default(options.backend)
      .run_msgs_int(m, values, probs, locs, to_spec(options));
}

}  // namespace defa::core
