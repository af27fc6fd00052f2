#pragma once

/// \file msgs.h
/// Production MSGS + aggregation entry point of the functional model: one
/// code path that supports point masks (PAP), pruned value rows (FWP pixels
/// are zeroed before projection) and the INTn hardware datapath (Horner BI
/// on integer codes, Sec. 4.3).
///
/// The numeric work itself lives in a pluggable `kernels::Backend`
/// (src/kernels/backend.h): `run_msgs` validates shapes and dispatches to
/// the backend named in the options (default: the process default —
/// `DEFA_BACKEND` or "reference").  The unmasked fp32 configuration
/// reproduces nn::msgs_aggregate_ref bit-for-bit in fp32 on every backend
/// (covered by tests/test_kernels.cpp).

#include "config/model_config.h"
#include "kernels/backend.h"
#include "prune/masks.h"
#include "quant/fixed_point.h"
#include "tensor/tensor.h"

namespace defa::core {

struct MsgsOptions {
  /// Points pruned by PAP are skipped entirely (no BI, no aggregation).
  const prune::PointMask* point_mask = nullptr;
  /// Run the integer datapath: values/probs/fractions quantized to the
  /// given widths, BI in Horner form on codes, aggregation in fixed point.
  bool quantized = false;
  int act_bits = 12;   ///< value-code width
  int frac_bits = 12;  ///< t0/t1 and probability fraction width
  /// Compute backend; nullptr selects kernels::default_backend().
  const kernels::Backend* backend = nullptr;
  /// Optional cached sampling plan for `locs` (see kernels/plan.h); used
  /// by plan-consuming backends, ignored by the reference backend.
  const kernels::SamplingPlan* plan = nullptr;
  /// Optional cached gather-locality schedule derived from `plan`; used by
  /// reordering backends (quill), ignored by everything else.
  const kernels::LocalityPlan* locality = nullptr;
};

/// Grid-sample `values` (N_in x D) at `locs` (N, H, L, P, 2) and aggregate
/// with `probs` (N, H, L*P).  Returns the (N, D) head-concatenated output.
[[nodiscard]] Tensor run_msgs(const ModelConfig& m, const Tensor& values,
                              const Tensor& probs, const Tensor& locs,
                              const MsgsOptions& options);

/// The INTn datapath on value codes the caller already quantized (the
/// value projection's output, core::project_value_codes): the code width
/// is `values.spec().bits`; `options.quantized` and `act_bits` are
/// ignored.
[[nodiscard]] Tensor run_msgs(const ModelConfig& m, const quant::QTensor& values,
                              const Tensor& probs, const Tensor& locs,
                              const MsgsOptions& options);

}  // namespace defa::core
