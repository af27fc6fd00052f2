#pragma once

/// \file fused_layer.h
/// The INTn encoder layer as one fused pass over its sampling points, the
/// software form of DEFA's layer fusion: in the accelerator, logit and
/// offset generation, range narrowing, PAP, grid-sampling and the next
/// block's frequency count share one datapath, and no intermediate
/// leaves the chip.
///
/// Pass 0 is one read-only parallel pass taking the two per-tensor fits:
/// the logits' max |logit| (quant::QuantSpec::fit) and the offsets'
/// max |loc - center| (prune::quantize_and_clamp's first pass).  Maxima do
/// not depend on order.  Pass 1 runs over chunks of queries; each chunk,
/// in tiles of about kSumBlock points held in chunk-local scratch,
/// fake-quantizes and softmaxes its logit rows, writes its PAP mask bytes,
/// pruned count and dropped-mass block partials, requantizes and clamps
/// its offsets, and runs the reference INTn gather-aggregate
/// (kernels/reference_int.h) on those probabilities and locations, which
/// also counts every kept point's bilinear neighbors for FWP.  The moved
/// locations and the quantized probabilities are never materialized.
///
/// Chunks hold whole kSumBlock blocks of points (block_aligned_chunks), so
/// each dropped-mass partial is added serially in one chunk, as pap_prune
/// adds it.  The result equals, bit for bit, the unfused chain it
/// replaces, which stays as the fp32 path and as the test oracle:
///   probs = nn::quantized_softmax_lastdim(logits, bits);
///   quantize_and_clamp(m, ref_norm, bits, ranges, locs, moved);
///   mask = pap_prune(m, probs, tau, &pap);
///   out = reference run_msgs_int(values, probs, moved, mask, frac_bits = bits);
///   freq = count_sampled_frequency(m, moved, mask).

#include <cstdint>
#include <optional>

#include "common/parallel.h"
#include "config/hw_config.h"
#include "config/model_config.h"
#include "nn/msdeform.h"
#include "prune/fwp.h"
#include "prune/masks.h"
#include "prune/pap.h"
#include "prune/range.h"
#include "quant/fixed_point.h"
#include "tensor/tensor.h"

namespace defa::core {

/// What one fused INTn layer pass computes.
struct FusedLayerSpec {
  int bits = 12;                      ///< logit, offset and fraction width
  std::optional<double> pap_tau;      ///< PAP threshold; nullopt: no PAP
  const RangeSpec* ranges = nullptr;  ///< range narrowing; nullptr: none
  bool count_frequency = false;       ///< FWP's sampled-frequency count
};

/// What one fused INTn layer pass produces.
struct FusedLayerResult {
  Tensor out;                   ///< (N, D) gather-aggregate output
  prune::PointMask point_mask;  ///< the PAP mask; all-keep without PAP
  std::int64_t kept_points = 0;
  prune::PapStats pap;          ///< zero without PAP
  prune::ClampStats clamp;      ///< zero without ranges
  std::optional<prune::FreqCounter> freq;  ///< with count_frequency
};

/// Run one INTn layer on `fields` (logits (N, H, L*P), locations
/// (N, H, L, P, 2)) around `ref_norm`, gathering from the value codes
/// `values` (N_in, D).  `concurrency` sets the chunking only (tests pass 1
/// to run one chunk); the result does not depend on it.
[[nodiscard]] FusedLayerResult run_fused_int_layer(const ModelConfig& m, const Tensor& ref_norm,
                                                   const nn::MsdaFields& fields,
                                                   const quant::QTensor& values,
                                                   const FusedLayerSpec& spec,
                                                   int concurrency = parallel_concurrency());

}  // namespace defa::core
