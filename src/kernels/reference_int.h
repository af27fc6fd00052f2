#pragma once

/// \file reference_int.h
/// The `reference` backend's INTn gather-aggregate over one range of
/// queries, on the calling thread.  The backend's run_msgs_int fans it out
/// over query chunks; the encoder's fused INTn layer pass
/// (core/fused_layer.h) calls it on chunk-local probabilities and
/// locations.  One loop serves both, so they cannot drift apart.
///
/// Per kept point (keep byte nonzero, or no mask): the probability's
/// fraction code; a point whose code is 0 contributes nothing and is
/// skipped before nn::bi_locate, unless `freq` is set.  With `freq` the
/// in-bounds bilinear neighbors of every kept point are counted first,
/// code 0 or not — exactly what prune::count_sampled_frequency counts.
/// The loop has an AVX2 tier (reference_avx2.cpp) that vectorizes the
/// channel loop and is bit-identical to the scalar one.

#include <cstdint>

#include "config/model_config.h"
#include "prune/fwp.h"

namespace defa::kernels {

/// Flat argument view of one query range [0, n) of the reference INTn
/// gather-aggregate.  Every per-query pointer starts at the range's first
/// query; `codes` is the whole value-code matrix.
struct IntGatherRange {
  const ModelConfig* m = nullptr;
  std::int64_t n = 0;                  ///< queries in the range
  const std::int16_t* codes = nullptr;  ///< INTn value codes, (N_in x D)
  int act_bits = 12;                   ///< value-code width
  float out_scale = 1.0f;              ///< value-code scale for the output
  int frac_bits = 12;                  ///< t0/t1 and probability width
  const float* probs = nullptr;        ///< (n, H, L*P)
  const float* locs = nullptr;         ///< (n, H, L, P, 2)
  const std::uint8_t* keep = nullptr;  ///< (n, H, L, P) keep bytes; nullptr keeps all
  float* out = nullptr;                ///< (n, D), every element written
  prune::FreqCounter* freq = nullptr;  ///< when set, counts kept points' neighbors
};

/// Run the range: the AVX2 tier when it is compiled in, the CPU has AVX2
/// and act_bits + frac_bits fits its int32 lanes, else the scalar loop.
void reference_int_gather(const IntGatherRange& a);

}  // namespace defa::kernels
