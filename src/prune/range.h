#pragma once

/// \file range.h
/// Level-wise range narrowing (Sec. 4.1, Fig. 4).
///
/// Sampling locations are clamped to a bounded box of per-level radius R_l
/// around the query's reference point.  The bound limits the on-chip
/// feature-map working set to a sliding window of (2R+2)^2 pixels per level;
/// narrowing coarse levels saves ~25% SRAM versus a unified radius.

#include "config/hw_config.h"
#include "config/model_config.h"
#include "tensor/tensor.h"

namespace defa::prune {

struct ClampStats {
  std::int64_t total_points = 0;
  std::int64_t clamped_points = 0;  ///< points moved by clamping
  double max_excess_px = 0.0;       ///< largest clamp distance observed
  /// Per-level clamped-point fractions.
  std::vector<double> level_fraction;

  [[nodiscard]] double fraction_clamped() const noexcept {
    return total_points == 0
               ? 0.0
               : static_cast<double>(clamped_points) / static_cast<double>(total_points);
  }
};

/// Clamp every sampling location in `locs` (N, H, L, P, 2) to the bounded
/// range of its level, centered on the query's reference point.  Modifies
/// `locs` in place and reports how many points were affected.
ClampStats clamp_to_range(const ModelConfig& m, const Tensor& ref_norm,
                          const RangeSpec& ranges, Tensor& locs);

/// The INTn offset datapath feeding range narrowing, in two passes over the
/// points of `locs` (N, H, L, P, 2).  Pass 1 takes the max-abs of the
/// offsets deltaP = loc - center; pass 2 recomputes each offset,
/// requantizes it, `bits` wide, against the one per-tensor spec fitted
/// from that max, writes center + the result into `out` and, when
/// `ranges` is given, clamps it to its level's range there.  Coarse widths
/// (INT8) visibly shift sampling positions, the dominant cause of the
/// paper's 9.7-AP INT8 collapse.  `out` is reallocated only when its shape
/// differs from `locs`'; every element is written.  `out` and the returned
/// stats (zero without `ranges`) equal, byte for byte, copying `locs`,
/// turning every location into its offset, fitting a QuantSpec over them,
/// writing back center + the requantized offset, and then running
/// clamp_to_range.
ClampStats quantize_and_clamp(const ModelConfig& m, const Tensor& ref_norm, int bits,
                              const RangeSpec* ranges, const Tensor& locs, Tensor& out);

/// On-chip storage (bytes) needed to buffer the bounded-range windows of all
/// levels at full hidden dimension, as sized by the architecture.
[[nodiscard]] std::int64_t range_window_bytes(const ModelConfig& m, const RangeSpec& ranges,
                                              int act_bits);

}  // namespace defa::prune
