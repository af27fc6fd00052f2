#pragma once

/// \file range.h
/// Level-wise range narrowing (Sec. 4.1, Fig. 4).
///
/// Sampling locations are clamped to a bounded box of per-level radius R_l
/// around the query's reference point.  The bound limits the on-chip
/// feature-map working set to a sliding window of (2R+2)^2 pixels per level;
/// narrowing coarse levels saves ~25% SRAM versus a unified radius.

#include <array>
#include <memory>

#include "config/hw_config.h"
#include "config/model_config.h"
#include "quant/fixed_point.h"
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

/// Per-level clamp counts and the largest clamp distance of some points.
/// Partials merge by integer sums and a max, so stats() does not depend on
/// how the points were split.
struct ClampTally {
  std::array<std::int64_t, kMaxLevels> level{};
  double max_excess = 0.0;

  void merge(const ClampTally& other) noexcept;
  /// The ClampStats of `m`'s points with these counts.
  [[nodiscard]] ClampStats stats(const ModelConfig& m) const;
};

/// quantize_and_clamp's two passes over the points, one query range at a
/// time, for callers that run them inside their own pass (the encoder's
/// fused INTn layer pass).  quantize_and_clamp is
///   spec = QuantSpec::from_max_abs(max over all ranges of max_abs(...), bits);
///   requantize(spec, ...) over every range;
/// and with ranges, tally.stats(m) is its ClampStats.
class OffsetQuantizer {
 public:
  /// `ranges` (nullptr: no clamp) and `ref_norm` must outlive the object.
  OffsetQuantizer(const ModelConfig& m, const Tensor& ref_norm, const RangeSpec* ranges);
  OffsetQuantizer(const OffsetQuantizer&) = delete;
  OffsetQuantizer& operator=(const OffsetQuantizer&) = delete;
  ~OffsetQuantizer();

  /// Queries [q0, q1) of `locs`, the whole (N, H, L, P, 2) data: the
  /// NaN-skipping max |loc - center| (0 when there is none).
  [[nodiscard]] float max_abs(const float* locs, std::int64_t q0, std::int64_t q1) const;
  /// Queries [q0, q1): each location of `locs` (the whole tensor's data)
  /// turned into its offset, requantized with `spec` and written back as
  /// center + offset to `out`, where out[0] is query q0's first float;
  /// with ranges, clamped there and tallied into `tally`.
  void requantize(const quant::QuantSpec& spec, const float* locs, float* out, std::int64_t q0,
                  std::int64_t q1, ClampTally& tally) const;

  /// The points' geometry; defined in range.cpp.
  struct Geometry;

 private:
  std::unique_ptr<Geometry> geo_;
};

/// On-chip storage (bytes) needed to buffer the bounded-range windows of all
/// levels at full hidden dimension, as sized by the architecture.
[[nodiscard]] std::int64_t range_window_bytes(const ModelConfig& m, const RangeSpec& ranges,
                                              int act_bits);

}  // namespace defa::prune
