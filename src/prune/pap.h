#pragma once

/// \file pap.h
/// Probability-Aware Point Pruning (Sec. 3.2).
///
/// After softmax, attention probabilities of one (query, head) sum to 1 and
/// their differences are exponentially amplified; the paper observes that
/// over 80% of them are near zero in Deformable DETR.  PAP thresholds the
/// normalized probabilities and records survivors in a point mask; the
/// masked points skip offset generation, bilinear interpolation and
/// aggregation in the current block.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "config/model_config.h"
#include "prune/masks.h"
#include "tensor/tensor.h"

namespace defa::prune {

struct PapStats {
  std::int64_t total_points = 0;
  std::int64_t pruned_points = 0;
  /// Attention-probability mass removed by pruning, averaged per (q, h):
  /// a fixed-block sum (common/parallel.h) in (q, h, l, p) order.
  double mean_dropped_mass = 0.0;

  [[nodiscard]] double fraction_pruned() const noexcept {
    return total_points == 0
               ? 0.0
               : static_cast<double>(pruned_points) / static_cast<double>(total_points);
  }
};

/// PAP's step over the points p[0, n): keep[i] = p[i] < threshold ? 0 : 1,
/// the pruned points added to `pruned` and their probabilities to `mass`,
/// serially in index order.  A kept point adds +0.0, which leaves the
/// sum's bits unchanged (a partial starts at +0.0 and never becomes
/// -0.0); selecting it with a bit mask keeps the loop free of
/// unpredictable branches.  pap_prune runs it on each fixed block
/// (common/parallel.h); the encoder's fused INTn layer pass on the blocks
/// of its own chunk.
inline void pap_threshold(const float* p, std::size_t n, float threshold, std::uint8_t* keep,
                          std::int64_t& pruned, double& mass) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const auto is_pruned = static_cast<std::uint32_t>(p[i] < threshold);
    keep[i] = static_cast<std::uint8_t>(1 - is_pruned);
    pruned += is_pruned;
    mass += std::bit_cast<float>(std::bit_cast<std::uint32_t>(p[i]) & (0u - is_pruned));
  }
}

/// Threshold the (N, H, L*P) probability tensor at `tau`; probabilities
/// strictly below `tau` are pruned.  Returns the surviving-point mask.
[[nodiscard]] PointMask pap_prune(const ModelConfig& m, const Tensor& probs, double tau,
                                  PapStats* stats = nullptr);

}  // namespace defa::prune
