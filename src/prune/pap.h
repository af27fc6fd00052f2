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

/// Threshold the (N, H, L*P) probability tensor at `tau`; probabilities
/// strictly below `tau` are pruned.  Returns the surviving-point mask.
[[nodiscard]] PointMask pap_prune(const ModelConfig& m, const Tensor& probs, double tau,
                                  PapStats* stats = nullptr);

}  // namespace defa::prune
