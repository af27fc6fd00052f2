#include "prune/pap.h"

#include <bit>
#include <cstdint>

#include "common/parallel.h"

namespace defa::prune {

namespace {

/// parallel_for work estimate of thresholding one sampling point: a load,
/// a compare and a mask-byte store, ~1-2 ns.
constexpr std::int64_t kPapPointWork = 2;

}  // namespace

PointMask pap_prune(const ModelConfig& m, const Tensor& probs, double tau,
                    PapStats* stats) {
  DEFA_CHECK(tau >= 0.0 && tau < 1.0, "PAP threshold must be in [0,1)");
  DEFA_CHECK(probs.rank() == 3 && probs.dim(0) == m.n_in() &&
                 probs.dim(1) == m.n_heads && probs.dim(2) == m.points_per_head(),
             "probs must be (N, H, L*P)");

  PointMask mask(m);
  const float threshold = static_cast<float>(tau);
  const std::int64_t n = m.n_in();
  const std::int64_t per_query = m.points_per_query();
  const std::span<const float> p = probs.data();
  // Each query owns its mask bytes, so the chunks may run in any order.
  parallel_for(0, n, per_query * kPapPointWork, [&](std::int64_t q0, std::int64_t q1) {
    for (std::int64_t q = q0; q < q1; ++q) {
      std::size_t i = static_cast<std::size_t>(q * per_query);
      for (int h = 0; h < m.n_heads; ++h) {
        for (int l = 0; l < m.n_levels; ++l) {
          for (int pt = 0; pt < m.n_points; ++pt, ++i) {
            if (p[i] < threshold) mask.set_keep(q, h, l, pt, false);
          }
        }
      }
    }
  });
  if (stats != nullptr) {
    // The pruned count, and the dropped mass: a floating-point sum, so
    // serial, in (q, h, l, p) order, over the pruned probabilities.  A
    // kept point adds +0.0, which leaves the sum's bits unchanged (the sum
    // starts at +0.0 and never becomes -0.0); selecting it with a bit mask
    // keeps the loop free of unpredictable branches.
    std::int64_t pruned = 0;
    double dropped_mass = 0.0;
    for (const float prob : p) {
      const auto is_pruned = static_cast<std::uint32_t>(prob < threshold);
      pruned += is_pruned;
      dropped_mass += std::bit_cast<float>(std::bit_cast<std::uint32_t>(prob) & (0u - is_pruned));
    }
    stats->total_points = mask.total();
    stats->pruned_points = pruned;
    const double qh = static_cast<double>(n) * m.n_heads;
    stats->mean_dropped_mass = qh > 0 ? dropped_mass / qh : 0.0;
  }
  return mask;
}

}  // namespace defa::prune
