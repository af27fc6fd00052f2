#include "prune/pap.h"

#include <cstdint>
#include <vector>

#include "common/parallel.h"

namespace defa::prune {

namespace {

/// Work estimate of thresholding one sampling point: a load, a compare,
/// a mask-byte store and the dropped-mass add, ~1-2 ns.
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
  const std::span<const float> p = probs.data();
  const std::span<std::uint8_t> keep = mask.bytes();
  // probs and the mask share the (q, h, l, p) order.  One pass over the
  // fixed blocks of points (common/parallel.h): each block writes its own
  // mask bytes and, when asked for, its pruned count and dropped mass.
  // The mass is a float sum, so it is serial within the block, and the
  // partials are added in block order below.
  const auto n = static_cast<std::int64_t>(p.size());
  const std::size_t blocks = stats != nullptr ? static_cast<std::size_t>(sum_block_count(n)) : 0;
  std::vector<std::int64_t> pruned_part(blocks);
  std::vector<double> mass_part(blocks);
  for_each_sum_block(n, kPapPointWork, [&](std::int64_t b, std::int64_t lo, std::int64_t hi) {
    const auto begin = static_cast<std::size_t>(lo);
    const auto end = static_cast<std::size_t>(hi);
    if (stats == nullptr) {
      for (std::size_t i = begin; i < end; ++i) keep[i] = p[i] < threshold ? 0 : 1;
      return;
    }
    std::int64_t pruned = 0;
    double mass = 0.0;
    pap_threshold(p.data() + begin, end - begin, threshold, keep.data() + begin, pruned, mass);
    pruned_part[static_cast<std::size_t>(b)] = pruned;
    mass_part[static_cast<std::size_t>(b)] = mass;
  });
  if (stats != nullptr) {
    std::int64_t pruned = 0;
    double dropped_mass = 0.0;
    for (std::size_t b = 0; b < blocks; ++b) {
      pruned += pruned_part[b];
      dropped_mass += mass_part[b];
    }
    stats->total_points = mask.total();
    stats->pruned_points = pruned;
    const double qh = static_cast<double>(m.n_in()) * m.n_heads;
    stats->mean_dropped_mass = qh > 0 ? dropped_mass / qh : 0.0;
  }
  return mask;
}

}  // namespace defa::prune
