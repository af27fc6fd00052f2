#include "prune/range.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/parallel.h"

namespace defa::prune {

ClampStats clamp_to_range(const ModelConfig& m, const Tensor& ref_norm,
                          const RangeSpec& ranges, Tensor& locs) {
  DEFA_CHECK(ranges.used_levels == m.n_levels, "range spec mismatch");
  DEFA_CHECK(locs.rank() == 5 && locs.dim(0) == m.n_in(), "locs shape");

  const std::int64_t n = m.n_in();
  ClampStats stats;
  stats.total_points = n * m.points_per_query();
  stats.level_fraction.assign(static_cast<std::size_t>(m.n_levels), 0.0);

  std::vector<std::int64_t> level_clamped(static_cast<std::size_t>(m.n_levels), 0);
  std::int64_t clamped = 0;
  double max_excess = 0.0;
  std::mutex mu;

  // Queries are independent; each chunk's integer counts and max merge
  // exactly, so the stats do not depend on the chunking.  Per point: two
  // clamps and the excess test, ~4 ns.
  parallel_for(0, n, m.points_per_query() * 4, [&](std::int64_t q0, std::int64_t q1) {
    std::vector<std::int64_t> chunk_level(static_cast<std::size_t>(m.n_levels), 0);
    double chunk_excess = 0.0;
    for (std::int64_t q = q0; q < q1; ++q) {
      const float rx = ref_norm(q, 0);
      const float ry = ref_norm(q, 1);
      for (int h = 0; h < m.n_heads; ++h) {
        for (int l = 0; l < m.n_levels; ++l) {
          const LevelShape& lv = m.levels[static_cast<std::size_t>(l)];
          const float cx = rx * static_cast<float>(lv.w) - 0.5f;
          const float cy = ry * static_cast<float>(lv.h) - 0.5f;
          const float r = static_cast<float>(ranges.radius(l));
          for (int p = 0; p < m.n_points; ++p) {
            float& x = locs(q, h, l, p, 0);
            float& y = locs(q, h, l, p, 1);
            const float nx = std::clamp(x, cx - r, cx + r);
            const float ny = std::clamp(y, cy - r, cy + r);
            const double excess = std::max(std::abs(static_cast<double>(x - nx)),
                                           std::abs(static_cast<double>(y - ny)));
            if (excess > 0.0) {
              ++chunk_level[static_cast<std::size_t>(l)];
              chunk_excess = std::max(chunk_excess, excess);
              x = nx;
              y = ny;
            }
          }
        }
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    for (int l = 0; l < m.n_levels; ++l) {
      level_clamped[static_cast<std::size_t>(l)] += chunk_level[static_cast<std::size_t>(l)];
      clamped += chunk_level[static_cast<std::size_t>(l)];
    }
    max_excess = std::max(max_excess, chunk_excess);
  });

  stats.clamped_points = clamped;
  stats.max_excess_px = max_excess;
  const double per_level_total =
      static_cast<double>(n) * m.n_heads * m.n_points;
  for (int l = 0; l < m.n_levels; ++l) {
    stats.level_fraction[static_cast<std::size_t>(l)] =
        per_level_total > 0
            ? static_cast<double>(level_clamped[static_cast<std::size_t>(l)]) / per_level_total
            : 0.0;
  }
  return stats;
}

std::int64_t range_window_bytes(const ModelConfig& m, const RangeSpec& ranges,
                                int act_bits) {
  const std::int64_t pixel_bits = static_cast<std::int64_t>(m.d_model) * act_bits;
  return ranges.window_pixels() * ((pixel_bits + 7) / 8);
}

}  // namespace defa::prune
