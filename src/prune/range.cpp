#include "prune/range.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "quant/fixed_point.h"

namespace defa::prune {

/// The geometry of `m`'s sampling points around `ref_norm`, with `ranges`'
/// radii when given.  The vectors back `grid`.
struct OffsetQuantizer::Geometry {
  std::vector<float> level_w;
  std::vector<float> level_h;
  std::vector<float> radius;
  quant::detail::PointGrid grid;

  Geometry(const ModelConfig& m, const Tensor& ref_norm, const RangeSpec* ranges) {
    for (int l = 0; l < m.n_levels; ++l) {
      const LevelShape& lv = m.levels[static_cast<std::size_t>(l)];
      level_w.push_back(static_cast<float>(lv.w));
      level_h.push_back(static_cast<float>(lv.h));
      if (ranges != nullptr) radius.push_back(static_cast<float>(ranges->radius(l)));
    }
    grid.ref_norm = ref_norm.data().data();
    grid.level_w = level_w.data();
    grid.level_h = level_h.data();
    grid.radius = ranges != nullptr ? radius.data() : nullptr;
    grid.heads = m.n_heads;
    grid.levels = m.n_levels;
    grid.points = m.n_points;
  }
  Geometry(const Geometry&) = delete;
  Geometry& operator=(const Geometry&) = delete;

  std::int64_t group = 0;      ///< floats per (query, head, level)
  std::int64_t vec_end = 0;    ///< of each group, the floats the AVX2 kernels take
  std::int64_t per_query = 0;  ///< floats per query
};

namespace {

void check_ranges(const ModelConfig& m, const RangeSpec& ranges) {
  DEFA_CHECK(ranges.used_levels == m.n_levels, "range spec mismatch");
  for (int l = 0; l < m.n_levels; ++l) {
    DEFA_CHECK(ranges.radius(l) >= 0,
               "range radius of level " + std::to_string(l) + " is negative");
  }
}

/// Visit the points of queries [q0, q1) from index `first` of each
/// (query, head, level) group of 2 * points floats on:
/// fn(flat index of x (y follows it), level, cx, cy), with the level's
/// reference center (cx, cy).
template <typename Fn>
void for_points(const quant::detail::PointGrid& g, std::int64_t first, std::int64_t q0,
                std::int64_t q1, Fn&& fn) {
  const std::int64_t group = 2 * g.points;
  const std::int64_t per_query = g.heads * g.levels * group;
  for (std::int64_t q = q0; q < q1; ++q) {
    const float rx = g.ref_norm[2 * q];
    const float ry = g.ref_norm[2 * q + 1];
    std::int64_t base = q * per_query;
    for (std::int64_t h = 0; h < g.heads; ++h) {
      for (std::int64_t l = 0; l < g.levels; ++l, base += group) {
        const float cx = rx * g.level_w[l] - 0.5f;
        const float cy = ry * g.level_h[l] - 0.5f;
        for (std::int64_t i = first; i < group; i += 2) fn(base + i, l, cx, cy);
      }
    }
  }
}

/// Clamp one point to the box of radius r around (cx, cy); a moved point
/// counts once and raises `excess` to its clamp distance.
inline void clamp_point(float& x, float& y, float cx, float cy, float r,
                        std::int64_t& clamped, double& excess) {
  const float nx = std::clamp(x, cx - r, cx + r);
  const float ny = std::clamp(y, cy - r, cy + r);
  const double e = std::max(std::abs(static_cast<double>(x - nx)),
                            std::abs(static_cast<double>(y - ny)));
  if (e > 0.0) {
    ++clamped;
    excess = std::max(excess, e);
    x = nx;
    y = ny;
  }
}

/// A ClampTally merged across parallel chunks under a lock.
class SharedTally {
 public:
  void merge(const ClampTally& part) {
    const std::lock_guard<std::mutex> lock(mu_);
    tally_.merge(part);
  }
  [[nodiscard]] const ClampTally& tally() const noexcept { return tally_; }

 private:
  std::mutex mu_;
  ClampTally tally_;
};

}  // namespace

void ClampTally::merge(const ClampTally& other) noexcept {
  for (std::size_t l = 0; l < level.size(); ++l) level[l] += other.level[l];
  max_excess = std::max(max_excess, other.max_excess);
}

ClampStats ClampTally::stats(const ModelConfig& m) const {
  ClampStats stats;
  stats.total_points = m.n_in() * m.points_per_query();
  stats.max_excess_px = max_excess;
  const double per_level_total = static_cast<double>(m.n_in()) * m.n_heads * m.n_points;
  for (int l = 0; l < m.n_levels; ++l) {
    const std::int64_t c = level[static_cast<std::size_t>(l)];
    stats.clamped_points += c;
    stats.level_fraction.push_back(
        per_level_total > 0 ? static_cast<double>(c) / per_level_total : 0.0);
  }
  return stats;
}

ClampStats clamp_to_range(const ModelConfig& m, const Tensor& ref_norm,
                          const RangeSpec& ranges, Tensor& locs) {
  check_ranges(m, ranges);
  DEFA_CHECK(locs.rank() == 5 && locs.dim(0) == m.n_in(), "locs shape");
  const OffsetQuantizer::Geometry geo(m, ref_norm, &ranges);
  float* xy = locs.data().data();
  SharedTally shared;
  // Queries are independent.  Per point: two clamps and the excess test,
  // ~4 ns.
  parallel_for(0, m.n_in(), m.points_per_query() * 4, [&](std::int64_t q0, std::int64_t q1) {
    ClampTally part;
    for_points(geo.grid, 0, q0, q1, [&](std::int64_t i, std::int64_t l, float cx, float cy) {
      clamp_point(xy[i], xy[i + 1], cx, cy, geo.radius[static_cast<std::size_t>(l)],
                  part.level[static_cast<std::size_t>(l)], part.max_excess);
    });
    shared.merge(part);
  });
  return shared.tally().stats(m);
}

OffsetQuantizer::OffsetQuantizer(const ModelConfig& m, const Tensor& ref_norm,
                                 const RangeSpec* ranges) {
  if (ranges != nullptr) check_ranges(m, *ranges);
  geo_ = std::make_unique<Geometry>(m, ref_norm, ranges);
  const std::int64_t group = 2 * m.n_points;
  // The AVX2 kernels take each group's leading full vectors; the scalar
  // loops take the rest (all of it without AVX2).
  const bool avx2 =
      quant::detail::use_quantize_avx2() && m.n_levels <= quant::detail::kMaxGridLevels;
  geo_->vec_end = avx2 ? group - group % quant::detail::kQuantizeLanes : 0;
  geo_->group = group;
  geo_->per_query = m.points_per_query() * 2;
}

OffsetQuantizer::~OffsetQuantizer() = default;

float OffsetQuantizer::max_abs(const float* locs, std::int64_t q0, std::int64_t q1) const {
  const Geometry& g = *geo_;
  float m = g.vec_end > 0 ? quant::detail::offsets_max_abs_avx2(g.grid, locs, q0, q1) : 0.0f;
  if (g.vec_end < g.group) {
    for_points(g.grid, g.vec_end, q0, q1, [&](std::int64_t i, std::int64_t, float cx, float cy) {
      m = std::max(m, std::abs(locs[i] - cx));
      m = std::max(m, std::abs(locs[i + 1] - cy));
    });
  }
  return m;
}

void OffsetQuantizer::requantize(const quant::QuantSpec& spec, const float* locs, float* out,
                                 std::int64_t q0, std::int64_t q1, ClampTally& tally) const {
  // The grid shifted to start at query q0, so indices into `locs` and
  // `out` agree.
  quant::detail::PointGrid grid = geo_->grid;
  grid.ref_norm += 2 * q0;
  const float* src = locs + q0 * geo_->per_query;
  const std::int64_t n = q1 - q0;
  if (geo_->vec_end > 0) {
    float vector_excess = 0.0f;
    quant::detail::requantize_points_avx2(grid, spec.scale, spec.qmax(), src, out, 0, n,
                                          tally.level.data(), &vector_excess);
    tally.max_excess = std::max(tally.max_excess, static_cast<double>(vector_excess));
  }
  if (geo_->vec_end < geo_->group) {
    const auto requantized = [&spec](float offset) {
      return quant::dequantize_value(quant::quantize_value(offset, spec), spec);
    };
    for_points(grid, geo_->vec_end, 0, n, [&](std::int64_t i, std::int64_t l, float cx, float cy) {
      out[i] = cx + requantized(src[i] - cx);
      out[i + 1] = cy + requantized(src[i + 1] - cy);
      if (grid.radius != nullptr) {
        clamp_point(out[i], out[i + 1], cx, cy, geo_->radius[static_cast<std::size_t>(l)],
                    tally.level[static_cast<std::size_t>(l)], tally.max_excess);
      }
    });
  }
}

ClampStats quantize_and_clamp(const ModelConfig& m, const Tensor& ref_norm, int bits,
                              const RangeSpec* ranges, const Tensor& locs, Tensor& out) {
  DEFA_CHECK(locs.rank() == 5 && locs.dim(0) == m.n_in(), "locs shape");
  DEFA_CHECK(bits >= 2 && bits <= quant::kMaxBits,
             "supported widths are 2.." + std::to_string(quant::kMaxBits) + " bits");
  const OffsetQuantizer offsets(m, ref_norm, ranges);
  // Per query: pass 1 subtracts and maxes 2 floats per point, ~0.5 ns;
  // pass 2 quantizes them and clamps the point.
  const std::int64_t max_work = m.points_per_query();
  const std::int64_t requantize_work = m.points_per_query() * (2 * quant::kQuantizeWork + 4);
  const std::int64_t per_query = m.points_per_query() * 2;

  if (out.shape() != locs.shape()) out = Tensor(locs.shape());
  const float* src = locs.data().data();
  float* xy = out.data().data();

  // Pass 1: the offsets' NaN-skipping max-abs (a max: order-free).
  float max_abs = 0.0f;
  std::mutex mu;
  parallel_for(0, m.n_in(), max_work, [&](std::int64_t q0, std::int64_t q1) {
    const float chunk_max = offsets.max_abs(src, q0, q1);
    const std::lock_guard<std::mutex> lock(mu);
    max_abs = std::max(max_abs, chunk_max);
  });

  // Pass 2: each offset, requantized, back into a location; then clamped.
  const quant::QuantSpec spec = quant::QuantSpec::from_max_abs(max_abs, bits);
  SharedTally shared;
  parallel_for(0, m.n_in(), requantize_work, [&](std::int64_t q0, std::int64_t q1) {
    ClampTally part;
    offsets.requantize(spec, src, xy + q0 * per_query, q0, q1, part);
    shared.merge(part);
  });
  return ranges != nullptr ? shared.tally().stats(m) : ClampStats{};
}

std::int64_t range_window_bytes(const ModelConfig& m, const RangeSpec& ranges,
                                int act_bits) {
  const std::int64_t pixel_bits = static_cast<std::int64_t>(m.d_model) * act_bits;
  return ranges.window_pixels() * ((pixel_bits + 7) / 8);
}

}  // namespace defa::prune
