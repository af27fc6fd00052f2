#include "kernels/plan.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "common/parallel.h"
#include "nn/bilinear.h"

namespace defa::kernels {

namespace {

// Process-wide totals (see PlanCache::GlobalStats): plan caches live
// per-pipeline inside pooled contexts, so the engine's monotonic metrics
// aggregate here instead of walking instances.
std::atomic<std::uint64_t> g_plan_hits{0};
std::atomic<std::uint64_t> g_plan_misses{0};
std::atomic<std::int64_t> g_plan_entries{0};

}  // namespace

SamplingPlan SamplingPlan::build(const ModelConfig& m, const Tensor& locs) {
  DEFA_CHECK(locs.rank() == 5 && locs.dim(0) == m.n_in() && locs.dim(1) == m.n_heads &&
                 locs.dim(2) == m.n_levels && locs.dim(3) == m.n_points &&
                 locs.dim(4) == 2,
             "SamplingPlan: locs must be (N, H, L, P, 2)");
  // Resolved offsets are int32: token * d_model + head * d_head < N_in * D.
  DEFA_CHECK(m.n_in() * m.d_model <= std::numeric_limits<std::int32_t>::max(),
             "SamplingPlan: value buffer too large for int32 offsets");

  SamplingPlan plan;
  plan.n_in_ = m.n_in();
  plan.n_heads_ = m.n_heads;
  plan.n_levels_ = m.n_levels;
  plan.n_points_ = m.n_points;
  plan.d_model_ = m.d_model;
  const std::int64_t slots = plan.n_in_ * m.points_per_query();
  plan.offsets_.assign(static_cast<std::size_t>(slots) * 4, kOutOfBounds);
  plan.t0_.resize(static_cast<std::size_t>(slots));
  plan.t1_.resize(static_cast<std::size_t>(slots));

  const int dh = m.d_head();
  // Per point: locate it and resolve its four corner offsets, ~16 ns.
  const std::int64_t query_work = m.points_per_query() * 16;
  parallel_for(0, m.n_in(), query_work, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t q = begin; q < end; ++q) {
      for (int h = 0; h < m.n_heads; ++h) {
        const std::int64_t col = static_cast<std::int64_t>(h) * dh;
        for (int l = 0; l < m.n_levels; ++l) {
          for (int p = 0; p < m.n_points; ++p) {
            const nn::BiPoint bp =
                nn::bi_locate(locs(q, h, l, p, 0), locs(q, h, l, p, 1));
            const std::int64_t s = plan.slot(l, q, h, p);
            plan.t0_[static_cast<std::size_t>(s)] = bp.t0;
            plan.t1_[static_cast<std::size_t>(s)] = bp.t1;
            nn::for_each_neighbor(m, l, bp, [&](int which, std::int64_t token) {
              plan.offsets_[static_cast<std::size_t>(s * 4 + which)] =
                  static_cast<std::int32_t>(token * m.d_model + col);
            });
          }
        }
      }
    }
  });
  return plan;
}

LocalityPlan LocalityPlan::build(const ModelConfig& m, const SamplingPlan& plan,
                                 std::int64_t tile_elems) {
  DEFA_CHECK(plan.matches(m), "LocalityPlan: sampling plan does not match the model");
  DEFA_CHECK(tile_elems >= 1, "LocalityPlan: tile_elems must be positive");

  LocalityPlan lp;
  lp.n_in_ = m.n_in();
  lp.n_levels_ = m.n_levels;
  lp.tile_elems_ = tile_elems;
  lp.order_.resize(static_cast<std::size_t>(m.n_levels) *
                   static_cast<std::size_t>(lp.n_in_));
  lp.tiles_.resize(static_cast<std::size_t>(m.n_levels));

  const std::int32_t* offs = plan.offsets().data();
  std::vector<std::int32_t> keys(static_cast<std::size_t>(lp.n_in_));
  for (int l = 0; l < m.n_levels; ++l) {
    // First-touch tile key: the first in-bounds resolved offset in
    // slot-scan order (h asc, p asc, corner asc), divided by tile_elems.
    // Offsets fit int32 (SamplingPlan::build checks), so keys do too.
    // The scan almost always stops within the first slot's four corners.
    parallel_for(0, lp.n_in_, 4, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t q = begin; q < end; ++q) {
        std::int32_t key = kNoTile;
        for (int h = 0; h < m.n_heads && key == kNoTile; ++h) {
          for (int p = 0; p < m.n_points && key == kNoTile; ++p) {
            const std::int64_t s = plan.slot(l, q, h, p) * 4;
            for (int k = 0; k < 4; ++k) {
              if (offs[s + k] >= 0) {
                key = static_cast<std::int32_t>(offs[s + k] / tile_elems);
                break;
              }
            }
          }
        }
        keys[static_cast<std::size_t>(q)] = key;
      }
    });

    // Stable sort by key keeps ties in ascending query order, so the
    // permutation is a pure function of (plan, tile_elems).
    std::int32_t* order =
        lp.order_.data() + static_cast<std::size_t>(l) * static_cast<std::size_t>(lp.n_in_);
    std::iota(order, order + lp.n_in_, 0);
    std::stable_sort(order, order + lp.n_in_, [&](std::int32_t a, std::int32_t b) {
      return keys[static_cast<std::size_t>(a)] < keys[static_cast<std::size_t>(b)];
    });

    std::vector<TileRange>& tiles = lp.tiles_[static_cast<std::size_t>(l)];
    for (std::int64_t i = 0; i < lp.n_in_;) {
      const std::int32_t key = keys[static_cast<std::size_t>(order[i])];
      std::int64_t j = i + 1;
      while (j < lp.n_in_ && keys[static_cast<std::size_t>(order[j])] == key) ++j;
      tiles.push_back(TileRange{key, i, j});
      i = j;
    }
  }
  return lp;
}

std::int64_t locality_tile_elems() {
  std::int64_t kb = 256;
  if (const char* env = std::getenv("DEFA_L2_KB"); env != nullptr && *env != '\0') {
    const long v = std::atol(env);
    if (v >= 1) kb = v;
  }
  return kb * 1024 / static_cast<std::int64_t>(sizeof(float));
}

PlanCache::~PlanCache() {
  const std::lock_guard<std::mutex> lock(mu_);
  g_plan_entries.fetch_sub(
      static_cast<std::int64_t>(plans_.size() + locality_.size()),
      std::memory_order_relaxed);
}

std::shared_ptr<const SamplingPlan> PlanCache::get(const std::string& key,
                                                   const ModelConfig& m,
                                                   const Tensor& locs) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = plans_.find(key);
  if (it != plans_.end()) {
    ++stats_.hits;
    g_plan_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  ++stats_.misses;
  g_plan_misses.fetch_add(1, std::memory_order_relaxed);
  auto plan = std::make_shared<SamplingPlan>(SamplingPlan::build(m, locs));
  plans_.emplace(key, plan);
  g_plan_entries.fetch_add(1, std::memory_order_relaxed);
  return plan;
}

std::shared_ptr<const LocalityPlan> PlanCache::get_locality(const std::string& key,
                                                            const ModelConfig& m,
                                                            const SamplingPlan& plan,
                                                            std::int64_t tile_elems) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = locality_.find(key);
  if (it != locality_.end()) {
    ++stats_.hits;
    g_plan_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  ++stats_.misses;
  g_plan_misses.fetch_add(1, std::memory_order_relaxed);
  auto lp = std::make_shared<LocalityPlan>(LocalityPlan::build(m, plan, tile_elems));
  locality_.emplace(key, lp);
  g_plan_entries.fetch_add(1, std::memory_order_relaxed);
  return lp;
}

std::size_t PlanCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plans_.size() + locality_.size();
}

PlanCache::Stats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  g_plan_entries.fetch_sub(
      static_cast<std::int64_t>(plans_.size() + locality_.size()),
      std::memory_order_relaxed);
  plans_.clear();
  locality_.clear();
}

PlanCache::GlobalStats PlanCache::global_stats() noexcept {
  GlobalStats g;
  g.hits = g_plan_hits.load(std::memory_order_relaxed);
  g.misses = g_plan_misses.load(std::memory_order_relaxed);
  const std::int64_t entries = g_plan_entries.load(std::memory_order_relaxed);
  g.entries = entries > 0 ? static_cast<std::uint64_t>(entries) : 0;
  return g;
}

void PlanCache::reset_global_counters() noexcept {
  g_plan_hits.store(0, std::memory_order_relaxed);
  g_plan_misses.store(0, std::memory_order_relaxed);
}

}  // namespace defa::kernels
