#include "prune/fwp.h"

#include <algorithm>

#include "common/parallel.h"

namespace defa::prune {

namespace {

/// parallel_for work estimate of counting one sampling point: locate its
/// 2x2 neighborhood, bounds-check it and bump up to four counters, ~8 ns.
constexpr std::int64_t kFreqPointWork = 8;

}  // namespace

void FreqCounter::merge(const FreqCounter& other) {
  DEFA_CHECK(counts_.size() == other.counts_.size(), "counter size mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

double FreqCounter::level_mean(const ModelConfig& m, int l) const {
  const std::int64_t begin = m.level_offset(l);
  const std::int64_t count = m.levels[static_cast<std::size_t>(l)].numel();
  std::int64_t sum = 0;
  for (std::int64_t t = begin; t < begin + count; ++t) {
    sum += counts_[static_cast<std::size_t>(t)];
  }
  return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
}

FreqCounter count_sampled_frequency(const ModelConfig& m, const Tensor& locs,
                                    const PointMask& pmask) {
  DEFA_CHECK(locs.rank() == 5 && locs.dim(0) == m.n_in(), "locs shape");
  const std::int64_t n = m.n_in();
  const std::int64_t work = m.points_per_query() * kFreqPointWork;
  // One counter per parallel_for chunk, merged in chunk order.  The counts
  // are integers, so the merge is exact.
  const ChunkPlan chunks = parallel_chunks(n, work);
  std::vector<FreqCounter> partial(
      static_cast<std::size_t>(std::max<std::int64_t>(chunks.count, 1)), FreqCounter(m));
  parallel_for(0, n, work, [&](std::int64_t q0, std::int64_t q1) {
    FreqCounter& freq = partial[static_cast<std::size_t>(q0 / chunks.size)];
    for (std::int64_t q = q0; q < q1; ++q) {
      for (int h = 0; h < m.n_heads; ++h) {
        for (int l = 0; l < m.n_levels; ++l) {
          for (int p = 0; p < m.n_points; ++p) {
            if (!pmask.keep(q, h, l, p)) continue;
            const nn::BiPoint bp = nn::bi_locate(locs(q, h, l, p, 0), locs(q, h, l, p, 1));
            nn::for_each_neighbor(m, l, bp,
                                  [&](int /*which*/, std::int64_t token) { freq.add(token); });
          }
        }
      }
    }
  });
  FreqCounter total = std::move(partial.front());
  for (std::size_t c = 1; c < partial.size(); ++c) total.merge(partial[c]);
  return total;
}

FmapMask fwp_prune(const ModelConfig& m, const FreqCounter& freq, double k,
                   FwpStats* stats) {
  DEFA_CHECK(k >= 0.0, "FWP multiplier k must be non-negative");
  DEFA_CHECK(freq.size() == m.n_in(), "frequency counter size mismatch");

  FmapMask mask(m);
  std::int64_t pruned = 0;
  std::vector<double> thresholds;
  thresholds.reserve(static_cast<std::size_t>(m.n_levels));

  for (int l = 0; l < m.n_levels; ++l) {
    const double threshold = k * freq.level_mean(m, l);  // Eq. 2
    thresholds.push_back(threshold);
    const std::int64_t begin = m.level_offset(l);
    const std::int64_t count = m.levels[static_cast<std::size_t>(l)].numel();
    for (std::int64_t t = begin; t < begin + count; ++t) {
      if (static_cast<double>(freq.count(t)) < threshold) {
        mask.set_keep(t, false);
        ++pruned;
      }
    }
  }
  if (stats != nullptr) {
    stats->total_pixels = m.n_in();
    stats->pruned_pixels = pruned;
    stats->level_threshold = std::move(thresholds);
  }
  return mask;
}

}  // namespace defa::prune
