#include "arch/msgs_engine.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/parallel.h"

namespace defa::arch {

MsgsEngine::MsgsEngine(const ModelConfig& m, const HwConfig& hw) : m_(m), hw_(hw) {
  hw.validate(m);
  compute_cycles_per_group_ =
      (m.d_head() + hw.ba_channels_per_cycle - 1) / hw.ba_channels_per_cycle;
}

MsgsPerf MsgsEngine::run(const Tensor& locs, const prune::PointMask& pmask) const {
  DEFA_CHECK(locs.rank() == 5 && locs.dim(0) == m_.n_in(), "locs shape");
  const bool inter = hw_.parallelism == MsgsParallelism::kInterLevel;
  const std::int64_t n = m_.n_in();
  const int nl = m_.n_levels;
  const int np = m_.n_points;

  // Sharded simulation: queries are independent streams; shard results are
  // merged in index order (deterministic).
  const int shards = hardware_threads();
  std::vector<MsgsPerf> partial(static_cast<std::size_t>(shards));
  const std::int64_t chunk = (n + shards - 1) / shards;
  // Per sampling point: locate, collect its bank accesses and analyze the
  // group, ~50 ns.
  const std::int64_t shard_work = chunk * m_.points_per_query() * 48;

  parallel_for(0, shards, shard_work, [&](std::int64_t s_begin, std::int64_t s_end) {
    for (std::int64_t s = s_begin; s < s_end; ++s) {
      MsgsPerf perf;
      const std::int64_t q_begin = s * chunk;
      const std::int64_t q_end = std::min(n, q_begin + chunk);
      // Surviving point indices per level of the current (q, h).
      std::array<std::array<int, 16>, kMaxLevels> surv{};
      std::array<int, kMaxLevels> n_surv{};
      std::array<BankAccess, 16> accesses{};

      for (std::int64_t q = q_begin; q < q_end; ++q) {
        for (int h = 0; h < m_.n_heads; ++h) {
          int max_surv = 0;
          n_surv.fill(0);
          for (int l = 0; l < nl; ++l) {
            for (int p = 0; p < np; ++p) {
              if (!pmask.keep(q, h, l, p)) continue;
              surv[static_cast<std::size_t>(l)]
                  [static_cast<std::size_t>(n_surv[static_cast<std::size_t>(l)]++)] = p;
            }
            max_surv = std::max(max_surv, n_surv[static_cast<std::size_t>(l)]);
          }
          if (max_surv == 0) continue;

          auto issue_group = [&](int n_acc, int points_in_group) {
            const ConflictReport rep =
                analyze_group(std::span<const BankAccess>(accesses.data(),
                                                          static_cast<std::size_t>(n_acc)),
                              hw_.sram_banks);
            std::uint64_t fetch = static_cast<std::uint64_t>(rep.serialization_cycles);
            if (rep.conflict) {
              // Conflict detection stops the pipeline and the colliding
              // requests replay sequentially (Sec. 5.3.1).
              fetch += static_cast<std::uint64_t>(hw_.conflict_penalty_cycles);
              ++perf.conflict_groups;
            }
            ++perf.groups;
            perf.points += static_cast<std::uint64_t>(points_in_group);
            perf.sram_word_reads += static_cast<std::uint64_t>(n_acc);
            perf.fetch_cycles += fetch;
            perf.compute_cycles += static_cast<std::uint64_t>(compute_cycles_per_group_);
            perf.total_cycles +=
                std::max(fetch, static_cast<std::uint64_t>(compute_cycles_per_group_));
          };

          if (inter) {
            // Group g: the g-th survivor of every level that still has one.
            for (int g = 0; g < max_surv; ++g) {
              int n_acc = 0;
              int pts = 0;
              for (int l = 0; l < nl; ++l) {
                if (g >= n_surv[static_cast<std::size_t>(l)]) continue;
                const int p = surv[static_cast<std::size_t>(l)][static_cast<std::size_t>(g)];
                const nn::BiPoint bp =
                    nn::bi_locate(locs(q, h, l, p, 0), locs(q, h, l, p, 1));
                n_acc += collect_point_accesses(m_, l, bp, /*inter_level=*/true,
                                                accesses, n_acc);
                ++pts;
              }
              if (pts > 0) issue_group(n_acc, pts);
            }
          } else {
            // Intra-level: per level, chunks of up to 4 survivors.
            for (int l = 0; l < nl; ++l) {
              const int count = n_surv[static_cast<std::size_t>(l)];
              for (int base = 0; base < count; base += 4) {
                int n_acc = 0;
                int pts = 0;
                const int end = std::min(base + 4, count);
                for (int i = base; i < end; ++i) {
                  const int p =
                      surv[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
                  const nn::BiPoint bp =
                      nn::bi_locate(locs(q, h, l, p, 0), locs(q, h, l, p, 1));
                  n_acc += collect_point_accesses(m_, l, bp, /*inter_level=*/false,
                                                  accesses, n_acc);
                  ++pts;
                }
                if (pts > 0) issue_group(n_acc, pts);
              }
            }
          }
        }
      }
      partial[static_cast<std::size_t>(s)] = perf;
    }
  });

  MsgsPerf total;
  for (const MsgsPerf& p : partial) total += p;
  // Two-stage pipeline fill/drain, charged once per stream.
  total.total_cycles += static_cast<std::uint64_t>(compute_cycles_per_group_);
  return total;
}

}  // namespace defa::arch
