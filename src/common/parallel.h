#pragma once

/// \file parallel.h
/// Minimal fork-join parallel loop used to speed up the functional model
/// (matmuls, grid-sampling sweeps).  Determinism: callers must write to
/// disjoint output ranges; all reductions are merged in index order.

#include <cstdint>
#include <functional>

namespace defa {

/// Work (in units of roughly one nanosecond of serial inner-loop work:
/// one multiply-add, one element quantized) below which a loop runs on the
/// calling thread.  Sized from the fork-join cost of the global pool on a
/// 4-core x86-64 host with its workers asleep: fanning a loop out over 16
/// chunks cost 15-20 us more than running it inline at the median.  A
/// fork-join runs on hardware_threads() executors, the caller among them,
/// so on that host 3/4 of the work leaves the caller and fan-out can pay
/// off only above ~27 us of serial work.  The floor sits ~2.5x above that
/// break-even, which absorbs per-site estimates that are off by that
/// factor either way.
inline constexpr std::int64_t kMinParallelWork = std::int64_t{1} << 16;

/// CPUs the calling thread may run on (its affinity mask where the
/// platform has one, else std::thread::hardware_concurrency()), clamped to
/// [1, 32].  The global pool is sized from it.
[[nodiscard]] int hardware_threads();

/// Executors a parallel_for runs on, the calling thread included: the
/// global pool's size, whether or not the caller is one of its workers.
[[nodiscard]] int parallel_concurrency();

/// How parallel_for partitions a range: `count` chunks of `size` items
/// (the last one may be shorter).  `count == 1` means the loop runs inline.
struct ChunkPlan {
  std::int64_t size = 0;
  std::int64_t count = 0;
};

/// The chunking parallel_for uses for `n` items of `work_per_item` work
/// each (values below 1 count as 1) on `concurrency` executors.  Inline
/// (one chunk) when n * work_per_item < kMinParallelWork or there is a
/// single executor; otherwise a few chunks per executor, with boundaries
/// that depend only on (n, concurrency).
[[nodiscard]] ChunkPlan parallel_chunks(std::int64_t n, std::int64_t work_per_item,
                                        int concurrency = parallel_concurrency());

/// Invoke `chunk_fn(begin, end)` over a partition of [begin, end) across
/// worker threads, chunked by parallel_chunks(end - begin, work_per_item).
/// `work_per_item` estimates one item's cost in kMinParallelWork's units.
/// `chunk_fn` must be thread-safe for disjoint sub-ranges.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t work_per_item,
                  const std::function<void(std::int64_t, std::int64_t)>& chunk_fn);

/// Elements per block of a fixed-block float sum.  A floating-point sum
/// over n elements adds serially, in index order, within each block of
/// kSumBlock consecutive elements (the last one may be shorter), and the
/// block partials are then added in block order.  The blocks depend only
/// on n, so the sum's bits do not depend on the thread count or on how
/// parallel_for chunks the blocks.
inline constexpr std::int64_t kSumBlock = 4096;

/// Number of kSumBlock-element blocks covering n elements (0 for n = 0).
[[nodiscard]] constexpr std::int64_t sum_block_count(std::int64_t n) noexcept {
  return (n + kSumBlock - 1) / kSumBlock;
}

/// Invoke `block_fn(block, begin, end)` once for every fixed block of
/// [0, n), the blocks spread over worker threads by a parallel_for whose
/// per-block work is kSumBlock * work_per_element.  `block_fn` must be
/// thread-safe for distinct blocks; the caller keeps one partial per block
/// and adds them in block order.
void for_each_sum_block(std::int64_t n, std::int64_t work_per_element,
                        const std::function<void(std::int64_t, std::int64_t, std::int64_t)>&
                            block_fn);

/// The fewest items that end on a kSumBlock boundary when item i holds
/// elements [i * elems_per_item, (i + 1) * elems_per_item) of a fixed-block
/// sum: lcm(kSumBlock, elems_per_item) / elems_per_item (16 rows of 256,
/// 32 queries of 128 points).
[[nodiscard]] std::int64_t sum_block_items(std::int64_t elems_per_item);

/// parallel_chunks(n, work_per_item, concurrency) with the chunk size
/// rounded up to a multiple of sum_block_items(elems_per_item), so every
/// chunk boundary is a kSumBlock boundary of the items' elements.  A chunk
/// then holds whole blocks and can add its blocks' partials serially
/// across its items, and the sum's bits still do not depend on the
/// chunking.
[[nodiscard]] ChunkPlan block_aligned_chunks(std::int64_t n, std::int64_t work_per_item,
                                             std::int64_t elems_per_item,
                                             int concurrency = parallel_concurrency());

/// Invoke `chunk_fn(chunk, begin, end)` for every chunk of `plan` over
/// [0, n), on the global pool (inline when plan.count == 1).  `chunk`
/// indexes per-chunk state the caller merges afterwards.
void run_chunks(const ChunkPlan& plan, std::int64_t n,
                const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& chunk_fn);

}  // namespace defa
