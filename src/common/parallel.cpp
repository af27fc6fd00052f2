#include "common/parallel.h"

#include <algorithm>
#include <numeric>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/check.h"
#include "common/thread_pool.h"

namespace defa {

int hardware_threads() {
  // The CPUs this thread may run on: under `taskset` or a cgroup cpuset
  // that is fewer than the machine has, and a pool sized to the machine
  // would oversubscribe them.
  int cpus = 0;
#if defined(__linux__)
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) cpus = CPU_COUNT(&mask);
#endif
  if (cpus <= 0) cpus = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cpus, 1, 32);
}

int parallel_concurrency() { return ThreadPool::global().size(); }

ChunkPlan parallel_chunks(std::int64_t n, std::int64_t work_per_item, int concurrency) {
  DEFA_CHECK(n >= 0, "parallel_chunks: negative item count");
  if (n == 0) return {};
  // n * work_per_item < kMinParallelWork, without the overflow.
  const bool small =
      std::max<std::int64_t>(work_per_item, 1) < (kMinParallelWork + n - 1) / n;
  if (small || concurrency <= 1) return {n, 1};
  // A few chunks per executor: dynamic grabbing load-balances uneven work,
  // and chunk boundaries depend only on (n, concurrency) so any
  // index-disjoint writes land identically regardless of scheduling.
  const std::int64_t max_chunks = static_cast<std::int64_t>(concurrency) * 4;
  const std::int64_t size = (n + max_chunks - 1) / max_chunks;
  return {size, (n + size - 1) / size};
}

void run_chunks(const ChunkPlan& plan, std::int64_t n,
                const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& chunk_fn) {
  if (plan.count == 0) return;
  if (plan.count == 1) {
    chunk_fn(0, 0, n);
    return;
  }
  ThreadPool::global().run_indexed(plan.count, parallel_concurrency(), [&](std::int64_t c) {
    const std::int64_t lo = c * plan.size;
    chunk_fn(c, lo, std::min(lo + plan.size, n));
  });
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t work_per_item,
                  const std::function<void(std::int64_t, std::int64_t)>& chunk_fn) {
  DEFA_CHECK(begin <= end, "parallel_for: inverted range");
  run_chunks(parallel_chunks(end - begin, work_per_item), end - begin,
             [&](std::int64_t, std::int64_t lo, std::int64_t hi) {
               chunk_fn(begin + lo, begin + hi);
             });
}

void for_each_sum_block(std::int64_t n, std::int64_t work_per_element,
                        const std::function<void(std::int64_t, std::int64_t, std::int64_t)>&
                            block_fn) {
  DEFA_CHECK(n >= 0, "for_each_sum_block: negative element count");
  parallel_for(0, sum_block_count(n), kSumBlock * std::max<std::int64_t>(work_per_element, 1),
               [&](std::int64_t b0, std::int64_t b1) {
                 for (std::int64_t b = b0; b < b1; ++b) {
                   block_fn(b, b * kSumBlock, std::min(n, (b + 1) * kSumBlock));
                 }
               });
}

std::int64_t sum_block_items(std::int64_t elems_per_item) {
  DEFA_CHECK(elems_per_item > 0, "sum_block_items: items must hold elements");
  return std::lcm(kSumBlock, elems_per_item) / elems_per_item;
}

ChunkPlan block_aligned_chunks(std::int64_t n, std::int64_t work_per_item,
                               std::int64_t elems_per_item, int concurrency) {
  const ChunkPlan plan = parallel_chunks(n, work_per_item, concurrency);
  if (plan.count <= 1) return plan;
  const std::int64_t align = sum_block_items(elems_per_item);
  const std::int64_t size = (plan.size + align - 1) / align * align;
  if (size >= n) return {n, 1};
  return {size, (n + size - 1) / size};
}

}  // namespace defa
