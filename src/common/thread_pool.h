#pragma once

/// \file thread_pool.h
/// Persistent work-stealing thread pool shared by every concurrent code
/// path in the repo: `defa::parallel_for`, `Engine::run_batch` and the
/// `serve::Server` request scheduler all execute on one fixed set of worker
/// threads instead of spawning threads per call, so nested parallelism
/// (a served request whose pipeline run calls parallel_for) cannot
/// oversubscribe the machine.
///
/// The pool lives in common/ (not serve/) so the dependency arrows point
/// one way: common/parallel and api/engine use it without depending on the
/// serving layer, and serve/ stays an optional consumer on top.
///
/// Topology: one bounded deque per worker.  A worker pops its own deque
/// LIFO (cache locality for nested fan-out) and steals FIFO from the other
/// workers when its deque runs dry; external submissions are distributed
/// round-robin.  Blocking joins never depend on a free worker — see
/// `run_indexed`, whose caller always drains remaining indices itself —
/// so the pool is deadlock-free under arbitrary nesting.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace defa {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// `threads == 0` sizes the pool at hardware_threads() workers.  A
  /// fork-join counts its caller as one of that many executors, so a
  /// caller that is itself a worker (a served request) gets every core,
  /// and an off-pool caller leaves one worker free.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool.  Constructed on first use, lives for the
  /// program; all library-internal parallelism routes through it.
  [[nodiscard]] static ThreadPool& global();

  [[nodiscard]] int size() const noexcept { return static_cast<int>(threads_.size()); }

  /// True when the calling thread is one of *any* ThreadPool's workers.
  [[nodiscard]] static bool on_worker_thread() noexcept;

  /// Enqueue a fire-and-forget task.  Never blocks; tasks submitted from a
  /// worker go to that worker's own deque (LIFO) for locality.
  void submit(Task task);

  /// Run `fn(i)` for every i in [0, n) with at most `max_concurrency`
  /// simultaneous executors (the calling thread included; <= 0 means the
  /// pool size).  Blocks until all n indices finished.  The caller
  /// always executes indices itself, so completion never depends on free
  /// workers — safe to call from inside a pool task (nested fan-out).
  /// The first exception thrown by `fn` is rethrown here after all
  /// indices completed; remaining indices still run.
  void run_indexed(std::int64_t n, int max_concurrency,
                   const std::function<void(std::int64_t)>& fn);

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> q;
  };

  void worker_main(std::size_t id);
  [[nodiscard]] bool try_pop(std::size_t id, Task& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> next_queue_{0};  ///< round-robin submit cursor
  std::atomic<std::int64_t> pending_{0};      ///< queued, not yet popped
  std::atomic<bool> stop_{false};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
};

}  // namespace defa
