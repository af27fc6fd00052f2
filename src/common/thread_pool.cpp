#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace defa {

namespace {
/// Index of the calling thread inside its owning pool, or -1 off-pool.
thread_local int tl_worker_index = -1;
}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = hardware_threads();
  queues_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) queues_.push_back(std::make_unique<WorkerQueue>());
  threads_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { worker_main(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  {
    // Pair the store with the sleep predicate so no worker naps through it.
    const std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::on_worker_thread() noexcept { return tl_worker_index >= 0; }

void ThreadPool::submit(Task task) {
  DEFA_CHECK(!stop_.load(), "ThreadPool: submit after shutdown");
  const std::size_t n = queues_.size();
  std::size_t target;
  bool lifo = false;
  if (tl_worker_index >= 0 && static_cast<std::size_t>(tl_worker_index) < n &&
      queues_[static_cast<std::size_t>(tl_worker_index)] != nullptr) {
    target = static_cast<std::size_t>(tl_worker_index);
    lifo = true;  // nested fan-out stays hot on the submitting worker
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) % n;
  }
  {
    const std::lock_guard<std::mutex> lock(queues_[target]->mu);
    if (lifo) {
      queues_[target]->q.push_front(std::move(task));
    } else {
      queues_[target]->q.push_back(std::move(task));
    }
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    // Pair the pending_ update with the sleep predicate (same as the
    // destructor's stop_ store): a worker that just saw pending_ == 0 is
    // guaranteed to be blocked in wait() before this notify fires, so the
    // wakeup cannot be lost.
    const std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t id, Task& out) {
  // Own deque first (front: LIFO for the owner) ...
  {
    WorkerQueue& own = *queues_[id];
    const std::lock_guard<std::mutex> lock(own.mu);
    if (!own.q.empty()) {
      out = std::move(own.q.front());
      own.q.pop_front();
      return true;
    }
  }
  // ... then steal from the other workers' tails (FIFO: oldest work).
  const std::size_t n = queues_.size();
  for (std::size_t k = 1; k < n; ++k) {
    WorkerQueue& victim = *queues_[(id + k) % n];
    const std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.q.empty()) {
      out = std::move(victim.q.back());
      victim.q.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_main(std::size_t id) {
  tl_worker_index = static_cast<int>(id);
  Task task;
  while (true) {
    if (try_pop(id, task)) {
      pending_.fetch_sub(1, std::memory_order_acquire);
      task();
      task = nullptr;  // release captured state before sleeping
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load() || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load() && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

void ThreadPool::run_indexed(std::int64_t n, int max_concurrency,
                             const std::function<void(std::int64_t)>& fn) {
  DEFA_CHECK(n >= 0, "ThreadPool::run_indexed: negative count");
  if (n == 0) return;

  // Shared between the caller and helper tasks; helpers hold it by
  // shared_ptr, so a helper that starts after the loop already finished
  // (and the caller returned) still touches valid memory and exits.
  struct Shared {
    std::atomic<std::int64_t> next{0};
    std::int64_t total = 0;
    std::function<void(std::int64_t)> fn;
    std::mutex mu;
    std::condition_variable cv;
    std::int64_t done = 0;               // guarded by mu
    std::exception_ptr error;            // guarded by mu; first one wins
  };
  auto s = std::make_shared<Shared>();
  s->total = n;
  s->fn = fn;

  const auto drain = [](const std::shared_ptr<Shared>& sh) {
    while (true) {
      const std::int64_t i = sh->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= sh->total) return;
      std::exception_ptr err;
      try {
        sh->fn(i);
      } catch (...) {
        err = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(sh->mu);
      if (err && !sh->error) sh->error = err;
      if (++sh->done == sh->total) sh->cv.notify_all();
    }
  };

  const int pool_cap = max_concurrency <= 0 ? size() : max_concurrency;
  const auto helpers = static_cast<int>(std::min<std::int64_t>(
      n - 1, std::min<std::int64_t>(pool_cap - 1, size())));
  for (int i = 0; i < helpers; ++i) submit([s, drain] { drain(s); });

  drain(s);  // caller participates: completion never waits on a free worker

  std::unique_lock<std::mutex> lock(s->mu);
  s->cv.wait(lock, [&] { return s->done == s->total; });
  if (s->error) std::rethrow_exception(s->error);
}

}  // namespace defa
