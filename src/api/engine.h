#pragma once

/// \file engine.h
/// `defa::Engine` — the thread-safe facade every driver (bench binaries,
/// examples, defa_cli, registered experiments) evaluates workloads through.
///
/// The Engine owns a keyed cache of per-(model, scene) benchmark state
/// (scene workload, functional pipeline, dense reference trajectory,
/// simulator traces): repeated requests against the same workload share one
/// context, and `run_batch` fans independent requests across the
/// common/parallel worker pool.  Batched and sequential evaluation produce
/// bit-identical results — every request is deterministic in its own
/// (model, scene, prune, hw) tuple and shares no mutable state beyond the
/// lock-guarded caches.

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/request.h"
#include "core/experiments.h"

namespace defa::api {

class Engine {
 public:
  struct Options {
    /// Upper bound on concurrent requests in run_batch; 0 =
    /// parallel_concurrency() (the global pool's size).
    int max_parallel_requests = 0;
    /// Memoize full EvalResults by request identity (on by default; the
    /// context cache below is independent of this).
    bool memoize_results = true;
    /// Bound on cached (model, scene) contexts; 0 = unbounded.  A positive
    /// bound turns the ContextPool into an LRU cache, which makes request
    /// ordering matter: the serve-layer locality scheduler exists to keep
    /// same-key requests adjacent so they hit this cache.
    std::size_t max_contexts = 0;
    /// Bound on memoized EvalResults (entry count); 0 = unbounded.  A
    /// positive bound turns the result memo into an LRU cache, mirroring
    /// `max_contexts`; evictions are counted in CacheStats.
    std::size_t max_memo = 0;
    /// Compute backend every evaluation runs on, by kernels-registry name
    /// ("reference", "fused", ...).  Empty selects the process default
    /// (the DEFA_BACKEND environment variable, else "reference").  A
    /// request's own `backend` field overrides this per request.  All
    /// registered backends produce bit-identical results, so this is a
    /// pure performance knob.
    std::string backend;
  };

  Engine() : Engine(Options{}) {}
  explicit Engine(Options options);

  /// A live configuration change; unset fields keep their current value.
  /// `serve::Server::reconfigure` (the protocol `reconfigure` method)
  /// applies these between dispatches.
  struct Reconfig {
    std::optional<std::string> backend;       ///< "" = process default
    std::optional<std::size_t> max_contexts;  ///< 0 = unbounded
    std::optional<std::size_t> max_memo;      ///< 0 = unbounded
    std::optional<bool> memoize_results;
  };

  /// Apply a configuration change.  Validates the backend name first
  /// (throws defa::CheckError leaving the Engine untouched), then applies
  /// atomically with respect to concurrent `run` calls: each run observes
  /// one coherent configuration.  Shrinking `max_contexts`/`max_memo`
  /// evicts LRU entries down to the new bound (counted as evictions).
  void reconfigure(const Reconfig& rc);

  /// Zero every cache counter (context hits/misses/evictions, memo
  /// hits/misses/evictions, process-wide plan hits/misses).  Cached
  /// entries are untouched; pair with `clear_caches()` for a cold,
  /// fresh-process-like engine.
  void reset_stats();

  /// Evaluate one request.  Throws defa::CheckError on validation errors.
  [[nodiscard]] EvalResult run(const EvalRequest& request);

  /// Evaluate a batch of requests concurrently; results come back in
  /// request order and are bit-identical to sequential `run` calls.
  /// Validation errors in any request throw before any work starts.
  [[nodiscard]] std::vector<EvalResult> run_batch(
      const std::vector<EvalRequest>& requests);

  /// Shared benchmark context of a (model, scene) pair — the seam the
  /// registered experiments use so figure drivers and Engine requests
  /// reuse one another's state.
  [[nodiscard]] std::shared_ptr<core::BenchmarkContext> context(
      const ModelConfig& m, const workload::SceneParams& scene);
  [[nodiscard]] std::shared_ptr<core::BenchmarkContext> context(const ModelConfig& m);

  /// The underlying pool (for core::run_figXX experiment drivers).
  [[nodiscard]] core::ContextPool& pool() noexcept { return pool_; }

  [[nodiscard]] std::size_t cached_contexts() const { return pool_.size(); }
  [[nodiscard]] std::size_t memoized_results() const;
  void clear_caches();

  /// Monotonic cache-effectiveness counters (serve/metrics exports them).
  /// The plan counters are process-wide PlanCache totals (plan caches live
  /// per-pipeline inside pooled contexts — see kernels::PlanCache); the
  /// entries field is a live gauge of resident sampling/locality plans.
  struct CacheStats {
    core::ContextPool::CacheStats context;  ///< (model, scene) context cache
    std::uint64_t memo_hits = 0;            ///< run() served from the memo
    std::uint64_t memo_misses = 0;          ///< run() had to evaluate
    std::uint64_t memo_evictions = 0;       ///< LRU entries dropped (max_memo)
    std::uint64_t plan_hits = 0;            ///< PlanCache::get*() resident
    std::uint64_t plan_misses = 0;          ///< PlanCache::get*() built fresh
    std::uint64_t plan_entries = 0;         ///< resident plans (gauge)
  };
  [[nodiscard]] CacheStats cache_stats() const;

 private:
  struct MemoEntry {
    EvalResult result;
    std::uint64_t last_used = 0;  ///< tick of the most recent run() touch
  };

  /// `default_backend` is the engine-level backend the caller snapshotted
  /// (a request's own `backend` field still overrides it).
  [[nodiscard]] EvalResult evaluate(const EvalRequest& request,
                                    const std::string& default_backend);
  void evict_memo_locked(std::size_t max_memo);

  mutable std::mutex options_mu_;  ///< guards options_ (reconfigure vs run)
  Options options_;                // guarded by options_mu_
  core::ContextPool pool_;
  mutable std::mutex memo_mu_;
  std::unordered_map<std::string, MemoEntry> memo_;  // guarded by memo_mu_
  std::uint64_t memo_tick_ = 0;       // guarded by memo_mu_
  std::uint64_t memo_hits_ = 0;       // guarded by memo_mu_
  std::uint64_t memo_misses_ = 0;     // guarded by memo_mu_
  std::uint64_t memo_evictions_ = 0;  // guarded by memo_mu_
};

}  // namespace defa::api
