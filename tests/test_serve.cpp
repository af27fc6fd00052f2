// Tests for the serving subsystem: the persistent thread pool (and
// parallel_for routed through it), the Server scheduler (determinism under
// concurrent mixed-key load, deadlines, backpressure, priority
// anti-starvation), the JSON-lines loop and the load generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "api/engine.h"
#include "api/request.h"
#include "common/parallel.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "serve/loadgen.h"
#include "serve/malloc_policy.h"
#include "serve/metrics.h"
#include "serve/scenario.h"
#include "serve/scheduler.h"
#include "serve/server_loop.h"

namespace defa::serve {
namespace {

using api::EvalRequest;
using api::EvalResult;

// ------------------------------------------------------------------ ThreadPool

TEST(ThreadPool, RunIndexedCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run_indexed(1000, 0, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunIndexedPropagatesFirstException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run_indexed(64, 0,
                                [&](std::int64_t i) {
                                  ran.fetch_add(1);
                                  if (i == 7) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // Remaining indices still ran; nothing was abandoned half-done.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, NestedFanOutDoesNotOversubscribe) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::thread::id> seen;
  // Nested run_indexed from inside pool tasks: every executing thread must
  // be one of the 3 workers or the calling (test) thread.
  pool.run_indexed(8, 0, [&](std::int64_t) {
    pool.run_indexed(16, 0, [&](std::int64_t) {
      const std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    });
  });
  EXPECT_LE(seen.size(), 4u);  // 3 workers + caller, never more
}

TEST(ThreadPool, ParallelForMatchesSequential) {
  constexpr std::int64_t kN = 100000;
  std::vector<double> out(kN, 0.0);
  parallel_for(0, kN, /*work_per_item=*/1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) out[static_cast<std::size_t>(i)] = 3.0 * i;
  });
  for (std::int64_t i = 0; i < kN; i += 997) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], 3.0 * i);
  }
}

TEST(ThreadPool, ParallelForUsesOnlyPersistentThreads) {
  std::mutex mu;
  std::set<std::thread::id> seen;
  for (int round = 0; round < 20; ++round) {
    parallel_for(0, 1 << 16, kMinParallelWork, [&](std::int64_t, std::int64_t) {
      const std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    });
  }
  // Repeated calls reuse the one global pool (+ this thread) instead of
  // spawning new threads per call.  One call runs on parallel_concurrency()
  // executors, but which workers help varies from round to round, so over
  // all rounds every worker and this thread may show up.
  EXPECT_LE(seen.size(), static_cast<std::size_t>(parallel_concurrency()) + 1);
}

/// Runs a fanned-out parallel_for whose every chunk waits until `want`
/// distinct threads have entered a chunk (or a generous deadline passes),
/// and returns how many distinct threads arrived.  A fork-join that gets
/// fewer than `want` executors can never fill the latch.
std::size_t fan_out_width(int want) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> arrived;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  parallel_for(0, 1 << 16, kMinParallelWork, [&](std::int64_t, std::int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    arrived.insert(std::this_thread::get_id());
    cv.notify_all();
    cv.wait_until(lock, deadline,
                  [&] { return arrived.size() >= static_cast<std::size_t>(want); });
  });
  return arrived.size();
}

TEST(ThreadPool, ParallelForOnAWorkerReachesEveryExecutor) {
  // A served request runs on a pool worker; its fork-joins must still get
  // parallel_concurrency() executors, the worker itself counted once.
  std::promise<std::size_t> width;
  ThreadPool::global().submit(
      [&] { width.set_value(fan_out_width(parallel_concurrency())); });
  EXPECT_EQ(width.get_future().get(), static_cast<std::size_t>(parallel_concurrency()));
}

TEST(ThreadPool, ParallelForOffThePoolReachesEveryExecutor) {
  EXPECT_EQ(fan_out_width(parallel_concurrency()),
            static_cast<std::size_t>(parallel_concurrency()));
}

TEST(ThreadPool, GlobalPoolHasOneWorkerPerHardwareThread) {
  EXPECT_EQ(ThreadPool::global().size(), hardware_threads());
  EXPECT_EQ(parallel_concurrency(), ThreadPool::global().size());
}

// ------------------------------------------------------------------- Histogram

TEST(LatencyHistogram, PercentilesTrackObservations) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));  // 1..1000 ms
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1000.0);
  // Log-scale buckets quantize within ~1 growth factor.
  EXPECT_NEAR(h.percentile(50) / 500.0, 1.0, 0.25);
  EXPECT_NEAR(h.percentile(95) / 950.0, 1.0, 0.25);
  EXPECT_NEAR(h.percentile(99) / 990.0, 1.0, 0.25);
  EXPECT_LE(h.percentile(100), 1000.0);
  EXPECT_GE(h.percentile(0), 1.0);
}

TEST(LatencyHistogram, JsonHasPercentileKeys) {
  LatencyHistogram h;
  h.record(2.5);
  const api::Json j = h.to_json();
  for (const char* key : {"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"}) {
    EXPECT_TRUE(j.contains(key)) << key;
  }
  EXPECT_EQ(j.at("count").as_int(), 1);
}

TEST(LatencyHistogram, RawBucketExportRoundTripsAndMerges) {
  LatencyHistogram a, b;
  for (int i = 1; i <= 500; ++i) a.record(0.01 * i);    // 0.01 .. 5 ms
  for (int i = 1; i <= 300; ++i) b.record(10.0 * i);    // 10 .. 3000 ms
  const api::Json ja = a.to_json();

  // The sparse export's counts sum to the total observation count.
  std::uint64_t bucket_sum = 0;
  for (const api::Json& pair : ja.at("buckets").items()) {
    bucket_sum += static_cast<std::uint64_t>(pair.at(std::size_t{1}).as_int());
  }
  EXPECT_EQ(bucket_sum, a.count());

  // Round trip: the parsed histogram reproduces counts and percentiles.
  const LatencyHistogram a2 =
      LatencyHistogram::from_json(api::Json::parse(ja.dump()));
  EXPECT_EQ(a2.count(), a.count());
  EXPECT_EQ(a2.min(), a.min());
  EXPECT_EQ(a2.max(), a.max());
  EXPECT_EQ(a2.percentile(50), a.percentile(50));
  EXPECT_EQ(a2.percentile(99), a.percentile(99));

  // Cross-run merge: parse both exports, merge, compare with the direct
  // in-memory merge (the documented BENCH_SCHEMA.md procedure).
  LatencyHistogram merged_direct = a;
  merged_direct.merge(b);
  LatencyHistogram merged_json = LatencyHistogram::from_json(a.to_json());
  merged_json.merge(LatencyHistogram::from_json(b.to_json()));
  EXPECT_EQ(merged_json.count(), merged_direct.count());
  EXPECT_EQ(merged_json.min(), merged_direct.min());
  EXPECT_EQ(merged_json.max(), merged_direct.max());
  EXPECT_EQ(merged_json.percentile(50), merged_direct.percentile(50));
  EXPECT_EQ(merged_json.percentile(95), merged_direct.percentile(95));
  EXPECT_EQ(merged_json.mean(), merged_direct.mean());
}

TEST(LatencyHistogram, FromJsonRejectsInconsistentExports) {
  LatencyHistogram h;
  h.record(1.0);
  h.record(2.0);
  // Tamper with the count so buckets no longer sum to it.
  api::Json j = h.to_json();
  j["count"] = 3;
  EXPECT_THROW((void)LatencyHistogram::from_json(j), CheckError);
  // Wrong scale parameters are rejected rather than silently re-bucketed.
  api::Json j2 = h.to_json();
  j2["bucket_growth"] = 2.0;
  EXPECT_THROW((void)LatencyHistogram::from_json(j2), CheckError);
}

TEST(LatencyHistogram, BucketBoundsBracketObservations) {
  LatencyHistogram h;
  const double ms = 7.3;
  h.record(ms);
  const api::Json j = h.to_json();
  ASSERT_EQ(j.at("buckets").size(), 1u);
  const int b = static_cast<int>(j.at("buckets").at(std::size_t{0})
                                     .at(std::size_t{0}).as_int());
  EXPECT_LE(LatencyHistogram::bucket_lower_ms(b), ms);
  EXPECT_GT(LatencyHistogram::bucket_upper_ms(b), ms);
}

// ------------------------------------------------------- Server: determinism

/// >= 64 requests over mixed workload keys: two scenes x several prune
/// configs x several output masks on the tiny preset.
std::vector<EvalRequest> mixed_key_requests() {
  std::vector<EvalRequest> reqs;
  const std::vector<api::OutputMask> masks = {
      api::kFunctional, api::kFunctional | api::kLatency,
      api::kFunctional | api::kEnergy, api::kFunctional | api::kAccuracy};
  for (const std::uint64_t scene_seed : {0ull, 977ull}) {
    for (int variant = 0; variant < 4; ++variant) {
      for (std::size_t m = 0; m < masks.size(); ++m) {
        for (int rep = 0; rep < 2; ++rep) {  // duplicates exercise the memo
          EvalRequest r;
          r.preset = "tiny";
          r.outputs = masks[m];
          if (scene_seed != 0) {
            workload::SceneParams scene;
            scene.seed = scene_seed;
            r.scene = scene;
          }
          core::PruneConfig cfg;
          switch (variant) {
            case 0: break;  // defa_default via resolve
            case 1:
              cfg.label = "pap";
              cfg.pap = true;
              cfg.pap_tau = 0.04;
              r.prune = cfg;
              break;
            case 2:
              r.prune = core::PruneConfig::only_quant(8);
              break;
            case 3:
              cfg.label = "fwp";
              cfg.fwp = true;
              cfg.fwp_k = 0.5;
              r.prune = cfg;
              break;
          }
          reqs.push_back(std::move(r));
        }
      }
    }
  }
  EXPECT_GE(reqs.size(), 64u);
  return reqs;
}

TEST(Server, ConcurrentMixedKeyLoadBitIdenticalToSequential) {
  const std::vector<EvalRequest> requests = mixed_key_requests();

  // Sequential reference on an independent engine (no shared caches).
  api::Engine reference;
  std::vector<EvalResult> expected;
  expected.reserve(requests.size());
  for (const EvalRequest& r : requests) expected.push_back(reference.run(r));

  Server server;
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ServeRequest sr;
    sr.id = "req" + std::to_string(i);
    sr.request = requests[i];
    // Mixed priorities stress the dispatch order too.
    sr.priority = static_cast<Priority>(i % kPriorityClasses);
    futures.push_back(server.submit(std::move(sr)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResponse resp = futures[i].get();
    ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
    EXPECT_EQ(resp.id, "req" + std::to_string(i));
    ASSERT_TRUE(resp.result.has_value());
    EXPECT_EQ(*resp.result, expected[i]) << "request " << i;
  }

  server.drain();  // settle the in-flight gauge before reading it
  const MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(snap.completed_ok, requests.size());
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_EQ(snap.in_flight, 0);
  EXPECT_GT(snap.total_ms.percentile(50), 0.0);
}

// ------------------------------------------------------- Server: scheduling

TEST(Server, PastDueDeadlineRejectedNotSilentlyDropped) {
  ServerOptions opts;
  opts.max_concurrency = 1;
  Server server(opts);

  ServeRequest expired;
  expired.id = "expired";
  expired.request.preset = "tiny";
  expired.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const ServeResponse resp = server.submit(std::move(expired)).get();
  EXPECT_EQ(resp.status, ResponseStatus::kRejectedDeadline);
  EXPECT_FALSE(resp.result.has_value());
  EXPECT_FALSE(resp.error.empty());

  // A deadline that expires while waiting in the queue: occupy the single
  // dispatch slot with enough work, then submit an already-doomed request.
  std::vector<std::future<ServeResponse>> blockers;
  for (int i = 0; i < 4; ++i) {
    ServeRequest blocker;
    blocker.request.preset = "tiny";
    core::PruneConfig cfg;
    cfg.label = "blocker" + std::to_string(i);  // distinct memo keys
    cfg.pap = true;
    cfg.pap_tau = 0.01 + 0.001 * i;
    blocker.request.prune = cfg;
    blockers.push_back(server.submit(std::move(blocker)));
  }
  ServeRequest doomed;
  doomed.id = "doomed";
  doomed.request.preset = "tiny";
  doomed.deadline = std::chrono::steady_clock::now();  // expires immediately
  const ServeResponse late = server.submit(std::move(doomed)).get();
  EXPECT_EQ(late.status, ResponseStatus::kRejectedDeadline);
  for (auto& b : blockers) EXPECT_EQ(b.get().status, ResponseStatus::kOk);

  const MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(snap.rejected_deadline, 2u);
  EXPECT_EQ(snap.submitted, 6u);
}

TEST(Server, OverloadBackpressureRejectsInsteadOfGrowingQueue) {
  ServerOptions opts;
  opts.max_concurrency = 1;
  opts.queue_capacity = 2;
  Server server(opts);

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    ServeRequest r;
    r.id = std::to_string(i);
    r.request.preset = "tiny";
    core::PruneConfig cfg;
    cfg.label = "load" + std::to_string(i);
    cfg.fwp = true;
    cfg.fwp_k = 0.4 + 0.01 * i;  // unique keys: every request really runs
    r.request.prune = cfg;
    futures.push_back(server.submit(std::move(r)));
  }
  int ok = 0, overloaded = 0;
  for (auto& f : futures) {
    const ServeResponse resp = f.get();
    if (resp.status == ResponseStatus::kOk) ++ok;
    if (resp.status == ResponseStatus::kRejectedOverload) ++overloaded;
  }
  EXPECT_EQ(ok + overloaded, 16);
  EXPECT_GT(overloaded, 0);  // the bounded queue pushed back
  EXPECT_GT(ok, 0);          // admitted work completed
  EXPECT_EQ(server.metrics().rejected_overload,
            static_cast<std::uint64_t>(overloaded));
}

TEST(Server, DispatchPatternGivesEveryClassASlot) {
  int high = 0, normal = 0, low = 0;
  for (std::uint64_t s = 0; s < static_cast<std::uint64_t>(Server::kDispatchPatternLen);
       ++s) {
    switch (Server::dispatch_slot(s)) {
      case Priority::kHigh: ++high; break;
      case Priority::kNormal: ++normal; break;
      case Priority::kLow: ++low; break;
    }
  }
  EXPECT_GT(high, normal);  // strictly prioritized ...
  EXPECT_GT(normal, low);
  EXPECT_GE(low, 1);  // ... but low is guaranteed a slot per cycle
}

TEST(Server, HighPriorityFloodDoesNotStarveLowPriority) {
  ServerOptions opts;
  opts.max_concurrency = 1;  // serial dispatch: completion order = dispatch order
  Server server(opts);

  // Queue a flood of unique-key high-priority requests, then one low:
  // the weighted dispatch pattern must hand the low request an early slot
  // instead of parking it behind the whole flood.
  std::vector<std::future<ServeResponse>> high;
  std::future<ServeResponse> low;
  for (int i = 0; i < 24; ++i) {
    ServeRequest r;
    r.id = "high" + std::to_string(i);
    r.request.preset = "tiny";
    core::PruneConfig cfg;
    cfg.label = "starve" + std::to_string(i);
    cfg.pap = true;
    cfg.pap_tau = 0.02 + 0.001 * i;
    r.request.prune = cfg;
    r.priority = Priority::kHigh;
    high.push_back(server.submit(std::move(r)));
  }
  {
    ServeRequest r;
    r.id = "low";
    r.request.preset = "tiny";
    r.priority = Priority::kLow;
    low = server.submit(std::move(r));
  }
  server.drain();

  // With the H H N H H N L pattern the low request is dispatched within
  // the first pattern cycle even though 24 high requests were ahead of it;
  // its queue time must therefore be below the full drain time.
  const ServeResponse low_resp = low.get();
  ASSERT_EQ(low_resp.status, ResponseStatus::kOk) << low_resp.error;
  double max_high_total = 0;
  for (auto& f : high) {
    const ServeResponse r = f.get();
    ASSERT_EQ(r.status, ResponseStatus::kOk) << r.error;
    max_high_total = std::max(max_high_total, r.total_ms);
  }
  EXPECT_LT(low_resp.total_ms, max_high_total);
}

// ------------------------------------------------- Server: locality policy

/// One tiny-preset request on scene `scene_seed` (0 = the default scene).
/// Distinct scenes have distinct Engine workload keys.
ServeRequest scene_request(std::uint64_t scene_seed, const std::string& id) {
  ServeRequest r;
  r.id = id;
  r.request.preset = "tiny";
  if (scene_seed != 0) {
    workload::SceneParams scene;
    scene.seed = scene_seed;
    r.request.scene = scene;
  }
  return r;
}

TEST(ServerLocality, SameKeyRequestsDispatchAdjacentlyUnderMixedKeyLoad) {
  ServerOptions opts;
  opts.max_concurrency = 1;   // serial dispatch: one global dispatch order
  opts.start_paused = true;   // stage the whole queue -> deterministic order
  opts.policy = SchedulePolicy::kLocality;
  opts.locality_window = 100;  // budget larger than either key's backlog
  Server server(opts);

  // Perfectly interleaved submissions of two workload keys.
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit(scene_request(0, "a" + std::to_string(i))));
    futures.push_back(server.submit(scene_request(977, "b" + std::to_string(i))));
  }
  server.resume();

  // Reconstruct the dispatch order and count key switches: locality must
  // drain one key's window before touching the other (1 switch), where
  // FIFO order would alternate every dispatch (15 switches).
  std::vector<std::pair<std::int64_t, std::string>> order;  // (index, key)
  for (auto& f : futures) {
    const ServeResponse resp = f.get();
    ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
    ASSERT_GE(resp.dispatch_index, 0);
    order.emplace_back(resp.dispatch_index, resp.result->workload_key);
  }
  std::sort(order.begin(), order.end());
  int switches = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i].second != order[i - 1].second) ++switches;
  }
  EXPECT_EQ(switches, 1);
  // Submission order is preserved within each key's window.
  EXPECT_EQ(order.front().second, order[7].second);
}

TEST(ServerLocality, FairnessBudgetBoundsKeyMonopoly) {
  ServerOptions opts;
  opts.max_concurrency = 1;
  opts.start_paused = true;
  opts.policy = SchedulePolicy::kLocality;
  opts.locality_window = 2;  // after 2 same-key dispatches, rotate keys
  Server server(opts);

  // A flood of one key with a single other-key request buried at the end:
  // the fairness budget must hand the minority key a slot after at most
  // `locality_window` majority dispatches instead of parking it behind
  // the whole flood.
  std::vector<std::future<ServeResponse>> flood;
  for (int i = 0; i < 10; ++i) {
    flood.push_back(server.submit(scene_request(0, "flood" + std::to_string(i))));
  }
  std::future<ServeResponse> minority =
      server.submit(scene_request(977, "minority"));
  server.resume();

  const ServeResponse m = minority.get();
  ASSERT_EQ(m.status, ResponseStatus::kOk) << m.error;
  EXPECT_EQ(m.dispatch_index, 2);  // exactly after the first exhausted window
  for (auto& f : flood) EXPECT_EQ(f.get().status, ResponseStatus::kOk);
}

TEST(ServerLocality, DeadlineRejectionStillHonored) {
  ServerOptions opts;
  opts.max_concurrency = 1;
  opts.start_paused = true;
  opts.policy = SchedulePolicy::kLocality;
  Server server(opts);

  std::future<ServeResponse> ok = server.submit(scene_request(0, "ok"));
  ServeRequest doomed = scene_request(0, "doomed");
  doomed.deadline = std::chrono::steady_clock::now();  // expires immediately
  std::future<ServeResponse> rejected = server.submit(std::move(doomed));
  server.resume();

  EXPECT_EQ(ok.get().status, ResponseStatus::kOk);
  const ServeResponse r = rejected.get();
  EXPECT_EQ(r.status, ResponseStatus::kRejectedDeadline);
  EXPECT_FALSE(r.result.has_value());
}

TEST(ServerLocality, HigherContextHitRateThanFifoUnderBoundedPool) {
  // Interleaved two-key traffic against a context pool that only holds one
  // context, with result memoization off so every request really touches
  // the pool.  FIFO alternates keys and misses every time; locality drains
  // one key's window at a time and almost always hits.
  const auto run_policy = [](SchedulePolicy policy) {
    ServerOptions opts;
    opts.max_concurrency = 1;
    opts.start_paused = true;
    opts.policy = policy;
    opts.locality_window = 8;
    opts.engine.max_contexts = 1;
    opts.engine.memoize_results = false;
    Server server(opts);
    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(server.submit(scene_request(0, "a" + std::to_string(i))));
      futures.push_back(server.submit(scene_request(977, "b" + std::to_string(i))));
    }
    server.resume();
    for (auto& f : futures) EXPECT_EQ(f.get().status, ResponseStatus::kOk);
    server.drain();
    return server.metrics();
  };

  const MetricsSnapshot fifo = run_policy(SchedulePolicy::kFifo);
  const MetricsSnapshot locality = run_policy(SchedulePolicy::kLocality);
  // FIFO: strict a/b alternation evicts the other key's context every
  // single dispatch.  Locality: one miss per window of 8.
  EXPECT_EQ(fifo.context_hits, 0u);
  EXPECT_EQ(fifo.context_misses, 16u);
  EXPECT_EQ(locality.context_hits, 14u);
  EXPECT_EQ(locality.context_misses, 2u);
  EXPECT_GT(locality.context_hit_rate(), fifo.context_hit_rate());
}

TEST(ServerLocality, ResultsBitIdenticalToFifoAndSequential) {
  const std::vector<EvalRequest> requests = mixed_key_requests();

  // Sequential reference on an unbounded, memoizing engine.
  api::Engine reference;
  std::vector<EvalResult> expected;
  expected.reserve(requests.size());
  for (const EvalRequest& r : requests) expected.push_back(reference.run(r));

  const auto run_policy = [&](SchedulePolicy policy) {
    ServerOptions opts;
    opts.policy = policy;
    // Stress the rebuild path too: bounded contexts + no memo mean some
    // workloads are evicted and reconstructed mid-run.
    opts.engine.max_contexts = 2;
    opts.engine.memoize_results = false;
    Server server(opts);
    std::vector<std::future<ServeResponse>> futures;
    futures.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ServeRequest sr;
      sr.id = "req" + std::to_string(i);
      sr.request = requests[i];
      sr.priority = static_cast<Priority>(i % kPriorityClasses);
      futures.push_back(server.submit(std::move(sr)));
    }
    std::vector<EvalResult> results;
    results.reserve(futures.size());
    for (auto& f : futures) {
      const ServeResponse resp = f.get();
      EXPECT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
      results.push_back(*resp.result);
    }
    return results;
  };

  const std::vector<EvalResult> fifo = run_policy(SchedulePolicy::kFifo);
  const std::vector<EvalResult> locality = run_policy(SchedulePolicy::kLocality);
  ASSERT_EQ(fifo.size(), expected.size());
  ASSERT_EQ(locality.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fifo[i], expected[i]) << "fifo request " << i;
    EXPECT_EQ(locality[i], expected[i]) << "locality request " << i;
  }
}

TEST(ServerReconfigure, SwitchesPolicyAndResetsMetricsBetweenDispatches) {
  serve::Server server{serve::ServerOptions{}};
  serve::ServeRequest r;
  r.request.preset = "tiny";
  (void)server.submit(r).get();
  EXPECT_GT(server.metrics().submitted, 0u);

  serve::ServerReconfig rc;
  rc.policy = serve::SchedulePolicy::kLocality;
  rc.locality_window = 2;
  rc.reset_stats = true;
  server.reconfigure(rc);
  const serve::ServerOptions after = server.options_snapshot();
  EXPECT_EQ(after.policy, serve::SchedulePolicy::kLocality);
  EXPECT_EQ(after.locality_window, 2);
  EXPECT_EQ(server.metrics().submitted, 0u);

  serve::ServerReconfig bad;
  bad.locality_window = 0;
  EXPECT_THROW(server.reconfigure(bad), CheckError);

  const auto resp = server.submit(r).get();
  EXPECT_EQ(resp.status, serve::ResponseStatus::kOk);
}

// ----------------------------------------------------------- EvalRequest JSON

TEST(RequestJson, RoundTripPreservesRequestIdentity) {
  EvalRequest r;
  r.preset = "tiny";
  workload::SceneParams scene;
  scene.seed = 42;
  scene.n_objects = 9;
  r.scene = scene;
  core::PruneConfig cfg;
  cfg.label = "roundtrip";
  cfg.pap = true;
  cfg.pap_tau = 0.033;
  cfg.quantize = true;
  cfg.bits = 10;
  r.prune = cfg;
  r.hw = HwConfig::make_default(ModelConfig::tiny());
  r.outputs = api::kFunctional | api::kLatency;

  const api::Json j = api::to_json(r);
  const EvalRequest back = api::eval_request_from_json(api::Json::parse(j.dump()));
  EXPECT_EQ(back.request_key(), r.request_key());
  EXPECT_NO_THROW(back.validate());
}

TEST(RequestJson, CustomModelRoundTrip) {
  EvalRequest r;
  r.model = ModelConfig::tiny();
  const EvalRequest back =
      api::eval_request_from_json(api::Json::parse(api::to_json(r).dump()));
  EXPECT_EQ(back.request_key(), r.request_key());
}

TEST(RequestJson, PartialObjectsOverlayDefaults) {
  const api::Json j = api::Json::parse(
      R"({"preset":"tiny","prune":{"pap":true},"hw":{"sram_banks":8},)"
      R"("outputs":["functional","energy"]})");
  const EvalRequest r = api::eval_request_from_json(j);
  EXPECT_TRUE(r.prune->pap);
  EXPECT_FALSE(r.prune->fwp);
  EXPECT_EQ(r.hw->sram_banks, 8);
  // Unmentioned hw fields come from the model's defaults, ranges included.
  EXPECT_GT(r.hw->ranges.used_levels, 0);
  EXPECT_EQ(r.outputs, api::kFunctional | api::kEnergy);
  EXPECT_NO_THROW(r.validate());
}

TEST(RequestJson, StrictParsingRejectsMalformedRequests) {
  using api::eval_request_from_json;
  using api::Json;
  // Unknown keys at every level.
  EXPECT_THROW((void)eval_request_from_json(Json::parse(R"({"presett":"tiny"})")),
               CheckError);
  EXPECT_THROW((void)eval_request_from_json(
                   Json::parse(R"({"preset":"tiny","prune":{"paps":true}})")),
               CheckError);
  // Both preset and model / neither.
  EXPECT_THROW((void)eval_request_from_json(Json::parse(R"({"outputs":["functional"]})")),
               CheckError);
  // Unknown output section.
  EXPECT_THROW((void)eval_request_from_json(
                   Json::parse(R"({"preset":"tiny","outputs":["latencyy"]})")),
               CheckError);
  // Non-object root.
  EXPECT_THROW((void)eval_request_from_json(Json::parse("[1,2]")), CheckError);
}

// ------------------------------------------------------------ JSON-lines loop

TEST(ServeLoop, ServesLinesInArrivalOrder) {
  std::istringstream in(
      "{\"preset\":\"tiny\",\"outputs\":[\"functional\"]}\n"
      "\n"  // blank lines are skipped
      "{\"id\":\"second\",\"priority\":\"low\",\"request\":{\"preset\":\"tiny\"}}\n"
      "not json\n"
      "{\"id\":\"r7\",\"request\":{\"preset\":\"nonexistent\"}}\n"
      "{\"id\":\"fourth\",\"request\":{\"preset\":\"tiny\",\"outputs\":[\"accuracy\"]}}\n");
  std::ostringstream out;
  ServeLoopOptions options;
  options.emit_metrics = true;
  const int bad = run_serve_loop(in, out, options);
  EXPECT_EQ(bad, 2);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<api::Json> responses;
  while (std::getline(lines, line)) responses.push_back(api::Json::parse(line));
  ASSERT_EQ(responses.size(), 6u);  // 5 responses + metrics
  EXPECT_EQ(responses[0].at("status").as_string(), "ok");
  EXPECT_EQ(responses[1].at("id").as_string(), "second");
  EXPECT_EQ(responses[1].at("status").as_string(), "ok");
  EXPECT_EQ(responses[2].at("status").as_string(), "bad_request");
  // A line that parses but fails validation still echoes its envelope id.
  EXPECT_EQ(responses[3].at("status").as_string(), "bad_request");
  EXPECT_EQ(responses[3].at("id").as_string(), "r7");
  EXPECT_EQ(responses[4].at("id").as_string(), "fourth");
  EXPECT_TRUE(responses[4].at("result").contains("accuracy"));
  EXPECT_EQ(responses[5].at("metrics").at("completed_ok").as_int(), 3);
}

// ------------------------------------------------------------- scenario files

TEST(ScenarioFile, ParsesFullDescription) {
  const api::Json j = api::Json::parse(R"({
    "name": "mixed",
    "requests": 48,
    "seed": 9,
    "timeout_ms": 25,
    "arrival": {"process": "poisson", "rate_qps": 300},
    "server": {"workers": 2, "queue_capacity": 64, "policy": "locality",
               "locality_window": 4, "max_contexts": 2, "memoize_results": false},
    "sweep": {"rates_qps": [100, 200]},
    "scenarios": [
      {"name": "a", "weight": 3,
       "request": {"preset": "tiny", "outputs": ["functional"]}},
      {"name": "b", "priority": "low",
       "request": {"preset": "tiny", "scene": {"seed": 42}}}
    ]
  })");
  const ScenarioFile f = scenario_file_from_json(j);
  EXPECT_EQ(f.name, "mixed");
  EXPECT_EQ(f.base.requests, 48);
  EXPECT_EQ(f.base.seed, 9u);
  EXPECT_EQ(f.base.timeout_ms, 25.0);
  EXPECT_EQ(f.base.mode, LoadGenOptions::Mode::kOpen);
  EXPECT_TRUE(f.base.poisson);
  EXPECT_EQ(f.base.rate_qps, 300.0);
  EXPECT_EQ(f.base.server.max_concurrency, 2);
  EXPECT_EQ(f.base.server.queue_capacity, 64u);
  EXPECT_EQ(f.base.server.policy, SchedulePolicy::kLocality);
  EXPECT_EQ(f.base.server.locality_window, 4);
  EXPECT_EQ(f.base.server.engine.max_contexts, 2u);
  EXPECT_FALSE(f.base.server.engine.memoize_results);
  ASSERT_TRUE(f.has_sweep);
  EXPECT_EQ(f.sweep.rates_qps, (std::vector<double>{100.0, 200.0}));
  // Policies default to the FIFO-vs-locality comparison.
  EXPECT_EQ(f.sweep.policies,
            (std::vector<SchedulePolicy>{SchedulePolicy::kFifo,
                                         SchedulePolicy::kLocality}));
  ASSERT_EQ(f.base.scenarios.size(), 2u);
  EXPECT_EQ(f.base.scenarios[0].name, "a");
  EXPECT_EQ(f.base.scenarios[0].weight, 3.0);
  EXPECT_EQ(f.base.scenarios[1].priority, Priority::kLow);
}

TEST(ScenarioFile, RejectsMalformedDescriptions) {
  const auto parse = [](const std::string& text) {
    return scenario_file_from_json(api::Json::parse(text));
  };
  const std::string ok_mix =
      R"("scenarios": [{"name": "a", "request": {"preset": "tiny"}}])";
  // Empty / missing mix.
  EXPECT_THROW((void)parse(R"({"scenarios": []})"), CheckError);
  EXPECT_THROW((void)parse(R"({"requests": 4})"), CheckError);
  // Bad weights: zero, negative, non-finite strings are malformed JSON, so
  // zero/negative are the interesting cases.
  EXPECT_THROW((void)parse(
                   R"({"scenarios": [{"name": "a", "weight": 0,
                       "request": {"preset": "tiny"}}]})"),
               CheckError);
  EXPECT_THROW((void)parse(
                   R"({"scenarios": [{"name": "a", "weight": -1,
                       "request": {"preset": "tiny"}}]})"),
               CheckError);
  // Unknown keys at every level.
  EXPECT_THROW((void)parse(R"({"scenariosss": [], )" + ok_mix + "}"), CheckError);
  EXPECT_THROW((void)parse(
                   R"({"scenarios": [{"name": "a", "weihgt": 1,
                       "request": {"preset": "tiny"}}]})"),
               CheckError);
  EXPECT_THROW((void)parse(R"({"server": {"polciy": "fifo"}, )" + ok_mix + "}"),
               CheckError);
  // Unknown scenario/priority/policy/process names.
  EXPECT_THROW((void)parse(
                   R"({"scenarios": [{"name": "a", "priority": "urgent",
                       "request": {"preset": "tiny"}}]})"),
               CheckError);
  EXPECT_THROW((void)parse(R"({"server": {"policy": "lifo"}, )" + ok_mix + "}"),
               CheckError);
  EXPECT_THROW(
      (void)parse(R"({"arrival": {"process": "bursty"}, )" + ok_mix + "}"),
      CheckError);
  // A request the Engine would reject fails at parse time.
  EXPECT_THROW((void)parse(
                   R"({"scenarios": [{"name": "a",
                       "request": {"preset": "nonexistent"}}]})"),
               CheckError);
  // Duplicate scenario names.
  EXPECT_THROW((void)parse(
                   R"({"scenarios": [
                       {"name": "a", "request": {"preset": "tiny"}},
                       {"name": "a", "request": {"preset": "tiny"}}]})"),
               CheckError);
  // Closed-loop settings mixed into an open-loop arrival block and back.
  EXPECT_THROW((void)parse(R"({"arrival": {"process": "closed", "rate_qps": 10}, )" +
                           ok_mix + "}"),
               CheckError);
  EXPECT_THROW((void)parse(
                   R"({"arrival": {"process": "poisson", "concurrency": 2}, )" +
                   ok_mix + "}"),
               CheckError);
  // Sweep needs at least one positive rate.
  EXPECT_THROW((void)parse(R"({"sweep": {"rates_qps": []}, )" + ok_mix + "}"),
               CheckError);
  EXPECT_THROW((void)parse(R"({"sweep": {"rates_qps": [-5]}, )" + ok_mix + "}"),
               CheckError);
  // A sweep drives open-loop rates, so an explicitly closed-loop arrival
  // would be silently discarded — rejected at parse time instead.
  EXPECT_THROW((void)parse(R"({"arrival": {"process": "closed"},
                               "sweep": {"rates_qps": [100]}, )" +
                           ok_mix + "}"),
               CheckError);
  // Omitting 'arrival' entirely is fine (the sweep supplies the rates).
  EXPECT_NO_THROW((void)parse(R"({"sweep": {"rates_qps": [100]}, )" + ok_mix + "}"));
}

TEST(ScenarioFile, SweepParsesConcurrencyAxis) {
  const auto parse = [](const std::string& text) {
    return scenario_file_from_json(api::Json::parse(text));
  };
  const std::string ok_mix =
      R"("scenarios": [{"name": "a", "request": {"preset": "tiny"}}])";
  // Concurrency-only sweep: closed loop by nature, no rates required —
  // and a closed-loop arrival spec is fine alongside it.
  const ScenarioFile f = parse(
      R"({"arrival": {"process": "closed"},
          "sweep": {"concurrency": [1, 4, 16]}, )" + ok_mix + "}");
  ASSERT_TRUE(f.has_sweep);
  EXPECT_TRUE(f.sweep.rates_qps.empty());
  EXPECT_EQ(f.sweep.concurrencies, (std::vector<int>{1, 4, 16}));
  // Both axes together.
  const ScenarioFile both = parse(
      R"({"sweep": {"rates_qps": [100], "concurrency": [2]}, )" + ok_mix + "}");
  EXPECT_EQ(both.sweep.rates_qps, (std::vector<double>{100.0}));
  EXPECT_EQ(both.sweep.concurrencies, (std::vector<int>{2}));
  // Malformed axes.
  EXPECT_THROW((void)parse(R"({"sweep": {"concurrency": []}, )" + ok_mix + "}"),
               CheckError);
  EXPECT_THROW((void)parse(R"({"sweep": {"concurrency": [0]}, )" + ok_mix + "}"),
               CheckError);
  EXPECT_THROW((void)parse(R"({"sweep": {"concurrency": [-2]}, )" + ok_mix + "}"),
               CheckError);
  // A sweep block with neither axis is rejected.
  EXPECT_THROW((void)parse(R"({"sweep": {"policies": ["fifo"]}, )" + ok_mix + "}"),
               CheckError);
  // Rate axes still refuse a closed-loop arrival.
  EXPECT_THROW((void)parse(
                   R"({"arrival": {"process": "closed"},
                       "sweep": {"rates_qps": [100], "concurrency": [2]}, )" +
                   ok_mix + "}"),
               CheckError);
}

TEST(ScenarioFile, ConcurrencySweepDrivesClosedLoopPoints) {
  ScenarioFile file;
  file.name = "conc";
  file.base.requests = 16;
  file.base.seed = 5;
  file.base.scenarios = smoke_mix();
  file.has_sweep = true;
  file.sweep.concurrencies = {1, 4};
  file.sweep.policies = {SchedulePolicy::kFifo};

  const SweepReport report = run_sweep(file);
  ASSERT_EQ(report.points.size(), 2u);
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const SweepPoint& pt = report.points[i];
    EXPECT_EQ(pt.mode, "closed");
    EXPECT_EQ(pt.rate_qps, 0.0);
    EXPECT_EQ(pt.report.mode, "closed");
    EXPECT_EQ(pt.report.completed_ok, 16u);
  }
  EXPECT_EQ(report.points[0].concurrency, 1);
  EXPECT_EQ(report.points[1].concurrency, 4);
  // Identical schedules across concurrencies: same per-scenario counts.
  for (std::size_t s = 0; s < report.points[0].report.per_scenario.size(); ++s) {
    EXPECT_EQ(report.points[0].report.per_scenario[s].completed_ok,
              report.points[1].report.per_scenario[s].completed_ok);
  }

  // Curve rows and CSV carry the mode/concurrency columns.
  const api::Json j = report.to_json();
  for (const api::Json& row : j.at("curve").items()) {
    EXPECT_EQ(row.at("mode").as_string(), "closed");
    EXPECT_GT(row.at("concurrency").as_int(), 0);
  }
  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("rate_qps,policy,mode,concurrency,"), std::string::npos);
  EXPECT_NE(csv.find("closed,1,"), std::string::npos);
  EXPECT_NE(csv.find("closed,4,"), std::string::npos);
}

TEST(ScenarioFile, MixedSweepRunsOpenPointsThenClosedPoints) {
  ScenarioFile file;
  file.base.requests = 8;
  file.base.scenarios = smoke_mix();
  file.has_sweep = true;
  file.sweep.rates_qps = {2000.0};
  file.sweep.concurrencies = {2};
  file.sweep.policies = {SchedulePolicy::kFifo};
  const SweepReport report = run_sweep(file);
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_EQ(report.points[0].mode, "open");
  EXPECT_EQ(report.points[0].rate_qps, 2000.0);
  EXPECT_EQ(report.points[0].concurrency, 0);
  EXPECT_EQ(report.points[1].mode, "closed");
  EXPECT_EQ(report.points[1].concurrency, 2);
}

TEST(ScenarioFile, SweepComparesPoliciesOnIdenticalSchedules) {
  ScenarioFile file;
  file.name = "unit";
  file.base.requests = 24;
  file.base.seed = 3;
  file.base.server.max_concurrency = 1;
  file.base.server.engine.max_contexts = 1;
  file.base.server.engine.memoize_results = false;
  file.base.scenarios = smoke_mix();
  file.has_sweep = true;
  file.sweep.rates_qps = {2000.0};
  file.sweep.policies = {SchedulePolicy::kFifo, SchedulePolicy::kLocality};

  const SweepReport report = run_sweep(file);
  ASSERT_EQ(report.points.size(), 2u);
  for (const SweepPoint& pt : report.points) {
    EXPECT_EQ(pt.report.mode, "open");
    EXPECT_EQ(pt.report.completed_ok, 24u);
    // Identical schedule per policy: the per-scenario ok-counts match.
    ASSERT_EQ(pt.report.per_scenario.size(),
              report.points[0].report.per_scenario.size());
    for (std::size_t s = 0; s < pt.report.per_scenario.size(); ++s) {
      EXPECT_EQ(pt.report.per_scenario[s].completed_ok,
                report.points[0].report.per_scenario[s].completed_ok);
    }
  }
  EXPECT_EQ(report.points[0].report.policy, "fifo");
  EXPECT_EQ(report.points[1].report.policy, "locality");

  // The emitted sweep JSON carries the per-point curve with hit rates.
  const api::Json j = api::Json::parse(report.to_json().dump(2));
  EXPECT_EQ(j.at("bench").as_string(), "serve_sweep");
  ASSERT_EQ(j.at("curve").size(), 2u);
  for (const api::Json& row : j.at("curve").items()) {
    for (const char* key : {"rate_qps", "policy", "achieved_qps", "p50_ms",
                            "p95_ms", "p99_ms", "context_hit_rate"}) {
      EXPECT_TRUE(row.contains(key)) << key;
    }
  }
  EXPECT_EQ(j.at("points").size(), 2u);

  // The CSV sidecar mirrors the curve: a header plus one row per point,
  // each with as many fields as the header names.
  const std::string csv = report.to_csv();
  std::vector<std::string> lines;
  std::istringstream csv_stream(csv);
  for (std::string line; std::getline(csv_stream, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u + report.points.size());
  EXPECT_EQ(lines[0].substr(0, 16), "rate_qps,policy,");
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  for (const std::string& line : lines) EXPECT_EQ(commas(line), commas(lines[0]));
  EXPECT_NE(lines[1].find("fifo"), std::string::npos);
  EXPECT_NE(lines[2].find("locality"), std::string::npos);
}

// ---------------------------------------------------------- allocator policy

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DEFA_TEST_REPLACED_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DEFA_TEST_REPLACED_MALLOC 1
#endif
#endif

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(MallocPolicy, SteadyStateEncoderRunsTakeNoPageFaults) {
#if defined(DEFA_TEST_REPLACED_MALLOC) || !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc's own malloc";
#else
  ASSERT_TRUE(configure_malloc());
  // A 4-level pyramid from a 24x32 base, 2 blocks, with every DEFA
  // technique on at INT12: each run allocates and frees several
  // multi-hundred-KB tensors per layer.
  ModelConfig m;
  m.name = "faults24x32";
  m.n_layers = 2;
  for (int l = 0, h = 24, w = 32; l < 4; ++l, h = (h + 1) / 2, w = (w + 1) / 2) {
    m.levels.push_back(LevelShape{h, w});
  }
  m.validate();
  workload::SceneParams p;
  p.seed = 11;
  const workload::SceneWorkload wl(m, p);
  const core::EncoderPipeline pipe(wl);
  const core::PruneConfig cfg = core::PruneConfig::defa_default(m);
  ASSERT_TRUE(cfg.pap && cfg.fwp && cfg.narrow && cfg.quantize);
  for (int i = 0; i < 2; ++i) (void)pipe.run(cfg);  // warm-up
  constexpr int kRuns = 5;
  const long before = minor_faults();
  for (int i = 0; i < kRuns; ++i) (void)pipe.run(cfg);
  const long per_run = (minor_faults() - before) / kRuns;
  // Without the fixed thresholds glibc trims the freed heap top after each
  // run and the next run faults it back in (~950 faults per run here).
  EXPECT_LE(per_run, 64);
#endif
}

// --------------------------------------------------------------------- loadgen

void check_bench_serve_json(const api::Json& j) {
  for (const char* key :
       {"bench", "mode", "policy", "transport", "requests", "completed_ok",
        "rejected_shutdown", "elapsed_ms", "achieved_qps", "latency_ms",
        "queue_ms", "run_ms", "per_scenario", "server_metrics"}) {
    EXPECT_TRUE(j.contains(key)) << key;
  }
  for (const char* key : {"p50_ms", "p95_ms", "p99_ms", "buckets", "sum_ms",
                          "bucket_lowest_ms", "bucket_growth"}) {
    EXPECT_TRUE(j.at("latency_ms").contains(key)) << key;
  }
  for (const char* key : {"context_hits", "context_misses", "context_hit_rate",
                          "memo_hits", "memo_misses", "memo_evictions",
                          "plan_hits", "plan_misses", "plan_entries"}) {
    EXPECT_TRUE(j.at("server_metrics").at("cache").contains(key)) << key;
  }
  EXPECT_GT(j.at("achieved_qps").as_number(), 0.0);
}

TEST(LoadGen, SmokeClosedLoopProducesValidReport) {
  LoadGenOptions options;
  options.mode = LoadGenOptions::Mode::kClosed;
  options.requests = 64;
  options.concurrency = 4;
  const LoadReport report = run_loadgen(options);  // smoke mix by default
  EXPECT_EQ(report.completed_ok, 64u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.latency_ms.count(), 64u);
  std::uint64_t per_total = 0;
  for (const auto& s : report.per_scenario) per_total += s.completed_ok;
  EXPECT_EQ(per_total, 64u);

  // The emitted JSON is strictly parseable and has the promised fields.
  const api::Json parsed = api::Json::parse(report.to_json().dump(2));
  check_bench_serve_json(parsed);
}

TEST(LoadGen, OpenLoopHonorsArrivalScheduleAndDeadlines) {
  LoadGenOptions options;
  options.mode = LoadGenOptions::Mode::kOpen;
  options.requests = 24;
  options.rate_qps = 4000.0;  // ~6 ms of offered traffic
  options.poisson = false;
  options.timeout_ms = 10000.0;  // generous: nothing should expire
  const LoadReport report = run_loadgen(options);
  EXPECT_EQ(report.mode, "open");
  EXPECT_EQ(report.completed_ok + report.rejected_deadline + report.rejected_overload +
                report.errors,
            24u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.completed_ok, 24u);
  // Fixed 0.25 ms gaps over 24 arrivals: at least ~6 ms elapsed.
  EXPECT_GE(report.elapsed_ms, 5.0);
}

TEST(LoadGen, SameSeedSameSchedule) {
  LoadGenOptions options;
  options.requests = 32;
  options.concurrency = 2;
  options.seed = 7;
  const LoadReport a = run_loadgen(options);
  const LoadReport b = run_loadgen(options);
  ASSERT_EQ(a.per_scenario.size(), b.per_scenario.size());
  for (std::size_t i = 0; i < a.per_scenario.size(); ++i) {
    EXPECT_EQ(a.per_scenario[i].completed_ok, b.per_scenario[i].completed_ok)
        << a.per_scenario[i].name;
  }
}

}  // namespace
}  // namespace defa::serve
