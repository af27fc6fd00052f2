#pragma once

/// \file metrics.h
/// Online serving metrics: log-scale latency histograms with percentile
/// readout, throughput/QPS, an in-flight gauge and per-benchmark request
/// counters.  `serve::Server` feeds one `ServerMetrics` instance as it
/// admits, rejects and completes requests; `snapshot()` freezes a
/// consistent view that serializes to JSON for `defa_serve --metrics` and
/// the `defa_loadgen` report.

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/result_io.h"
#include "serve/wire/stats.h"

namespace defa::serve {

/// Fixed-memory log-scale histogram of latencies in milliseconds.
/// Buckets grow geometrically from `kLowestMs` by `kGrowth` per bucket, so
/// the same 96 counters resolve microseconds and minutes with bounded
/// (~10%) relative quantization error on the percentile readout.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 96;
  static constexpr double kLowestMs = 1e-3;
  static constexpr double kGrowth = 1.22;

  void record(double ms);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Latency (ms) at percentile `p` in [0, 100]; 0 when empty.  Reads the
  /// geometric midpoint of the bucket holding the rank, clamped to the
  /// exact observed [min, max].
  [[nodiscard]] double percentile(double p) const;

  /// Raw count of bucket `b` (for cross-run merging and re-bucketing).
  [[nodiscard]] std::uint64_t bucket_count(int b) const;
  /// Lower/upper latency bound (ms) covered by bucket `b`.  Bucket 0 is
  /// [0, kLowestMs); bucket b >= 1 is [kLowestMs * kGrowth^(b-1),
  /// kLowestMs * kGrowth^b); the last bucket is open-ended above.
  [[nodiscard]] static double bucket_lower_ms(int b);
  [[nodiscard]] static double bucket_upper_ms(int b);

  /// {count, mean_ms, sum_ms, min_ms, max_ms, p50_ms, p95_ms, p99_ms, p999_ms,
  ///  bucket_lowest_ms, bucket_growth, buckets: [[index, count], ...]}.
  /// `buckets` is sparse (zero buckets omitted) — the raw export makes
  /// histograms mergeable across runs (docs/BENCH_SCHEMA.md).
  [[nodiscard]] api::Json to_json() const;

  /// Strict inverse of to_json() (percentile keys are ignored; the raw
  /// buckets are authoritative).  Throws defa::CheckError on a histogram
  /// whose bucket counts don't sum to `count` or whose scale parameters
  /// don't match this build's kLowestMs/kGrowth.
  [[nodiscard]] static LatencyHistogram from_json(const api::Json& j);

  void merge(const LatencyHistogram& other);

 private:
  [[nodiscard]] static int bucket_of(double ms);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Frozen, consistent view of a ServerMetrics instance.
struct MetricsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_shutdown = 0;  ///< submitted during/after drain
  std::uint64_t errors = 0;
  std::int64_t in_flight = 0;     ///< admitted, response not yet delivered
  std::size_t queue_depth = 0;    ///< waiting for dispatch at snapshot time
  double uptime_ms = 0;
  double qps = 0;                 ///< completed_ok / uptime
  LatencyHistogram queue_ms;      ///< admission -> dispatch
  LatencyHistogram run_ms;        ///< evaluation only
  LatencyHistogram total_ms;      ///< admission -> response
  /// (benchmark name, completed-ok count) in first-seen order.
  std::vector<std::pair<std::string, std::uint64_t>> per_benchmark;

  /// Engine cache effectiveness at snapshot time (filled by
  /// Server::metrics(), zero for a bare ServerMetrics::snapshot()).  The
  /// locality scheduler is judged on context_hit_rate under a bounded
  /// context pool — see docs/BENCH_SCHEMA.md.
  std::uint64_t context_hits = 0;
  std::uint64_t context_misses = 0;
  std::uint64_t context_evictions = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t memo_evictions = 0;  ///< result-memo LRU drops (max_memo)
  std::uint64_t plan_hits = 0;       ///< kernel PlanCache lookups, resident
  std::uint64_t plan_misses = 0;     ///< kernel PlanCache lookups, built
  std::uint64_t plan_entries = 0;    ///< resident sampling/locality plans (gauge)

  /// Process-wide serialization accounting per wire version (filled from
  /// `wire::SerStats` by Server::metrics(), zero for a bare
  /// ServerMetrics::snapshot()) — the server side of the
  /// serialization-share comparison in docs/BENCH_SCHEMA.md.
  wire::SerSnapshot wire_v1;
  wire::SerSnapshot wire_v2;
  [[nodiscard]] double context_hit_rate() const noexcept {
    const std::uint64_t total = context_hits + context_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(context_hits) / static_cast<double>(total);
  }

  [[nodiscard]] api::Json to_json() const;

  /// Inverse of to_json(): rebuilds a snapshot from the exported form
  /// (histograms through `LatencyHistogram::from_json`).  The remote
  /// `defa_loadgen --connect` path uses this to embed the *server*
  /// process's metrics in its report.  Throws defa::CheckError on missing
  /// keys or inconsistent histograms.
  [[nodiscard]] static MetricsSnapshot from_json(const api::Json& j);
};

/// Thread-safe metrics sink.  All mutators are O(1) under one mutex; the
/// Server calls them outside its own scheduling lock.
class ServerMetrics {
 public:
  ServerMetrics();

  void on_submitted();
  void on_rejected_overload();
  void on_rejected_shutdown();
  void on_rejected_deadline(double queue_ms);
  void on_completed(const std::string& benchmark, double queue_ms, double run_ms,
                    double total_ms);
  void on_error(double queue_ms, double run_ms, double total_ms);

  [[nodiscard]] MetricsSnapshot snapshot(std::size_t queue_depth,
                                         std::int64_t in_flight) const;

  /// Zero every counter and histogram and restart the uptime clock, as if
  /// freshly constructed (`Server::reconfigure` with reset_stats).
  void reset();

 private:
  mutable std::mutex mu_;
  MetricsSnapshot data_;  // queue_depth/in_flight/uptime/qps filled at snapshot
  std::chrono::steady_clock::time_point start_;
};

}  // namespace defa::serve
