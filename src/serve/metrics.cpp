#include "serve/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace defa::serve {

// ---------------------------------------------------------- LatencyHistogram

int LatencyHistogram::bucket_of(double ms) {
  if (!(ms > kLowestMs)) return 0;
  const int b = static_cast<int>(std::log(ms / kLowestMs) / std::log(kGrowth)) + 1;
  return std::min(b, kBuckets - 1);
}

void LatencyHistogram::record(double ms) {
  DEFA_CHECK(std::isfinite(ms) && ms >= 0, "LatencyHistogram: bad latency value");
  ++buckets_[static_cast<std::size_t>(bucket_of(ms))];
  if (count_ == 0) {
    min_ = max_ = ms;
  } else {
    min_ = std::min(min_, ms);
    max_ = std::max(max_, ms);
  }
  ++count_;
  sum_ += ms;
}

double LatencyHistogram::percentile(double p) const {
  DEFA_CHECK(p >= 0 && p <= 100, "LatencyHistogram: percentile out of [0, 100]");
  if (count_ == 0) return 0.0;
  // Nearest-rank on the cumulative bucket counts.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (seen >= target) {
      // Geometric midpoint of the bucket's bounds, clamped to observations.
      const double lo = b == 0 ? kLowestMs : kLowestMs * std::pow(kGrowth, b - 1);
      const double mid = b == 0 ? kLowestMs / 2 : lo * std::sqrt(kGrowth);
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;
}

std::uint64_t LatencyHistogram::bucket_count(int b) const {
  DEFA_CHECK(b >= 0 && b < kBuckets, "LatencyHistogram: bucket index out of range");
  return buckets_[static_cast<std::size_t>(b)];
}

double LatencyHistogram::bucket_lower_ms(int b) {
  DEFA_CHECK(b >= 0 && b < kBuckets, "LatencyHistogram: bucket index out of range");
  return b == 0 ? 0.0 : kLowestMs * std::pow(kGrowth, b - 1);
}

double LatencyHistogram::bucket_upper_ms(int b) {
  DEFA_CHECK(b >= 0 && b < kBuckets, "LatencyHistogram: bucket index out of range");
  return kLowestMs * std::pow(kGrowth, b);
}

api::Json LatencyHistogram::to_json() const {
  api::Json j = api::Json::object();
  j["count"] = static_cast<double>(count_);
  j["mean_ms"] = mean();
  j["sum_ms"] = sum_;
  j["min_ms"] = min();
  j["max_ms"] = max();
  j["p50_ms"] = percentile(50);
  j["p95_ms"] = percentile(95);
  j["p99_ms"] = percentile(99);
  j["p999_ms"] = percentile(99.9);
  // Raw sparse buckets: [index, count] pairs in index order, zero buckets
  // omitted.  Percentiles of a merged run are recomputed from these.
  j["bucket_lowest_ms"] = kLowestMs;
  j["bucket_growth"] = kGrowth;
  api::Json buckets = api::Json::array();
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets_[static_cast<std::size_t>(b)] == 0) continue;
    api::Json pair = api::Json::array();
    pair.push_back(b);
    pair.push_back(static_cast<double>(buckets_[static_cast<std::size_t>(b)]));
    buckets.push_back(std::move(pair));
  }
  j["buckets"] = std::move(buckets);
  return j;
}

LatencyHistogram LatencyHistogram::from_json(const api::Json& j) {
  DEFA_CHECK(j.is_object(), "LatencyHistogram: expected a JSON object");
  DEFA_CHECK(j.at("bucket_lowest_ms").as_number() == kLowestMs &&
                 j.at("bucket_growth").as_number() == kGrowth,
             "LatencyHistogram: bucket scale parameters do not match this build");
  LatencyHistogram h;
  std::uint64_t bucket_total = 0;
  for (const api::Json& pair : j.at("buckets").items()) {
    DEFA_CHECK(pair.is_array() && pair.size() == 2,
               "LatencyHistogram: each bucket must be an [index, count] pair");
    const std::int64_t b = pair.at(std::size_t{0}).as_int();
    const std::int64_t n = pair.at(std::size_t{1}).as_int();
    DEFA_CHECK(b >= 0 && b < kBuckets, "LatencyHistogram: bucket index out of range");
    DEFA_CHECK(n > 0, "LatencyHistogram: bucket count must be positive");
    h.buckets_[static_cast<std::size_t>(b)] += static_cast<std::uint64_t>(n);
    bucket_total += static_cast<std::uint64_t>(n);
  }
  h.count_ = static_cast<std::uint64_t>(j.at("count").as_int());
  DEFA_CHECK(bucket_total == h.count_,
             "LatencyHistogram: bucket counts do not sum to 'count'");
  h.sum_ = j.at("sum_ms").as_number();
  h.min_ = j.at("min_ms").as_number();
  h.max_ = j.at("max_ms").as_number();
  DEFA_CHECK(h.count_ == 0 || (h.min_ >= 0 && h.min_ <= h.max_),
             "LatencyHistogram: inconsistent min/max");
  return h;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[static_cast<std::size_t>(b)] += other.buckets_[static_cast<std::size_t>(b)];
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

// ----------------------------------------------------------- MetricsSnapshot

api::Json MetricsSnapshot::to_json() const {
  api::Json j = api::Json::object();
  j["submitted"] = static_cast<double>(submitted);
  j["completed_ok"] = static_cast<double>(completed_ok);
  j["rejected_overload"] = static_cast<double>(rejected_overload);
  j["rejected_deadline"] = static_cast<double>(rejected_deadline);
  j["rejected_shutdown"] = static_cast<double>(rejected_shutdown);
  j["errors"] = static_cast<double>(errors);
  j["in_flight"] = static_cast<double>(in_flight);
  j["queue_depth"] = static_cast<double>(queue_depth);
  j["uptime_ms"] = uptime_ms;
  j["qps"] = qps;
  j["queue_ms"] = queue_ms.to_json();
  j["run_ms"] = run_ms.to_json();
  j["total_ms"] = total_ms.to_json();
  api::Json per = api::Json::object();
  for (const auto& [name, n] : per_benchmark) per[name] = static_cast<double>(n);
  j["per_benchmark"] = std::move(per);
  api::Json cache = api::Json::object();
  cache["context_hits"] = static_cast<double>(context_hits);
  cache["context_misses"] = static_cast<double>(context_misses);
  cache["context_evictions"] = static_cast<double>(context_evictions);
  cache["context_hit_rate"] = context_hit_rate();
  cache["memo_hits"] = static_cast<double>(memo_hits);
  cache["memo_misses"] = static_cast<double>(memo_misses);
  cache["memo_evictions"] = static_cast<double>(memo_evictions);
  cache["plan_hits"] = static_cast<double>(plan_hits);
  cache["plan_misses"] = static_cast<double>(plan_misses);
  cache["plan_entries"] = static_cast<double>(plan_entries);
  j["cache"] = std::move(cache);
  const auto ser = [](const wire::SerSnapshot& s) {
    api::Json b = api::Json::object();
    b["encode_ms"] = s.encode_ms;
    b["decode_ms"] = s.decode_ms;
    b["encode_frames"] = static_cast<double>(s.encode_frames);
    b["decode_frames"] = static_cast<double>(s.decode_frames);
    b["encode_bytes"] = static_cast<double>(s.encode_bytes);
    b["decode_bytes"] = static_cast<double>(s.decode_bytes);
    return b;
  };
  api::Json wire_block = api::Json::object();
  wire_block["v1"] = ser(wire_v1);
  wire_block["v2"] = ser(wire_v2);
  j["wire"] = std::move(wire_block);
  return j;
}

MetricsSnapshot MetricsSnapshot::from_json(const api::Json& j) {
  DEFA_CHECK(j.is_object(), "MetricsSnapshot: expected a JSON object");
  MetricsSnapshot s;
  const auto u64 = [&](const char* key) {
    return static_cast<std::uint64_t>(j.at(key).as_int());
  };
  s.submitted = u64("submitted");
  s.completed_ok = u64("completed_ok");
  s.rejected_overload = u64("rejected_overload");
  s.rejected_deadline = u64("rejected_deadline");
  // Absent in exports from builds before the drain protocol; default 0.
  if (j.contains("rejected_shutdown")) s.rejected_shutdown = u64("rejected_shutdown");
  s.errors = u64("errors");
  s.in_flight = j.at("in_flight").as_int();
  s.queue_depth = static_cast<std::size_t>(j.at("queue_depth").as_int());
  s.uptime_ms = j.at("uptime_ms").as_number();
  s.qps = j.at("qps").as_number();
  s.queue_ms = LatencyHistogram::from_json(j.at("queue_ms"));
  s.run_ms = LatencyHistogram::from_json(j.at("run_ms"));
  s.total_ms = LatencyHistogram::from_json(j.at("total_ms"));
  for (const auto& [name, n] : j.at("per_benchmark").members()) {
    s.per_benchmark.emplace_back(name, static_cast<std::uint64_t>(n.as_int()));
  }
  const api::Json& cache = j.at("cache");
  s.context_hits = static_cast<std::uint64_t>(cache.at("context_hits").as_int());
  s.context_misses = static_cast<std::uint64_t>(cache.at("context_misses").as_int());
  s.context_evictions =
      static_cast<std::uint64_t>(cache.at("context_evictions").as_int());
  s.memo_hits = static_cast<std::uint64_t>(cache.at("memo_hits").as_int());
  s.memo_misses = static_cast<std::uint64_t>(cache.at("memo_misses").as_int());
  s.memo_evictions = static_cast<std::uint64_t>(cache.at("memo_evictions").as_int());
  // Absent in exports from builds before the kernel plan cache was
  // surfaced; default 0.
  if (cache.contains("plan_hits")) {
    s.plan_hits = static_cast<std::uint64_t>(cache.at("plan_hits").as_int());
    s.plan_misses = static_cast<std::uint64_t>(cache.at("plan_misses").as_int());
    s.plan_entries = static_cast<std::uint64_t>(cache.at("plan_entries").as_int());
  }
  // Absent in exports from builds before the v2 wire subsystem; default 0.
  if (j.contains("wire")) {
    const auto ser = [](const api::Json& b) {
      wire::SerSnapshot w;
      w.encode_ms = b.at("encode_ms").as_number();
      w.decode_ms = b.at("decode_ms").as_number();
      w.encode_frames = static_cast<std::uint64_t>(b.at("encode_frames").as_int());
      w.decode_frames = static_cast<std::uint64_t>(b.at("decode_frames").as_int());
      w.encode_bytes = static_cast<std::uint64_t>(b.at("encode_bytes").as_int());
      w.decode_bytes = static_cast<std::uint64_t>(b.at("decode_bytes").as_int());
      return w;
    };
    s.wire_v1 = ser(j.at("wire").at("v1"));
    s.wire_v2 = ser(j.at("wire").at("v2"));
  }
  return s;
}

// ------------------------------------------------------------- ServerMetrics

ServerMetrics::ServerMetrics() : start_(std::chrono::steady_clock::now()) {}

void ServerMetrics::on_submitted() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++data_.submitted;
}

void ServerMetrics::on_rejected_overload() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++data_.rejected_overload;
}

void ServerMetrics::on_rejected_shutdown() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++data_.rejected_shutdown;
}

void ServerMetrics::on_rejected_deadline(double queue_ms) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++data_.rejected_deadline;
  data_.queue_ms.record(queue_ms);
}

void ServerMetrics::on_completed(const std::string& benchmark, double queue_ms,
                                 double run_ms, double total_ms) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++data_.completed_ok;
  data_.queue_ms.record(queue_ms);
  data_.run_ms.record(run_ms);
  data_.total_ms.record(total_ms);
  for (auto& [name, n] : data_.per_benchmark) {
    if (name == benchmark) {
      ++n;
      return;
    }
  }
  data_.per_benchmark.emplace_back(benchmark, 1);
}

void ServerMetrics::on_error(double queue_ms, double run_ms, double total_ms) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++data_.errors;
  data_.queue_ms.record(queue_ms);
  data_.run_ms.record(run_ms);
  data_.total_ms.record(total_ms);
}

void ServerMetrics::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  data_ = MetricsSnapshot{};
  start_ = std::chrono::steady_clock::now();
}

MetricsSnapshot ServerMetrics::snapshot(std::size_t queue_depth,
                                        std::int64_t in_flight) const {
  MetricsSnapshot snap;
  std::chrono::steady_clock::time_point start;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snap = data_;
    start = start_;  // reset() can move the epoch concurrently
  }
  snap.queue_depth = queue_depth;
  snap.in_flight = in_flight;
  const auto elapsed = std::chrono::steady_clock::now() - start;
  snap.uptime_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(elapsed)
          .count();
  snap.qps = snap.uptime_ms > 0
                 ? static_cast<double>(snap.completed_ok) / (snap.uptime_ms / 1e3)
                 : 0.0;
  return snap;
}

}  // namespace defa::serve
