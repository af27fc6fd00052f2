#pragma once

/// \file trace.h
/// Low-overhead end-to-end tracing (docs/OBSERVABILITY.md).
///
/// A process-global `obs::Tracer` collects timed spans into lock-light
/// per-thread bounded ring buffers (one uncontended mutex per thread,
/// taken only for the few ns of a ring write; the central registry lock
/// is touched once per thread lifetime and on collection).  Timestamps
/// come from `steady_clock` (CLOCK_MONOTONIC), which on Linux is shared
/// machine-wide — so spans recorded by different processes on one host
/// line up on a single timeline when merged (client + server trace export).
///
/// Request-scoped spans are gated by a thread-local *trace context*: a
/// request that was sampled for tracing opens a `TraceScope` carrying its
/// `trace_id`, and every `DEFA_TRACE_SPAN` underneath it (engine lookup,
/// kernel phases, ...) records with that id attached.  When no context is
/// open — tracing disabled, or the request not sampled — a span site is
/// one thread-local load and a branch.  Event-style records (`instant`)
/// gate on the global enable only, so they are captured even outside any
/// request.
///
/// Compile-time removal: building with `-DDEFA_TRACE=0` (CMake option
/// `DEFA_TRACE=OFF`) turns the `DEFA_TRACE_*` macros into empty
/// statements — argument expressions are not evaluated — while the
/// `Tracer` API itself stays available (tools and tests still link; they
/// just collect nothing from macro sites).  Tracing is OFF by default at
/// runtime either way; `defa_serve --trace` / `defa_loadgen --trace-out`
/// opt in.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#ifndef DEFA_TRACE
#define DEFA_TRACE 1
#endif

namespace defa::obs {

/// Microseconds on the machine-wide monotonic clock (comparable across
/// processes on one host).
[[nodiscard]] inline std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded event.  `dur_us < 0` marks an instant event (a point in
/// time) rather than a duration span.
struct Span {
  std::string name;
  std::string cat;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::uint64_t trace_id = 0;  ///< 0 = not tied to a traced request
  std::uint32_t tid = 0;       ///< small per-process thread ordinal
  std::vector<std::pair<std::string, std::string>> args;

  [[nodiscard]] bool is_instant() const { return dur_us < 0; }
};

/// Process-global span collector.  All methods are thread-safe.
class Tracer {
 public:
  static Tracer& instance();

  /// Master runtime switch (default off).  Disabling does not clear
  /// already-recorded spans.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Per-thread ring capacity in spans.  Applies to threads that record
  /// their first span *after* the call (existing rings keep their size).
  void set_ring_capacity(std::size_t spans);
  [[nodiscard]] std::size_t ring_capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

  /// Append to the calling thread's ring (oldest span overwritten — and
  /// counted dropped — once the ring is full).  `span.tid` is stamped by
  /// the tracer.
  void record(Span span);

  /// Merged snapshot of every thread's ring, sorted by `ts_us` (spans of
  /// exited threads included).  `clear` empties the rings and resets the
  /// drop counters.
  [[nodiscard]] std::vector<Span> collect(bool clear = true);

  /// Total spans overwritten before collection, across all threads.
  [[nodiscard]] std::uint64_t dropped() const;

  void clear();

 private:
  struct ThreadLog;
  Tracer() = default;
  ThreadLog& log_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> capacity_{16384};
  mutable std::mutex registry_mu_;
  // shared_ptr keeps a finished thread's spans alive until collection.
  std::vector<std::shared_ptr<ThreadLog>> logs_;
  std::uint32_t next_tid_ = 1;
};

/// Fresh, well-mixed 64-bit trace id (never 0).
[[nodiscard]] std::uint64_t new_trace_id();

/// Wire form: 16 lowercase hex digits.
[[nodiscard]] std::string trace_id_to_hex(std::uint64_t id);
/// Strict inverse; throws defa::CheckError on malformed input.
[[nodiscard]] std::uint64_t trace_id_from_hex(const std::string& hex);

/// Trace id of the request the calling thread is currently processing
/// (0 when none — i.e. tracing off or the request not sampled).
[[nodiscard]] std::uint64_t current_trace_id();

/// True when spans recorded on this thread would actually be kept.
[[nodiscard]] inline bool trace_active() { return current_trace_id() != 0; }

/// Opens a request trace context on the calling thread for its lifetime
/// (restores the previous context on destruction, so contexts nest).  A
/// no-op when the tracer is disabled or `trace_id` is 0.
class TraceScope {
 public:
  explicit TraceScope(std::uint64_t trace_id);
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope();

 private:
  std::uint64_t saved_ = 0;
  bool set_ = false;
};

/// RAII duration span: starts at construction, records at destruction.
/// Inactive (zero-cost beyond one TLS load) outside a trace context.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat);
  // The arg value is only materialized when the span is active, so a span
  // site on a hot path costs no allocation while tracing is off.
  ScopedSpan(const char* name, const char* cat, const char* arg_key,
             const char* arg_value);
  ScopedSpan(const char* name, const char* cat, const char* arg_key,
             const std::string& arg_value);
  ScopedSpan(const char* name, const char* cat, const char* arg_key,
             int arg_value);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  [[nodiscard]] bool active() const { return active_; }
  /// Attach an argument (ignored when inactive).
  void arg(const char* key, std::string value);

 private:
  bool active_ = false;
  Span span_;
};

/// Record a span with explicit timestamps (for durations measured across
/// threads, e.g. queue wait: admitted on the submitter, dispatched on a
/// worker).  Kept only when `trace_id != 0` and the tracer is enabled.
void record_span(const char* name, const char* cat, std::int64_t ts_us,
                 std::int64_t dur_us, std::uint64_t trace_id,
                 std::vector<std::pair<std::string, std::string>> args = {});

/// Record a point event.  Gated on the global enable only — no request
/// context required.
void record_instant(const char* name, const char* cat,
                    std::vector<std::pair<std::string, std::string>> args = {},
                    std::uint64_t trace_id = 0);

}  // namespace defa::obs

#if DEFA_TRACE
#define DEFA_OBS_CONCAT_(a, b) a##b
#define DEFA_OBS_CONCAT(a, b) DEFA_OBS_CONCAT_(a, b)
/// Duration span covering the rest of the enclosing scope.
#define DEFA_TRACE_SPAN(name, cat) \
  ::defa::obs::ScopedSpan DEFA_OBS_CONCAT(defa_trace_span_, __LINE__)(name, cat)
/// Same, with one string argument attached.
#define DEFA_TRACE_SPAN_ARG(name, cat, key, value)                          \
  ::defa::obs::ScopedSpan DEFA_OBS_CONCAT(defa_trace_span_, __LINE__)(name, \
                                                                      cat,  \
                                                                      key, value)
/// Point event (no request context needed).
#define DEFA_TRACE_INSTANT(name, cat, ...) \
  ::defa::obs::record_instant(name, cat, ##__VA_ARGS__)
#else
#define DEFA_TRACE_SPAN(name, cat) \
  do {                             \
  } while (0)
#define DEFA_TRACE_SPAN_ARG(name, cat, key, value) \
  do {                                             \
  } while (0)
#define DEFA_TRACE_INSTANT(name, cat, ...) \
  do {                                     \
  } while (0)
#endif
