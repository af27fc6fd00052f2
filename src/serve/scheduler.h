#pragma once

/// \file scheduler.h
/// `serve::Server` — the async request scheduler on top of `api::Engine`.
///
/// `submit()` admits an `EvalRequest` into a bounded priority queue and
/// returns a `std::future<ServeResponse>` immediately; evaluation happens
/// on the shared `ThreadPool`, capped at `max_concurrency` simultaneous
/// requests.  Scheduling properties:
///
///  * **Backpressure** — when `queue_capacity` requests are already
///    waiting, new submits complete instantly with `kRejectedOverload`
///    instead of growing the queue without bound.
///  * **Deadlines** — a request whose deadline passed before dispatch
///    completes with `kRejectedDeadline`; expired work is never run and
///    never silently dropped (the future always resolves).
///  * **Priority without starvation** — three classes (high/normal/low)
///    are dispatched by a fixed weighted round-robin pattern
///    (`dispatch_slot`), so under a sustained flood of high-priority
///    traffic a low-priority request still reaches the engine within
///    `kDispatchPatternLen` dispatches.
///  * **Cache locality (optional)** — under `SchedulePolicy::kLocality`
///    the scheduler keeps draining requests that share the Engine workload
///    key of the most recent dispatch (QUILL-style affinity batching), so
///    same-workload requests hit the Engine's ContextPool warm.  A
///    fairness budget (`locality_window`) bounds each key's run: after
///    `locality_window` consecutive same-key dispatches the oldest
///    *different*-key request is dispatched, so no key is starved.
///    Affinity reorders only *within* the priority class the weighted
///    pattern selected — priorities and deadlines behave exactly as under
///    kFifo.
///  * **Determinism** — evaluation goes through `Engine::run`, so results
///    are bit-identical to sequential runs regardless of concurrency,
///    dispatch order or scheduling policy.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <future>
#include <optional>
#include <string>

#include "api/engine.h"
#include "serve/metrics.h"
#include "common/thread_pool.h"

namespace defa::serve {

enum class Priority { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr int kPriorityClasses = 3;

[[nodiscard]] const char* priority_name(Priority p);
/// nullopt on an unknown name ("high" | "normal" | "low").
[[nodiscard]] std::optional<Priority> priority_from_name(const std::string& name);

/// Dispatch-order policy within a priority class.
enum class SchedulePolicy {
  kFifo,      ///< oldest-first within the class the weighted pattern picked
  kLocality,  ///< same-workload-key affinity batching with a fairness budget
};

[[nodiscard]] const char* policy_name(SchedulePolicy p);
/// nullopt on an unknown name ("fifo" | "locality").
[[nodiscard]] std::optional<SchedulePolicy> policy_from_name(const std::string& name);

enum class ResponseStatus {
  kOk,
  kRejectedOverload,  ///< bounded queue full at submit time
  kRejectedDeadline,  ///< deadline passed before dispatch (work not run)
  kRejectedShutdown,  ///< submitted during/after drain (work not run)
  kError,             ///< evaluation threw; message in `error`
  kBadRequest,        ///< transport-level parse failure (server_loop only)
};

[[nodiscard]] const char* status_name(ResponseStatus s);

/// One unit of serving work: an Engine request plus scheduling envelope.
struct ServeRequest {
  std::string id;  ///< echoed back; opaque to the scheduler
  api::EvalRequest request;
  Priority priority = Priority::kNormal;
  /// Relative deadline in ms from submission; <= 0 means none.
  double timeout_ms = 0;
  /// Absolute deadline; takes precedence over `timeout_ms` when set.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Observability (docs/OBSERVABILITY.md): non-zero marks this request
  /// sampled for tracing — every span recorded while it is processed
  /// carries this id, so client- and server-side spans correlate.  Set by
  /// the client (propagated through the protocol envelope) or stamped at
  /// admission by the server's own sampler (`trace_sample_every`).
  std::uint64_t trace_id = 0;
};

struct ServeResponse {
  std::string id;
  ResponseStatus status = ResponseStatus::kOk;
  std::string error;                      ///< set when status != kOk
  /// Protocol v1 error-code name ("overload", "transport", ...) when the
  /// response crossed the wire or failed in the client transport; empty
  /// for in-process responses (status alone is authoritative there).
  /// Carried as the wire name — not serve::ErrorCode — so scheduler.h
  /// stays independent of protocol.h.
  std::string error_code;
  std::optional<api::EvalResult> result;  ///< set when status == kOk
  double queue_ms = 0;  ///< admission -> dispatch (or rejection)
  double run_ms = 0;    ///< evaluation only
  double total_ms = 0;  ///< admission -> response
  /// 0-based order in which the scheduler popped this request from the
  /// queue; -1 when it was never dispatched (rejected at submit time).
  std::int64_t dispatch_index = -1;
};

struct ServerOptions {
  /// Max requests evaluating at once; 0 = global pool size.
  int max_concurrency = 0;
  /// Bounded admission queue; submits beyond it are rejected.
  std::size_t queue_capacity = 1024;
  SchedulePolicy policy = SchedulePolicy::kFifo;
  /// kLocality fairness budget: max consecutive same-key dispatches before
  /// the scheduler must serve the oldest different-key request (>= 1).
  int locality_window = 8;
  /// When true the Server admits but does not dispatch until `resume()` —
  /// lets callers stage a whole queue so dispatch order is deterministic
  /// (batch prefill, scheduling tests).
  bool start_paused = false;
  api::Engine::Options engine;
  /// Server-side trace sampling: when the tracer is enabled and N > 0,
  /// every Nth admitted request that did not arrive with a client
  /// trace_id is stamped with a fresh one (`defa_serve --trace-sample`).
  /// 0 = only client-traced requests record spans.
  int trace_sample_every = 0;
};

/// A live configuration change, applied atomically between dispatches by
/// `Server::reconfigure` (the protocol `reconfigure` method).  Unset
/// fields keep their current value.
struct ServerReconfig {
  std::optional<SchedulePolicy> policy;
  std::optional<int> locality_window;
  std::optional<std::string> backend;       ///< "" = process default
  std::optional<std::size_t> max_contexts;  ///< 0 = unbounded
  std::optional<std::size_t> max_memo;      ///< 0 = unbounded
  std::optional<bool> memoize_results;
  /// Also clear the Engine caches and zero metrics/cache counters, so the
  /// server measures like a fresh process (remote sweeps reconfigure with
  /// this set to keep points comparable to in-process `run_sweep`).
  bool reset_stats = false;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  /// Drains: blocks until every admitted request has resolved its future.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit one request.  Never blocks; the returned future always
  /// resolves, with a rejection status when the request is not run.
  [[nodiscard]] std::future<ServeResponse> submit(ServeRequest req);

  /// Response sink for `submit_async`.  Invoked exactly once per request,
  /// on whichever thread resolves it (an evaluator thread for dispatched
  /// work, the submitting thread for admission-time rejections), after
  /// the response is final.  Completion-order transports (Protocol v1)
  /// hang their frame writes off this instead of blocking a thread per
  /// future.  Exceptions thrown by the callback are swallowed.
  using ResponseCallback = std::function<void(const ServeResponse&)>;

  /// Admit one request and deliver its response through `done` instead of
  /// a future.  Same admission/rejection semantics as `submit`.
  void submit_async(ServeRequest req, ResponseCallback done);

  /// Start dispatching (no-op unless constructed with `start_paused`).
  void resume();

  /// Graceful shutdown: stop admitting (subsequent submits complete
  /// immediately with `kRejectedShutdown`), finish every in-flight and
  /// queued request, and return once the server is idle so callers can
  /// flush metrics.  On a paused server this resumes dispatch first
  /// (drain would never finish otherwise).  Idempotent.
  void drain();

  /// True once `drain()` has been called: the server no longer admits.
  [[nodiscard]] bool draining() const;

  /// Apply a live configuration change.  Validates everything (throws
  /// defa::CheckError, leaving the server untouched) before mutating, then
  /// applies under the scheduling lock: requests dispatched before the
  /// call ran under the old configuration, requests dispatched after run
  /// under the new one, and no dispatch observes a half-applied mix.  The
  /// locality affinity window restarts (the old key's budget is
  /// meaningless under a new policy/window).
  void reconfigure(const ServerReconfig& rc);

  [[nodiscard]] MetricsSnapshot metrics() const;
  [[nodiscard]] api::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] std::size_t queued() const;
  /// Effective configuration (max_concurrency resolved to the pool size).
  /// Prefer `options_snapshot()` anywhere `reconfigure` may run
  /// concurrently — this reference reads unguarded fields.
  [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }
  /// Coherent copy of the live configuration (taken under the scheduling
  /// lock; safe against concurrent `reconfigure`).
  [[nodiscard]] ServerOptions options_snapshot() const;

  /// Which priority class dispatch slot `slot` prefers (falls back to the
  /// highest non-empty class when that one is empty).  The pattern is
  /// H H N H H N L, so every class owns >= 1 of every 7 slots.
  [[nodiscard]] static Priority dispatch_slot(std::uint64_t slot);
  static constexpr int kDispatchPatternLen = 7;

 private:
  struct Entry {
    ServeRequest req;
    std::string key;  ///< Engine workload key (locality affinity identity)
    std::promise<ServeResponse> promise;
    ResponseCallback callback;  ///< optional completion sink (submit_async)
    std::chrono::steady_clock::time_point admitted;
    std::int64_t dispatch_index = -1;  ///< set by pop_best_locked
  };

  [[nodiscard]] std::future<ServeResponse> submit_impl(ServeRequest req,
                                                       ResponseCallback done);
  void drain_loop();
  [[nodiscard]] bool pop_best_locked(Entry& out);
  void process(Entry entry);
  void finish_one();
  /// Resolve `promise`/`callback` with `resp` (callback first, exceptions
  /// swallowed; the promise always resolves).
  static void deliver(std::promise<ServeResponse>& promise,
                      const ResponseCallback& callback, ServeResponse resp);

  ServerOptions options_;
  api::Engine engine_;
  ServerMetrics metrics_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::array<std::deque<Entry>, kPriorityClasses> queues_;  // guarded by mu_
  std::size_t queued_total_ = 0;                            // guarded by mu_
  std::int64_t outstanding_ = 0;  ///< admitted, future not yet set
  int active_loops_ = 0;          ///< drain loops running on the pool
  bool paused_ = false;           ///< admits but does not dispatch
  bool draining_ = false;         ///< drain() called; no further admission
  std::uint64_t dispatch_seq_ = 0;
  std::int64_t popped_seq_ = 0;   ///< dispatch_index source
  // kLocality state: the workload key of the active affinity window and
  // how many consecutive dispatches it has received.
  std::string affinity_key_;      // guarded by mu_
  int affinity_run_ = 0;          // guarded by mu_
  std::atomic<std::uint64_t> trace_seq_{0};  ///< trace_sample_every counter
};

}  // namespace defa::serve
