// defa_serve — request/response server over defa::serve.
//
//   defa_serve [--in FILE] [--out FILE] [--listen PORT] [--port-file FILE]
//              [--workers N] [--queue-capacity N] [--policy fifo|locality]
//              [--locality-window N] [--max-contexts N] [--max-memo N]
//              [--no-memo] [--backend NAME] [--metrics]
//              [--metrics-interval SEC] [--metrics-out FILE]
//              [--trace] [--trace-sample N] [--trace-out FILE]
//              [--max-wire N]
//
// Observability (docs/OBSERVABILITY.md): --metrics-interval emits one
// MetricsSnapshot JSON line per interval to stderr (or --metrics-out
// FILE), with a final line flushed on drain.  --trace enables the span
// recorder (client-sampled requests are honored); --trace-sample N
// additionally self-samples every Nth untraced admission; --trace-out
// FILE dumps the recorded spans as Chrome trace-event JSON at exit
// (implies --trace).  Clients can also pull spans live via the protocol
// `trace` method.
//
// Speaks three wire modes, auto-detected per session from the first frame
// (docs/PROTOCOL.md):
//   * Protocol v1 — {"v":1,"id":...,"method":...,"params":...} envelopes,
//     completion-order responses, typed error codes, and the
//     eval/eval_batch/metrics/backends/experiments/experiment/ping/drain
//     methods.  defa::client::Client speaks this.
//   * Protocol v2 — negotiated per session via the v1 `hello` method:
//     length-prefixed binary frames with streamed eval_batch chunks.
//     --max-wire 1 refuses the upgrade, pinning every session to v1.
//   * legacy JSON-lines — bare EvalRequest or {"id","priority",
//     "timeout_ms","request"} lines answered in arrival order.
//
// Without --listen it serves stdin→stdout (or --in/--out file pipes) and
// exits at EOF.  With --listen PORT it accepts any number of concurrent
// TCP clients on 127.0.0.1:PORT (PORT 0 picks an ephemeral port, printed
// to stderr and written to --port-file) over one shared scheduler, until
// SIGTERM/SIGINT or a protocol `drain` stops it gracefully: admission
// stops, in-flight requests finish, metrics flush, clients close.
//
// A numeric flag whose value is not a whole number in its range (a
// trailing character, a sign on a count, a port above 65535) is refused
// with exit code 2, like an unknown option.
//
// Example:
//   printf '%s\n' '{"preset":"tiny","outputs":["functional"]}' | defa_serve
//   defa_serve --listen 0 --port-file port.txt &

#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kernels/backend.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/malloc_policy.h"
#include "serve/protocol.h"
#include "serve/server_loop.h"
#include "serve/transport.h"
#include "serve/wire/format.h"

#include <unistd.h>

namespace {

int usage() {
  std::cerr << "usage: defa_serve [--in FILE] [--out FILE] [--listen PORT]\n"
            << "                  [--port-file FILE] [--workers N]\n"
            << "                  [--queue-capacity N] [--policy fifo|locality]\n"
            << "                  [--locality-window N] [--max-contexts N]\n"
            << "                  [--max-memo N] [--no-memo] [--backend NAME]\n"
            << "                  [--metrics] [--metrics-interval SEC]\n"
            << "                  [--metrics-out FILE] [--trace]\n"
            << "                  [--trace-sample N] [--trace-out FILE]\n"
            << "                  [--max-wire N]\n";
  return 2;
}

/// Parses the whole of `text` as a number in [lo, hi] into `out`,
/// refusing trailing characters ("0x"), a sign on an unsigned field ("-1",
/// which std::stoul would wrap to SIZE_MAX) and out-of-range values.  On
/// failure it prints `message` and returns false; the caller exits 2.
template <typename T>
bool parse_flag(const char* text, T lo, T hi, const char* message, T& out) {
  T parsed{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, parsed);
  if (ec == std::errc{} && ptr == end && parsed >= lo && parsed <= hi) {
    out = parsed;
    return true;
  }
  std::cerr << message << "\n";
  return false;
}

constexpr int kMaxInt = std::numeric_limits<int>::max();
constexpr std::size_t kMaxSize = std::numeric_limits<std::size_t>::max();

std::atomic<defa::serve::TcpListener*> g_listener{nullptr};

extern "C" void handle_term_signal(int) {
  // Async-signal-safe: one write to the listener's self-pipe.  The accept
  // loop returns, and main() drains gracefully.
  defa::serve::TcpListener* l = g_listener.load(std::memory_order_acquire);
  if (l != nullptr) l->close();
}

int run_listen(int port, const std::string& port_file,
               const defa::serve::ServeLoopOptions& options) {
  defa::serve::Server server(options.server);
  std::unique_ptr<defa::serve::MetricsEmitter> emitter;
  if (options.metrics_interval_sec > 0) {
    emitter = std::make_unique<defa::serve::MetricsEmitter>(
        server,
        options.metrics_stream != nullptr ? *options.metrics_stream : std::cerr,
        options.metrics_interval_sec);
  }
  defa::serve::TcpListener listener(port);
  g_listener.store(&listener, std::memory_order_release);
  std::signal(SIGTERM, handle_term_signal);
  std::signal(SIGINT, handle_term_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::cerr << "defa_serve: listening on 127.0.0.1:" << listener.port() << "\n";
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    if (!pf.good()) {
      std::cerr << "error: cannot write '" << port_file << "'\n";
      return 1;
    }
    pf << listener.port() << "\n";
  }

  defa::serve::ProtocolOptions protocol;
  protocol.max_wire_version = options.max_wire_version;
  // A client-issued `drain` stops the whole process, not just its session.
  protocol.on_drain = [&listener] { listener.close(); };

  // Each client gets a dedicated reader thread; evaluation itself runs on
  // the shared ThreadPool via the Server, so connection readers blocking
  // on I/O never occupy compute slots.  Finished sessions move themselves
  // from `live` to `finished`, and the accept loop reaps them — a
  // long-running server does not accumulate one fd + thread handle per
  // disconnected client until accept() hits EMFILE.
  struct Session {
    std::thread thread;
    std::shared_ptr<defa::serve::Connection> conn;
  };
  std::mutex mu;
  std::map<std::uint64_t, Session> live;  // guarded by mu
  std::vector<std::thread> finished;      // guarded by mu
  std::uint64_t next_session = 0;

  const auto reap = [&] {
    std::vector<std::thread> done;
    {
      const std::lock_guard<std::mutex> lock(mu);
      done.swap(finished);
    }
    for (std::thread& t : done) t.join();
  };

  while (auto accepted = listener.accept()) {
    reap();
    std::shared_ptr<defa::serve::Connection> conn = std::move(accepted);
    const std::lock_guard<std::mutex> lock(mu);
    const std::uint64_t id = next_session++;
    Session& session = live[id];
    session.conn = conn;
    // The session thread cannot reach its cleanup until this lock is
    // released, so `session.thread` is always set before it is moved.
    session.thread = std::thread([conn, id, &server, &protocol, &mu, &live,
                                  &finished] {
      defa::serve::run_serve_connection(*conn, server, protocol);
      const std::lock_guard<std::mutex> lock(mu);
      const auto it = live.find(id);
      if (it != live.end()) {  // absent when shutdown already collected it
        finished.push_back(std::move(it->second.thread));
        live.erase(it);
      }
    });
  }

  // Shutdown (signal or drain): stop admitting and finish in-flight work,
  // then unblock every connection reader and join the sessions.
  server.drain();
  std::vector<std::thread> to_join;
  {
    const std::lock_guard<std::mutex> lock(mu);
    for (auto& [id, session] : live) {
      session.conn->shutdown();
      to_join.push_back(std::move(session.thread));
    }
    live.clear();
  }
  for (std::thread& t : to_join) t.join();
  reap();  // sessions that self-retired between collection and join
  g_listener.store(nullptr, std::memory_order_release);
  emitter.reset();  // final metrics line reflects the drained server

  if (options.emit_metrics) {
    defa::api::Json m = defa::api::Json::object();
    m["metrics"] = server.metrics().to_json();
    std::cout << m.dump() << "\n" << std::flush;
  }
  std::cerr << "defa_serve: drained, " << server.metrics().completed_ok
            << " requests served\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  defa::serve::configure_malloc();
  std::string in_path, out_path, port_file;
  std::string metrics_out_path, trace_out_path;
  bool trace = false;
  int listen_port = -1;  // -1 = stdio mode
  defa::serve::ServeLoopOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--in") {
      const char* v = value();
      if (v == nullptr) return usage();
      in_path = v;
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return usage();
      out_path = v;
    } else if (arg == "--listen") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_flag(v, 0, 65535, "--listen PORT must be in [0, 65535]", listen_port)) {
        return 2;
      }
    } else if (arg == "--port-file") {
      const char* v = value();
      if (v == nullptr) return usage();
      port_file = v;
    } else if (arg == "--workers") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_flag(v, 0, kMaxInt, "--workers N must be a whole number >= 0",
                      options.server.max_concurrency)) {
        return 2;
      }
    } else if (arg == "--queue-capacity") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_flag(v, std::size_t{1}, kMaxSize,
                      "--queue-capacity N must be a whole number >= 1",
                      options.server.queue_capacity)) {
        return 2;
      }
    } else if (arg == "--policy") {
      const char* v = value();
      if (v == nullptr) return usage();
      const auto policy = defa::serve::policy_from_name(v);
      if (!policy.has_value()) {
        std::cerr << "unknown policy '" << v << "' (fifo|locality)\n";
        return 2;
      }
      options.server.policy = *policy;
    } else if (arg == "--locality-window") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_flag(v, 1, kMaxInt, "--locality-window N must be a whole number >= 1",
                      options.server.locality_window)) {
        return 2;
      }
    } else if (arg == "--max-contexts") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_flag(v, std::size_t{0}, kMaxSize,
                      "--max-contexts N must be a whole number >= 0",
                      options.server.engine.max_contexts)) {
        return 2;
      }
    } else if (arg == "--max-memo") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_flag(v, std::size_t{0}, kMaxSize,
                      "--max-memo N must be a whole number >= 0",
                      options.server.engine.max_memo)) {
        return 2;
      }
    } else if (arg == "--no-memo") {
      options.server.engine.memoize_results = false;
    } else if (arg == "--backend") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (defa::kernels::find_backend(v) == nullptr) {
        std::cerr << "unknown backend '" << v
                  << "' (known: " << defa::kernels::known_backends() << ")\n";
        return 2;
      }
      options.server.engine.backend = v;
    } else if (arg == "--max-wire") {
      const char* v = value();
      if (v == nullptr) return usage();
      const std::string message =
          "--max-wire N must be in [1, " +
          std::to_string(defa::serve::wire::kWireVersion) + "]";
      if (!parse_flag(v, 1, defa::serve::wire::kWireVersion, message.c_str(),
                      options.max_wire_version)) {
        return 2;
      }
    } else if (arg == "--metrics") {
      options.emit_metrics = true;
    } else if (arg == "--metrics-interval") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_flag(v, std::numeric_limits<double>::min(),
                      std::numeric_limits<double>::max(),
                      "--metrics-interval SEC must be a number > 0",
                      options.metrics_interval_sec)) {
        return 2;
      }
    } else if (arg == "--metrics-out") {
      const char* v = value();
      if (v == nullptr) return usage();
      metrics_out_path = v;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--trace-sample") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_flag(v, 1, kMaxInt, "--trace-sample N must be a whole number >= 1",
                      options.server.trace_sample_every)) {
        return 2;
      }
      trace = true;
    } else if (arg == "--trace-out") {
      const char* v = value();
      if (v == nullptr) return usage();
      trace_out_path = v;
      trace = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return 2;
    }
  }

  if (trace) defa::obs::Tracer::instance().set_enabled(true);

  std::ofstream metrics_file;
  if (!metrics_out_path.empty()) {
    if (options.metrics_interval_sec <= 0) {
      std::cerr << "--metrics-out requires --metrics-interval SEC\n";
      return 2;
    }
    metrics_file.open(metrics_out_path);
    if (!metrics_file.good()) {
      std::cerr << "error: cannot open '" << metrics_out_path << "' for writing\n";
      return 1;
    }
    options.metrics_stream = &metrics_file;
  }

  // The tracer is process-global, so the dump works the same for both
  // wire modes; spans recorded by any session land in one file.
  const auto dump_trace = [&] {
    if (trace_out_path.empty()) return;
    const std::vector<defa::obs::Span> spans =
        defa::obs::Tracer::instance().collect();
    defa::obs::write_trace_file(
        trace_out_path,
        defa::obs::trace_document(defa::obs::trace_events_json(
            spans, static_cast<int>(::getpid()), "defa_serve")));
    std::cerr << "defa_serve: wrote " << spans.size() << " trace event(s) to "
              << trace_out_path << "\n";
  };

  if (listen_port >= 0) {
    if (!in_path.empty() || !out_path.empty()) {
      std::cerr << "--listen serves TCP clients; --in/--out apply to stdio mode\n";
      return 2;
    }
    const int rc = run_listen(listen_port, port_file, options);
    dump_trace();
    return rc;
  }

  std::ifstream in_file;
  if (!in_path.empty()) {
    in_file.open(in_path);
    if (!in_file.good()) {
      std::cerr << "error: cannot open '" << in_path << "'\n";
      return 1;
    }
  }
  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file.good()) {
      std::cerr << "error: cannot open '" << out_path << "' for writing\n";
      return 1;
    }
  }
  std::signal(SIGPIPE, SIG_IGN);
  const int bad = defa::serve::run_serve_loop(
      in_path.empty() ? std::cin : in_file, out_path.empty() ? std::cout : out_file,
      options);
  if (bad > 0) std::cerr << bad << " malformed request line(s)\n";
  dump_trace();
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
