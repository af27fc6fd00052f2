#include "client/client.h"

#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "common/check.h"
#include "obs/trace.h"
#include "serve/server_loop.h"
#include "serve/wire/codec.h"
#include "serve/wire/format.h"
#include "serve/wire/stats.h"

namespace defa::client {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(b - a)
      .count();
}

/// The spawned child's pipes, framed by the shared `serve::FdConnection`
/// (shutdown() closes the child's stdin — the stdio transport's EOF; the
/// server loop drains and exits, which in turn EOFs our read side).
/// Also reaps the child on destruction.
class SpawnedProcessConnection : public serve::FdConnection {
 public:
  SpawnedProcessConnection(int read_fd, int write_fd, pid_t child)
      : serve::FdConnection(read_fd, write_fd, /*is_socket=*/false),
        child_(child) {}

  ~SpawnedProcessConnection() override {
    shutdown();
    if (child_ > 0) {
      int status = 0;
      ::waitpid(child_, &status, 0);
    }
  }

 private:
  pid_t child_ = -1;
};

void ignore_sigpipe_once() {
  // A peer that vanishes mid-write must surface as EPIPE, not kill the
  // process.  Sockets use MSG_NOSIGNAL; pipes need the handler change.
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

}  // namespace

// ----------------------------------------------------------------------- Impl

struct Client::Impl {
  /// Resolves one pending call.  `frame == nullptr` means the call failed
  /// locally (`code` says how: transport loss, oversized frame).
  using FrameHandler = std::function<void(
      const api::Json* frame, serve::ErrorCode code, const std::string& error)>;
  /// v2 flavor: fires once per response frame — which for a streamed
  /// eval_batch means once per chunk plus once for the end frame.
  using WireHandler =
      std::function<void(const serve::wire::DecodedResponse* resp,
                         serve::ErrorCode code, const std::string& error)>;

  Impl(std::unique_ptr<serve::Connection> c, const ClientOptions& opts)
      : conn(std::move(c)), options(opts) {
    DEFA_CHECK(conn != nullptr, "client: null connection");
    if (options.wire != ClientOptions::Wire::kV1) negotiate();
    reader = std::thread([this] {
      if (wire_version == 2) {
        read_loop_v2();
      } else {
        read_loop();
      }
    });
  }

  ~Impl() {
    conn->shutdown();
    if (reader.joinable()) reader.join();
  }

  /// Synchronous `hello` handshake, run before the reader thread exists —
  /// the answer is the next frame on an otherwise-idle connection.  kAuto
  /// treats any refusal (unknown_method from an old server, a v1-capped
  /// negotiation, a malformed answer) as "speak v1"; kV2 turns refusal
  /// into RpcError so a caller demanding the binary wire finds out now.
  void negotiate() {
    const bool required = options.wire == ClientOptions::Wire::kV2;
    api::Json params = api::Json::object();
    params["max_version"] = serve::wire::kWireVersion;
    const std::string text =
        serve::make_request_frame("hello", "hello", std::move(params)).dump();
    if (!conn->write_frame(text)) {
      if (required) {
        throw RpcError(serve::ErrorCode::kTransport,
                       "connection closed during the hello handshake");
      }
      return;  // the reader's first read_frame will fail pending calls
    }
    std::string line;
    while (conn->read_frame(line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      bool upgraded = false;
      try {
        const api::Json frame = api::Json::parse(line);
        const api::Json* id = frame.find("id");
        if (id == nullptr || id->as_string() != "hello") continue;  // stray
        if (frame.at("ok").as_bool()) {
          const api::Json& result = frame.at("result");
          if (const api::Json* m = result.find("max_frame_bytes")) {
            max_frame_bytes = static_cast<std::size_t>(m->as_number());
          }
          upgraded = result.at("version").as_int() >= 2;
        }
      } catch (const std::exception&) {
        upgraded = false;  // malformed answer counts as a refusal
      }
      if (upgraded) {
        wire_version = 2;
      } else if (required) {
        throw RpcError(serve::ErrorCode::kVersion,
                       "server did not negotiate wire v2");
      }
      return;
    }
    if (required) {
      throw RpcError(serve::ErrorCode::kTransport,
                     "connection closed during the hello handshake");
    }
  }

  void read_loop() {
    std::string text;
    while (conn->read_frame(text)) {
      if (text.find_first_not_of(" \t\r") == std::string::npos) continue;
      api::Json frame;
      std::string id;
      try {
        const Clock::time_point t0 = Clock::now();
        frame = api::Json::parse(text);
        serve::wire::SerStats::instance().add_decode(
            1, ms_between(t0, Clock::now()), text.size() + 1);
        if (const api::Json* i = frame.find("id")) id = i->as_string();
      } catch (const std::exception&) {
        continue;  // not ours to crash on; the unparseable frame is dropped
      }
      // An error frame the server could not attribute (id "" — it refused
      // to parse our frame at all, e.g. oversized) cannot be correlated
      // to one call.  The stream is desynced: fail every pending call
      // with the server's reason instead of leaving one hanging forever.
      if (id.empty() && frame.contains("ok") && !frame.at("ok").as_bool()) {
        std::string reason = "server answered an unattributable error";
        try {
          reason += ": " + frame.at("error").at("message").as_string();
        } catch (const std::exception&) {
        }
        fail_all(serve::ErrorCode::kTransport, reason);
        continue;
      }
      FrameHandler handler;
      {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = pending.find(id);
        if (it == pending.end()) continue;  // unknown id (e.g. metrics line)
        handler = std::move(it->second);
        pending.erase(it);
      }
      handler(&frame, serve::ErrorCode::kInternal, "");
      release_slot();
    }
    // EOF / error: fail everything still outstanding, and every call that
    // arrives after.
    fail_all(serve::ErrorCode::kTransport,
             "connection closed with the call in flight");
  }

  /// v2 counterpart of read_loop: length-prefixed binary frames.  A
  /// malformed-but-framed payload is dropped (v1 parity: the unparseable
  /// frame is not ours to crash on); a broken header means the byte stream
  /// is desynced and the connection is done.
  void read_loop_v2() {
    namespace wire = serve::wire;
    std::string payload;
    char header_buf[wire::kHeaderBytes];
    while (conn->read_exact(header_buf, wire::kHeaderBytes)) {
      wire::FrameHeader header;
      try {
        header = wire::decode_header(header_buf, wire::kHeaderBytes);
      } catch (const std::exception&) {
        break;  // bad magic: frame boundaries are lost
      }
      if (header.payload_len > max_frame_bytes) break;  // server never does
      payload.resize(header.payload_len);
      if (header.payload_len > 0 &&
          !conn->read_exact(payload.data(), header.payload_len)) {
        break;  // EOF mid-frame
      }
      wire::DecodedResponse resp;
      try {
        resp = wire::decode_response(header, payload.data(), payload.size());
      } catch (const std::exception&) {
        continue;
      }
      if (resp.id.empty()) {
        // Unattributable server error (it could not decode our frame):
        // the stream is past saving for correlation — fail everything.
        if (!resp.ok && resp.has_eval) {
          fail_all(serve::ErrorCode::kTransport,
                   "server answered an unattributable error: " + resp.eval.error);
        }
        continue;
      }
      // Batch chunks resolve the same pending call repeatedly; only the
      // final frame (batch end, or any plain response) retires it.
      const bool last = resp.type != wire::FrameType::kBatchChunk;
      WireHandler handler;
      {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = pending_wire.find(resp.id);
        if (it == pending_wire.end()) continue;
        if (last) {
          handler = std::move(it->second);
          pending_wire.erase(it);
        } else {
          handler = it->second;
        }
      }
      handler(&resp, serve::ErrorCode::kInternal, "");
      if (last) release_slot();
    }
    fail_all(serve::ErrorCode::kTransport,
             "connection closed with the call in flight");
  }

  /// Fail every pending call and refuse new ones.
  void fail_all(serve::ErrorCode code, const std::string& reason) {
    std::unordered_map<std::string, FrameHandler> orphaned;
    std::unordered_map<std::string, WireHandler> orphaned_wire;
    {
      const std::lock_guard<std::mutex> lock(mu);
      dead = true;
      orphaned.swap(pending);
      orphaned_wire.swap(pending_wire);
      // Deferred frames' handlers are registered in the pending maps, so
      // the sweeps above already fail them; the bytes just get dropped.
      deferred.clear();
      on_wire_count = 0;
    }
    for (auto& [id, handler] : orphaned) handler(nullptr, code, reason);
    for (auto& [id, handler] : orphaned_wire) handler(nullptr, code, reason);
  }

  /// Fail one registered call after its write hit a broken pipe (unless
  /// the reader resolved or swept it first).
  void orphan_fail(const std::string& id) {
    FrameHandler h1;
    WireHandler h2;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (const auto it = pending.find(id); it != pending.end()) {
        h1 = std::move(it->second);
        pending.erase(it);
      } else if (const auto it2 = pending_wire.find(id);
                 it2 != pending_wire.end()) {
        h2 = std::move(it2->second);
        pending_wire.erase(it2);
      }
    }
    if (h1) h1(nullptr, serve::ErrorCode::kTransport, "connection is closed");
    if (h2) h2(nullptr, serve::ErrorCode::kTransport, "connection is closed");
  }

  /// One frame onto the transport (never under `mu`: a full-duplex stall
  /// with both sides' buffers full must not wedge response delivery).
  bool write_wire(const std::string& bytes) {
    const std::lock_guard<std::mutex> wlock(write_mu);
    return wire_version == 2 ? conn->write_bytes(bytes.data(), bytes.size())
                             : conn->write_frame(bytes);
  }

  /// Send one pre-encoded, already-registered frame, honoring the
  /// pipelining depth: at the cap it queues (FIFO) and flushes from
  /// release_slot() as responses retire earlier calls.
  void dispatch_frame(const std::string& id, std::string bytes) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (options.max_inflight > 0 &&
          (on_wire_count >= options.max_inflight || !deferred.empty())) {
        deferred.push_back({id, std::move(bytes)});
        return;
      }
      ++on_wire_count;
    }
    if (!write_wire(bytes)) orphan_fail(id);
  }

  /// A call retired (response landed or write failed): free its wire slot
  /// and flush deferred frames up to the cap.
  void release_slot() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (on_wire_count > 0) --on_wire_count;
    }
    while (true) {
      DeferredFrame next;
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (dead || deferred.empty() ||
            (options.max_inflight > 0 &&
             on_wire_count >= options.max_inflight)) {
          return;
        }
        next = std::move(deferred.front());
        deferred.pop_front();
        ++on_wire_count;
      }
      if (write_wire(next.bytes)) continue;  // loop: cap may still have room
      // Broken pipe: fail this call, release its slot, try the next — the
      // reader's fail_all sweeps whatever is left shortly anyway.
      orphan_fail(next.id);
      const std::lock_guard<std::mutex> lock(mu);
      if (on_wire_count > 0) --on_wire_count;
    }
  }

  /// Register `handler` under a fresh wire id and send the frame.  The
  /// handler fires exactly once, possibly before this returns.
  void send_call(const std::string& method, api::Json params, FrameHandler handler,
                 const std::string& trace_hex = "") {
    std::string id;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!dead) id = "c" + std::to_string(next_id++);
    }
    if (id.empty()) {
      handler(nullptr, serve::ErrorCode::kTransport, "connection is closed");
      return;
    }
    const Clock::time_point t0 = Clock::now();
    std::string text =
        serve::make_request_frame(id, method, std::move(params), trace_hex).dump();
    serve::wire::SerStats::instance().add_encode(1, ms_between(t0, Clock::now()),
                                                 text.size() + 1);
    // Refuse frames the server would refuse: it answers oversized frames
    // with an unattributable (id-less) error, which would otherwise
    // poison every pending call on this connection.
    if (text.size() > max_frame_bytes) {
      handler(nullptr, serve::ErrorCode::kOversized,
              "request frame of " + std::to_string(text.size()) +
                  " bytes exceeds the protocol frame limit");
      return;
    }
    bool registered = false;
    {
      // Register before writing (the response can race the write), and
      // re-check `dead`: fail_all may have swept `pending` since the id
      // was allocated, and an entry added after the sweep would leak.
      const std::lock_guard<std::mutex> lock(mu);
      if (!dead) {
        pending.emplace(id, std::move(handler));
        registered = true;
      }
    }
    if (!registered) {
      handler(nullptr, serve::ErrorCode::kTransport, "connection is closed");
      return;
    }
    dispatch_frame(id, std::move(text));
  }

  /// v2 flavor of send_call: binary request frame, decoded responses.
  /// For streamed batches `handler` fires per chunk and once for the end
  /// frame; plain calls resolve it exactly once.
  void send_wire_call(const std::string& method, const api::Json& params,
                      WireHandler handler, std::uint64_t trace_id = 0) {
    std::string id;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!dead) id = "c" + std::to_string(next_id++);
    }
    if (id.empty()) {
      handler(nullptr, serve::ErrorCode::kTransport, "connection is closed");
      return;
    }
    const std::string params_text = params.is_null() ? std::string() : params.dump();
    std::string bytes = serve::wire::encode_request(id, method, params_text, trace_id);
    if (bytes.size() - serve::wire::kHeaderBytes > max_frame_bytes) {
      handler(nullptr, serve::ErrorCode::kOversized,
              "request frame of " + std::to_string(bytes.size()) +
                  " bytes exceeds the protocol frame limit");
      return;
    }
    bool registered = false;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!dead) {
        pending_wire.emplace(id, std::move(handler));
        registered = true;
      }
    }
    if (!registered) {
      handler(nullptr, serve::ErrorCode::kTransport, "connection is closed");
      return;
    }
    dispatch_frame(id, std::move(bytes));
  }

  /// Sync call returning the whole response frame; throws RpcError on
  /// transport loss.  On a v2 session the decoded binary response is
  /// rebuilt into the v1 frame shape, so every caller sees one format.
  api::Json call_frame(const std::string& method, api::Json params) {
    auto prom = std::make_shared<std::promise<api::Json>>();
    std::future<api::Json> fut = prom->get_future();
    if (wire_version == 2) {
      send_wire_call(
          method, params,
          [prom](const serve::wire::DecodedResponse* resp, serve::ErrorCode code,
                 const std::string& error) {
            if (resp == nullptr) {
              prom->set_exception(std::make_exception_ptr(RpcError(code, error)));
              return;
            }
            try {
              api::Json frame = api::Json::object();
              frame["id"] = resp->id;
              frame["ok"] = resp->ok;
              if (resp->ok) {
                frame["result"] = resp->json_text.empty()
                                      ? api::Json()
                                      : api::Json::parse(resp->json_text);
              } else {
                api::Json err = api::Json::object();
                err["code"] = resp->eval.error_code;
                err["message"] = resp->eval.error;
                err["queue_ms"] = resp->eval.queue_ms;
                err["total_ms"] = resp->eval.total_ms;
                frame["error"] = std::move(err);
              }
              prom->set_value(std::move(frame));
            } catch (...) {
              prom->set_exception(std::current_exception());
            }
          });
      return fut.get();
    }
    send_call(method, std::move(params),
              [prom](const api::Json* frame, serve::ErrorCode code,
                     const std::string& error) {
                if (frame == nullptr) {
                  prom->set_exception(
                      std::make_exception_ptr(RpcError(code, error)));
                } else {
                  prom->set_value(*frame);
                }
              });
    return fut.get();
  }

  struct DeferredFrame {
    std::string id;
    std::string bytes;
  };

  std::unique_ptr<serve::Connection> conn;
  ClientOptions options;
  int wire_version = 1;
  std::size_t max_frame_bytes = serve::ProtocolOptions{}.max_frame_bytes;
  std::thread reader;
  std::mutex mu;        ///< guards pending maps/deferred/dead/next_id
  std::mutex write_mu;  ///< serializes transport writes (nested inside mu)
  std::unordered_map<std::string, FrameHandler> pending;
  std::unordered_map<std::string, WireHandler> pending_wire;
  std::deque<DeferredFrame> deferred;  ///< pre-encoded, waiting for a slot
  int on_wire_count = 0;
  std::uint64_t next_id = 1;
  bool dead = false;
};

// --------------------------------------------------------------------- Client

Client::Client(std::unique_ptr<serve::Connection> conn,
               const ClientOptions& options)
    : impl_(std::make_unique<Impl>(std::move(conn), options)) {}
Client::~Client() = default;
Client::Client(Client&&) noexcept = default;
Client& Client::operator=(Client&&) noexcept = default;

Client Client::connect(const std::string& endpoint, const ClientOptions& options) {
  const serve::Endpoint ep = serve::parse_endpoint(endpoint);
  return connect_tcp(ep.host, ep.port, options);
}

Client Client::connect_tcp(const std::string& host, int port,
                           const ClientOptions& options) {
  ignore_sigpipe_once();
  return Client(serve::tcp_connect(host, port), options);
}

Client Client::spawn(const std::vector<std::string>& argv,
                     const ClientOptions& options) {
  DEFA_CHECK(!argv.empty(), "client: spawn needs a command line");
  ignore_sigpipe_once();
  int to_child[2];   // parent writes -> child stdin
  int from_child[2]; // child stdout -> parent reads
  DEFA_CHECK(::pipe(to_child) == 0 && ::pipe(from_child) == 0,
             "client: pipe() failed: " + std::string(std::strerror(errno)));
  const pid_t pid = ::fork();
  DEFA_CHECK(pid >= 0, "client: fork() failed: " + std::string(std::strerror(errno)));
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execvp(args[0], args.data());
    // exec failed: exit hard, the parent sees EOF on its read pipe.
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  return Client(std::make_unique<SpawnedProcessConnection>(from_child[0], to_child[1],
                                                           pid),
                options);
}

void Client::submit_async(serve::ServeRequest req, ResponseCallback done) {
  DEFA_CHECK(done != nullptr, "client: submit_async callback must be set");
  api::Json params = api::Json::object();
  params["request"] = api::to_json(req.request);
  if (req.priority != serve::Priority::kNormal) {
    params["priority"] = serve::priority_name(req.priority);
  }
  if (req.timeout_ms > 0) params["timeout_ms"] = req.timeout_ms;

  // Sampled requests carry their trace id on the wire (envelope
  // `trace_id`); the matching client-side span is recorded when the
  // response lands, so the rpc span brackets the whole round trip.
  std::string trace_hex;
  if (req.trace_id != 0) trace_hex = obs::trace_id_to_hex(req.trace_id);

  const std::string user_id = req.id;
  const std::uint64_t trace_id = req.trace_id;
  const Clock::time_point sent = Clock::now();
  // Shared completion tail of both wire versions: stamp the caller's id,
  // overwrite total_ms with the client-observed round trip (the latency a
  // remote caller actually experiences; server-side queue/run stay as
  // reported), record the rpc span, deliver.
  const auto finish = [done = std::move(done), user_id, trace_id,
                       sent](serve::ServeResponse resp, bool from_wire) {
    if (from_wire) resp.total_ms = ms_between(sent, Clock::now());
    resp.id = user_id;
#if DEFA_TRACE
    if (trace_id != 0) {
      const std::int64_t sent_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              sent.time_since_epoch())
              .count();
      obs::record_span("rpc", "client", sent_us, obs::now_us() - sent_us,
                       trace_id,
                       {{"id", user_id},
                        {"status", serve::status_name(resp.status)}});
    }
#endif
    done(resp);
  };

  if (impl_->wire_version == 2) {
    impl_->send_wire_call(
        "eval", params,
        [finish](const serve::wire::DecodedResponse* resp, serve::ErrorCode code,
                 const std::string& error) {
          serve::ServeResponse r;
          if (resp == nullptr) {
            r.status = serve::status_for(code);
            r.error_code = serve::error_code_name(code);
            r.error = error;
            finish(std::move(r), /*from_wire=*/false);
            return;
          }
          if (resp->has_eval) {
            r = resp->eval;
          } else {
            r.status = serve::ResponseStatus::kError;
            r.error_code = serve::error_code_name(serve::ErrorCode::kInternal);
            r.error = "malformed response frame: no eval payload";
          }
          finish(std::move(r), /*from_wire=*/true);
        },
        trace_id);
    return;
  }
  impl_->send_call(
      "eval", std::move(params),
      [finish](const api::Json* frame, serve::ErrorCode code,
               const std::string& error) {
        serve::ServeResponse resp;
        if (frame == nullptr) {
          // Local/transport failure: the status collapses several codes
          // (kTransport -> kError), so carry the typed code alongside —
          // callers tell a dead connection ("transport") from a request
          // the server actually rejected.
          resp.status = serve::status_for(code);
          resp.error_code = serve::error_code_name(code);
          resp.error = error;
          finish(std::move(resp), /*from_wire=*/false);
          return;
        }
        try {
          resp = serve::serve_response_from_frame(*frame);
        } catch (const std::exception& e) {
          resp.status = serve::ResponseStatus::kError;
          resp.error_code = serve::error_code_name(serve::ErrorCode::kInternal);
          resp.error = std::string("malformed response frame: ") + e.what();
        }
        finish(std::move(resp), /*from_wire=*/true);
      },
      trace_hex);
}

std::future<serve::ServeResponse> Client::submit(serve::ServeRequest req) {
  auto prom = std::make_shared<std::promise<serve::ServeResponse>>();
  std::future<serve::ServeResponse> fut = prom->get_future();
  submit_async(std::move(req), [prom](const serve::ServeResponse& resp) {
    prom->set_value(resp);
  });
  return fut;
}

serve::ServeResponse Client::eval_response(const api::EvalRequest& req,
                                           serve::Priority priority,
                                           double timeout_ms) {
  serve::ServeRequest sr;
  sr.request = req;
  sr.priority = priority;
  sr.timeout_ms = timeout_ms;
  return submit(std::move(sr)).get();
}

api::EvalResult Client::eval(const api::EvalRequest& req) {
  serve::ServeResponse resp = eval_response(req);
  if (resp.status != serve::ResponseStatus::kOk) {
    // Prefer the carried wire code: mapping the status back would turn a
    // typed transport failure into kInternal.
    const std::optional<serve::ErrorCode> code =
        serve::error_code_from_name(resp.error_code);
    throw RpcError(code.value_or(serve::error_code_for(resp.status)), resp.error);
  }
  return std::move(*resp.result);
}

namespace {

api::Json batch_params(const std::vector<api::EvalRequest>& requests,
                       serve::Priority priority, double timeout_ms) {
  api::Json params = api::Json::object();
  api::Json arr = api::Json::array();
  for (const api::EvalRequest& r : requests) {
    api::Json item = api::Json::object();
    item["request"] = api::to_json(r);
    arr.push_back(std::move(item));
  }
  params["requests"] = std::move(arr);
  if (priority != serve::Priority::kNormal) {
    params["priority"] = serve::priority_name(priority);
  }
  if (timeout_ms > 0) params["timeout_ms"] = timeout_ms;
  return params;
}

}  // namespace

std::vector<serve::ServeResponse> Client::eval_batch(
    const std::vector<api::EvalRequest>& requests, serve::Priority priority,
    double timeout_ms) {
  return eval_batch_stream(requests, nullptr, priority, timeout_ms);
}

std::vector<serve::ServeResponse> Client::eval_batch_stream(
    const std::vector<api::EvalRequest>& requests, BatchItemCallback on_item,
    serve::Priority priority, double timeout_ms) {
  DEFA_CHECK(!requests.empty(), "client: eval_batch needs at least one request");
  const std::size_t n = requests.size();

  if (impl_->wire_version == 2) {
    // Streamed: each chunk resolves one slot as it arrives (strict index
    // order on the wire); the end frame releases the waiter.
    struct BatchWait {
      std::vector<serve::ServeResponse> out;
      std::promise<void> done;
    };
    auto wait = std::make_shared<BatchWait>();
    wait->out.resize(n);
    std::future<void> fut = wait->done.get_future();
    impl_->send_wire_call(
        "eval_batch", batch_params(requests, priority, timeout_ms),
        [wait, on_item, n](const serve::wire::DecodedResponse* resp,
                           serve::ErrorCode code, const std::string& error) {
          try {
            if (resp == nullptr) throw RpcError(code, error);
            if (resp->type == serve::wire::FrameType::kBatchChunk) {
              DEFA_CHECK(resp->item_index < n,
                         "client: batch chunk index " +
                             std::to_string(resp->item_index) +
                             " out of range for " + std::to_string(n) + " items");
              wait->out[resp->item_index] = resp->eval;
              if (on_item) on_item(resp->item_index, wait->out[resp->item_index]);
              return;
            }
            if (resp->type == serve::wire::FrameType::kBatchEnd) {
              DEFA_CHECK(resp->batch_total == n,
                         "client: eval_batch answered " +
                             std::to_string(resp->batch_total) + " results for " +
                             std::to_string(n) + " requests");
              try {
                wait->done.set_value();
              } catch (const std::future_error&) {
              }  // already failed on an earlier chunk
              return;
            }
            // A plain response frame: the batch as a whole failed
            // (validation of the envelope, oversized, ...).
            const std::optional<serve::ErrorCode> c =
                serve::error_code_from_name(resp->eval.error_code);
            throw RpcError(c.value_or(serve::ErrorCode::kInternal),
                           resp->eval.error);
          } catch (...) {
            try {
              wait->done.set_exception(std::current_exception());
            } catch (const std::future_error&) {
            }  // keep the first failure
          }
        });
    fut.get();
    return std::move(wait->out);
  }

  const api::Json result =
      call("eval_batch", batch_params(requests, priority, timeout_ms));
  const api::Json& items = result.at("results");
  DEFA_CHECK(items.is_array() && items.size() == requests.size(),
             "client: eval_batch answered " + std::to_string(items.size()) +
                 " results for " + std::to_string(requests.size()) + " requests");
  std::vector<serve::ServeResponse> out;
  out.reserve(items.size());
  for (const api::Json& item : items.items()) {
    // Items mirror response frames minus the id; reuse the frame decoder.
    api::Json frame = api::Json::object();
    frame["ok"] = item.at("ok").as_bool();
    if (const api::Json* r = item.find("result")) frame["result"] = *r;
    if (const api::Json* e = item.find("error")) frame["error"] = *e;
    out.push_back(serve::serve_response_from_frame(frame));
  }
  // The v1 wire answers in one frame; the callbacks still see the same
  // in-order sequence, just all at once.
  if (on_item != nullptr) {
    for (std::size_t i = 0; i < out.size(); ++i) on_item(i, out[i]);
  }
  return out;
}

api::Json Client::call(const std::string& method, api::Json params) {
  const api::Json frame = impl_->call_frame(method, std::move(params));
  if (frame.at("ok").as_bool()) return frame.at("result");
  const api::Json& err = frame.at("error");
  const std::optional<serve::ErrorCode> code =
      serve::error_code_from_name(err.at("code").as_string());
  throw RpcError(code.value_or(serve::ErrorCode::kInternal),
                 err.at("message").as_string());
}

api::Json Client::ping() { return call("ping"); }

serve::MetricsSnapshot Client::metrics() {
  return serve::MetricsSnapshot::from_json(call("metrics"));
}

std::vector<std::string> Client::backends() {
  const api::Json result = call("backends");
  std::vector<std::string> names;
  for (const api::Json& n : result.at("backends").items()) {
    names.push_back(n.as_string());
  }
  return names;
}

api::Json Client::experiments() { return call("experiments"); }

api::Json Client::run_experiment(const std::string& name) {
  api::Json params = api::Json::object();
  params["name"] = name;
  return call("experiment", std::move(params));
}

api::Json Client::reconfigure(const serve::ServerReconfig& rc) {
  return call("reconfigure", serve::reconfig_params(rc));
}

api::Json Client::trace(bool clear) {
  api::Json params;  // omitted from the frame when left null
  if (!clear) {
    params = api::Json::object();
    params["clear"] = false;
  }
  return call("trace", std::move(params));
}

api::Json Client::drain() { return call("drain"); }

const char* Client::transport_name() const noexcept {
  return impl_->conn->transport_name();
}

int Client::wire_version() const noexcept { return impl_->wire_version; }

}  // namespace defa::client
