// Tests for Protocol v1 and the client library: the versioned envelope
// and typed error codes (malformed frame, unknown method, version
// mismatch, oversized payload), completion-order sessions, legacy-mode
// auto-detection, graceful drain/shutdown semantics, and a loopback-TCP
// client/server round trip asserting bit-identical results vs in-process
// Engine::run.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/request.h"
#include "client/client.h"
#include "client/remote_loadgen.h"
#include "common/rng.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server_loop.h"
#include "serve/transport.h"
#include "serve/wire/codec.h"
#include "serve/wire/format.h"

// Process-wide allocation counter for the no-per-frame-alloc micro-test:
// every operator new in this test binary bumps it, so a steady-state read
// loop can assert an exact zero delta.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace defa::serve {
namespace {

using api::EvalRequest;
using api::EvalResult;
using api::Json;

// ----------------------------------------------------------------- error codes

TEST(ProtocolErrorCode, NamesRoundTrip) {
  for (const ErrorCode c :
       {ErrorCode::kParse, ErrorCode::kValidation, ErrorCode::kVersion,
        ErrorCode::kUnknownMethod, ErrorCode::kOversized, ErrorCode::kOverload,
        ErrorCode::kDeadline, ErrorCode::kShutdown, ErrorCode::kInternal,
        ErrorCode::kTransport}) {
    const auto back = error_code_from_name(error_code_name(c));
    ASSERT_TRUE(back.has_value()) << error_code_name(c);
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(error_code_from_name("no_such_code").has_value());
}

TEST(ProtocolErrorCode, SchedulerStatusesMapToTypedCodes) {
  EXPECT_EQ(error_code_for(ResponseStatus::kRejectedOverload), ErrorCode::kOverload);
  EXPECT_EQ(error_code_for(ResponseStatus::kRejectedDeadline), ErrorCode::kDeadline);
  EXPECT_EQ(error_code_for(ResponseStatus::kRejectedShutdown), ErrorCode::kShutdown);
  EXPECT_EQ(error_code_for(ResponseStatus::kError), ErrorCode::kInternal);
  // And back: the client reconstructs the scheduler-side status.
  EXPECT_EQ(status_for(ErrorCode::kOverload), ResponseStatus::kRejectedOverload);
  EXPECT_EQ(status_for(ErrorCode::kShutdown), ResponseStatus::kRejectedShutdown);
  EXPECT_EQ(status_for(ErrorCode::kValidation), ResponseStatus::kBadRequest);
}

// ------------------------------------------------------------ session helpers

/// Run one v1 session over stringstreams and hand back the parsed
/// response frames in write order.
std::vector<Json> run_session(const std::string& input,
                              const ProtocolOptions& options = {},
                              ServerOptions server_options = {}) {
  std::istringstream in(input);
  std::ostringstream out;
  Server server(server_options);
  StreamConnection conn(in, out);
  run_serve_connection(conn, server, options);
  server.drain();
  std::vector<Json> frames;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    frames.push_back(Json::parse(line));
  }
  return frames;
}

const Json* frame_with_id(const std::vector<Json>& frames, const std::string& id) {
  for (const Json& f : frames) {
    if (f.contains("id") && f.at("id").as_string() == id) return &f;
  }
  return nullptr;
}

std::string error_code_of(const Json& frame) {
  EXPECT_FALSE(frame.at("ok").as_bool());
  return frame.at("error").at("code").as_string();
}

// ------------------------------------------------------------------ v1 session

TEST(ProtocolSession, PingReportsVersionAndServerInfo) {
  const std::vector<Json> frames =
      run_session(R"({"v":1,"id":"p","method":"ping"})" "\n");
  ASSERT_EQ(frames.size(), 1u);
  const Json& f = frames[0];
  EXPECT_EQ(f.at("v").as_int(), kProtocolVersion);
  EXPECT_EQ(f.at("id").as_string(), "p");
  EXPECT_TRUE(f.at("ok").as_bool());
  const Json& info = f.at("result");
  EXPECT_EQ(info.at("protocol").as_int(), kProtocolVersion);
  for (const char* key : {"policy", "workers", "queue_capacity", "backend",
                          "draining"}) {
    EXPECT_TRUE(info.at("server").contains(key)) << key;
  }
  EXPECT_FALSE(info.at("server").at("draining").as_bool());
}

TEST(ProtocolSession, EvalMatchesInProcessEngineRun) {
  EvalRequest req;
  req.preset = "tiny";
  req.outputs = api::kFunctional | api::kAccuracy;
  api::Engine reference;
  const EvalResult expected = reference.run(req);

  Json params = Json::object();
  params["request"] = api::to_json(req);
  const std::vector<Json> frames =
      run_session(make_request_frame("e1", "eval", std::move(params)).dump() + "\n");
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_TRUE(frames[0].at("ok").as_bool());
  const Json& payload = frames[0].at("result");
  for (const char* key : {"queue_ms", "run_ms", "total_ms", "dispatch_index"}) {
    EXPECT_TRUE(payload.contains(key)) << key;
  }
  // Bit-identical through the wire: the parsed result compares equal.
  const EvalResult back = api::eval_result_from_json(payload.at("result"));
  EXPECT_EQ(back, expected);
}

TEST(ProtocolSession, BareEvalRequestParamsAccepted) {
  const std::vector<Json> frames = run_session(
      R"({"v":1,"id":"b","method":"eval","params":{"preset":"tiny"}})" "\n");
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].at("ok").as_bool());
}

TEST(ProtocolSession, MalformedFrameAnswersParseError) {
  const std::vector<Json> frames = run_session(
      "{\"v\":1,\"id\":\"p\",\"method\":\"ping\"}\n"
      "this is not json\n");
  ASSERT_EQ(frames.size(), 2u);
  // The broken frame cannot carry an id but the session keeps serving.
  const Json* err = frame_with_id(frames, "");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(error_code_of(*err), "parse");
}

TEST(ProtocolSession, UnknownMethodAndEnvelopeKeyAreTypedErrors) {
  const std::vector<Json> frames = run_session(
      R"({"v":1,"id":"m","method":"no_such_method"})" "\n"
      R"({"v":1,"id":"k","method":"ping","paramz":{}})" "\n"
      R"({"v":1,"id":"s","method":"shard_info"})" "\n");
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(error_code_of(*frame_with_id(frames, "m")), "unknown_method");
  EXPECT_EQ(error_code_of(*frame_with_id(frames, "k")), "validation");
  EXPECT_EQ(error_code_of(*frame_with_id(frames, "s")), "unknown_method");
}

TEST(ProtocolSession, VersionMismatchRejected) {
  // First frame v1 (selects protocol mode), then a v2 frame and a frame
  // that lost its "v".
  const std::vector<Json> frames = run_session(
      R"({"v":1,"id":"ok","method":"ping"})" "\n"
      R"({"v":2,"id":"future","method":"ping"})" "\n"
      R"({"v":1,"id":"ok2","method":"ping"})" "\n");
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_TRUE(frame_with_id(frames, "ok")->at("ok").as_bool());
  EXPECT_EQ(error_code_of(*frame_with_id(frames, "future")), "version");
  // The session survives a version error.
  EXPECT_TRUE(frame_with_id(frames, "ok2")->at("ok").as_bool());
}

TEST(ProtocolSession, OversizedFrameRejectedSessionSurvives) {
  ProtocolOptions options;
  options.max_frame_bytes = 256;
  const std::string big(512, 'x');
  const std::vector<Json> frames = run_session(
      R"({"v":1,"id":"small","method":"ping"})" "\n"
      R"({"v":1,"id":"big","method":"eval","params":{"preset":")" + big +
          "\"}}\n"
          R"({"v":1,"id":"after","method":"ping"})" "\n",
      options);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_TRUE(frame_with_id(frames, "small")->at("ok").as_bool());
  EXPECT_EQ(error_code_of(*frame_with_id(frames, "")), "oversized");
  EXPECT_TRUE(frame_with_id(frames, "after")->at("ok").as_bool());
}

TEST(ProtocolSession, EvalValidationFailureIsTyped) {
  const std::vector<Json> frames = run_session(
      R"({"v":1,"id":"bad","method":"eval","params":{"preset":"nonexistent"}})" "\n");
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(error_code_of(frames[0]), "validation");
  // The params id key is rejected: the frame id is the correlation identity.
  const std::vector<Json> with_id = run_session(
      R"({"v":1,"id":"x","method":"eval",)"
      R"("params":{"id":"inner","request":{"preset":"tiny"}}})" "\n");
  ASSERT_EQ(with_id.size(), 1u);
  EXPECT_EQ(error_code_of(with_id[0]), "validation");
}

TEST(ProtocolSession, EvalBatchAnswersPerItemInOrder) {
  EvalRequest req;
  req.preset = "tiny";
  api::Engine reference;
  const EvalResult expected = reference.run(req);

  const std::vector<Json> frames = run_session(
      R"({"v":1,"id":"batch","method":"eval_batch","params":{"requests":[)"
      R"({"request":{"preset":"tiny"}},)"
      R"({"request":{"preset":"nonexistent"}},)"
      R"({"preset":"tiny","outputs":["functional"]}]}})" "\n");
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_TRUE(frames[0].at("ok").as_bool());
  const Json& items = frames[0].at("result").at("results");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_TRUE(items.at(std::size_t{0}).at("ok").as_bool());
  EXPECT_FALSE(items.at(std::size_t{1}).at("ok").as_bool());
  EXPECT_EQ(items.at(std::size_t{1}).at("error").at("code").as_string(),
            "validation");
  EXPECT_TRUE(items.at(std::size_t{2}).at("ok").as_bool());
  const EvalResult first = api::eval_result_from_json(
      items.at(std::size_t{0}).at("result").at("result"));
  EXPECT_EQ(first, expected);
}

TEST(ProtocolSession, MetricsBackendsExperimentsMethods) {
  const std::vector<Json> frames = run_session(
      R"({"v":1,"id":"e","method":"eval","params":{"preset":"tiny"}})" "\n"
      R"({"v":1,"id":"m","method":"metrics"})" "\n"
      R"({"v":1,"id":"b","method":"backends"})" "\n"
      R"({"v":1,"id":"x","method":"experiments"})" "\n");
  ASSERT_EQ(frames.size(), 4u);
  const Json* metrics = frame_with_id(frames, "m");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->at("ok").as_bool());
  // The metrics method returns a full MetricsSnapshot export.
  EXPECT_NO_THROW((void)MetricsSnapshot::from_json(metrics->at("result")));
  const Json* backends = frame_with_id(frames, "b");
  ASSERT_TRUE(backends->at("ok").as_bool());
  EXPECT_GE(backends->at("result").at("backends").size(), 2u);  // reference+fused
  const Json* experiments = frame_with_id(frames, "x");
  ASSERT_TRUE(experiments->at("ok").as_bool());
  EXPECT_GE(experiments->at("result").at("experiments").size(), 10u);
}

TEST(ProtocolSession, DrainStopsSessionAndReportsMetrics) {
  const std::vector<Json> frames = run_session(
      R"({"v":1,"id":"e","method":"eval","params":{"preset":"tiny"}})" "\n"
      R"({"v":1,"id":"d","method":"drain"})" "\n"
      R"({"v":1,"id":"after","method":"ping"})" "\n");  // never answered
  ASSERT_EQ(frames.size(), 2u);
  const Json* drained = frame_with_id(frames, "d");
  ASSERT_NE(drained, nullptr);
  ASSERT_TRUE(drained->at("ok").as_bool());
  EXPECT_TRUE(drained->at("result").at("drained").as_bool());
  EXPECT_EQ(drained->at("result").at("metrics").at("completed_ok").as_int(), 1);
  EXPECT_EQ(frame_with_id(frames, "after"), nullptr);
}

TEST(ProtocolSession, OnDrainHookFires) {
  std::istringstream in(R"({"v":1,"id":"d","method":"drain"})" "\n");
  std::ostringstream out;
  Server server;
  StreamConnection conn(in, out);
  ProtocolOptions options;
  bool fired = false;
  options.on_drain = [&fired] { fired = true; };
  const SessionResult result = run_serve_connection(conn, server, options);
  EXPECT_TRUE(result.drained);
  EXPECT_FALSE(result.legacy);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(server.draining());
}

// --------------------------------------------------------------- auto-detect

TEST(ProtocolSession, AutoDetectionPreservesLegacyMode) {
  // The exact pre-v1 session shape: bare request, envelope, garbage.
  std::istringstream in(
      "{\"preset\":\"tiny\",\"outputs\":[\"functional\"]}\n"
      "{\"id\":\"second\",\"priority\":\"low\",\"request\":{\"preset\":\"tiny\"}}\n"
      "not json\n");
  std::ostringstream out;
  Server server;
  StreamConnection conn(in, out);
  const SessionResult result = run_serve_connection(conn, server);
  EXPECT_TRUE(result.legacy);
  EXPECT_EQ(result.bad_frames, 1);
  std::vector<Json> lines;
  std::istringstream ls(out.str());
  for (std::string line; std::getline(ls, line);) lines.push_back(Json::parse(line));
  ASSERT_EQ(lines.size(), 3u);
  // Legacy responses keep the legacy shape ("status", not "ok"/"error").
  EXPECT_EQ(lines[0].at("status").as_string(), "ok");
  EXPECT_FALSE(lines[0].contains("ok"));
  EXPECT_EQ(lines[1].at("id").as_string(), "second");
  EXPECT_EQ(lines[2].at("status").as_string(), "bad_request");
}

// ------------------------------------------------------- drain (Server level)

TEST(ServerDrain, StopsAdmissionWithTypedRejection) {
  Server server;
  ServeRequest before;
  before.id = "before";
  before.request.preset = "tiny";
  std::future<ServeResponse> ok = server.submit(std::move(before));
  server.drain();
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(ok.get().status, ResponseStatus::kOk);

  ServeRequest after;
  after.id = "after";
  after.request.preset = "tiny";
  const ServeResponse rejected = server.submit(std::move(after)).get();
  EXPECT_EQ(rejected.status, ResponseStatus::kRejectedShutdown);
  EXPECT_FALSE(rejected.result.has_value());
  EXPECT_FALSE(rejected.error.empty());
  EXPECT_STREQ(status_name(rejected.status), "rejected_shutdown");

  const MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(snap.completed_ok, 1u);
  EXPECT_EQ(snap.rejected_shutdown, 1u);
  EXPECT_EQ(snap.submitted, 2u);
}

TEST(ServerDrain, SubmitAsyncDeliversCallbackExactlyOnce) {
  Server server;
  std::promise<ServeResponse> got;
  ServeRequest req;
  req.id = "cb";
  req.request.preset = "tiny";
  server.submit_async(std::move(req),
                      [&got](const ServeResponse& r) { got.set_value(r); });
  const ServeResponse resp = got.get_future().get();
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  EXPECT_EQ(resp.id, "cb");
  ASSERT_TRUE(resp.result.has_value());
  server.drain();
  // Rejections fire the callback too (synchronously, post-drain).
  std::promise<ServeResponse> rejected;
  ServeRequest late;
  late.request.preset = "tiny";
  server.submit_async(std::move(late),
                      [&rejected](const ServeResponse& r) { rejected.set_value(r); });
  EXPECT_EQ(rejected.get_future().get().status, ResponseStatus::kRejectedShutdown);
}

// ------------------------------------------------------- metrics round trip

TEST(MetricsSnapshotJson, RoundTripsThroughExport) {
  Server server;
  for (int i = 0; i < 3; ++i) {
    ServeRequest r;
    r.request.preset = "tiny";
    EXPECT_EQ(server.submit(std::move(r)).get().status, ResponseStatus::kOk);
  }
  server.drain();
  const MetricsSnapshot snap = server.metrics();
  const MetricsSnapshot back =
      MetricsSnapshot::from_json(Json::parse(snap.to_json().dump(2)));
  EXPECT_EQ(back.submitted, snap.submitted);
  EXPECT_EQ(back.completed_ok, snap.completed_ok);
  EXPECT_EQ(back.rejected_shutdown, snap.rejected_shutdown);
  EXPECT_EQ(back.total_ms.count(), snap.total_ms.count());
  EXPECT_EQ(back.total_ms.percentile(50), snap.total_ms.percentile(50));
  EXPECT_EQ(back.context_hits, snap.context_hits);
  ASSERT_EQ(back.per_benchmark.size(), snap.per_benchmark.size());
  EXPECT_EQ(back.per_benchmark[0], snap.per_benchmark[0]);
}

// --------------------------------------------------------------- loopback TCP

/// A live `defa_serve --listen`-shaped server on an ephemeral loopback
/// port: shared Server, one session thread per accepted client.
class LoopbackServer {
 public:
  explicit LoopbackServer(ServerOptions options = {})
      : server_(options), listener_(0) {
    accept_thread_ = std::thread([this] {
      while (auto conn = listener_.accept()) {
        std::shared_ptr<Connection> shared = std::move(conn);
        const std::lock_guard<std::mutex> lock(mu_);
        conns_.push_back(shared);
        sessions_.emplace_back([this, shared] {
          ProtocolOptions options;
          options.on_drain = [this] { listener_.close(); };
          run_serve_connection(*shared, server_, options);
        });
      }
    });
  }

  ~LoopbackServer() {
    listener_.close();
    accept_thread_.join();
    server_.drain();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (auto& c : conns_) c->shutdown();
    }
    for (std::thread& t : sessions_) t.join();
  }

  [[nodiscard]] int port() const { return listener_.port(); }
  [[nodiscard]] Server& server() { return server_; }

 private:
  Server server_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> sessions_;
};

TEST(LoopbackTcp, ClientEvalBitIdenticalToEngineRun) {
  LoopbackServer server;
  client::Client c = client::Client::connect_tcp("127.0.0.1", server.port());
  EXPECT_STREQ(c.transport_name(), "tcp");

  api::Engine reference;
  const std::vector<api::OutputMask> masks = {
      api::kFunctional, api::kFunctional | api::kLatency,
      api::kFunctional | api::kEnergy | api::kAccuracy};
  for (const api::OutputMask mask : masks) {
    EvalRequest req;
    req.preset = "tiny";
    req.outputs = mask;
    const EvalResult expected = reference.run(req);
    const EvalResult remote = c.eval(req);
    EXPECT_EQ(remote, expected) << "mask " << mask;
  }
}

TEST(LoopbackTcp, PipelinedSubmitsCompleteOutOfOrderButCorrelated) {
  LoopbackServer server;
  client::Client c = client::Client::connect_tcp("127.0.0.1", server.port());
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    ServeRequest r;
    r.id = "pipelined#" + std::to_string(i);
    r.request.preset = "tiny";
    if (i % 3 == 1) {
      workload::SceneParams scene;  // a second workload key in the mix
      scene.seed = 977;
      r.request.scene = scene;
    }
    futures.push_back(c.submit(std::move(r)));
  }
  for (int i = 0; i < 12; ++i) {
    const ServeResponse resp = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
    EXPECT_EQ(resp.id, "pipelined#" + std::to_string(i));
    EXPECT_GT(resp.total_ms, 0.0);  // client-observed round trip
    EXPECT_GE(resp.dispatch_index, 0);
  }
}

TEST(LoopbackTcp, EvalBatchAndTypedErrors) {
  LoopbackServer server;
  client::Client c = client::Client::connect_tcp("127.0.0.1", server.port());

  EvalRequest good;
  good.preset = "tiny";
  EvalRequest bad;
  bad.preset = "nonexistent";
  const std::vector<ServeResponse> results = c.eval_batch({good, bad, good});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, ResponseStatus::kOk);
  EXPECT_EQ(results[1].status, ResponseStatus::kBadRequest);
  EXPECT_EQ(results[2].status, ResponseStatus::kOk);
  EXPECT_EQ(*results[0].result, *results[2].result);

  // eval() turns non-ok outcomes into typed RpcErrors.
  try {
    (void)c.eval(bad);
    FAIL() << "expected RpcError";
  } catch (const client::RpcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
  }
  // Admin methods over the same pipelined connection.
  EXPECT_EQ(c.ping().at("protocol").as_int(), kProtocolVersion);
  const std::vector<std::string> backends = c.backends();
  EXPECT_GE(backends.size(), 2u);
  const MetricsSnapshot metrics = c.metrics();
  EXPECT_GE(metrics.completed_ok, 2u);
}

TEST(LoopbackTcp, RemoteLoadgenMatchesInProcessSchemaAndResults) {
  LoopbackServer server;
  client::Client c = client::Client::connect_tcp("127.0.0.1", server.port());

  LoadGenOptions options;
  options.requests = 32;
  options.concurrency = 4;
  options.seed = 11;
  const LoadReport remote = client::run_remote_loadgen(options, c);
  EXPECT_EQ(remote.transport, "tcp");
  EXPECT_EQ(remote.policy, "fifo");
  EXPECT_EQ(remote.completed_ok, 32u);
  EXPECT_EQ(remote.errors, 0u);
  // The remote server really served them (metrics came over the wire).
  EXPECT_GE(remote.server_metrics.completed_ok, 32u);

  // Same seed in-process: identical schedule, identical per-scenario mix.
  const LoadReport local = run_loadgen(options);
  EXPECT_EQ(local.transport, "inproc");
  ASSERT_EQ(remote.per_scenario.size(), local.per_scenario.size());
  for (std::size_t i = 0; i < local.per_scenario.size(); ++i) {
    EXPECT_EQ(remote.per_scenario[i].name, local.per_scenario[i].name);
    EXPECT_EQ(remote.per_scenario[i].completed_ok, local.per_scenario[i].completed_ok);
  }
  // Identical report schema either way.
  const Json rj = remote.to_json();
  const Json lj = local.to_json();
  ASSERT_EQ(rj.size(), lj.size());
  for (std::size_t i = 0; i < rj.members().size(); ++i) {
    EXPECT_EQ(rj.members()[i].first, lj.members()[i].first);
  }
}

TEST(LoopbackTcp, LegacyLockStepClientGetsEachResponse) {
  // A lock-step legacy client on a persistent TCP connection: one line,
  // wait for its response, next line.  The legacy session must stream
  // each response while its reader is parked on the idle socket.
  LoopbackServer server;
  std::unique_ptr<Connection> conn = tcp_connect("127.0.0.1", server.port());
  for (int i = 0; i < 3; ++i) {
    EvalRequest r;
    r.preset = "tiny";
    Json envelope = Json::object();
    envelope["id"] = "lockstep" + std::to_string(i);
    envelope["request"] = api::to_json(r);
    ASSERT_TRUE(conn->write_frame(envelope.dump()));
    std::string line;
    ASSERT_TRUE(conn->read_frame(line));  // hangs forever on regression
    const Json resp = Json::parse(line);
    EXPECT_EQ(resp.at("id").as_string(), "lockstep" + std::to_string(i));
    EXPECT_EQ(resp.at("status").as_string(), "ok");
  }
}

TEST(LoopbackTcp, ClientRefusesOversizedFrameInsteadOfHanging) {
  LoopbackServer server;
  client::Client c = client::Client::connect_tcp("127.0.0.1", server.port());
  serve::ServeRequest huge;
  huge.id = "huge";
  huge.request.preset = std::string(5u << 20, 'x');  // frame > 4 MiB limit
  const ServeResponse resp = c.submit(std::move(huge)).get();
  EXPECT_EQ(resp.status, ResponseStatus::kBadRequest);
  EXPECT_NE(resp.error.find("frame limit"), std::string::npos) << resp.error;
  // The connection is still healthy for normal traffic.
  EvalRequest ok;
  ok.preset = "tiny";
  EXPECT_NO_THROW((void)c.eval(ok));
}

TEST(LoopbackTcp, DisconnectMidBatchLeavesServerServing) {
  LoopbackServer server;
  {
    // A raw connection (no Client reader) sends a batch and vanishes.
    std::unique_ptr<Connection> conn = tcp_connect("127.0.0.1", server.port());
    Json params = Json::object();
    Json arr = Json::array();
    for (int i = 0; i < 4; ++i) {
      Json item = Json::object();
      EvalRequest r;
      r.preset = "tiny";
      item["request"] = api::to_json(r);
      arr.push_back(std::move(item));
    }
    params["requests"] = std::move(arr);
    ASSERT_TRUE(conn->write_frame(
        make_request_frame("doomed", "eval_batch", std::move(params)).dump()));
  }  // connection closed with the batch in flight

  // The server must finish the work without crashing and keep serving.
  client::Client c = client::Client::connect_tcp("127.0.0.1", server.port());
  EvalRequest req;
  req.preset = "tiny";
  EXPECT_NO_THROW((void)c.eval(req));
  server.server().drain();
  EXPECT_GE(server.server().metrics().completed_ok, 1u);
}

TEST(LoopbackTcp, ClientDrainStopsRemoteServer) {
  LoopbackServer server;
  client::Client c = client::Client::connect_tcp("127.0.0.1", server.port());
  EvalRequest req;
  req.preset = "tiny";
  (void)c.eval(req);
  const Json result = c.drain();
  EXPECT_TRUE(result.at("drained").as_bool());
  EXPECT_TRUE(server.server().draining());
  // Post-drain submissions fail — either with the typed shutdown
  // rejection (still admitted to the session) or as a transport error
  // once the drained session closed the connection.
  const ServeResponse rejected = c.eval_response(req);
  EXPECT_NE(rejected.status, ResponseStatus::kOk);
  EXPECT_FALSE(rejected.error.empty());
}

TEST(LoopbackTcp, TransportErrorsSurfaceAsTypedFailures) {
  int dead_port;
  {
    TcpListener scratch(0);  // grab an ephemeral port, then free it
    dead_port = scratch.port();
  }
  EXPECT_THROW((void)tcp_connect("127.0.0.1", dead_port), CheckError);
  EXPECT_THROW((void)parse_endpoint("no-port-here"), CheckError);
  EXPECT_THROW((void)parse_endpoint("host:99999"), CheckError);
  const Endpoint ep = parse_endpoint(":7411");
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 7411);

  // A client whose server vanishes mid-session fails pending calls with
  // kTransport instead of hanging.
  auto server = std::make_unique<LoopbackServer>();
  client::Client c = client::Client::connect_tcp("127.0.0.1", server->port());
  EvalRequest req;
  req.preset = "tiny";
  (void)c.eval(req);   // session established
  server.reset();      // server gone
  try {
    (void)c.ping();
    FAIL() << "expected RpcError";
  } catch (const client::RpcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTransport);
  }
}

// Regression: a request already *in flight* (submitted, unanswered) when
// the peer closes must resolve promptly with a typed transport error —
// not hang its future.  A raw listener that accepts, reads the frame and
// closes without replying pins the window in which a server dies with a
// request on it.
TEST(LoopbackTcp, InFlightSubmitResolvesTypedTransportErrorOnPeerClose) {
  TcpListener listener(0);
  std::thread peer([&listener] {
    std::unique_ptr<Connection> conn = listener.accept();
    ASSERT_NE(conn, nullptr);
    std::string frame;
    ASSERT_TRUE(conn->read_frame(frame));  // the eval frame arrived ...
    conn.reset();                          // ... and the peer dies on it
  });

  client::Client c = client::Client::connect_tcp("127.0.0.1", listener.port());
  ServeRequest r;
  r.id = "in-flight";
  r.request.preset = "tiny";
  std::future<ServeResponse> future = c.submit(std::move(r));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "in-flight future hung after peer close";
  const ServeResponse resp = future.get();
  EXPECT_EQ(resp.id, "in-flight");
  EXPECT_EQ(resp.status, ResponseStatus::kError);
  EXPECT_EQ(resp.error_code, error_code_name(ErrorCode::kTransport));
  peer.join();

  // And the sync wrapper surfaces the same failure as a typed RpcError.
  EvalRequest req;
  req.preset = "tiny";
  try {
    (void)c.eval(req);
    FAIL() << "expected RpcError";
  } catch (const client::RpcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTransport);
  }
}

// ---------------------------------------------------------------- reconfigure

TEST(Reconfigure, ParamsRoundTripAndStrictValidation) {
  ServerReconfig rc;
  rc.policy = SchedulePolicy::kLocality;
  rc.locality_window = 4;
  rc.backend = "reference";
  rc.max_contexts = 2;
  rc.max_memo = 8;
  rc.memoize_results = false;
  rc.reset_stats = true;
  const ServerReconfig back = reconfig_from_params(reconfig_params(rc));
  EXPECT_EQ(back.policy, rc.policy);
  EXPECT_EQ(back.locality_window, rc.locality_window);
  EXPECT_EQ(back.backend, rc.backend);
  EXPECT_EQ(back.max_contexts, rc.max_contexts);
  EXPECT_EQ(back.max_memo, rc.max_memo);
  EXPECT_EQ(back.memoize_results, rc.memoize_results);
  EXPECT_EQ(back.reset_stats, rc.reset_stats);

  EXPECT_THROW((void)reconfig_from_params(Json::object()), CheckError);
  Json unknown = Json::object();
  unknown["no_such_knob"] = 1;
  EXPECT_THROW((void)reconfig_from_params(unknown), CheckError);
  Json bad_policy = Json::object();
  bad_policy["policy"] = "round_robin";
  EXPECT_THROW((void)reconfig_from_params(bad_policy), CheckError);
  Json bad_window = Json::object();
  bad_window["locality_window"] = 0;
  EXPECT_THROW((void)reconfig_from_params(bad_window), CheckError);
}

TEST(Reconfigure, AppliesLiveOverTheWireAndResetsStats) {
  LoopbackServer server;
  client::Client c = client::Client::connect_tcp("127.0.0.1", server.port());
  EvalRequest req;
  req.preset = "tiny";
  (void)c.eval(req);
  EXPECT_GT(c.metrics().submitted, 0u);

  ServerReconfig rc;
  rc.policy = SchedulePolicy::kLocality;
  rc.locality_window = 3;
  rc.max_contexts = 1;
  rc.reset_stats = true;
  const Json result = c.reconfigure(rc);
  EXPECT_TRUE(result.at("reconfigured").as_bool());
  EXPECT_EQ(result.at("server").at("policy").as_string(), "locality");
  EXPECT_EQ(result.at("server").at("locality_window").as_int(), 3);
  EXPECT_EQ(result.at("server").at("max_contexts").as_int(), 1);
  // reset_stats wiped the metrics along with the engine counters.
  EXPECT_EQ(c.metrics().submitted, 0u);
  // The reconfigured server still serves (bit-identically).
  api::Engine reference;
  EXPECT_EQ(c.eval(req), reference.run(req));

  // An invalid change is refused with a typed validation error and leaves
  // the server serving.
  ServerReconfig bad;
  bad.backend = "no_such_backend";
  try {
    (void)c.reconfigure(bad);
    FAIL() << "expected RpcError";
  } catch (const client::RpcError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
  }
  EXPECT_EQ(c.eval(req), reference.run(req));
}

// ------------------------------------------------------------ socket options

TEST(Transport, TcpNodelaySetOnBothSocketEnds) {
  // Regression for the latency satellite: small protocol frames must not
  // sit in Nagle's buffer on either direction of a session.
  const auto nodelay_of = [](int fd) {
    int flag = -1;
    socklen_t len = sizeof(flag);
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &flag, &len), 0);
    return flag;
  };
  TcpListener listener(0);
  std::unique_ptr<Connection> server_side;
  std::thread acceptor([&] { server_side = listener.accept(); });
  std::unique_ptr<Connection> client_side =
      tcp_connect("127.0.0.1", listener.port());
  acceptor.join();
  ASSERT_NE(server_side, nullptr);
  ASSERT_GE(client_side->native_handle(), 0);
  ASSERT_GE(server_side->native_handle(), 0);
  EXPECT_EQ(nodelay_of(client_side->native_handle()), 1) << "client socket";
  EXPECT_EQ(nodelay_of(server_side->native_handle()), 1) << "accepted socket";
}

// ------------------------------------------------------- allocation behavior

TEST(Transport, SteadyStateFrameReadsDoNotAllocate) {
  // Two pipes back an FdConnection exactly like a spawned-process session;
  // the test end writes raw bytes with ::write so the measured loop is the
  // connection's read path alone.
  int to_conn[2];
  int from_conn[2];
  ASSERT_EQ(::pipe(to_conn), 0);
  ASSERT_EQ(::pipe(from_conn), 0);
  FdConnection conn(to_conn[0], from_conn[1], /*is_socket=*/false);

  const std::string line(96, 'x');
  const std::string wire_line = line + "\n";
  const auto feed = [&](int frames) {
    for (int i = 0; i < frames; ++i) {
      ASSERT_EQ(::write(to_conn[1], wire_line.data(), wire_line.size()),
                static_cast<ssize_t>(wire_line.size()));
    }
  };

  // Warm with the same burst shape as the measurement: the connection's
  // receive buffer grows to its steady-state capacity (one refill pulls up
  // to 4 KiB of queued frames) and keeps it across frames.
  constexpr int kFrames = 50;
  std::string frame;
  frame.reserve(4096);
  feed(kFrames);
  for (int i = 0; i < kFrames; ++i) ASSERT_TRUE(conn.read_frame(frame));

  // All measured frames are already in the pipe: the loop below performs
  // pure read_frame work, no writer thread allocating in parallel.
  feed(kFrames);
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < kFrames; ++i) {
    if (!conn.read_frame(frame)) break;
  }
  const std::size_t line_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(line_allocs, 0u) << "read_frame allocated per frame";
  EXPECT_EQ(frame, line);

  // The binary path reuses the same buffer discipline: read_exact into
  // caller-owned storage allocates nothing either.
  std::string blob(256, 'b');
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(::write(to_conn[1], blob.data(), blob.size()),
              static_cast<ssize_t>(blob.size()));
  }
  std::string payload(blob.size(), '\0');
  ASSERT_TRUE(conn.read_exact(payload.data(), payload.size()));  // warm
  const std::size_t before_exact = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 7; ++i) {
    if (!conn.read_exact(payload.data(), payload.size())) break;
  }
  const std::size_t exact_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before_exact;
  EXPECT_EQ(exact_allocs, 0u) << "read_exact allocated per frame";
  EXPECT_EQ(payload, blob);

  ::close(to_conn[1]);
  ::close(from_conn[0]);
}

// -------------------------------------------------------- decoder fuzz sweep

TEST(WireDecoderFuzz, TruncatedFramesAlwaysThrowTypedErrors) {
  // Every truncation point of valid frames must surface as DecodeError —
  // never a crash, an out-of-bounds read, or a foreign exception type.
  api::Engine engine;
  EvalRequest req;
  req.preset = "tiny";
  ServeResponse resp;
  resp.status = ResponseStatus::kOk;
  resp.result = engine.run(req);
  const std::vector<std::string> frames = {
      wire::encode_request("id1", "eval", R"({"preset":"tiny"})", 99),
      wire::encode_eval_response("id2", resp),
      wire::encode_batch_chunk("id3", 4, resp),
      wire::encode_error("id4", ErrorCode::kOverload, "queue full", 1, 2),
  };
  for (const std::string& frame : frames) {
    for (std::size_t cut = 0; cut < wire::kHeaderBytes; ++cut) {
      EXPECT_THROW((void)wire::decode_header(frame.data(), cut),
                   wire::DecodeError);
    }
    const wire::FrameHeader h = wire::decode_header(frame.data(), frame.size());
    const char* payload = frame.data() + wire::kHeaderBytes;
    const std::size_t len = frame.size() - wire::kHeaderBytes;
    for (std::size_t cut = 0; cut < len; ++cut) {
      try {
        if (h.type == wire::FrameType::kRequest) {
          (void)wire::decode_request(h, payload, cut);
        } else {
          (void)wire::decode_response(h, payload, cut);
        }
        // Some prefixes decode cleanly (trailing sections are optional
        // for admin shapes) — reaching here without throwing is fine.
      } catch (const wire::DecodeError&) {
        // The typed contract: truncation is always this exception.
      }
    }
  }
}

TEST(WireDecoderFuzz, SeededCorruptionNeverEscapesDecodeError) {
  api::Engine engine;
  EvalRequest req;
  req.preset = "tiny";
  req.outputs = api::kFunctional | api::kLatency;
  ServeResponse resp;
  resp.status = ResponseStatus::kOk;
  resp.result = engine.run(req);
  const std::vector<std::string> seeds_frames = {
      wire::encode_request("fz", "eval_batch", R"({"requests":[]})"),
      wire::encode_eval_response("fz", resp),
      wire::encode_batch_end("fz", 123),
  };
  Rng rng(20240614);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string frame = seeds_frames[static_cast<std::size_t>(
        rng.randint(0, static_cast<std::int64_t>(seeds_frames.size()) - 1))];
    // Flip 1-4 random bytes anywhere in the frame, header included.
    const int flips = 1 + iter % 4;
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(frame.size()) - 1));
      frame[at] = static_cast<char>(rng.randint(0, 255));
    }
    try {
      const wire::FrameHeader h = wire::decode_header(frame.data(), frame.size());
      // A corrupted payload_len must not make the decoder trust it past
      // the actual bytes: decode over what is really there.
      const std::size_t len = frame.size() - wire::kHeaderBytes;
      if (h.type == wire::FrameType::kRequest) {
        (void)wire::decode_request(h, frame.data() + wire::kHeaderBytes, len);
      } else {
        (void)wire::decode_response(h, frame.data() + wire::kHeaderBytes, len);
      }
    } catch (const wire::DecodeError&) {
      // Expected for most corruptions.
    }
    // Any other exception type (or a crash) fails the test by escaping.
  }
}

TEST(WireDecoderFuzz, AdversarialSectionLengthsAreRejectedBeforeAllocation) {
  // Hand-craft frames whose section headers declare absurd lengths; each
  // must be rejected by the bounds check, not by an allocation failure.
  const std::vector<std::uint32_t> bad_lens = {0xffffffffu, 0x7fffffffu,
                                               1u << 30, 4097u};
  for (const std::uint32_t declared : bad_lens) {
    wire::Writer w;
    w.begin_frame(wire::FrameType::kResponse, wire::kFlagOk);
    w.end_frame();
    std::string frame = w.take();
    // Append a section header claiming `declared` bytes with a 4-byte body.
    const auto put_u16 = [&frame](std::uint16_t v) {
      frame.push_back(static_cast<char>(v & 0xff));
      frame.push_back(static_cast<char>(v >> 8));
    };
    const auto put_u32 = [&frame](std::uint32_t v) {
      for (int b = 0; b < 4; ++b) {
        frame.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
      }
    };
    put_u16(static_cast<std::uint16_t>(wire::SectionType::kId));
    put_u16(0);
    put_u32(declared);
    put_u32(0);  // 4 real body bytes
    // Patch the header's payload_len to cover the appended bytes.
    const std::uint32_t payload_len =
        static_cast<std::uint32_t>(frame.size() - wire::kHeaderBytes);
    for (int b = 0; b < 4; ++b) {
      frame[8 + static_cast<std::size_t>(b)] =
          static_cast<char>((payload_len >> (8 * b)) & 0xff);
    }
    const wire::FrameHeader h = wire::decode_header(frame.data(), frame.size());
    try {
      (void)wire::decode_response(h, frame.data() + wire::kHeaderBytes,
                                  frame.size() - wire::kHeaderBytes);
      FAIL() << "declared length " << declared << " accepted";
    } catch (const wire::DecodeError& e) {
      EXPECT_TRUE(e.kind() == wire::DecodeError::Kind::kTruncated ||
                  e.kind() == wire::DecodeError::Kind::kLimit)
          << "declared length " << declared;
    }
  }
}

TEST(WireSession, CorruptAndOversizedBinaryFramesGetTypedAnswers) {
  // End-to-end over a live session: a frame with a hostile declared
  // payload length is answered (not crashed on), and the session survives
  // to serve the next request; bad magic closes the session.
  LoopbackServer server;
  std::unique_ptr<Connection> conn = tcp_connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn->write_frame(
      R"({"v":1,"id":"hello","method":"hello","params":{"max_version":2}})"));
  std::string line;
  ASSERT_TRUE(conn->read_frame(line));
  ASSERT_TRUE(Json::parse(line).at("ok").as_bool());
  // Oversized declared payload: the server skips the declared bytes and
  // answers with a typed oversized error.  Send header + that many bytes
  // so the skip terminates.
  const std::uint32_t huge = (8u << 20) + 1;  // > default 4 MiB cap
  wire::FrameHeader h;
  h.type = wire::FrameType::kRequest;
  h.payload_len = huge;
  std::string bytes;
  wire::encode_header(bytes, h);
  ASSERT_TRUE(conn->write_bytes(bytes.data(), bytes.size()));
  const std::string filler(1u << 16, 'z');
  for (std::size_t sent = 0; sent < huge;) {
    const std::size_t n = std::min(filler.size(), huge - sent);
    ASSERT_TRUE(conn->write_bytes(filler.data(), n));
    sent += n;
  }
   char hdr[wire::kHeaderBytes];
  ASSERT_TRUE(conn->read_exact(hdr, sizeof hdr));
  const wire::FrameHeader rh = wire::decode_header(hdr, sizeof hdr);
  std::string payload(rh.payload_len, '\0');
  ASSERT_TRUE(conn->read_exact(payload.data(), payload.size()));
  const wire::DecodedResponse err =
      wire::decode_response(rh, payload.data(), payload.size());
  EXPECT_FALSE(err.ok);
  ASSERT_TRUE(err.has_eval);
  EXPECT_EQ(err.eval.error_code, "oversized");
  // The session still serves after the oversized frame.
  const std::string ping = wire::encode_request("p", "ping", "");
  ASSERT_TRUE(conn->write_bytes(ping.data(), ping.size()));
  ASSERT_TRUE(conn->read_exact(hdr, sizeof hdr));
  const wire::FrameHeader ph = wire::decode_header(hdr, sizeof hdr);
  payload.assign(ph.payload_len, '\0');
  ASSERT_TRUE(conn->read_exact(payload.data(), payload.size()));
  EXPECT_TRUE(wire::decode_response(ph, payload.data(), payload.size()).ok);
  // Bad magic desyncs the stream: the server answers one parse error and
  // abandons the session (frame boundaries are lost, so it cannot keep
  // reading).
  const std::string junk = "XXXXXXXXXXXX";
  ASSERT_TRUE(conn->write_bytes(junk.data(), junk.size()));
  ASSERT_TRUE(conn->read_exact(hdr, sizeof hdr));
  const wire::FrameHeader eh = wire::decode_header(hdr, sizeof hdr);
  payload.assign(eh.payload_len, '\0');
  ASSERT_TRUE(conn->read_exact(payload.data(), payload.size()));
  const wire::DecodedResponse last =
      wire::decode_response(eh, payload.data(), payload.size());
  EXPECT_FALSE(last.ok);
  ASSERT_TRUE(last.has_eval);
  EXPECT_EQ(last.eval.error_code, "parse");

  // The session loop has exited: a further (well-formed) request gets no
  // answer.  A live session would reply within microseconds, so a silent
  // 300 ms poll is a solid dead-session signal.
  ASSERT_TRUE(conn->write_bytes(ping.data(), ping.size()));
  pollfd pfd{};
  pfd.fd = conn->native_handle();
  pfd.events = POLLIN;
  EXPECT_EQ(::poll(&pfd, 1, 300), 0) << "session still answering after desync";
}

}  // namespace
}  // namespace defa::serve
