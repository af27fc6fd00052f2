// perfbench_driver — the client side of the benchmark (see README.md).
//
//   perfbench_driver warmup --port P --schedule FILE
//   perfbench_driver load   --port P --schedule FILE --seconds S --out FILE
//                           --check N --seed X
//   perfbench_driver trace  --schedule FILE --seconds S --out FILE
//
// `warmup` sends a schedule's set-up requests to a running defa_serve and
// prints how long they took.  `load` drives the measured phase over TCP on the negotiated v2
// wire (closed loop: one connection per client thread; open loop: one
// connection, requests sent at their due times), records one raw sample
// per request, diffs the server's metrics export around the phase, then
// re-evaluates a seeded sample of the responses in-process on the
// `reference` backend and compares them with `==`.  `trace` replays the
// same requests in-process and times the public calls of each layer from
// outside (scene, reference, encoder, simulator, energy, and the kernel
// and prune calls on the workload's own tensors), plus a kernel backend
// matrix.  Every mode writes raw JSON; run.py turns it into metrics.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/request.h"
#include "api/result_io.h"
#include "arch/accelerator.h"
#include "client/client.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/experiments.h"
#include "energy/chip_model.h"
#include "kernels/backend.h"
#include "kernels/plan.h"
#include "prune/fwp.h"
#include "prune/pap.h"
#include "serve/wire/stats.h"

namespace {

using defa::api::EvalRequest;
using defa::api::EvalResult;
using defa::api::Json;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Wall time of `fn()` in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now());
}

struct Args {
  std::map<std::string, std::string> kv;
  [[nodiscard]] const std::string& get(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  [[nodiscard]] double num(const std::string& key) const { return std::stod(get(key)); }
};

struct Schedule {
  std::vector<EvalRequest> requests;
  std::vector<std::size_t> warmup;
  std::vector<std::size_t> sequence;
  std::vector<double> arrivals_ms;  // open loop only
  bool open_loop = false;
  int clients = 1;
};

std::vector<std::size_t> index_list(const Json& j) {
  std::vector<std::size_t> out;
  for (const Json& v : j.items()) out.push_back(static_cast<std::size_t>(v.as_int()));
  return out;
}

Schedule load_schedule(const std::string& path) {
  const Json raw = defa::api::read_json_file(path);
  Schedule s;
  for (const Json& r : raw.at("requests").items()) {
    EvalRequest req = defa::api::eval_request_from_json(r);
    req.validate();
    s.requests.push_back(std::move(req));
  }
  s.warmup = index_list(raw.at("warmup"));
  s.sequence = index_list(raw.at("sequence"));
  s.open_loop = raw.at("loop").as_string() == "open";
  s.clients = static_cast<int>(raw.at("clients").as_int());
  if (s.open_loop) {
    for (const Json& v : raw.at("arrivals_ms").items()) s.arrivals_ms.push_back(v.as_number());
    if (s.arrivals_ms.size() != s.sequence.size()) {
      throw std::runtime_error("schedule: arrivals_ms and sequence differ in length");
    }
  }
  for (std::size_t i : s.warmup) {
    if (i >= s.requests.size()) throw std::runtime_error("schedule: bad warmup index");
  }
  for (std::size_t i : s.sequence) {
    if (i >= s.requests.size()) throw std::runtime_error("schedule: bad sequence index");
  }
  return s;
}

defa::client::Client connect_v2(int port) {
  defa::client::ClientOptions opts;
  opts.wire = defa::client::ClientOptions::Wire::kV2;
  return defa::client::Client::connect_tcp("127.0.0.1", port, opts);
}

Json ser_json(const defa::serve::wire::SerSnapshot& s) {
  Json j = Json::object();
  j["encode_ms"] = s.encode_ms;
  j["decode_ms"] = s.decode_ms;
  j["encode_frames"] = s.encode_frames;
  j["decode_frames"] = s.decode_frames;
  j["encode_bytes"] = s.encode_bytes;
  j["decode_bytes"] = s.decode_bytes;
  return j;
}

/// Host/build facts every artifact carries (run.py adds the rest).
Json build_meta() {
  Json m = Json::object();
  const defa::simd::IsaRequest req = defa::simd::requested_isa();
  m["simd_tier"] = defa::simd::isa_name(req.forced ? req.isa : defa::simd::best_cpu_isa());
  m["compiler"] = PERFBENCH_COMPILER;
  m["compiler_flags"] = PERFBENCH_CXX_FLAGS;
  m["default_backend"] = defa::kernels::default_backend_name();
  Json names = Json::array();
  for (const std::string& n : defa::kernels::backend_names()) names.push_back(n);
  m["backends"] = std::move(names);
  return m;
}

// ------------------------------------------------------------------ warmup

/// Prints the milliseconds from connecting to the last warm-up response:
/// the server's share of set-up, without this process's own start-up.
int cmd_warmup(const Args& args) {
  const Schedule s = load_schedule(args.get("schedule"));
  const auto t0 = Clock::now();
  defa::client::Client client = connect_v2(static_cast<int>(args.num("port")));
  for (std::size_t i : s.warmup) (void)client.eval(s.requests[i]);
  std::cout << ms_between(t0, Clock::now()) << "\n";
  return 0;
}

// -------------------------------------------------------------------- load

struct Sample {
  double due_ms = 0, sent_ms = 0, done_ms = -1;
  double server_queue_ms = 0, server_run_ms = 0;
  bool ok = false;
  std::string error;
  std::optional<EvalResult> result;
};

/// Re-evaluate up to `n` seeded-sampled OK responses in-process on the
/// reference backend; returns (checked, mismatched sequence positions).
std::pair<int, std::vector<std::size_t>> check_outputs(const Schedule& s,
                                                       const std::vector<Sample>& samples,
                                                       int n, std::uint64_t seed) {
  std::vector<std::size_t> ok;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].ok) ok.push_back(i);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(ok.begin(), ok.end(), rng);
  if (ok.size() > static_cast<std::size_t>(n)) ok.resize(static_cast<std::size_t>(n));
  std::sort(ok.begin(), ok.end());

  defa::api::Engine::Options opts;
  opts.memoize_results = false;
  opts.backend = "reference";
  defa::api::Engine engine(opts);
  std::vector<std::size_t> bad;
  for (std::size_t i : ok) {
    if (!(engine.run(s.requests[s.sequence[i]]) == *samples[i].result)) bad.push_back(i);
  }
  return {static_cast<int>(ok.size()), bad};
}

int cmd_load(const Args& args) {
  const Schedule s = load_schedule(args.get("schedule"));
  const int port = static_cast<int>(args.num("port"));
  const double seconds = args.num("seconds");

  defa::client::Client admin = connect_v2(port);
  const Json info = admin.ping();
  const Json server_before = admin.call("metrics");
  const auto client_before = defa::serve::wire::SerStats::instance().snapshot(2);

  std::vector<Sample> samples(s.sequence.size());
  std::size_t attempted = 0;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration<double>(seconds);

  const auto record = [&](Sample& smp, const defa::serve::ServeResponse& r) {
    smp.done_ms = ms_between(t0, Clock::now());
    smp.ok = r.status == defa::serve::ResponseStatus::kOk && r.result.has_value();
    smp.server_queue_ms = r.queue_ms;
    smp.server_run_ms = r.run_ms;
    if (smp.ok) {
      smp.result = r.result;
    } else {
      smp.error = std::string(defa::serve::status_name(r.status)) + ": " + r.error;
    }
  };

  if (!s.open_loop) {
    // Closed loop: each client sends its next request only after the
    // previous one completes; a request is timed from when it was sent.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    std::vector<std::string> thread_errors(static_cast<std::size_t>(s.clients));
    for (int c = 0; c < s.clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          defa::client::Client client = connect_v2(port);
          while (Clock::now() < end) {
            const std::size_t i = next.fetch_add(1);
            if (i >= s.sequence.size()) break;
            Sample& smp = samples[i];
            smp.sent_ms = smp.due_ms = ms_between(t0, Clock::now());
            record(smp, client.eval_response(s.requests[s.sequence[i]]));
          }
        } catch (const std::exception& e) {
          thread_errors[static_cast<std::size_t>(c)] = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::string& e : thread_errors) {
      if (!e.empty()) throw std::runtime_error("client thread: " + e);
    }
    attempted = std::min(next.load(), s.sequence.size());
  } else {
    // Open loop: request i is due at arrivals_ms[i] whether or not earlier
    // ones finished; it is timed from its due time, so a stall charges
    // every request queued behind it.
    // Declared before the client: its destructor fails pending calls
    // through the callbacks, which use these.
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;  // guarded by mu
    defa::client::Client client = connect_v2(port);
    for (std::size_t i = 0; i < s.sequence.size(); ++i) {
      const auto due = t0 + std::chrono::duration<double, std::milli>(s.arrivals_ms[i]);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      Sample& smp = samples[i];
      smp.due_ms = s.arrivals_ms[i];
      smp.sent_ms = ms_between(t0, Clock::now());
      ++attempted;
      defa::serve::ServeRequest req;
      req.id = std::to_string(i);
      req.request = s.requests[s.sequence[i]];
      client.submit_async(std::move(req), [&, i](const defa::serve::ServeResponse& r) {
        record(samples[i], r);
        const std::lock_guard<std::mutex> lock(mu);
        ++done;
        cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(60), [&] { return done == attempted; });
    if (done != attempted) throw std::runtime_error("open loop: responses missing after 60 s");
  }

  const auto client_after = defa::serve::wire::SerStats::instance().snapshot(2);
  const Json server_after = admin.call("metrics");

  const auto [checked, mismatched] = check_outputs(
      s, samples, static_cast<int>(args.num("check")),
      static_cast<std::uint64_t>(args.num("seed")));

  Json out = Json::object();
  out["meta"] = build_meta();
  out["server_info"] = info;
  out["wire_version"] = admin.wire_version();
  out["attempted"] = static_cast<std::uint64_t>(attempted);
  Json due = Json::array(), sent = Json::array(), done = Json::array(), ok = Json::array();
  Json squeue = Json::array(), srun = Json::array();
  Json errors = Json::array();
  for (std::size_t i = 0; i < attempted; ++i) {
    const Sample& smp = samples[i];
    due.push_back(smp.due_ms);
    sent.push_back(smp.sent_ms);
    done.push_back(smp.done_ms);
    ok.push_back(smp.ok);
    squeue.push_back(smp.server_queue_ms);
    srun.push_back(smp.server_run_ms);
    if (!smp.ok && errors.size() < 5) errors.push_back(smp.error);
  }
  out["due_ms"] = std::move(due);
  out["sent_ms"] = std::move(sent);
  out["done_ms"] = std::move(done);
  out["ok"] = std::move(ok);
  out["server_queue_ms"] = std::move(squeue);
  out["server_run_ms"] = std::move(srun);
  out["errors"] = std::move(errors);
  out["server_before"] = server_before;
  out["server_after"] = server_after;
  out["client_wire"] = ser_json(client_after.minus(client_before));
  out["checked"] = checked;
  Json bad = Json::array();
  for (std::size_t i : mismatched) bad.push_back(static_cast<std::uint64_t>(i));
  out["mismatched"] = std::move(bad);
  defa::api::write_json_file(args.get("out"), out);
  return 0;
}

// ------------------------------------------------------------------- trace

/// The layer calls of one request, timed from outside the library.
struct RequestSpans {
  double total = 0, scene = 0, reference = 0, encoder = 0, simulate = 0, summarize = 0;
  bool fresh_scene = false, on_path_sim = false;
  double point_reduction = 0, pixel_reduction = 0;
};

/// Per-request kernel and prune calls, replayed on the request's own layer
/// tensors in the order one encoder block issues them.
struct KernelSpans {
  double softmax = 0, linear = 0, plan = 0, pap = 0, fwp = 0, msgs_fp32 = 0, msgs_int12 = 0;
};

/// Schedules either omit `prune` (the full-DEFA default, whose result the
/// context caches) or set a non-default configuration.
bool is_default_prune(const EvalRequest& r) { return !r.prune.has_value(); }

/// Value-projection weights of the shape and scale the encoder multiplies by.
defa::Tensor projection_weights(const defa::ModelConfig& m) {
  defa::Rng rng(m.seed ^ 0x5eedULL);
  const float stddev = 1.0f / std::sqrt(static_cast<float>(m.d_model));
  return defa::Tensor::randn({m.d_model, m.d_model}, rng, 0.0f, stddev);
}

/// What one layer's MSGS call consumes.
struct LayerInputs {
  const defa::Tensor* locs = nullptr;
  defa::Tensor probs, v;
  std::optional<defa::prune::PointMask> pmask;
  std::optional<defa::kernels::SamplingPlan> plan;
};

/// Builds every layer's MSGS inputs on `backend`, adding the softmax, value
/// projection, PAP and plan-build times to `k`.
std::vector<LayerInputs> prepare_layers(const defa::ModelConfig& m,
                                        const defa::core::PruneConfig& cfg,
                                        defa::core::BenchmarkContext& ctx,
                                        const defa::kernels::Backend& backend,
                                        const defa::Tensor& w, KernelSpans& k) {
  const defa::core::EncoderPipeline& pipe = ctx.pipeline();
  const defa::Tensor& x = ctx.workload_ref().fmap();
  const double tau = cfg.pap ? cfg.pap_tau : defa::core::PruneConfig{}.pap_tau;
  std::vector<LayerInputs> layers(static_cast<std::size_t>(m.n_layers));
  for (int layer = 0; layer < m.n_layers; ++layer) {
    LayerInputs& in = layers[static_cast<std::size_t>(layer)];
    const defa::nn::MsdaFields& fields = pipe.layer_fields(layer);
    in.locs = &fields.locs;
    k.softmax += time_ms([&] { in.probs = backend.softmax_lastdim(fields.logits); });
    k.linear += time_ms([&] { in.v = backend.matmul(x, w); });
    k.pap += time_ms([&] { in.pmask = defa::prune::pap_prune(m, in.probs, tau); });
    k.plan += time_ms([&] { in.plan = defa::kernels::SamplingPlan::build(m, fields.locs); });
  }
  return layers;
}

/// Both MSGS variants over all layers on `backend`, masked by PAP when the
/// request prunes.  fp32 gets the cached plan (the pipeline caches plans of
/// unmoved geometry); INT12 builds its own, as it must for the quantized,
/// range-narrowed locations the encoder passes.
void time_msgs(const defa::ModelConfig& m, const defa::core::PruneConfig& cfg,
               const std::vector<LayerInputs>& layers, const defa::kernels::Backend& b,
               KernelSpans& k) {
  for (const LayerInputs& in : layers) {
    defa::kernels::MsgsSpec fp32;
    fp32.point_mask = cfg.pap ? &*in.pmask : nullptr;
    fp32.plan = b.wants_plan() ? &*in.plan : nullptr;
    k.msgs_fp32 += time_ms([&] { (void)b.run_msgs(m, in.v, in.probs, *in.locs, fp32); });
    defa::kernels::MsgsSpec q;
    q.point_mask = fp32.point_mask;
    q.quantized = true;
    q.act_bits = q.frac_bits = 12;
    k.msgs_int12 += time_ms([&] { (void)b.run_msgs(m, in.v, in.probs, *in.locs, q); });
  }
}

KernelSpans replay_kernels(const defa::ModelConfig& m, const defa::core::PruneConfig& cfg,
                           defa::core::BenchmarkContext& ctx,
                           const defa::kernels::Backend& backend, const defa::Tensor& w) {
  KernelSpans k;
  const std::vector<LayerInputs> layers = prepare_layers(m, cfg, ctx, backend, w, k);
  time_msgs(m, cfg, layers, backend, k);
  for (const LayerInputs& in : layers) {
    k.fwp += time_ms([&] {
      const defa::prune::FreqCounter freq =
          defa::prune::count_sampled_frequency(m, *in.locs, *in.pmask);
      (void)defa::prune::fwp_prune(m, freq, cfg.fwp ? cfg.fwp_k : defa::core::PruneConfig{}.fwp_k);
    });
  }
  return k;
}

/// Simulator + energy model on the context's full-DEFA traces.
std::pair<double, double> time_simulate_summarize(const defa::ModelConfig& m,
                                                  const defa::HwConfig& hw,
                                                  defa::core::BenchmarkContext& ctx,
                                                  const defa::core::EncoderResult* enc) {
  defa::arch::RunPerf run;
  const double sim = time_ms([&] {
    const std::vector<defa::arch::LayerTrace> traces =
        enc == nullptr ? ctx.defa_traces() : ctx.traces_for(*enc);
    run = defa::arch::DefaAccelerator(m, hw).simulate_run(traces);
  });
  const double sum = time_ms([&] {
    (void)defa::energy::summarize(m, hw, run, ctx.dense_encoder_flops());
    (void)defa::energy::energy_breakdown(m, hw, run);
    (void)defa::energy::area_breakdown(m, hw);
    (void)defa::energy::build_sram_plan(m, hw);
  });
  return {sim, sum};
}

/// run_msgs per available backend on one context's layer tensors, trials
/// interleaved across backends so host drift hits every backend alike.
Json backend_matrix(const defa::ModelConfig& m, const defa::core::PruneConfig& cfg,
                    defa::core::BenchmarkContext& ctx, const defa::Tensor& w, int trials) {
  KernelSpans unused;
  const std::vector<LayerInputs> layers =
      prepare_layers(m, cfg, ctx, defa::kernels::backend("reference"), w, unused);
  std::vector<const defa::kernels::Backend*> backends;
  for (const std::string& name : defa::kernels::backend_names()) {
    const defa::kernels::Backend& b = defa::kernels::backend(name);
    if (b.unavailable_reason().empty()) backends.push_back(&b);
  }
  std::vector<Json> fp32(backends.size(), Json::array()), int12(backends.size(), Json::array());
  for (int t = 0; t < trials; ++t) {
    for (std::size_t bi = 0; bi < backends.size(); ++bi) {
      KernelSpans k;
      time_msgs(m, cfg, layers, *backends[bi], k);
      fp32[bi].push_back(k.msgs_fp32);
      int12[bi].push_back(k.msgs_int12);
    }
  }
  Json out = Json::object();
  for (std::size_t bi = 0; bi < backends.size(); ++bi) {
    Json cell = Json::object();
    cell["msgs_fp32_ms"] = std::move(fp32[bi]);
    cell["msgs_int12_ms"] = std::move(int12[bi]);
    out[backends[bi]->name()] = std::move(cell);
  }
  return out;
}

int cmd_trace(const Args& args) {
  const Schedule s = load_schedule(args.get("schedule"));
  const double seconds = args.num("seconds");
  const defa::kernels::Backend& backend = defa::kernels::default_backend();

  defa::api::Engine::Options opts;
  opts.memoize_results = false;
  opts.max_contexts = 4;
  defa::api::Engine engine(opts);

  // Layers a workload's requests never reach (its scenes are built during
  // set-up) are timed here, once per set-up scene on a fresh engine, so
  // every per-layer metric is defined on every workload.
  Json setup_calls = Json::array();
  for (std::size_t wi : s.warmup) {
    const EvalRequest& req = s.requests[wi];
    const defa::ModelConfig m = req.resolve_model();
    defa::api::Engine fresh(opts);
    const auto ctx = fresh.context(m, req.resolve_scene(m));
    Json call = Json::object();
    call["scene_ms"] = time_ms([&] { (void)ctx->workload_ref(); });
    call["reference_ms"] = time_ms([&] { (void)ctx->pipeline().layer_fields(0); });
    (void)ctx->defa_result(&backend);
    const auto [sim, sum] = time_simulate_summarize(m, req.resolve_hw(m), *ctx, nullptr);
    call["simulate_ms"] = sim;
    call["summarize_ms"] = sum;
    setup_calls.push_back(std::move(call));
    (void)engine.run(req);  // the same warm-up the server gets
  }

  std::vector<RequestSpans> spans;
  std::vector<KernelSpans> kernels;
  bool quantized = false;
  std::optional<defa::Tensor> weights;
  Json matrix;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < s.sequence.size(); ++i) {
    if (spans.size() >= 3 && ms_between(t0, Clock::now()) >= seconds * 1000.0) break;
    const EvalRequest& req = s.requests[s.sequence[i]];
    const defa::ModelConfig m = req.resolve_model();
    const defa::core::PruneConfig cfg = req.resolve_prune(m);
    quantized = cfg.quantize;
    RequestSpans rs;
    std::shared_ptr<defa::core::BenchmarkContext> ctx;
    const auto start = Clock::now();
    const std::uint64_t misses = engine.cache_stats().context.misses;
    ctx = engine.context(m, req.resolve_scene(m));
    rs.fresh_scene = engine.cache_stats().context.misses != misses;
    rs.scene = time_ms([&] { (void)ctx->workload_ref(); });
    rs.reference = time_ms([&] { (void)ctx->pipeline().layer_fields(0); });
    const defa::core::EncoderResult* enc = nullptr;
    defa::core::EncoderResult local;
    rs.encoder = time_ms([&] {
      if (is_default_prune(req)) {
        enc = &ctx->defa_result(&backend);
      } else {
        local = ctx->pipeline().run(cfg, &backend);
        enc = &local;
      }
    });
    rs.on_path_sim = (req.outputs & (defa::api::kLatency | defa::api::kEnergy)) != 0;
    if (rs.on_path_sim) {
      std::tie(rs.simulate, rs.summarize) = time_simulate_summarize(
          m, req.resolve_hw(m), *ctx, is_default_prune(req) ? nullptr : enc);
    }
    rs.total = ms_between(start, Clock::now());
    rs.point_reduction = enc->point_reduction();
    rs.pixel_reduction = enc->pixel_reduction();
    spans.push_back(rs);

    if (!weights) weights = projection_weights(m);
    kernels.push_back(replay_kernels(m, cfg, *ctx, backend, *weights));
    if (matrix.is_null()) matrix = backend_matrix(m, cfg, *ctx, *weights, 7);
  }

  Json out = Json::object();
  out["meta"] = build_meta();
  out["setup_calls"] = std::move(setup_calls);
  const auto column = [&](auto&& get) {
    Json a = Json::array();
    for (std::size_t i = 0; i < spans.size(); ++i) a.push_back(get(spans[i], kernels[i]));
    return a;
  };
  using RS = const RequestSpans&;
  using KS = const KernelSpans&;
  out["total_ms"] = column([](RS r, KS) { return r.total; });
  out["scene_ms"] = column([](RS r, KS) { return r.fresh_scene ? r.scene : -1.0; });
  out["reference_ms"] = column([](RS r, KS) { return r.fresh_scene ? r.reference : -1.0; });
  out["path_ms"] = column([](RS r, KS) {
    return r.scene + r.reference + r.encoder + r.simulate + r.summarize;
  });
  out["encoder_ms"] = column([](RS r, KS) { return r.encoder; });
  out["simulate_ms"] = column([](RS r, KS) { return r.on_path_sim ? r.simulate : -1.0; });
  out["summarize_ms"] = column([](RS r, KS) { return r.on_path_sim ? r.summarize : -1.0; });
  out["point_reduction"] = column([](RS r, KS) { return r.point_reduction; });
  out["pixel_reduction"] = column([](RS r, KS) { return r.pixel_reduction; });
  out["softmax_ms"] = column([](RS, KS k) { return k.softmax; });
  out["linear_ms"] = column([](RS, KS k) { return k.linear; });
  out["plan_ms"] = column([](RS, KS k) { return k.plan; });
  out["pap_ms"] = column([](RS, KS k) { return k.pap; });
  out["fwp_ms"] = column([](RS, KS k) { return k.fwp; });
  out["msgs_fp32_ms"] = column([](RS, KS k) { return k.msgs_fp32; });
  out["msgs_int12_ms"] = column([](RS, KS k) { return k.msgs_int12; });
  out["quantized"] = quantized;
  out["backend_matrix"] = std::move(matrix);
  Json fig1b = Json::array();
  for (const defa::core::Fig1bRow& row : defa::core::run_fig1b()) {
    Json r = Json::object();
    r["benchmark"] = row.benchmark;
    r["msgs_latency_share"] = row.msgs_latency_share;
    fig1b.push_back(std::move(r));
  }
  out["fig1b"] = std::move(fig1b);
  defa::api::write_json_file(args.get("out"), out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver warmup|load|trace --key value ...\n";
    return 2;
  }
  if (argc % 2 != 0) throw std::runtime_error("expected --key value pairs");
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("expected --key, got " + key);
    args.kv[key.substr(2)] = argv[i + 1];
  }
  const std::string cmd = argv[1];
  if (cmd == "warmup") return cmd_warmup(args);
  if (cmd == "load") return cmd_load(args);
  if (cmd == "trace") return cmd_trace(args);
  std::cerr << "unknown command " << cmd << "\n";
  return 2;
} catch (const std::exception& e) {
  std::cerr << "perfbench_driver: " << e.what() << "\n";
  return 1;
}
