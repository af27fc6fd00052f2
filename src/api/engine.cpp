#include "api/engine.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "kernels/plan.h"
#include "obs/trace.h"

namespace defa::api {

Engine::Engine(Options options) : options_(options), pool_(options.max_contexts) {
  DEFA_CHECK(options_.backend.empty() ||
                 kernels::find_backend(options_.backend) != nullptr,
             "Engine: unknown backend '" + options_.backend + "'");
}

std::shared_ptr<core::BenchmarkContext> Engine::context(
    const ModelConfig& m, const workload::SceneParams& scene) {
  return pool_.get(m, scene);
}

std::shared_ptr<core::BenchmarkContext> Engine::context(const ModelConfig& m) {
  return pool_.get(m);
}

std::size_t Engine::memoized_results() const {
  const std::lock_guard<std::mutex> lock(memo_mu_);
  return memo_.size();
}

void Engine::evict_memo_locked(std::size_t max_memo) {
  while (max_memo > 0 && memo_.size() > max_memo) {
    auto lru = memo_.begin();
    for (auto it = memo_.begin(); it != memo_.end(); ++it) {
      if (it->second.last_used < lru->second.last_used) lru = it;
    }
    memo_.erase(lru);
    ++memo_evictions_;
  }
}

void Engine::reconfigure(const Reconfig& rc) {
  if (rc.backend.has_value()) {
    DEFA_CHECK(rc.backend->empty() ||
                   kernels::find_backend(*rc.backend) != nullptr,
               "Engine: unknown backend '" + *rc.backend + "'");
  }
  {
    const std::lock_guard<std::mutex> lock(options_mu_);
    if (rc.backend.has_value()) options_.backend = *rc.backend;
    if (rc.max_contexts.has_value()) options_.max_contexts = *rc.max_contexts;
    if (rc.max_memo.has_value()) options_.max_memo = *rc.max_memo;
    if (rc.memoize_results.has_value()) {
      options_.memoize_results = *rc.memoize_results;
    }
  }
  // Enforce shrunken bounds immediately (a tightened cache that only
  // honors its bound on the next miss would overreport residency).
  if (rc.max_contexts.has_value()) pool_.set_max_contexts(*rc.max_contexts);
  if (rc.max_memo.has_value()) {
    const std::lock_guard<std::mutex> lock(memo_mu_);
    evict_memo_locked(*rc.max_memo);
  }
}

void Engine::reset_stats() {
  pool_.reset_stats();
  kernels::PlanCache::reset_global_counters();
  const std::lock_guard<std::mutex> lock(memo_mu_);
  memo_hits_ = 0;
  memo_misses_ = 0;
  memo_evictions_ = 0;
}

void Engine::clear_caches() {
  pool_.clear();
  const std::lock_guard<std::mutex> lock(memo_mu_);
  memo_.clear();
}

Engine::CacheStats Engine::cache_stats() const {
  CacheStats s;
  s.context = pool_.stats();
  const kernels::PlanCache::GlobalStats plans = kernels::PlanCache::global_stats();
  s.plan_hits = plans.hits;
  s.plan_misses = plans.misses;
  s.plan_entries = plans.entries;
  const std::lock_guard<std::mutex> lock(memo_mu_);
  s.memo_hits = memo_hits_;
  s.memo_misses = memo_misses_;
  s.memo_evictions = memo_evictions_;
  return s;
}

EvalResult Engine::run(const EvalRequest& request) {
  request.validate();
  // One coherent view of the tunables for this whole run: a concurrent
  // reconfigure affects the next run, never half of this one.
  bool memoize;
  std::string backend;
  std::size_t max_memo;
  {
    const std::lock_guard<std::mutex> lock(options_mu_);
    memoize = options_.memoize_results;
    backend = options_.backend;
    max_memo = options_.max_memo;
  }
  if (!memoize) return evaluate(request, backend);
  const std::string key = request.request_key(backend);
  {
    DEFA_TRACE_SPAN("memo_lookup", "engine");
    const std::lock_guard<std::mutex> lock(memo_mu_);
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++memo_hits_;
      it->second.last_used = ++memo_tick_;
      return it->second.result;
    }
    ++memo_misses_;
  }
  EvalResult result = evaluate(request, backend);
  {
    const std::lock_guard<std::mutex> lock(memo_mu_);
    if (memo_.find(key) == memo_.end()) {
      // Mirror ContextPool: when an insert would exceed the bound, drop
      // the least-recently-used entry (concurrent evaluations of the same
      // key dedup on the find above).
      if (max_memo > 0 && memo_.size() >= max_memo) {
        evict_memo_locked(max_memo - 1);
      }
      memo_.emplace(key, MemoEntry{result, ++memo_tick_});
    }
  }
  return result;
}

std::vector<EvalResult> Engine::run_batch(const std::vector<EvalRequest>& requests) {
  // Fail fast on malformed requests before any evaluation starts.
  for (const EvalRequest& r : requests) r.validate();

  const auto n = static_cast<std::int64_t>(requests.size());
  std::vector<EvalResult> results(requests.size());
  int max_parallel;
  {
    const std::lock_guard<std::mutex> lock(options_mu_);
    max_parallel = options_.max_parallel_requests;
  }
  const int cap = max_parallel > 0 ? max_parallel : parallel_concurrency();

  if (cap <= 1 || n <= 1) {
    for (std::int64_t i = 0; i < n; ++i) {
      results[static_cast<std::size_t>(i)] = run(requests[static_cast<std::size_t>(i)]);
    }
    return results;
  }

  // Fan the requests over the shared persistent pool (no per-call thread
  // spawning).  Each result slot is written by exactly one executor, so
  // the output is deterministic regardless of the interleaving; the first
  // exception propagates to the caller after all requests settle.
  ThreadPool::global().run_indexed(n, cap, [&](std::int64_t i) {
    results[static_cast<std::size_t>(i)] = run(requests[static_cast<std::size_t>(i)]);
  });
  return results;
}

// --------------------------------------------------------------- evaluation

namespace {

bool same_ranges(const RangeSpec& a, const RangeSpec& b) {
  if (a.used_levels != b.used_levels) return false;
  for (int l = 0; l < a.used_levels; ++l) {
    if (a.radius(l) != b.radius(l)) return false;
  }
  return true;
}

/// Does `cfg` match the full-DEFA default the context caches?  The label
/// participates: a relabelled-but-equivalent config must take the uncached
/// path so its result carries the caller's label.
bool is_defa_default(const core::PruneConfig& cfg, const ModelConfig& m) {
  const core::PruneConfig d = core::PruneConfig::defa_default(m);
  return cfg.label == d.label && cfg.pap == d.pap && cfg.pap_tau == d.pap_tau &&
         cfg.fwp == d.fwp && cfg.fwp_k == d.fwp_k && cfg.narrow == d.narrow &&
         same_ranges(cfg.ranges, d.ranges) && cfg.quantize == d.quantize &&
         cfg.bits == d.bits;
}

FunctionalStats functional_stats(const core::EncoderResult& enc) {
  FunctionalStats f;
  f.config_label = enc.config_label;
  f.point_reduction = enc.point_reduction();
  f.pixel_reduction = enc.pixel_reduction();
  f.flop_reduction = enc.flop_reduction();
  f.final_nrmse = enc.final_nrmse;
  f.dense_gflops = enc.total_dense.total() * 1e-9;
  f.actual_gflops = enc.total_actual.total() * 1e-9;
  f.layers.reserve(enc.layers.size());
  for (const core::LayerRunStats& l : enc.layers) {
    LayerFunctionalRow row;
    row.layer = l.layer;
    row.pap_pruned_frac = l.pap.fraction_pruned();
    row.fwp_mask_out_frac = l.fwp.fraction_pruned();
    row.pixels_pruned_frac =
        l.total_pixels > 0
            ? 1.0 - static_cast<double>(l.kept_pixels) / static_cast<double>(l.total_pixels)
            : 0.0;
    row.clamped_frac = l.clamp.fraction_clamped();
    row.flops_saved_frac =
        l.flops_dense.total() > 0 ? 1.0 - l.flops_actual.total() / l.flops_dense.total()
                                  : 0.0;
    row.out_nrmse = l.out_nrmse;
    row.total_points = static_cast<double>(l.total_points);
    row.kept_points = static_cast<double>(l.kept_points);
    row.total_pixels = static_cast<double>(l.total_pixels);
    row.kept_pixels = static_cast<double>(l.kept_pixels);
    f.layers.push_back(std::move(row));
  }
  return f;
}

PhaseRow phase_row(const arch::PhaseStats& p) {
  PhaseRow r;
  r.name = p.name;
  r.cycles = static_cast<double>(p.cycles);
  r.stall_cycles = static_cast<double>(p.stall_cycles);
  r.macs = static_cast<double>(p.macs);
  r.sram_read_bytes = static_cast<double>(p.sram_read_bytes);
  r.sram_write_bytes = static_cast<double>(p.sram_write_bytes);
  r.dram_read_bytes = static_cast<double>(p.dram_read_bytes);
  r.dram_write_bytes = static_cast<double>(p.dram_write_bytes);
  return r;
}

LatencyStats latency_stats(const arch::RunPerf& run, const energy::PerfSummary& sum) {
  LatencyStats l;
  l.wall_cycles = static_cast<double>(run.wall_cycles());
  l.time_ms = sum.time_ms;
  l.effective_gops = sum.effective_gops;

  arch::MsgsPerf msgs;
  for (const arch::LayerPerf& layer : run.layers) msgs += layer.msgs;
  l.msgs_groups = static_cast<double>(msgs.groups);
  l.msgs_conflict_groups = static_cast<double>(msgs.conflict_groups);
  l.msgs_points_per_cycle = msgs.points_per_cycle();

  if (!run.layers.empty()) {
    l.steady_state_layer = run.layers.size() > 1 ? 1 : 0;
    const arch::LayerPerf& steady =
        run.layers[static_cast<std::size_t>(l.steady_state_layer)];
    for (const arch::PhaseStats& p : steady.phases) l.steady_phases.push_back(phase_row(p));

    // Per-phase totals across blocks, keyed by phase name in first-seen order.
    std::vector<arch::PhaseStats> totals;
    for (const arch::LayerPerf& layer : run.layers) {
      for (const arch::PhaseStats& p : layer.phases) {
        auto it = std::find_if(totals.begin(), totals.end(),
                               [&](const arch::PhaseStats& t) { return t.name == p.name; });
        if (it == totals.end()) {
          totals.push_back(p);
        } else {
          *it += p;
        }
      }
    }
    for (const arch::PhaseStats& p : totals) l.total_phases.push_back(phase_row(p));
  }
  return l;
}

EnergyStats energy_stats(const ModelConfig& m, const HwConfig& hw,
                         const arch::RunPerf& run, const energy::PerfSummary& sum) {
  const energy::EnergyBreakdown e = energy::energy_breakdown(m, hw, run);
  const energy::AreaBreakdown a = energy::area_breakdown(m, hw);
  EnergyStats s;
  s.pe_pj = e.pe_pj;
  s.softmax_pj = e.softmax_pj;
  s.sram_pj = e.sram_pj;
  s.other_logic_pj = e.other_logic_pj;
  s.dram_pj = e.dram_pj;
  s.area_sram_mm2 = a.sram_mm2;
  s.area_pe_softmax_mm2 = a.pe_softmax_mm2;
  s.area_others_mm2 = a.others_mm2;
  s.chip_power_mw = sum.chip_power_mw;
  s.system_power_mw = sum.system_power_mw;
  s.gops_per_w = sum.gops_per_w;
  for (const auto& macro : energy::build_sram_plan(m, hw).macros) {
    SramMacroRow row;
    row.name = macro.name;
    row.capacity_bytes = static_cast<double>(macro.capacity_bytes);
    row.count = static_cast<double>(macro.count);
    row.word_bytes = static_cast<double>(macro.word_bytes);
    s.sram_macros.push_back(std::move(row));
  }
  return s;
}

AccuracyStats accuracy_stats(const ModelConfig& m, const core::PruneConfig& cfg,
                             const core::EncoderPipeline& pipe,
                             const core::EncoderResult* enc,
                             const kernels::Backend& backend) {
  using accuracy::ApModel;
  using accuracy::Technique;
  const ApModel& ap = ApModel::paper_calibrated();

  AccuracyStats a;
  a.baseline_ap = m.baseline_ap;

  // When exactly one technique is enabled, the request's own pipeline run
  // (if we already have it) IS the isolated measurement — skip the rerun.
  const int enabled_count = static_cast<int>(cfg.fwp) + static_cast<int>(cfg.pap) +
                            static_cast<int>(cfg.narrow) + static_cast<int>(cfg.quantize);
  const bool reuse_enc = enc != nullptr && enabled_count == 1;

  // The paper reports technique costs additively (Fig. 6a), so each
  // enabled technique is measured in isolation at the request's own
  // thresholds and mapped through its calibrated curve.
  const auto add_drop = [&](const std::string& name, Technique t,
                            const core::PruneConfig& isolated) {
    TechniqueDrop d;
    d.technique = name;
    d.measured_error =
        reuse_enc ? enc->final_nrmse : pipe.run(isolated, &backend).final_nrmse;
    d.ap_drop = ap.drop(t, d.measured_error);
    a.drops.push_back(std::move(d));
  };

  if (cfg.fwp) add_drop("fwp", Technique::kFwp, core::PruneConfig::only_fwp(cfg.fwp_k));
  if (cfg.pap) add_drop("pap", Technique::kPap, core::PruneConfig::only_pap(cfg.pap_tau));
  if (cfg.narrow) {
    core::PruneConfig iso;
    iso.label = "range-narrowing";
    iso.narrow = true;
    iso.ranges = cfg.ranges;
    add_drop("narrow", Technique::kNarrow, iso);
  }
  if (cfg.quantize) {
    // The proxy is calibrated at the paper's two datapoints; widths >= 10
    // bits behave like the accepted INT12 curve, narrower ones like the
    // rejected INT8 curve.
    const Technique t = cfg.bits >= 10 ? Technique::kQuant12 : Technique::kQuant8;
    add_drop("quant", t, core::PruneConfig::only_quant(cfg.bits));
  }

  double total_drop = 0.0;
  for (const TechniqueDrop& d : a.drops) total_drop += d.ap_drop;
  a.proxy_ap = a.baseline_ap - total_drop;
  return a;
}

}  // namespace

EvalResult Engine::evaluate(const EvalRequest& request,
                            const std::string& default_backend) {
  DEFA_TRACE_SPAN_ARG("evaluate", "engine", "benchmark", request.preset);
  const ModelConfig m = request.resolve_model();
  const workload::SceneParams scene = request.resolve_scene(m);
  const core::PruneConfig cfg = request.resolve_prune(m);
  const kernels::Backend& backend =
      kernels::backend(request.resolve_backend(default_backend));
  std::shared_ptr<core::BenchmarkContext> ctx;
  {
    DEFA_TRACE_SPAN("context_lookup", "engine");
    ctx = pool_.get(m, scene);
  }

  EvalResult result;
  result.benchmark = m.name;
  result.workload_key = core::ContextPool::key_of(m, scene);
  result.outputs = request.outputs;

  // The functional run feeds the functional section AND the simulator
  // masks, so it is needed for any of functional/latency/energy.
  const bool need_encoder =
      (request.outputs & (kFunctional | kLatency | kEnergy)) != 0;
  const bool default_cfg = is_defa_default(cfg, m);
  const core::EncoderResult* enc = nullptr;
  core::EncoderResult enc_local;
  if (need_encoder) {
    DEFA_TRACE_SPAN_ARG("encoder", "engine", "cached",
                        default_cfg ? "maybe" : "no");
    if (default_cfg) {
      // Shared cache across requests: the first caller's backend performs
      // the one-time build; backends are bit-identical, so reusing the
      // cached result under any requested backend returns the same bytes.
      enc = &ctx->defa_result(&backend);
    } else {
      enc_local = ctx->pipeline().run(cfg, &backend);
      enc = &enc_local;
    }
  }

  if ((request.outputs & kFunctional) != 0) {
    result.functional = functional_stats(*enc);
  }

  if ((request.outputs & (kLatency | kEnergy)) != 0) {
    DEFA_TRACE_SPAN("simulate", "engine");
    const HwConfig hw = request.resolve_hw(m);
    const std::vector<arch::LayerTrace> traces =
        default_cfg ? ctx->defa_traces() : ctx->traces_for(*enc);
    const arch::DefaAccelerator acc(m, hw);
    const arch::RunPerf run = acc.simulate_run(traces);
    const energy::PerfSummary sum =
        energy::summarize(m, hw, run, ctx->dense_encoder_flops());
    if ((request.outputs & kLatency) != 0) result.latency = latency_stats(run, sum);
    if ((request.outputs & kEnergy) != 0) result.energy = energy_stats(m, hw, run, sum);
  }

  if ((request.outputs & kAccuracy) != 0) {
    DEFA_TRACE_SPAN("accuracy", "engine");
    result.accuracy = accuracy_stats(m, cfg, ctx->pipeline(), enc, backend);
  }

  return result;
}

}  // namespace defa::api
