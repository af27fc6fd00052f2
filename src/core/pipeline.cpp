#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <list>

#include "common/parallel.h"
#include "common/stats.h"
#include "core/fused_layer.h"
#include "core/msgs.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/softmax.h"
#include "obs/trace.h"
#include "quant/fixed_point.h"

namespace defa::core {

PruneConfig PruneConfig::baseline() {
  PruneConfig c;
  c.label = "baseline";
  return c;
}

PruneConfig PruneConfig::defa_default(const ModelConfig& m) {
  PruneConfig c;
  c.label = "DEFA";
  c.pap = true;
  c.fwp = true;
  c.narrow = true;
  c.ranges = RangeSpec::level_wise_default(m.n_levels);
  c.quantize = true;
  c.bits = 12;
  return c;
}

PruneConfig PruneConfig::only_fwp(double k) {
  PruneConfig c;
  c.label = "FWP";
  c.fwp = true;
  c.fwp_k = k;
  return c;
}

PruneConfig PruneConfig::only_pap(double tau) {
  PruneConfig c;
  c.label = "PAP";
  c.pap = true;
  c.pap_tau = tau;
  return c;
}

PruneConfig PruneConfig::only_narrow(const ModelConfig& m) {
  PruneConfig c;
  c.label = "range-narrowing";
  c.narrow = true;
  c.ranges = RangeSpec::level_wise_default(m.n_levels);
  return c;
}

PruneConfig PruneConfig::only_quant(int bits) {
  PruneConfig c;
  c.label = "INT" + std::to_string(bits);
  c.quantize = true;
  c.bits = bits;
  return c;
}

double EncoderResult::point_reduction() const noexcept {
  std::int64_t total = 0, kept = 0;
  for (const auto& l : layers) {
    total += l.total_points;
    kept += l.kept_points;
  }
  return total > 0 ? 1.0 - static_cast<double>(kept) / static_cast<double>(total) : 0.0;
}

double EncoderResult::pixel_reduction() const noexcept {
  std::int64_t total = 0, kept = 0;
  for (const auto& l : layers) {
    if (l.layer == 0) continue;  // no incoming mask at the first block
    total += l.total_pixels;
    kept += l.kept_pixels;
  }
  return total > 0 ? 1.0 - static_cast<double>(kept) / static_cast<double>(total) : 0.0;
}

EncoderPipeline::EncoderPipeline(const workload::SceneWorkload& workload)
    : wl_(workload) {}

namespace {

struct WeightKey {
  std::uint64_t seed = 0;
  int d_model = 0;
  int layer = 0;
  int bits = 0;  ///< 0: the fp32 weights; n: their INTn codes
  bool operator==(const WeightKey&) const = default;
};

/// One cached matrix: the fp32 weights (bits 0) or their INTn codes.
struct WeightEntry {
  std::shared_ptr<const Tensor> fp32;
  std::shared_ptr<const quant::QTensor> codes;
};

/// The value-weight cache: most recently used first.
struct WeightCache {
  std::mutex mu;
  std::list<std::pair<WeightKey, WeightEntry>> lru;

  /// Caller holds `mu`.  Moves a hit to the front; nullptr on a miss.
  const WeightEntry* find(const WeightKey& key) {
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (it->first == key) {
        lru.splice(lru.begin(), lru, it);
        return &lru.front().second;
      }
    }
    return nullptr;
  }
};

WeightCache& weight_cache() {
  static WeightCache cache;
  return cache;
}

/// The cached entry for `key`, built by `build` on a miss.  Built outside
/// the lock: concurrent first uses of one key may each build it
/// (identically), and the first to insert wins.
template <typename Build>
WeightEntry cached_weights(const WeightKey& key, Build&& build) {
  WeightCache& cache = weight_cache();
  {
    const std::lock_guard<std::mutex> lock(cache.mu);
    if (const WeightEntry* hit = cache.find(key)) return *hit;
  }
  WeightEntry built = build();
  const std::lock_guard<std::mutex> lock(cache.mu);
  if (const WeightEntry* hit = cache.find(key)) return *hit;
  cache.lru.emplace_front(key, built);
  if (cache.lru.size() > kValueWeightCacheCapacity) cache.lru.pop_back();
  return built;
}

}  // namespace

std::shared_ptr<const Tensor> layer_value_weights(const ModelConfig& m, int layer) {
  return cached_weights(WeightKey{m.seed, m.d_model, layer, 0}, [&] {
           Rng rng(mix_seed(m.seed, 0xBEEF, static_cast<std::uint64_t>(layer)));
           const float std = 1.0f / std::sqrt(static_cast<float>(m.d_model));
           return WeightEntry{std::make_shared<const Tensor>(
                                  Tensor::randn({m.d_model, m.d_model}, rng, 0.0f, std)),
                              nullptr};
         })
      .fp32;
}

std::shared_ptr<const quant::QTensor> layer_value_codes(const ModelConfig& m, int layer,
                                                        int bits) {
  DEFA_CHECK(bits > 0, "layer_value_codes: the INTn width must be positive");
  return cached_weights(WeightKey{m.seed, m.d_model, layer, bits}, [&] {
           return WeightEntry{nullptr, std::make_shared<const quant::QTensor>(
                                           *layer_value_weights(m, layer), bits)};
         })
      .codes;
}

quant::QTensor project_value_codes(const ModelConfig& m, int layer, const Tensor& x, int bits,
                                   std::span<const std::uint8_t> keep_rows) {
  return nn::int_matmul(quant::quantize_rows(x, bits, keep_rows),
                        *layer_value_codes(m, layer, bits), keep_rows);
}

std::size_t value_weight_cache_size() {
  WeightCache& cache = weight_cache();
  const std::lock_guard<std::mutex> lock(cache.mu);
  return cache.lru.size();
}

namespace {

/// Zero the value rows of FWP-pruned pixels (their projection is skipped
/// by the hardware; downstream BI then reads zeros for those pixels).
void zero_pruned_rows(const ModelConfig& m, const prune::FmapMask& mask, Tensor& v) {
  for (std::int64_t t = 0; t < m.n_in(); ++t) {
    if (mask.keep(t)) continue;
    for (float& x : v.row(t)) x = 0.0f;
  }
}

}  // namespace

void EncoderPipeline::ensure_reference(const kernels::Backend* backend) const {
  std::call_once(ref_once_, [this, backend] { build_reference(backend); });
}

namespace {

/// Plan-cache key of one layer's dense geometry.
std::string layer_plan_key(int layer) { return "layer" + std::to_string(layer); }

/// Key of the locality schedule derived from that geometry.  tile_elems is
/// part of the key: the DEFA_L2_KB knob can change between calls.
std::string layer_locality_key(int layer, std::int64_t tile_elems) {
  return layer_plan_key(layer) + "#loc" + std::to_string(tile_elems);
}

}  // namespace

void EncoderPipeline::build_reference(const kernels::Backend* backend_opt) const {
  DEFA_TRACE_SPAN("reference_build", "kernel");
  const ModelConfig& m = wl_.model();
  const kernels::Backend& backend = kernels::backend_or_default(backend_opt);
  Tensor x_ref = wl_.fmap();
  ref_.reserve(static_cast<std::size_t>(m.n_layers));
  for (int layer = 0; layer < m.n_layers; ++layer) {
    LayerRef lr;
    lr.fields = wl_.layer_fields(layer);
    lr.probs = backend.softmax_lastdim(lr.fields.logits);
    lr.w_value = layer_value_weights(m, layer);
    const Tensor v_ref = backend.matmul(x_ref, *lr.w_value);
    std::shared_ptr<const kernels::SamplingPlan> plan;
    std::shared_ptr<const kernels::LocalityPlan> locality;
    if (backend.wants_plan()) {
      plan = plan_cache_.get(layer_plan_key(layer), m, lr.fields.locs);
      if (backend.wants_locality()) {
        const std::int64_t tile_elems = kernels::locality_tile_elems();
        locality = plan_cache_.get_locality(layer_locality_key(layer, tile_elems), m,
                                            *plan, tile_elems);
      }
    }
    MsgsOptions opt;
    opt.backend = &backend;
    opt.plan = plan.get();
    opt.locality = locality.get();
    lr.out_ref = run_msgs(m, v_ref, lr.probs, lr.fields.locs, opt);
    nn::residual_rms_norm_rows(x_ref, lr.out_ref);
    ref_.push_back(std::move(lr));
  }
  x_ref_final_ = std::move(x_ref);
}

const nn::MsdaFields& EncoderPipeline::layer_fields(int layer) const {
  ensure_reference();
  DEFA_CHECK(layer >= 0 && layer < static_cast<int>(ref_.size()), "layer out of range");
  return ref_[static_cast<std::size_t>(layer)].fields;
}

const Tensor& EncoderPipeline::layer_probs(int layer) const {
  ensure_reference();
  DEFA_CHECK(layer >= 0 && layer < static_cast<int>(ref_.size()), "layer out of range");
  return ref_[static_cast<std::size_t>(layer)].probs;
}

struct EncoderPipeline::BlockOutputs {
  Tensor out;
  prune::PointMask point_mask;
  prune::FmapMask next_fmask;
};

EncoderPipeline::BlockOutputs EncoderPipeline::run_fused_block(const PruneConfig& cfg,
                                                               int layer, const Tensor& x,
                                                               const prune::FmapMask& fmask,
                                                               LayerRunStats& ls) const {
  const ModelConfig& m = wl_.model();
  // FWP-masked INTn value projection (mask from the previous block):
  // integers over the kept rows only, its output handed over as codes.
  quant::QTensor v_codes;
  {
    DEFA_TRACE_SPAN_ARG("value_projection", "kernel", "layer", layer);
    v_codes = project_value_codes(m, layer, x, cfg.bits,
                                  cfg.fwp ? fmask.bytes() : std::span<const std::uint8_t>{});
  }
  DEFA_TRACE_SPAN_ARG("fused_layer", "kernel", "layer", layer);
  FusedLayerSpec spec;
  spec.bits = cfg.bits;
  if (cfg.pap) spec.pap_tau = cfg.pap_tau;
  spec.ranges = cfg.narrow ? &cfg.ranges : nullptr;
  spec.count_frequency = cfg.fwp;
  FusedLayerResult r = run_fused_int_layer(m, wl_.ref_norm(),
                                           ref_[static_cast<std::size_t>(layer)].fields,
                                           v_codes, spec);
  ls.pap = r.pap;
  ls.clamp = std::move(r.clamp);
  ls.kept_points = r.kept_points;
  BlockOutputs b{std::move(r.out), std::move(r.point_mask), prune::FmapMask(m)};
  if (cfg.fwp) b.next_fmask = prune::fwp_prune(m, *r.freq, cfg.fwp_k, &ls.fwp);
  return b;
}

EncoderPipeline::BlockOutputs EncoderPipeline::run_staged_block(
    const PruneConfig& cfg, const kernels::Backend& backend, int layer, const Tensor& x,
    const prune::FmapMask& fmask, Tensor& moved_locs, LayerRunStats& ls) const {
  const ModelConfig& m = wl_.model();
  const LayerRef& lref = ref_[static_cast<std::size_t>(layer)];
  const nn::MsdaFields& fields = lref.fields;

  // (1) INTn generation of logits and offsets (the MM-mode datapath),
  // then range narrowing of the resulting sampling locations.  The
  // cached dense fields are used as-is unless one of these moves them.
  const Tensor* locs = &fields.locs;
  const Tensor* probs_hw = &lref.probs;
  Tensor quant_probs;
  if (cfg.quantize || cfg.narrow) {
    DEFA_TRACE_SPAN_ARG("quantize_narrow", "kernel", "layer", layer);
    locs = &moved_locs;
    const RangeSpec* ranges = cfg.narrow ? &cfg.ranges : nullptr;
    if (cfg.quantize) {
      const prune::ClampStats clamp = prune::quantize_and_clamp(
          m, wl_.ref_norm(), cfg.bits, ranges, fields.locs, moved_locs);
      if (cfg.narrow) ls.clamp = clamp;
      // Every backend's softmax is nn::softmax_lastdim; this one reads
      // the logits through their INTn fake quantization.
      quant_probs = nn::quantized_softmax_lastdim(fields.logits, cfg.bits);
      probs_hw = &quant_probs;
    } else {
      moved_locs = fields.locs;
      ls.clamp = prune::clamp_to_range(m, wl_.ref_norm(), *ranges, moved_locs);
    }
  }
  // Quantization and range narrowing move the sampling locations; only
  // the unmoved dense geometry can reuse the cached per-layer plan, and
  // only plan-consuming backends need one at all.
  const bool dense_geometry = !cfg.quantize && !cfg.narrow;
  std::shared_ptr<const kernels::SamplingPlan> plan;
  std::shared_ptr<const kernels::LocalityPlan> locality;
  if (dense_geometry && backend.wants_plan()) {
    DEFA_TRACE_SPAN_ARG("plan_build", "kernel", "layer", layer);
    plan = plan_cache_.get(layer_plan_key(layer), m, *locs);
    if (backend.wants_locality()) {
      const std::int64_t tile_elems = kernels::locality_tile_elems();
      locality = plan_cache_.get_locality(layer_locality_key(layer, tile_elems), m,
                                          *plan, tile_elems);
    }
  }

  // (2) PAP point mask from the (hardware) softmax probabilities
  std::optional<prune::PointMask> pmask;
  if (cfg.pap) {
    DEFA_TRACE_SPAN_ARG("pap_prune", "kernel", "layer", layer);
    pmask = prune::pap_prune(m, *probs_hw, cfg.pap_tau, &ls.pap);
    ls.kept_points = ls.total_points - ls.pap.pruned_points;
  } else {
    pmask.emplace(m);
    ls.kept_points = ls.total_points;
  }

  // (3) FWP-masked value projection (mask from the previous block).  The
  // INTn projection runs in integers over the kept rows only and hands
  // MSGS its output as value codes.
  Tensor v;
  quant::QTensor v_codes;
  {
    DEFA_TRACE_SPAN_ARG("value_projection", "kernel", "layer", layer);
    if (cfg.quantize) {
      v_codes = project_value_codes(m, layer, x, cfg.bits,
                                    cfg.fwp ? fmask.bytes() : std::span<const std::uint8_t>{});
    } else {
      v = backend.matmul(x, *lref.w_value);
      if (cfg.fwp) zero_pruned_rows(m, fmask, v);
    }
  }

  // (4) fused MSGS + aggregation (INTn datapath when quantizing)
  Tensor out;
  {
    DEFA_TRACE_SPAN_ARG("gather_aggregate", "kernel", "layer", layer);
    MsgsOptions opt;
    opt.point_mask = &*pmask;
    opt.frac_bits = cfg.bits;
    opt.backend = &backend;
    opt.plan = plan.get();
    opt.locality = locality.get();
    out = cfg.quantize ? run_msgs(m, v_codes, *probs_hw, *locs, opt)
                       : run_msgs(m, v, *probs_hw, *locs, opt);
  }

  // (5) frequency counting -> fmap mask for the next block
  prune::FmapMask next_fmask(m);
  if (cfg.fwp) {
    DEFA_TRACE_SPAN_ARG("fwp_prune", "kernel", "layer", layer);
    const prune::FreqCounter freq = prune::count_sampled_frequency(m, *locs, *pmask);
    next_fmask = prune::fwp_prune(m, freq, cfg.fwp_k, &ls.fwp);
  }
  return {std::move(out), std::move(*pmask), std::move(next_fmask)};
}

EncoderResult EncoderPipeline::run(const PruneConfig& cfg,
                                   const kernels::Backend* backend_opt) const {
  ensure_reference(backend_opt);
  const kernels::Backend& backend = kernels::backend_or_default(backend_opt);
  const ModelConfig& m = wl_.model();
  EncoderResult result;
  result.config_label = cfg.label;

  // Baseline short-circuit: with no technique enabled the pruned run is the
  // dense reference by construction.
  if (!cfg.any_enabled()) {
    for (int layer = 0; layer < m.n_layers; ++layer) {
      LayerRunStats ls;
      ls.layer = layer;
      ls.total_points = m.n_in() * m.points_per_query();
      ls.kept_points = ls.total_points;
      ls.total_pixels = m.n_in();
      ls.kept_pixels = ls.total_pixels;
      ls.flops_dense = dense_flops(m);
      ls.flops_actual = ls.flops_dense;
      result.total_dense += ls.flops_dense;
      result.total_actual += ls.flops_actual;
      result.point_masks.emplace_back(m);
      result.fmap_masks.emplace_back(m);
      result.layers.push_back(std::move(ls));
    }
    return result;
  }

  // The pruned trajectory diverges from the cached dense reference through
  // the enabled techniques; both share X0 and all scene-driven fields.
  Tensor x = wl_.fmap();

  prune::FmapMask fmask(m);  // all-keep for the first block
  // The reference backend runs the INTn layer as one fused pass
  // (core/fused_layer.h); the other backends run it stage by stage.
  const bool fused = cfg.quantize && backend.name() == "reference";
  // The moved sampling locations of the staged path, rewritten in place by
  // every layer.
  Tensor moved_locs;

  for (int layer = 0; layer < m.n_layers; ++layer) {
    const LayerRef& lref = ref_[static_cast<std::size_t>(layer)];

    // ---------------- DEFA block -------------------------------
    LayerRunStats ls;
    ls.layer = layer;
    ls.total_points = m.n_in() * m.points_per_query();
    ls.total_pixels = m.n_in();
    ls.kept_pixels = fmask.kept_count();

    BlockOutputs b = fused ? run_fused_block(cfg, layer, x, fmask, ls)
                           : run_staged_block(cfg, backend, layer, x, fmask, moved_locs, ls);

    // ---------------- bookkeeping ------------------------------
    ls.flops_dense = dense_flops(m);
    ls.flops_actual = pruned_flops(m, ls.kept_points, ls.kept_pixels);
    result.total_dense += ls.flops_dense;
    result.total_actual += ls.flops_actual;

    // ---------------- residual + norm, advance the pruned trajectory;
    // the same row pass measures the divergence from the dense reference.
    {
      DEFA_TRACE_SPAN_ARG("residual_norm", "kernel", "layer", layer);
      ls.out_nrmse = nn::residual_rms_norm_rows_nrmse(x, b.out, lref.out_ref);
    }

    result.point_masks.push_back(std::move(b.point_mask));
    result.fmap_masks.push_back(std::move(fmask));
    fmask = std::move(b.next_fmask);
    result.layers.push_back(std::move(ls));
  }

  {
    DEFA_TRACE_SPAN("nrmse", "kernel");
    result.final_nrmse = nrmse(x_ref_final_.data(), x.data());
  }
  return result;
}

}  // namespace defa::core
