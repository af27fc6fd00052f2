#pragma once

/// \file pipeline.h
/// The DEFA functional encoder pipeline: N MSDeformAttn blocks with the
/// paper's four algorithm-level techniques applied in hardware order
/// (Sec. 4.1) —
///   softmax -> PAP point mask -> (masked) offset generation ->
///   FWP-masked value projection -> range-narrowed, fused MSGS+aggregation
///   (optionally on the INTn datapath) -> frequency counting -> fmap mask
///   for the next block.
///
/// A dense fp32 reference trajectory runs alongside the pruned trajectory;
/// the divergence between the two feeds the accuracy proxy (Fig. 6a), the
/// masks feed the cycle-accurate simulator, and the kept/total counts feed
/// the reduction figures (Fig. 6b).

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "config/hw_config.h"
#include "core/flops.h"
#include "kernels/backend.h"
#include "kernels/plan.h"
#include "prune/fwp.h"
#include "prune/masks.h"
#include "prune/pap.h"
#include "prune/range.h"
#include "quant/fixed_point.h"
#include "workload/scene.h"

namespace defa::core {

/// Algorithm-level configuration of one pipeline run.
struct PruneConfig {
  std::string label = "baseline";

  bool pap = false;
  double pap_tau = 0.03;  ///< probabilities below tau are pruned

  bool fwp = false;
  double fwp_k = 0.66;  ///< Eq. 2 multiplier

  bool narrow = false;
  RangeSpec ranges{};  ///< used when narrow == true

  bool quantize = false;
  int bits = 12;

  /// Dense fp32 run (no technique enabled).
  [[nodiscard]] static PruneConfig baseline();
  /// Full DEFA configuration (all four techniques, INT12).
  [[nodiscard]] static PruneConfig defa_default(const ModelConfig& m);
  /// Single-technique configurations for the Fig. 6(a) breakdown.
  [[nodiscard]] static PruneConfig only_fwp(double k = 0.66);
  [[nodiscard]] static PruneConfig only_pap(double tau = 0.03);
  [[nodiscard]] static PruneConfig only_narrow(const ModelConfig& m);
  [[nodiscard]] static PruneConfig only_quant(int bits);

  [[nodiscard]] bool any_enabled() const noexcept {
    return pap || fwp || narrow || quantize;
  }
};

/// Per-block measurements of one pipeline run.
struct LayerRunStats {
  int layer = 0;
  prune::PapStats pap;
  prune::FwpStats fwp;      ///< mask generated *by* this layer (for the next)
  prune::ClampStats clamp;

  std::int64_t total_points = 0;
  std::int64_t kept_points = 0;
  std::int64_t total_pixels = 0;
  std::int64_t kept_pixels = 0;  ///< pixels available to this layer's V-projection

  FlopCount flops_dense;
  FlopCount flops_actual;

  /// Output divergence vs the dense fp32 reference trajectory.
  double out_nrmse = 0.0;
};

/// Everything a pipeline run produces.
struct EncoderResult {
  std::string config_label;
  std::vector<LayerRunStats> layers;
  /// PAP masks per layer (consumed by the cycle-accurate simulator).
  std::vector<prune::PointMask> point_masks;
  /// FWP mask *applied* at each layer (all-keep at layer 0).
  std::vector<prune::FmapMask> fmap_masks;

  FlopCount total_dense;
  FlopCount total_actual;
  /// NRMSE of the final token matrix vs the dense trajectory.
  double final_nrmse = 0.0;

  /// Fraction of sampling points pruned, across all layers.
  [[nodiscard]] double point_reduction() const noexcept;
  /// Fraction of fmap pixels pruned, across layers where a mask applies
  /// (layer 1 onward — layer 0 has no incoming mask, matching the paper).
  [[nodiscard]] double pixel_reduction() const noexcept;
  [[nodiscard]] double flop_reduction() const noexcept {
    return total_dense.total() > 0 ? 1.0 - total_actual.total() / total_dense.total() : 0.0;
  }
};

/// Most distinct (seed, d_model, layer, bits) weight matrices the
/// value-weight cache keeps; the least recently used one is dropped beyond
/// this.
inline constexpr std::size_t kValueWeightCacheCapacity = 16;

/// Value-projection weights of encoder block `layer`: a d_model x d_model
/// N(0, 1/d_model) matrix drawn from (model seed, layer).  They are model
/// parameters shared by every scene of a model, so each is built once and
/// served from a thread-safe LRU cache keyed by (seed, d_model, layer,
/// bits), bits 0 here.
[[nodiscard]] std::shared_ptr<const Tensor> layer_value_weights(const ModelConfig& m,
                                                                int layer);
/// The INTn codes of those weights, `quant::QTensor(w, bits)`: the
/// operand the integer value projection multiplies by, from the same
/// cache under key bits.
[[nodiscard]] std::shared_ptr<const quant::QTensor> layer_value_codes(const ModelConfig& m,
                                                                      int layer, int bits);
/// The INTn value projection of block `layer` ("MM mode"): the rows of
/// `x` with keep_rows[r] != 0 (empty: every row) quantized once to `bits`
/// over those rows (quant::quantize_rows), multiplied in integers by
/// layer_value_codes and requantized (nn::int_matmul).  FWP-pruned rows
/// are never read and get code 0.
[[nodiscard]] quant::QTensor project_value_codes(const ModelConfig& m, int layer,
                                                 const Tensor& x, int bits,
                                                 std::span<const std::uint8_t> keep_rows = {});
/// Number of weight matrices the cache holds (at most the capacity).
[[nodiscard]] std::size_t value_weight_cache_size();

/// Runs the multi-block encoder on one synthetic workload.
///
/// The dense fp32 reference trajectory (sampling fields, probabilities and
/// block outputs) depends only on the workload, so it is computed once and
/// cached; successive `run` calls with different configurations reuse it.
///
/// Thread-safety: the lazily-built reference cache is guarded by a
/// std::once_flag, and `run` only reads it, so one pipeline may be shared
/// across threads (the Engine relies on this to batch requests).  The
/// caller must keep the workload alive and unmodified for the pipeline's
/// lifetime.
class EncoderPipeline {
 public:
  explicit EncoderPipeline(const workload::SceneWorkload& workload);

  /// Run all blocks under `cfg`.  Deterministic in (workload seed, cfg).
  /// The numeric hot path runs on `backend` (nullptr selects
  /// kernels::default_backend()); every registered backend is bit-identical
  /// in fp32 and on the INTn datapath, so the backend is a pure performance
  /// knob — results do not depend on it.
  [[nodiscard]] EncoderResult run(const PruneConfig& cfg,
                                  const kernels::Backend* backend = nullptr) const;

  [[nodiscard]] const ModelConfig& model() const noexcept { return wl_.model(); }

  /// Cached dense sampling fields of one block (shared with the
  /// cycle-accurate simulator so both see identical sampling geometry).
  [[nodiscard]] const nn::MsdaFields& layer_fields(int layer) const;
  /// Cached dense softmax probabilities of one block.
  [[nodiscard]] const Tensor& layer_probs(int layer) const;
  /// Hit/miss counters of the per-layer plan cache (plan-reuse tests).
  [[nodiscard]] kernels::PlanCache::Stats plan_cache_stats() const {
    return plan_cache_.stats();
  }

 private:
  struct LayerRef {
    nn::MsdaFields fields;  ///< scene-driven logits + (unclamped) locations
    Tensor probs;           ///< dense softmax probabilities
    Tensor out_ref;         ///< dense fp32 block output
    std::shared_ptr<const Tensor> w_value;  ///< fp32 value-projection weights
  };
  /// Thread-safe: builds the reference exactly once (std::call_once).
  /// The first caller's backend performs the build (nullptr = process
  /// default) — safe to share because backends are bit-identical.
  void ensure_reference(const kernels::Backend* backend = nullptr) const;
  void build_reference(const kernels::Backend* backend) const;
  /// What one block of `run` hands on: its output, its point mask and
  /// the fmap mask for the next block.  Defined in pipeline.cpp.
  struct BlockOutputs;
  /// One block of `run` stage by stage: the fp32 path, and the INTn path
  /// of every backend but `reference`.  Fills the clamp, PAP, kept-point
  /// and FWP fields of `ls`; `moved_locs` is scratch reused across blocks.
  [[nodiscard]] BlockOutputs run_staged_block(const PruneConfig& cfg,
                                              const kernels::Backend& backend, int layer,
                                              const Tensor& x, const prune::FmapMask& fmask,
                                              Tensor& moved_locs, LayerRunStats& ls) const;
  /// One INTn block on the `reference` backend: the value projection, then
  /// the fused layer pass (core/fused_layer.h) and fwp_prune.
  [[nodiscard]] BlockOutputs run_fused_block(const PruneConfig& cfg, int layer, const Tensor& x,
                                             const prune::FmapMask& fmask,
                                             LayerRunStats& ls) const;

  const workload::SceneWorkload& wl_;
  mutable std::once_flag ref_once_;
  mutable std::vector<LayerRef> ref_;
  mutable Tensor x_ref_final_;
  /// One SamplingPlan per layer, keyed "layer<idx>", for the dense cached
  /// geometry; thread-safe (kernels::PlanCache has its own lock).
  mutable kernels::PlanCache plan_cache_;
};

}  // namespace defa::core
