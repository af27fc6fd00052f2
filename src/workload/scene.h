#pragma once

/// \file scene.h
/// Scene-driven synthetic workload generator.
///
/// Substitution for trained Deformable-DETR-family weights + COCO images
/// (DESIGN.md §4, substitution #1).  The paper's pruning results rest on
/// statistical properties of *trained* models:
///   (a) softmax attention probabilities are heavily skewed — the paper
///       reports >80% of them are near zero (basis of PAP);
///   (b) sampling locations concentrate on salient image regions, so
///       per-pixel sampled frequency is strongly non-uniform (basis of FWP);
///   (c) offsets have bounded, level-dependent pixel magnitudes (basis of
///       level-wise range narrowing).
/// Random weights produce none of these, so the generator synthesizes a
/// scene of Gaussian "objects" and derives feature maps, sampling offsets
/// (object-seeking + per-head ring patterns + jitter) and attention logits
/// (saliency-correlated) with calibratable knobs.  Shapes and layouts are
/// exactly those of Eq. 1, so every downstream consumer (functional
/// pipeline, pruning, cycle-accurate simulator) exercises the real
/// dataflow.

#include <array>
#include <vector>

#include "config/hw_config.h"
#include "config/model_config.h"
#include "nn/msdeform.h"
#include "tensor/tensor.h"

namespace defa::workload {

/// Most objects a scene may hold: the per-query object scores live in a
/// fixed array of this size, so objects past it could never be attended.
inline constexpr int kMaxObjects = 64;

/// Generator knobs.  Defaults are calibrated (see bench/ablation_workload)
/// so the default pipeline lands in the paper's reported pruning bands.
struct SceneParams {
  int n_objects = 14;  ///< in [1, kMaxObjects]
  double object_sigma_min = 0.02;   ///< normalized object extent, min
  double object_sigma_max = 0.07;   ///< normalized object extent, max
  double feature_noise = 0.25;      ///< i.i.d. feature noise stddev
  double background_level = 0.15;   ///< low-rank background feature weight

  // --- attention-probability skew (PAP behaviour) -------------------------
  double logit_gain = 16.0;    ///< saliency -> logit amplification
  double logit_noise = 3.8;  ///< per-point logit noise stddev

  // --- sampling locality (FWP behaviour) ----------------------------------
  double seek_fraction = 0.7;   ///< fraction of points that are object-seeking
  double seek_strength = 0.55;  ///< how far a seeking point moves toward the object
  double seek_cap_px = 5.0;     ///< soft cap (tanh) on the seek displacement;
                                ///< trained offsets concentrate within a
                                ///< bounded receptive field
  double ring_scale_px = 2.5;   ///< ring-pattern base radius in pixels

  // --- offset magnitude distribution (range-narrowing behaviour) ----------
  std::array<double, kMaxLevels> offset_sigma_px{2.6, 2.4, 1.9, 1.6, 1.6, 1.6, 1.6, 1.6};
  double tail_prob = 0.03;   ///< probability of a rare long-range offset
  double tail_scale = 3.0;   ///< long-range offsets scale sigma by this

  // --- cross-layer pattern stability (FWP inter-layer validity) -----------
  double layer_jitter = 0.35;

  std::uint64_t seed = 1;
};

/// One salient blob in the synthetic scene.
struct ObjectBlob {
  float cx = 0.0f;      ///< center x, normalized [0,1]
  float cy = 0.0f;      ///< center y, normalized [0,1]
  float sigma = 0.05f;  ///< extent, normalized
  float weight = 1.0f;  ///< salience weight
};

/// Deterministic synthetic workload for one benchmark model.
///
/// Construction builds the scene and the level-0..L-1 feature maps; per
/// encoder-layer sampling fields are generated on demand (they are large).
class SceneWorkload {
 public:
  SceneWorkload(ModelConfig model, SceneParams params);

  [[nodiscard]] const ModelConfig& model() const noexcept { return model_; }
  [[nodiscard]] const SceneParams& params() const noexcept { return params_; }

  /// Input tokens X (N_in x D): object feature mixtures + noise.
  [[nodiscard]] const Tensor& fmap() const noexcept { return fmap_; }

  /// Normalized reference points of all encoder queries (N x 2).
  [[nodiscard]] const Tensor& ref_norm() const noexcept { return ref_; }

  [[nodiscard]] const std::vector<ObjectBlob>& objects() const noexcept { return objects_; }

  /// Scene salience at a normalized location (sum of object Gaussians,
  /// normalized so the strongest single object peaks near 1).
  [[nodiscard]] float saliency(float xn, float yn) const noexcept;

  /// Sampling fields (logits + locations) of encoder block `layer`.
  /// Deterministic in (seed, layer); patterns are correlated across layers
  /// (same scene, same head ring structure) with `layer_jitter` variation.
  [[nodiscard]] nn::MsdaFields layer_fields(int layer) const;

 private:
  ModelConfig model_;
  SceneParams params_;
  std::vector<ObjectBlob> objects_;
  Tensor fmap_;
  Tensor ref_;
  float peak_saliency_ = 1.0f;
};

}  // namespace defa::workload
