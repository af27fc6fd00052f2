#pragma once

/// \file model_config.h
/// Benchmark model configurations for the MSDeformAttn encoder layers
/// evaluated in the DEFA paper (Deformable DETR, DN-DETR, DINO on COCO).
///
/// All three detectors share the standard MSDeformAttn encoder hyper-
/// parameters (d_model=256, 8 heads, 4 levels, 4 points, 6 encoder layers);
/// they differ in input resolution (and therefore token count) and in the
/// paper-reported baseline AP used by the accuracy proxy.

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

namespace defa {

/// One pyramid level of the flattened multi-scale feature map.
struct LevelShape {
  int h = 0;
  int w = 0;
  [[nodiscard]] std::int64_t numel() const noexcept {
    return static_cast<std::int64_t>(h) * w;
  }
};

/// Static description of one benchmark's MSDeformAttn encoder.
struct ModelConfig {
  std::string name;
  int d_model = 256;   ///< hidden dimension D_in
  int n_heads = 8;     ///< attention heads N_h
  int n_levels = 4;    ///< feature pyramid levels N_l
  int n_points = 4;    ///< sampling points per level N_p
  int n_layers = 6;    ///< encoder MSDeformAttn blocks
  std::vector<LevelShape> levels;  ///< per-level fmap shapes, fine -> coarse

  /// COCO AP of the unmodified fp32 model, as reported in the paper's
  /// Fig. 6(a); consumed by the accuracy proxy (src/accuracy).
  double baseline_ap = 0.0;

  /// Workload seed so each benchmark sees a distinct synthetic scene.
  std::uint64_t seed = 0;

  // ---- Derived quantities -------------------------------------------------

  [[nodiscard]] int d_head() const noexcept { return d_model / n_heads; }
  /// Sampling points per query per head (N_l * N_p).
  [[nodiscard]] int points_per_head() const noexcept { return n_levels * n_points; }
  /// Sampling points per query across all heads (N_h * N_l * N_p).
  [[nodiscard]] std::int64_t points_per_query() const noexcept {
    return static_cast<std::int64_t>(n_heads) * points_per_head();
  }
  /// Bilinear gather-accumulate work of one query (points_per_query() *
  /// d_head): the parallel_for work estimate of every per-query MSGS loop.
  [[nodiscard]] std::int64_t msgs_work_per_query() const noexcept {
    return points_per_query() * d_head();
  }
  /// Total flattened token count N_in = sum_l H_l * W_l.
  [[nodiscard]] std::int64_t n_in() const;
  /// Start offset of level `l` within the flattened token axis.
  [[nodiscard]] std::int64_t level_offset(int l) const;
  /// Flattened token index of pixel (y, x) in level `l`.
  [[nodiscard]] std::int64_t flat_index(int l, int y, int x) const;
  /// Level that contains flattened token index `idx`, and its (y, x).
  struct PixelCoord {
    int level = 0;
    int y = 0;
    int x = 0;
  };
  [[nodiscard]] PixelCoord pixel_of(std::int64_t idx) const;

  /// Validate internal consistency (shapes positive, divisibility).
  void validate() const;

  // ---- Benchmark presets --------------------------------------------------

  /// Deformable DETR encoder (ICLR'21), COCO val shapes, baseline AP 46.9.
  [[nodiscard]] static ModelConfig deformable_detr();
  /// DN-DETR encoder (CVPR'22), baseline AP 49.4.
  [[nodiscard]] static ModelConfig dn_detr();
  /// DINO encoder (ICLR'23), baseline AP 50.8.
  [[nodiscard]] static ModelConfig dino();
  /// All three paper benchmarks in paper order.
  [[nodiscard]] static std::vector<ModelConfig> paper_benchmarks();

  /// Tiny configuration for unit tests (runs in microseconds).
  [[nodiscard]] static ModelConfig tiny();
  /// Reduced-resolution configuration for fast integration tests.
  [[nodiscard]] static ModelConfig small();
};

}  // namespace defa
