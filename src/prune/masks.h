#pragma once

/// \file masks.h
/// Bit masks produced by the DEFA pruning algorithms (Sec. 3, Fig. 2):
/// the point mask (PAP) marks sampling points whose attention probability
/// survived thresholding; the fmap mask (FWP) marks feature-map pixels whose
/// sampled frequency survived thresholding.  Both are consumed by the
/// functional pipeline (skip computation) and by the cycle-accurate model
/// (skip memory access / PE work).

#include <cstdint>
#include <span>
#include <vector>

#include "config/model_config.h"

namespace defa::prune {

/// Per-(query, head, level, point) keep/prune mask.
class PointMask {
 public:
  /// All-keep mask for the given model.
  explicit PointMask(const ModelConfig& m);

  [[nodiscard]] bool keep(std::int64_t q, int h, int l, int p) const noexcept {
    return bits_[index(q, h, l, p)] != 0;
  }
  void set_keep(std::int64_t q, int h, int l, int p, bool keep) noexcept {
    bits_[index(q, h, l, p)] = keep ? 1 : 0;
  }

  /// Number of surviving points for one (query, head, level).
  [[nodiscard]] int kept_in_level(std::int64_t q, int h, int l) const noexcept;

  [[nodiscard]] std::int64_t total() const noexcept {
    return static_cast<std::int64_t>(bits_.size());
  }
  [[nodiscard]] std::int64_t kept_count() const noexcept;
  [[nodiscard]] double fraction_pruned() const noexcept {
    return total() == 0 ? 0.0
                        : 1.0 - static_cast<double>(kept_count()) /
                                    static_cast<double>(total());
  }
  /// One keep byte (0 or 1) per point, in (q, h, l, p) order.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept { return bits_; }
  [[nodiscard]] std::span<std::uint8_t> bytes() noexcept { return bits_; }

 private:
  [[nodiscard]] std::size_t index(std::int64_t q, int h, int l, int p) const noexcept {
    return static_cast<std::size_t>(((q * nh_ + h) * nl_ + l) * np_ + p);
  }
  int nh_, nl_, np_;
  std::vector<std::uint8_t> bits_;
};

/// Per-feature-map-pixel keep/prune mask over the flattened token axis.
class FmapMask {
 public:
  /// All-keep mask for the given model.
  explicit FmapMask(const ModelConfig& m);

  [[nodiscard]] bool keep(std::int64_t token) const noexcept {
    return bits_[static_cast<std::size_t>(token)] != 0;
  }
  void set_keep(std::int64_t token, bool keep) noexcept {
    bits_[static_cast<std::size_t>(token)] = keep ? 1 : 0;
  }

  [[nodiscard]] std::int64_t total() const noexcept {
    return static_cast<std::int64_t>(bits_.size());
  }
  [[nodiscard]] std::int64_t kept_count() const noexcept;
  [[nodiscard]] double fraction_pruned() const noexcept {
    return total() == 0 ? 0.0
                        : 1.0 - static_cast<double>(kept_count()) /
                                    static_cast<double>(total());
  }
  /// Kept pixels restricted to one pyramid level.
  [[nodiscard]] std::int64_t kept_in_level(const ModelConfig& m, int l) const;
  /// One keep byte (0 or 1) per token.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept { return bits_; }

 private:
  std::vector<std::uint8_t> bits_;
};

}  // namespace defa::prune
