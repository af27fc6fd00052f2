#pragma once

/// \file stats.h
/// Small online/offline summary statistics used throughout the models
/// (sampled-frequency distributions, error metrics, utilization averages).

#include <cmath>
#include <cstdint>
#include <span>

namespace defa {

/// Streaming accumulator for mean / variance / min / max (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;
  [[nodiscard]] std::int64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Root-mean-square error between two equally-sized spans.
[[nodiscard]] double rmse(std::span<const float> a, std::span<const float> b);

/// RMSE normalized by the RMS magnitude of the reference `a`
/// (dimensionless; 0 = identical).  Returns 0 when both are all-zero.
/// Both sums are fixed-block sums (common/parallel.h: kSumBlock), fanned
/// out over the blocks; the result does not depend on the thread count.
[[nodiscard]] double nrmse(std::span<const float> reference, std::span<const float> test);

/// The two sums of nrmse over one run of elements: the squared error and
/// the squared reference, each added serially in index order.
struct ErrorSums {
  double err = 0.0;
  double ref = 0.0;

  /// Add the elements of `reference` and `test` (equal sizes).
  void add(std::span<const float> reference, std::span<const float> test) noexcept;
};

/// nrmse from the fixed-block partials of its two sums, added in block
/// order.  nrmse(a, b) is nrmse_of_blocks over a's and b's kSumBlock
/// blocks; a pass that already walks the data in whole blocks can fill the
/// partials itself and get the same bits.
[[nodiscard]] double nrmse_of_blocks(std::span<const ErrorSums> blocks);

/// Maximum absolute elementwise difference.
[[nodiscard]] double max_abs_diff(std::span<const float> a, std::span<const float> b);

}  // namespace defa
