#include "common/stats.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"

namespace defa {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
}

double rmse(std::span<const float> a, std::span<const float> b) {
  DEFA_CHECK(a.size() == b.size(), "rmse: size mismatch");
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

void ErrorSums::add(std::span<const float> reference, std::span<const float> test) noexcept {
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double d = static_cast<double>(reference[i]) - static_cast<double>(test[i]);
    err += d * d;
    ref += static_cast<double>(reference[i]) * static_cast<double>(reference[i]);
  }
}

double nrmse_of_blocks(std::span<const ErrorSums> blocks) {
  double err = 0.0, ref = 0.0;
  for (const ErrorSums& b : blocks) {
    err += b.err;
    ref += b.ref;
  }
  if (ref == 0.0) return err == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return std::sqrt(err / ref);
}

double nrmse(std::span<const float> reference, std::span<const float> test) {
  DEFA_CHECK(reference.size() == test.size(), "nrmse: size mismatch");
  if (reference.empty()) return 0.0;
  // Fixed-block sums (common/parallel.h): serial within each block, the
  // partials added in block order, so the bits do not depend on threads.
  const auto n = static_cast<std::int64_t>(reference.size());
  std::vector<ErrorSums> part(static_cast<std::size_t>(sum_block_count(n)));
  for_each_sum_block(n, 2, [&](std::int64_t b, std::int64_t lo, std::int64_t hi) {
    const auto begin = static_cast<std::size_t>(lo);
    const auto len = static_cast<std::size_t>(hi - lo);
    part[static_cast<std::size_t>(b)].add(reference.subspan(begin, len),
                                          test.subspan(begin, len));
  });
  return nrmse_of_blocks(part);
}

double max_abs_diff(std::span<const float> a, std::span<const float> b) {
  DEFA_CHECK(a.size() == b.size(), "max_abs_diff: size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

}  // namespace defa
