#include "nn/norm.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/stats.h"

namespace defa::nn {

namespace {

/// Scale `row`, whose sum of squares is `ss`, to unit RMS.
void scale_row(std::span<float> row, double ss, float eps) {
  const float inv =
      1.0f / (std::sqrt(static_cast<float>(ss / static_cast<double>(row.size()))) + eps);
  for (float& v : row) v *= inv;
}

/// `row` first added to by `add` (when given) and then normalized to unit
/// RMS, with one double chain for the sum of squares.
void norm_row(std::span<float> row, const float* add, float eps) {
  double ss = 0.0;
  if (add != nullptr) {
    for (std::size_t j = 0; j < row.size(); ++j) {
      const float v = row[j] + add[j];
      row[j] = v;
      ss += static_cast<double>(v) * v;
    }
  } else {
    for (float v : row) ss += static_cast<double>(v) * v;
  }
  scale_row(row, ss, eps);
}

/// Rows of `x`, each first added to by the same row of `residual` (when
/// given) and then normalized to unit RMS, in one parallel row pass.
void norm_rows(Tensor& x, const Tensor* residual, float eps) {
  DEFA_CHECK(x.rank() == 2, "rms_norm_rows expects rank-2");
  DEFA_CHECK(residual == nullptr || residual->shape() == x.shape(),
             "residual_rms_norm_rows: shape mismatch");
  const std::int64_t n = x.dim(0), d = x.dim(1);
  DEFA_CHECK(d > 0, "empty rows");
  parallel_for(0, n, d, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      norm_row(x.row(i), residual != nullptr ? residual->row(i).data() : nullptr, eps);
    }
  });
}

}  // namespace

void rms_norm_rows(Tensor& x, float eps) { norm_rows(x, nullptr, eps); }

void residual_rms_norm_rows(Tensor& x, const Tensor& residual, float eps) {
  norm_rows(x, &residual, eps);
}

double residual_rms_norm_rows_nrmse(Tensor& x, const Tensor& residual, const Tensor& reference,
                                   float eps) {
  DEFA_CHECK(x.rank() == 2 && residual.shape() == x.shape() && reference.shape() == x.shape(),
             "residual_rms_norm_rows_nrmse: shape mismatch");
  const std::int64_t n = x.dim(0), d = x.dim(1);
  DEFA_CHECK(d > 0, "empty rows");
  std::span<const float> res = residual.data();
  std::span<const float> ref = reference.data();
  // The error's fixed blocks (common/parallel.h) lie whole inside one
  // chunk, and each chunk adds its rows in order, so every block partial
  // is the serial one nrmse computes (ErrorSums::add's expressions, in its
  // order).  The row's sum of squares and the two error sums are three
  // independent double chains, interleaved in one loop.
  std::vector<ErrorSums> part(static_cast<std::size_t>(sum_block_count(n * d)));
  run_chunks(block_aligned_chunks(n, 3 * d, d), n,
             [&](std::int64_t, std::int64_t begin, std::int64_t end) {
               for (std::int64_t i = begin; i < end; ++i) {
                 float* row = x.row(i).data();
                 const float* add = res.data() + i * d;
                 const float* want = ref.data() + i * d;
                 double ss = 0.0;
                 for (std::int64_t lo = 0; lo < d;) {
                   const std::int64_t b = (i * d + lo) / kSumBlock;
                   const std::int64_t hi = std::min(d, (b + 1) * kSumBlock - i * d);
                   ErrorSums& e = part[static_cast<std::size_t>(b)];
                   double err = e.err, mag = e.ref;
                   for (std::int64_t j = lo; j < hi; ++j) {
                     const float v = row[j] + add[j];
                     row[j] = v;
                     ss += static_cast<double>(v) * v;
                     const double diff = static_cast<double>(want[j]) - static_cast<double>(add[j]);
                     err += diff * diff;
                     mag += static_cast<double>(want[j]) * static_cast<double>(want[j]);
                   }
                   e.err = err;
                   e.ref = mag;
                   lo = hi;
                 }
                 scale_row(std::span<float>(row, static_cast<std::size_t>(d)), ss, eps);
               }
             });
  return nrmse_of_blocks(part);
}

}  // namespace defa::nn
