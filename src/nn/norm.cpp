#include "nn/norm.h"

#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace defa::nn {

namespace {

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
      std::span<float> row = x.row(i);
      double ss = 0.0;
      if (residual != nullptr) {
        std::span<const float> add = residual->row(i);
        for (std::size_t j = 0; j < row.size(); ++j) {
          const float v = row[j] + add[j];
          row[j] = v;
          ss += static_cast<double>(v) * v;
        }
      } else {
        for (float v : row) ss += static_cast<double>(v) * v;
      }
      const float inv =
          1.0f / (std::sqrt(static_cast<float>(ss / static_cast<double>(d))) + eps);
      for (float& v : row) v *= inv;
    }
  });
}

}  // namespace

void rms_norm_rows(Tensor& x, float eps) { norm_rows(x, nullptr, eps); }

void residual_rms_norm_rows(Tensor& x, const Tensor& residual, float eps) {
  norm_rows(x, &residual, eps);
}

}  // namespace defa::nn
