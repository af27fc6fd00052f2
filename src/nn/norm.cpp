#include "nn/norm.h"

#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace defa::nn {

void rms_norm_rows(Tensor& x, float eps) {
  DEFA_CHECK(x.rank() == 2, "rms_norm_rows expects rank-2");
  const std::int64_t n = x.dim(0), d = x.dim(1);
  DEFA_CHECK(d > 0, "empty rows");
  parallel_for(0, n, d, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      std::span<float> row = x.row(i);
      double ss = 0.0;
      for (float v : row) ss += static_cast<double>(v) * v;
      const float inv =
          1.0f / (std::sqrt(static_cast<float>(ss / static_cast<double>(d))) + eps);
      for (float& v : row) v *= inv;
    }
  });
}

}  // namespace defa::nn
