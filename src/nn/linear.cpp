#include "nn/linear.h"

#include "common/check.h"
#include "common/parallel.h"

namespace defa::nn {

Tensor matmul(const Tensor& a, const Tensor& b) {
  DEFA_CHECK(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2 tensors");
  DEFA_CHECK(a.dim(1) == b.dim(0), "matmul inner dimension mismatch");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});

  std::span<const float> pa = a.data();
  std::span<const float> pb = b.data();
  std::span<float> pc = c.data();

  parallel_for(0, m, k * n, [&](std::int64_t row_begin, std::int64_t row_end) {
    for (std::int64_t i = row_begin; i < row_end; ++i) {
      float* crow = &pc[static_cast<std::size_t>(i * n)];
      const float* arow = &pa[static_cast<std::size_t>(i * k)];
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;  // pruned rows/columns short-circuit
        const float* brow = &pb[static_cast<std::size_t>(kk * n)];
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
  return c;
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor* bias) {
  Tensor y = matmul(x, w);
  if (bias != nullptr) {
    DEFA_CHECK(bias->rank() == 1 && bias->dim(0) == y.dim(1), "bias shape mismatch");
    const std::int64_t m = y.dim(0), n = y.dim(1);
    std::span<float> py = y.data();
    std::span<const float> pbias = bias->data();
    for (std::int64_t i = 0; i < m; ++i) {
      float* row = &py[static_cast<std::size_t>(i * n)];
      for (std::int64_t j = 0; j < n; ++j) row[j] += pbias[static_cast<std::size_t>(j)];
    }
  }
  return y;
}

}  // namespace defa::nn
