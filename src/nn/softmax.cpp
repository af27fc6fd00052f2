#include "nn/softmax.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace defa::nn {

void softmax_inplace(std::span<float> v) {
  if (v.empty()) return;
  const float mx = *std::max_element(v.begin(), v.end());
  double sum = 0.0;
  for (float& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (float& x : v) x *= inv;
}

Tensor softmax_lastdim(const Tensor& t) {
  DEFA_CHECK(t.rank() >= 1, "softmax needs rank >= 1");
  Tensor out = t;
  const std::int64_t cols = t.dim(t.rank() - 1);
  DEFA_CHECK(cols > 0, "softmax over empty dimension");
  const std::int64_t rows = t.numel() / cols;
  std::span<float> data = out.data();
  // Per element: an exp plus the max and scale passes, ~8 ns.
  parallel_for(0, rows, cols * 8, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t r = begin; r < end; ++r) {
      softmax_inplace(data.subspan(static_cast<std::size_t>(r * cols),
                                   static_cast<std::size_t>(cols)));
    }
  });
  return out;
}

}  // namespace defa::nn
