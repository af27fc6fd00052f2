#include "nn/softmax.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "quant/fixed_point.h"

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

namespace {

/// Per element: an exp plus the max and scale passes, ~8 ns.
constexpr std::int64_t kSoftmaxWork = 8;

/// Softmax over the last dimension of `out`, in place, after
/// prepare(offset, span) has filled each run of rows (offset: the run's
/// first flat index).  Runs of ~kRunElements keep the prepared rows in L1
/// until they are normalized, and let `prepare` stream through several
/// rows rather than pay its latency once per short row.
template <typename Prepare>
void softmax_rows(Tensor& out, std::int64_t work_per_element, const Prepare& prepare) {
  constexpr std::int64_t kRunElements = 1024;
  DEFA_CHECK(out.rank() >= 1, "softmax needs rank >= 1");
  const std::int64_t cols = out.dim(out.rank() - 1);
  DEFA_CHECK(cols > 0, "softmax over empty dimension");
  const std::int64_t rows = out.numel() / cols;
  const std::int64_t run_rows = std::max<std::int64_t>(1, kRunElements / cols);
  std::span<float> data = out.data();
  parallel_for(0, rows, cols * work_per_element, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t r0 = begin; r0 < end; r0 += run_rows) {
      const std::int64_t r1 = std::min(end, r0 + run_rows);
      prepare(static_cast<std::size_t>(r0 * cols),
              data.subspan(static_cast<std::size_t>(r0 * cols),
                           static_cast<std::size_t>((r1 - r0) * cols)));
      for (std::int64_t r = r0; r < r1; ++r) {
        softmax_inplace(data.subspan(static_cast<std::size_t>(r * cols),
                                     static_cast<std::size_t>(cols)));
      }
    }
  });
}

}  // namespace

Tensor softmax_lastdim(const Tensor& t) {
  Tensor out = t;
  softmax_rows(out, kSoftmaxWork, [](std::size_t, std::span<float>) {});
  return out;
}

Tensor quantized_softmax_lastdim(const Tensor& t, int bits) {
  const quant::QuantSpec spec = quant::QuantSpec::fit(t.data(), bits);
  Tensor out(t.shape());
  std::span<const float> src = t.data();
  softmax_rows(out, kSoftmaxWork + quant::kQuantizeWork,
               [&](std::size_t offset, std::span<float> run) {
                 quant::fake_quantize_into(src.subspan(offset, run.size()), spec, run);
               });
  return out;
}

}  // namespace defa::nn
