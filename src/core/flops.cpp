#include "core/flops.h"

namespace defa::core {

FlopCount& FlopCount::operator+=(const FlopCount& o) noexcept {
  attn_proj += o.attn_proj;
  offset_proj += o.offset_proj;
  value_proj += o.value_proj;
  softmax += o.softmax;
  msgs_bi += o.msgs_bi;
  aggregation += o.aggregation;
  return *this;
}

FlopCount pruned_flops(const ModelConfig& m, std::int64_t kept_points,
                       std::int64_t kept_pixels) {
  const double n = static_cast<double>(m.n_in());
  const double d = static_cast<double>(m.d_model);
  const double dh = static_cast<double>(m.d_head());
  const double hlp = static_cast<double>(m.n_heads) * m.points_per_head();
  const double pts = static_cast<double>(kept_points);
  const double pix = static_cast<double>(kept_pixels);

  FlopCount f;
  // Attention logits are always computed densely: PAP needs the full
  // softmax output before it can prune anything.
  f.attn_proj = 2.0 * n * d * hlp;
  // Each surviving point needs its (x, y) offset pair: 2 columns of W_S.
  f.offset_proj = 2.0 * pts * d * 2.0;
  // Each surviving pixel is projected through the D x D value matrix.
  f.value_proj = 2.0 * pix * d * d;
  f.softmax = 5.0 * n * hlp;
  // Direct-form BI: 4 MACs per channel per surviving point.
  f.msgs_bi = 2.0 * pts * dh * 4.0;
  // Aggregation: 1 MAC per channel per surviving point.
  f.aggregation = 2.0 * pts * dh;
  return f;
}

FlopCount dense_flops(const ModelConfig& m) {
  const std::int64_t all_points = m.n_in() * m.points_per_query();
  return pruned_flops(m, all_points, m.n_in());
}

}  // namespace defa::core
