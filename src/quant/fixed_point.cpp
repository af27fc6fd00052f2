#include "quant/fixed_point.h"

#include <array>
#include <mutex>

#include "common/parallel.h"

namespace defa::quant {

namespace {

/// Run `fn(begin, end)` over disjoint element ranges of [0, n).
void for_elements(std::size_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  parallel_for(0, static_cast<std::int64_t>(n), kQuantizeWork, fn);
}

/// max(0, |data[lo]|, ..., |data[hi-1]|), skipping NaN like a std::max
/// chain does.  Eight independent lanes keep the loop off a single
/// dependency chain; max is order-free, so the lane split cannot change
/// the result.
float max_abs_range(std::span<const float> data, std::size_t lo, std::size_t hi) {
  constexpr std::size_t kLanes = 8;
  std::array<float, kLanes> lane{};
  std::size_t i = lo;
  for (; i + kLanes <= hi; i += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) lane[k] = std::max(lane[k], std::abs(data[i + k]));
  }
  for (; i < hi; ++i) lane[0] = std::max(lane[0], std::abs(data[i]));
  float m = 0.0f;
  for (float v : lane) m = std::max(m, v);
  return m;
}

}  // namespace

QuantSpec QuantSpec::fit(std::span<const float> data, int bits) {
  DEFA_CHECK(bits >= 2 && bits <= 16, "supported widths are 2..16 bits");
  float max_abs = 0.0f;
  std::mutex mu;
  for_elements(data.size(), [&](std::int64_t lo, std::int64_t hi) {
    const float chunk_max =
        max_abs_range(data, static_cast<std::size_t>(lo), static_cast<std::size_t>(hi));
    const std::lock_guard<std::mutex> lock(mu);
    max_abs = std::max(max_abs, chunk_max);
  });
  QuantSpec spec;
  spec.bits = bits;
  spec.scale = max_abs > 0.0f ? max_abs / static_cast<float>(spec.qmax()) : 1.0f;
  return spec;
}

QTensor::QTensor(const Tensor& t, int bits) : QTensor(t, QuantSpec::fit(t.data(), bits)) {}

QTensor::QTensor(const Tensor& t, const QuantSpec& spec) : shape_(t.shape()), spec_(spec) {
  codes_.resize(static_cast<std::size_t>(t.numel()));
  std::span<const float> src = t.data();
  for_elements(codes_.size(), [&](std::int64_t lo, std::int64_t hi) {
    for (auto i = static_cast<std::size_t>(lo); i < static_cast<std::size_t>(hi); ++i) {
      codes_[i] = static_cast<std::int16_t>(quantize_value(src[i], spec_));
    }
  });
}

Tensor QTensor::dequantize() const {
  Tensor t(shape_);
  std::span<float> dst = t.data();
  for_elements(codes_.size(), [&](std::int64_t lo, std::int64_t hi) {
    for (auto i = static_cast<std::size_t>(lo); i < static_cast<std::size_t>(hi); ++i) {
      dst[i] = dequantize_value(codes_[i], spec_);
    }
  });
  return t;
}

Tensor fake_quantize(const Tensor& t, int bits) {
  const QuantSpec spec = QuantSpec::fit(t.data(), bits);
  Tensor out(t.shape());
  std::span<const float> src = t.data();
  std::span<float> dst = out.data();
  for_elements(dst.size(), [&](std::int64_t lo, std::int64_t hi) {
    for (auto i = static_cast<std::size_t>(lo); i < static_cast<std::size_t>(hi); ++i) {
      dst[i] = dequantize_value(quantize_value(src[i], spec), spec);
    }
  });
  return out;
}

}  // namespace defa::quant
