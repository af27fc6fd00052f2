#include "quant/fixed_point.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/simd.h"

namespace defa::quant {

namespace {

/// Run `fn(begin, end)` over disjoint element ranges of [0, n).
void for_elements(std::size_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  parallel_for(0, static_cast<std::int64_t>(n), kQuantizeWork, fn);
}

/// max_abs over data[lo, hi).
float max_abs_range(std::span<const float> data, std::size_t lo, std::size_t hi) {
  return max_abs(data.subspan(lo, hi - lo));
}

/// Where the AVX2 tier stops on n elements: its leading n / 8 * 8, or 0
/// when it does not run.
std::size_t vector_end(std::size_t n) {
  constexpr auto kLanes = static_cast<std::size_t>(detail::kQuantizeLanes);
  return detail::use_quantize_avx2() ? n - n % kLanes : 0;
}

/// codes[i] = quantize_value(src[i], spec) for i in [0, n); returns the
/// largest |code|.
std::int32_t quantize_codes(const float* src, std::size_t n, const QuantSpec& spec,
                            std::int16_t* codes) {
  const std::size_t vec = vector_end(n);
  std::int32_t max_code =
      vec > 0 ? detail::quantize_avx2(src, static_cast<std::int64_t>(vec), spec.scale,
                                      spec.qmax(), codes)
              : 0;
  for (std::size_t i = vec; i < n; ++i) {
    const std::int32_t c = quantize_value(src[i], spec);
    codes[i] = static_cast<std::int16_t>(c);
    max_code = std::max(max_code, c < 0 ? -c : c);
  }
  return max_code;
}

}  // namespace

float max_abs(std::span<const float> data) noexcept {
  // Eight independent lanes keep the loop off a single dependency chain;
  // max is order-free, so the lane split cannot change the result.
  constexpr std::size_t kLanes = 8;
  std::array<float, kLanes> lane{};
  std::size_t i = 0;
  for (; i + kLanes <= data.size(); i += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) lane[k] = std::max(lane[k], std::abs(data[i + k]));
  }
  for (; i < data.size(); ++i) lane[0] = std::max(lane[0], std::abs(data[i]));
  float m = 0.0f;
  for (float v : lane) m = std::max(m, v);
  return m;
}

bool detail::use_quantize_avx2() {
  static const bool yes = quantize_avx2_compiled() && simd::cpu_supports(simd::Isa::kAvx2);
  return yes;
}

QuantSpec QuantSpec::fit(std::span<const float> data, int bits) {
  DEFA_CHECK(bits >= 2 && bits <= kMaxBits,
             "supported widths are 2.." + std::to_string(kMaxBits) + " bits");
  float max_abs = 0.0f;
  std::mutex mu;
  for_elements(data.size(), [&](std::int64_t lo, std::int64_t hi) {
    const float chunk_max =
        max_abs_range(data, static_cast<std::size_t>(lo), static_cast<std::size_t>(hi));
    const std::lock_guard<std::mutex> lock(mu);
    max_abs = std::max(max_abs, chunk_max);
  });
  return from_max_abs(max_abs, bits);
}

QuantSpec QuantSpec::from_max_abs(float max_abs, int bits) {
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
    const auto begin = static_cast<std::size_t>(lo);
    (void)quantize_codes(src.data() + begin, static_cast<std::size_t>(hi - lo), spec_,
                         codes_.data() + begin);
  });
}

QTensor::QTensor(std::vector<std::int64_t> shape, std::vector<std::int16_t> codes,
                 const QuantSpec& spec)
    : codes_(std::move(codes)), shape_(std::move(shape)), spec_(spec) {
  std::int64_t numel = 1;
  for (const std::int64_t d : shape_) numel *= d;
  DEFA_CHECK(numel == this->numel(), "QTensor: one code per element");
}

Tensor QTensor::dequantize() const {
  Tensor t(shape_);
  std::span<float> dst = t.data();
  for_elements(codes_.size(), [&](std::int64_t lo, std::int64_t hi) {
    const auto begin = static_cast<std::size_t>(lo);
    const auto end = static_cast<std::size_t>(hi);
    const std::size_t vec = begin + vector_end(end - begin);
    if (vec > begin) {
      detail::dequantize_avx2(codes_.data() + begin, static_cast<std::int64_t>(vec - begin),
                              spec_.scale, dst.data() + begin);
    }
    for (std::size_t i = vec; i < end; ++i) dst[i] = dequantize_value(codes_[i], spec_);
  });
  return t;
}

void fake_quantize_into(std::span<const float> src, const QuantSpec& spec,
                        std::span<float> dst) {
  DEFA_DCHECK(src.size() == dst.size(), "fake_quantize_into sizes");
  const std::size_t vec = vector_end(src.size());
  if (vec > 0) {
    detail::fake_quantize_avx2(src.data(), static_cast<std::int64_t>(vec), spec.scale,
                               spec.qmax(), dst.data());
  }
  for (std::size_t i = vec; i < src.size(); ++i) {
    dst[i] = dequantize_value(quantize_value(src[i], spec), spec);
  }
}

Tensor fake_quantize(const Tensor& t, int bits) {
  const QuantSpec spec = QuantSpec::fit(t.data(), bits);
  Tensor out(t.shape());
  std::span<const float> src = t.data();
  std::span<float> dst = out.data();
  for_elements(dst.size(), [&](std::int64_t lo, std::int64_t hi) {
    const auto begin = static_cast<std::size_t>(lo);
    const auto count = static_cast<std::size_t>(hi - lo);
    fake_quantize_into(src.subspan(begin, count), spec, dst.subspan(begin, count));
  });
  return out;
}

QTensor quantize_rows(const Tensor& t, int bits, std::span<const std::uint8_t> keep_rows) {
  DEFA_CHECK(t.rank() == 2, "quantize_rows expects a rank-2 tensor");
  DEFA_CHECK(bits >= 2 && bits <= kMaxBits,
             "supported widths are 2.." + std::to_string(kMaxBits) + " bits");
  const std::int64_t rows = t.dim(0);
  const std::int64_t cols = t.dim(1);
  DEFA_CHECK(keep_rows.empty() || static_cast<std::int64_t>(keep_rows.size()) == rows,
             "quantize_rows: one keep flag per row");
  const auto kept = [&](std::int64_t r) {
    return keep_rows.empty() || keep_rows[static_cast<std::size_t>(r)] != 0;
  };
  const std::span<const float> src = t.data();
  const auto row_start = [&](std::int64_t r) { return static_cast<std::size_t>(r * cols); };

  // The fit over the kept rows: a max, so the chunks merge in any order.
  float max_abs = 0.0f;
  std::mutex mu;
  parallel_for(0, rows, cols, [&](std::int64_t r0, std::int64_t r1) {
    float chunk_max = 0.0f;
    for (std::int64_t r = r0; r < r1; ++r) {
      if (kept(r)) {
        chunk_max = std::max(chunk_max, max_abs_range(src, row_start(r), row_start(r + 1)));
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    max_abs = std::max(max_abs, chunk_max);
  });
  const QuantSpec spec = QuantSpec::from_max_abs(max_abs, bits);

  std::vector<std::int16_t> codes(static_cast<std::size_t>(t.numel()));
  parallel_for(0, rows, cols * kQuantizeWork, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      if (kept(r)) {
        (void)quantize_codes(src.data() + row_start(r), static_cast<std::size_t>(cols), spec,
                             codes.data() + row_start(r));
      }
    }
  });
  return QTensor(t.shape(), std::move(codes), spec);
}

}  // namespace defa::quant
