#pragma once

/// \file fixed_point.h
/// Symmetric per-tensor fixed-point quantization.  The paper quantizes the
/// MSDeformAttn modules to INT12 (Sec. 5.1.1) and reports that INT8 loses
/// 9.7 AP on average; both widths are supported so the ablation can be
/// reproduced.
///
/// Every whole-tensor operation here (fit, QTensor construction and
/// dequantization, fake_quantize) runs as one `parallel_for` over elements
/// at kQuantizeWork per element (quantize_rows: over rows), so under
/// parallel_for's work-sized rule tensors below
/// kMinParallelWork / kQuantizeWork elements stay inline.  Results are
/// bit-identical at any thread count: elements are independent, and the
/// one reduction (the max-abs of a fit) is a max, which is order-free.
///
/// Two tiers, picked at runtime.  The AVX2 tier (fixed_point_avx2.cpp,
/// compiled with -mavx2 under the `DEFA_KERNELS_SIMD` CMake option and
/// taken when the CPU reports AVX2) runs `quantize_value` and
/// `dequantize_value` eight lanes wide, with the same steps in the same
/// order: divide by the scale, clamp to +-qmax with max/min, truncate,
/// take the exact remainder, round half away from zero with compare
/// masks, map NaN to code 0; dequantization is an int-to-float convert
/// then one multiply (never an FMA).  Every step is an exactly-rounded
/// IEEE operation on the same operands, so each lane equals the scalar
/// chain bit for bit.  Leftover elements (fewer than eight) run the
/// scalar chain itself.  The same tier carries the two fused passes over
/// the sampling points (prune::quantize_and_clamp) and, through
/// fake_quantize_into, the fake-quantized softmax
/// (nn::quantized_softmax_lastdim); new vector code here must keep the
/// rule: same operations, same order, no FMA, no reassociation.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "tensor/tensor.h"

namespace defa::quant {

/// parallel_for work estimate of quantizing (or dequantizing) one element:
/// a divide, a clamp and a rounding, ~2-3 ns.
inline constexpr std::int64_t kQuantizeWork = 2;

/// Widest supported quantization: codes are stored as int16.
inline constexpr int kMaxBits = 16;

/// Quantization parameters: value = code * scale, codes in
/// [-(2^(bits-1)-1), 2^(bits-1)-1] (symmetric, no negative-extreme code).
struct QuantSpec {
  int bits = 12;
  float scale = 1.0f;

  [[nodiscard]] std::int32_t qmax() const noexcept { return (1 << (bits - 1)) - 1; }
  [[nodiscard]] std::int32_t qmin() const noexcept { return -qmax(); }

  /// Spec covering the absolute maximum of `data` with the given width.
  [[nodiscard]] static QuantSpec fit(std::span<const float> data, int bits);
  /// The spec `fit` returns for data whose NaN-skipping max-abs is
  /// `max_abs`: scale max_abs / qmax, or 1 when max_abs is 0.
  [[nodiscard]] static QuantSpec from_max_abs(float max_abs, int bits);
};

/// max(0, |data[0]|, |data[1]|, ...), skipping NaN like a std::max chain
/// does, on the calling thread: the max-abs QuantSpec::fit takes.  A max
/// is order-free, so the max of the maxima of any split of `data` is the
/// same float.
[[nodiscard]] float max_abs(std::span<const float> data) noexcept;

/// Quantize a single value: round to nearest with ties away from zero
/// (std::lround's rule), saturating to [qmin, qmax] for any input
/// including +-inf; NaN maps to 0.
[[nodiscard]] inline std::int32_t quantize_value(float v, const QuantSpec& spec) noexcept {
  const float scaled = v / spec.scale;
  if (std::isnan(scaled)) return 0;
  // Saturate before converting: |scaled| >= 2^31 does not fit an int32
  // and would wrap to the wrong sign.
  const float limit = static_cast<float>(spec.qmax());
  const float clamped = std::clamp(scaled, -limit, limit);
  // Inline lround: truncation toward zero is exact here, and so is the
  // remainder (it keeps clamped's low mantissa bits).
  const auto whole = static_cast<std::int32_t>(clamped);
  const float frac = clamped - static_cast<float>(whole);
  return whole + (frac >= 0.5f ? 1 : 0) - (frac <= -0.5f ? 1 : 0);
}
[[nodiscard]] inline float dequantize_value(std::int32_t code, const QuantSpec& spec) noexcept {
  return static_cast<float>(code) * spec.scale;
}

/// Quantized tensor: int16 codes (INT12/INT8 both fit) + the shared spec.
class QTensor {
 public:
  QTensor() = default;
  /// Quantize `t` with a freshly-fitted per-tensor spec.
  QTensor(const Tensor& t, int bits);
  /// Quantize `t` with an externally-chosen spec (e.g. shared across layers).
  QTensor(const Tensor& t, const QuantSpec& spec);
  /// Adopt codes computed elsewhere (each within +-spec.qmax()), row-major
  /// in `shape`.
  QTensor(std::vector<std::int64_t> shape, std::vector<std::int16_t> codes,
          const QuantSpec& spec);

  [[nodiscard]] const QuantSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::vector<std::int64_t>& shape() const noexcept { return shape_; }
  [[nodiscard]] std::int64_t numel() const noexcept {
    return static_cast<std::int64_t>(codes_.size());
  }
  [[nodiscard]] std::int16_t code(std::int64_t i) const {
    DEFA_DCHECK(i >= 0 && i < numel(), "code index");
    return codes_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] float value(std::int64_t i) const {
    return dequantize_value(code(i), spec_);
  }
  [[nodiscard]] std::span<const std::int16_t> codes() const noexcept { return codes_; }

  /// Dequantize the whole tensor back to fp32 (round-trip helper).
  [[nodiscard]] Tensor dequantize() const;

 private:
  std::vector<std::int16_t> codes_;
  std::vector<std::int64_t> shape_;
  QuantSpec spec_;
};

/// Round-trip quantization error helper: dequant(quant(t)).
[[nodiscard]] Tensor fake_quantize(const Tensor& t, int bits);

/// dst[i] = dequantize_value(quantize_value(src[i], spec), spec) for every
/// i, on the calling thread (src and dst have equal sizes and may alias).
void fake_quantize_into(std::span<const float> src, const QuantSpec& spec,
                        std::span<float> dst);

/// The rows of `t` (rows x cols) with `keep_rows[r] != 0` (empty: every
/// row) quantized to `bits` with the spec QuantSpec::fit returns over
/// those rows alone.  The other rows get code 0 and are never read, so
/// their contents (NaN, inf or anything else) cannot change a byte of the
/// result.  This is the activation operand of the INTn value projection
/// (nn::int_matmul), whose FWP-pruned rows the hardware never projects.
[[nodiscard]] QTensor quantize_rows(const Tensor& t, int bits,
                                    std::span<const std::uint8_t> keep_rows = {});

/// Quantize a fraction in [0, 1) to `bits`-bit fixed point (used for the
/// BI fractions t0/t1 in the hardware datapath).
[[nodiscard]] inline float quantize_fraction(float f, int bits) noexcept {
  const float steps = static_cast<float>(1 << bits);
  float q = static_cast<float>(static_cast<std::int64_t>(f * steps + 0.5f)) / steps;
  return q > 1.0f ? 1.0f : q;
}

namespace detail {

/// Elements the AVX2 tier processes together.
inline constexpr std::int64_t kQuantizeLanes = 8;

/// True when fixed_point_avx2.cpp holds the real kernels rather than
/// stubs.
[[nodiscard]] bool quantize_avx2_compiled() noexcept;
/// True when the AVX2 tier runs here: compiled in, and the CPU (probed
/// once) supports AVX2.
[[nodiscard]] bool use_quantize_avx2();

// The element kernels process the leading n / 8 * 8 elements; the caller
// runs the scalar chain on the rest.  Call them only when
// quantize_avx2_compiled() and the CPU supports AVX2.

/// codes[i] = quantize_value(src[i], {., scale}) with qmax `qmax`; returns
/// the largest |code| written (0 when none).
std::int32_t quantize_avx2(const float* src, std::int64_t n, float scale, std::int32_t qmax,
                           std::int16_t* codes);
/// dst[i] = dequantize_value(codes[i], {., scale}).
void dequantize_avx2(const std::int16_t* codes, std::int64_t n, float scale, float* dst);
/// dst[i] = dequantize_value(quantize_value(src[i], spec), spec).
void fake_quantize_avx2(const float* src, std::int64_t n, float scale, std::int32_t qmax,
                        float* dst);

/// Most pyramid levels the AVX2 offset kernels take.
inline constexpr std::int64_t kMaxGridLevels = 8;

/// The sampling-point geometry the AVX2 offset kernels walk: a
/// (n, heads, levels, points, 2) tensor of locations, x and y interleaved,
/// whose level-l points belong to the reference center
/// (rx * level_w[l] - 0.5, ry * level_h[l] - 0.5) of their query.  The
/// kernels process the leading (2 * points) / 8 * 8 floats of every
/// (query, head, level) group; the caller runs the scalar chain on the
/// rest of each group.
struct PointGrid {
  const float* ref_norm = nullptr;  ///< (n, 2) normalized reference points
  const float* level_w = nullptr;   ///< per level: width
  const float* level_h = nullptr;   ///< per level: height
  const float* radius = nullptr;    ///< per level: clamp radius; nullptr: no clamp
  std::int64_t heads = 0;
  std::int64_t levels = 0;  ///< at most kMaxGridLevels
  std::int64_t points = 0;
};

/// Queries [q0, q1): the NaN-skipping max |locs[i] - center| (0 when
/// there is none).
float offsets_max_abs_avx2(const PointGrid& g, const float* locs, std::int64_t q0,
                           std::int64_t q1);
/// Queries [q0, q1): out[i] = center + dequantize(quantize(locs[i] - center))
/// and, with g.radius, that location clamped as prune::clamp_to_range
/// does, adding each level's clamped points to level_clamped[l] and
/// raising *max_excess to the largest clamp distance.
void requantize_points_avx2(const PointGrid& g, float scale, std::int32_t qmax,
                            const float* locs, float* out, std::int64_t q0, std::int64_t q1,
                            std::int64_t* level_clamped, float* max_excess);

}  // namespace detail

}  // namespace defa::quant
