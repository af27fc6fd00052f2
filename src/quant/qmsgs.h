#pragma once

/// \file qmsgs.h
/// Integer-domain MSGS datapath kernels — the bit-level golden model of the
/// reconfigurable PE array's BA mode (Sec. 4.3): Horner-form bilinear
/// interpolation on INTn value codes with fixed-point fractions, followed by
/// the aggregation multiply with a fixed-point attention probability.
///
/// The cycle-accurate simulator counts cycles for this exact computation;
/// the functional pipeline uses it to measure quantization error.  The
/// helpers are inline because every INTn gather loop calls them once or
/// twice per channel.

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace defa::quant {

/// Multiply an integer code by a Q0.`frac_bits` fraction and round to
/// nearest (ties toward +inf), in int64 so no width combination overflows.
[[nodiscard]] inline std::int32_t frac_mul(std::int64_t code, std::int64_t frac_q,
                                           int frac_bits) noexcept {
  const std::int64_t prod = code * frac_q;
  const std::int64_t half = std::int64_t{1} << (frac_bits - 1);
  return static_cast<std::int32_t>((prod + half) >> frac_bits);
}

/// Horner-form BI (Eq. 4) on integer codes.  `t0_q`/`t1_q` are fractions in
/// Q0.`frac_bits` fixed point (0 <= t < 1).  The result stays at the value
/// scale.  Matches a datapath with 3 multipliers and 7 adders: products are
/// truncated back to the value scale after each fraction multiply
/// (round-to-nearest, as a hardware rounder would).
[[nodiscard]] inline std::int32_t bi_horner_int(std::int32_t n0, std::int32_t n1,
                                                std::int32_t n2, std::int32_t n3,
                                                std::int32_t t0_q, std::int32_t t1_q,
                                                int frac_bits) noexcept {
  // S = N0 + (N2-N0)*t0 + [(N1-N0) + (N3-N2-N1+N0)*t0] * t1     (Eq. 4)
  const std::int32_t vertical = frac_mul(n2 - n0, t0_q, frac_bits);
  const std::int32_t cross = frac_mul(n3 - n2 - n1 + n0, t0_q, frac_bits);
  const std::int32_t horizontal = frac_mul((n1 - n0) + cross, t1_q, frac_bits);
  return n0 + vertical + horizontal;
}

/// Aggregation step: value code times Q0.`frac_bits` probability, rounded
/// back to the value scale.  Accumulation happens in int32 outside.
[[nodiscard]] inline std::int32_t ag_weight_int(std::int32_t value_code, std::int32_t prob_q,
                                                int frac_bits) noexcept {
  return frac_mul(value_code, prob_q, frac_bits);
}

/// Quantize a probability/fraction in [0,1] to Q0.`frac_bits` fixed point:
/// round(f * 2^frac_bits) with ties away from zero (std::llround's rule),
/// capped at 2^frac_bits - 1; NaN gives 0.  Inline rather than a libm call:
/// x = clamped * 2^frac_bits is exact in double, and for 0 <= x <= 2^30 so
/// is x + 0.5 whenever x >= 0.5 (x carries at most 24 significant bits),
/// while for x < 0.5 the sum stays below 1; truncating x + 0.5 is
/// therefore std::llround(x), bit for bit.
[[nodiscard]] inline std::int32_t to_fraction_code(float f, int frac_bits) noexcept {
  const float clamped = std::clamp(f, 0.0f, 1.0f);
  if (std::isnan(clamped)) return 0;
  const std::int64_t steps = std::int64_t{1} << frac_bits;
  const auto code =
      static_cast<std::int64_t>(static_cast<double>(clamped) * static_cast<double>(steps) + 0.5);
  return static_cast<std::int32_t>(std::min<std::int64_t>(code, steps - 1));
}

}  // namespace defa::quant
