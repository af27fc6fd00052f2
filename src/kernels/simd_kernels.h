#pragma once

/// \file simd_kernels.h
/// Internal interface between the `simd` backend and its per-ISA kernel
/// translation units, plus the `reference` backend's INTn AVX2 tier.  Not
/// part of the public kernels API.
///
/// Each ISA tier implements the same two entry points — the fp32 and the
/// INTn fused MSGS + aggregation loops over a `SamplingPlan` — against the
/// flat argument views below.  The AVX2 tier lives in its own TU
/// (simd_avx2.cpp) so it can be compiled with `-mavx2` without raising the
/// ISA floor of the rest of the binary; whether that TU contains real
/// kernels or stubs is reported by `*_compiled()` and decided by the
/// `DEFA_KERNELS_SIMD` CMake knob.  The scalar tier (simd_backend.cpp) is
/// the always-available portable fallback and the semantic model the
/// vector tiers must match bit-for-bit.
///
/// Bit-exactness rule for implementers: every lane must execute exactly
/// the scalar operation chain — `nn::bi_horner` for fp32,
/// `quant::bi_horner_int` / `quant::ag_weight_int` for INTn — on the same
/// operands in the same order.  Elementwise vector mul/add are IEEE-754
/// identical to their scalar forms, so vectorizing across *channels* is
/// safe; reassociating across *points* is not.

#include <cstdint>
#include <string>

#include "common/simd.h"
#include "config/model_config.h"
#include "kernels/reference_int.h"
#include "prune/masks.h"

namespace defa::kernels {

class SamplingPlan;

namespace simd_detail {

/// Flat argument view of one fp32 fused MSGS + aggregation call.
struct Fp32Args {
  const ModelConfig* m = nullptr;
  const float* values = nullptr;        ///< (N_in x D) row-major
  const float* probs = nullptr;         ///< (N, H, L*P) row-major
  const SamplingPlan* plan = nullptr;   ///< matches `m`, built from the locs
  const prune::PointMask* mask = nullptr;  ///< nullable
  float* out = nullptr;                 ///< (N, D), zero-initialized
};

/// Flat argument view of one INTn fused MSGS + aggregation call.  The
/// caller quantizes values once (QTensor) and passes the code buffer.
struct QuantArgs {
  const ModelConfig* m = nullptr;
  const std::int16_t* codes = nullptr;  ///< INTn value codes, (N_in x D)
  const float* probs = nullptr;
  const SamplingPlan* plan = nullptr;
  const prune::PointMask* mask = nullptr;
  float* out = nullptr;
  float out_scale = 1.0f;               ///< value-code scale for the output
  int frac_bits = 12;                   ///< t0/t1 and probability width
};

// ---- scalar tier (simd_backend.cpp; always compiled) ----------------------
void run_fp32_scalar(const Fp32Args& a);
void run_quant_scalar(const QuantArgs& a);

// ---- AVX2 tier (simd_avx2.cpp; real iff avx2_compiled()) ------------------
[[nodiscard]] bool avx2_compiled() noexcept;
void run_fp32_avx2(const Fp32Args& a);
void run_quant_avx2(const QuantArgs& a);

// ---- NEON tier (simd_neon.cpp; real iff neon_compiled()) ------------------
[[nodiscard]] bool neon_compiled() noexcept;
void run_fp32_neon(const Fp32Args& a);
void run_quant_neon(const QuantArgs& a);

// ---- level-scoped entry points (the `quill` backend's inner loops) --------
//
// One call processes every query's points of a *single* level, visiting
// queries in the order of the `order` permutation (n_in entries).  The
// fp32 form resumes each (query, head) accumulator chain by loading the
// current partial from the output row and storing it back after the
// level's points — fp32 load/store round-trips bits, so running levels
// 0..L-1 sequentially reproduces the one-pass chain exactly.  The INTn
// form accumulates into a caller-owned (N_in x D) int32 scratch `acc`
// (int32 partials do NOT round-trip through float); the caller converts
// once, in fixed query order, after the last level.  Within one level the
// permutation touches disjoint queries, so parallelizing over `order`
// positions is race-free.

void run_fp32_level_scalar(const Fp32Args& a, int level, const std::int32_t* order);
void run_quant_level_scalar(const QuantArgs& a, int level, const std::int32_t* order,
                            std::int32_t* acc);
void run_fp32_level_avx2(const Fp32Args& a, int level, const std::int32_t* order);
void run_quant_level_avx2(const QuantArgs& a, int level, const std::int32_t* order,
                          std::int32_t* acc);
void run_fp32_level_neon(const Fp32Args& a, int level, const std::int32_t* order);
void run_quant_level_neon(const QuantArgs& a, int level, const std::int32_t* order,
                          std::int32_t* acc);

// ---- the `reference` backend's INTn AVX2 tier (reference_avx2.cpp) -------
//
// The reference INTn loop over one query range (kernels/reference_int.h)
// with its channel loop vectorized and everything else unchanged: no
// plan, `nn::bi_locate` and the neighbor bounds checks inline per point.
// Bit-identical to the scalar loop under kMaxVectorQuantBits, so it does
// not read DEFA_SIMD; channels past the last full 8-lane block run the
// scalar chain.

[[nodiscard]] bool reference_avx2_compiled() noexcept;
void run_reference_quant_avx2(const IntGatherRange& a);

/// Outcome of the three-layer tier dispatch (DEFA_SIMD request x build x
/// CPU) shared by the `simd` and `quill` backends.
struct TierResolution {
  simd::Isa isa = simd::Isa::kScalar;
  std::string reason;  ///< nonempty => the vector backends are unavailable
};

[[nodiscard]] TierResolution resolve_tier();

/// Largest `act_bits + frac_bits` for which the vectorized INTn path's
/// int32 intermediates provably cannot overflow (|bi| <= 9*2^(act_bits-1),
/// times a Q0.frac probability plus the rounding half must stay under
/// 2^31).  Wider configurations fall back to the scalar tier, which does
/// its fraction multiplies in int64 like the reference backend.
inline constexpr int kMaxVectorQuantBits = 28;

}  // namespace simd_detail
}  // namespace defa::kernels
