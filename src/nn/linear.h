#pragma once

/// \file linear.h
/// Dense linear algebra for the functional MSDeformAttn model.
///
/// `matmul` has two tiers, picked at runtime: a register-blocked AVX2
/// kernel (linear_avx2.cpp, compiled with -mavx2 when the
/// `DEFA_KERNELS_SIMD` CMake option is on, taken only when the CPU
/// reports AVX2) and the portable serial i-k-j loop, which also handles
/// the AVX2 tier's leftover rows and columns.  Both tiers are
/// bit-identical.  Every output element c_ij runs the same operation
/// chain: start from +0, then `c = c + (a_ik * b_kj)` for increasing k,
/// as a separate multiply and add (never an FMA), skipping the term
/// whenever `a_ik == 0`.  The skip is observable: `0 * inf` would be a
/// NaN, and a sum of -0 terms keeps its sign.  Vectorizing across
/// columns is safe; reassociating across k is not.
///
/// `int_matmul` is the INTn value projection ("MM mode" of the DEFA PE
/// array): int16 codes times int16 codes, summed exactly in integers over
/// the FWP-kept rows only, then requantized in integer arithmetic.  Its
/// accumulation has three tiers.  While k * qmax_a * qmax_b < 2^31 every
/// partial sum fits an int32: an AVX2 `vpmaddwd` tier (linear_avx2.cpp,
/// 4 rows x 16 columns per register tile) and the portable i-k-j loop
/// share that route.  Otherwise (INT16 from k = 3, INT12 from k = 513) a
/// scalar int64 loop runs; the route is a property of the operands, not a
/// knob.
/// Integer sums are order-free, so every tier, chunking and thread count
/// gives the same bytes.

#include <cstdint>
#include <span>
#include <vector>

#include "quant/fixed_point.h"
#include "tensor/tensor.h"

namespace defa::nn {

/// C = A (MxK) * B (KxN).  Parallelized over rows of A; deterministic and
/// bit-identical across tiers and thread counts (see the file comment).
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// Y = X * W (+ bias broadcast over rows).  W is (K x N); bias is (N).
[[nodiscard]] Tensor linear(const Tensor& x, const Tensor& w, const Tensor* bias = nullptr);

/// The INTn projection of the rows of `x` (m x k codes) with
/// `keep_rows[r] != 0` (empty: every row) by `w` (k x n codes, the same
/// width): acc = x_r . w exactly, then, with M the largest kept |acc|,
///   code  = round-half-away(acc * qmax / M)   (exact integer arithmetic)
///   scale = M * s_x * s_w / qmax              (1 when M = 0)
/// which is the scale QuantSpec::fit would give the real products
/// acc * s_x * s_w, and their codes rounded without a float step.  Pruned
/// rows are never read and get code 0.
[[nodiscard]] quant::QTensor int_matmul(const quant::QTensor& x, const quant::QTensor& w,
                                        std::span<const std::uint8_t> keep_rows = {});

namespace detail {

/// True when k products of codes bounded by qmax_a and qmax_b, and every
/// partial sum of them, fit an int32: k * qmax_a * qmax_b < 2^31.
[[nodiscard]] constexpr bool int32_sums_exact(std::int64_t k, std::int32_t qmax_a,
                                              std::int32_t qmax_b) noexcept {
  return k * qmax_a * qmax_b < (std::int64_t{1} << 31);
}

/// Exact round-half-away(acc * qmax / max_acc) for |acc| <= max_acc, with
/// no divide per element.  For |acc| = a the code's magnitude is
///   floor(num / d),  num = 4 a qmax + 2 max_acc,  d = 4 max_acc
/// (the half-away rounding of a qmax / max_acc, with both terms doubled
/// so that d >= 4).  For every num < 2^62 that floor is
/// (num * magic) >> (62 + l) with l = ceil(log2 d) and
/// magic = ceil(2^(62 + l) / d) < 2^64: Granlund and Montgomery,
/// "Division by invariant integers using multiplication" (1994), Thm 4.2.
/// Since l >= 2, that is the high word of one 64 x 64-bit product shifted
/// right by l - 2.
class Requantizer {
 public:
  /// max_acc >= 1, qmax >= 1 and max_acc * (4 qmax + 2) < 2^62, which
  /// bounds num.
  Requantizer(std::int64_t max_acc, std::int32_t qmax);

  [[nodiscard]] std::int16_t operator()(std::int64_t acc) const noexcept {
    // Branch-free sign handling: the signs of neighbouring accumulators
    // are as good as random.  sign is 0 or all ones; (v ^ sign) - sign
    // negates v exactly when acc < 0.
    const std::uint64_t sign = acc < 0 ? ~std::uint64_t{0} : 0;
    const std::uint64_t mag = (static_cast<std::uint64_t>(acc) ^ sign) - sign;
    __extension__ using U128 = unsigned __int128;
    const std::uint64_t num = 4 * mag * qmax_ + 2 * max_acc_;
    const auto high = static_cast<std::uint64_t>((static_cast<U128>(num) * magic_) >> 64);
    return static_cast<std::int16_t>(((high >> shift_) ^ sign) - sign);
  }

 private:
  std::uint64_t max_acc_;
  std::uint64_t qmax_;
  std::uint64_t magic_;
  int shift_;
};

/// Rows a register tile of the AVX2 integer tier covers.
inline constexpr std::int64_t kIntTileRows = 4;
/// Columns a register tile of the AVX2 integer tier covers.
inline constexpr std::int64_t kIntTileCols = 16;

/// B's leading n / 16 * 16 columns as the panels int_matmul_avx2 reads:
/// panel j (columns 16j .. 16j+15) holds, for each pair p of k (the last
/// pair zero-padded when k is odd), the 16 column pairs
/// (b[2p][c], b[2p+1][c]) as 32 int16 values.
[[nodiscard]] std::vector<std::int16_t> pack_int_panels(const std::int16_t* b, std::int64_t k,
                                                        std::int64_t n);

// The integer kernels: for t in [t0, t1) and columns [j0, j1),
// acc[t * n + j] = sum_kk a[rows[t] * k + kk] * b[kk * n + j], exactly;
// each returns the largest |acc| it wrote (0 when none).

/// Portable int32 tier; only for int32_sums_exact operands.
std::int32_t int_matmul_int32(const std::int16_t* a, const std::int64_t* rows, std::int64_t t0,
                              std::int64_t t1, const std::int16_t* b, std::int64_t k,
                              std::int64_t n, std::int64_t j0, std::int64_t j1,
                              std::int32_t* acc);
/// Portable int64 tier, exact for any operands with k < 2^32.
std::int64_t int_matmul_int64(const std::int16_t* a, const std::int64_t* rows, std::int64_t t0,
                              std::int64_t t1, const std::int16_t* b, std::int64_t k,
                              std::int64_t n, std::int64_t j0, std::int64_t j1,
                              std::int64_t* acc);
/// codes[i] = Requantizer(max_acc, qmax)(acc[i]) for the leading
/// count / 8 * 8 of the int32 accumulators, 8 lanes at a time in double
/// arithmetic.  With num and d as in Requantizer, num < 2^49 and
/// d < 2^33 here, so every integer below is exact.  num * (1 / d) errs
/// from num / d by at most q * 2^-52 with q <= qmax + 1 <= 2^15, which is
/// below 1 / d.  A quotient with remainder r >= 1 sits at least 1 / d
/// from both integers around it, so its floor is right; only an exact
/// quotient (r = 0) can come out one low.  r = num - floor(...) * d
/// (exact) is then d, and adding 1 where r >= d corrects it.  Only when
/// matmul_avx2_compiled() and the CPU supports AVX2.
void requantize_avx2(const std::int32_t* acc, std::int64_t count, std::int32_t max_acc,
                     std::int32_t qmax, std::int16_t* codes);

/// AVX2 tier over columns [0, n / 16 * 16), B given as pack_int_panels;
/// t1 - t0 must be a multiple of kIntTileRows.  Only for int32_sums_exact
/// operands, and only when matmul_avx2_compiled() and the CPU supports
/// AVX2.
std::int32_t int_matmul_avx2(const std::int16_t* a, const std::int64_t* rows, std::int64_t t0,
                             std::int64_t t1, const std::int16_t* panels, std::int64_t k,
                             std::int64_t n, std::int32_t* acc);


/// Rows the AVX2 tier computes together (one register tile is
/// kMatmulBlockRows x kMatmulBlockCols).
inline constexpr std::int64_t kMatmulBlockRows = 4;
/// Columns the AVX2 tier computes together.
inline constexpr std::int64_t kMatmulBlockCols = 16;

/// True when linear_avx2.cpp holds the real kernels (float and integer)
/// rather than stubs.
[[nodiscard]] bool matmul_avx2_compiled() noexcept;

/// AVX2 tier: rows [row_begin, row_end) x columns [0, n / 16 * 16) of
/// C = A * B, with A (. x k) and C (. x n) row-major and C zeroed.  B comes
/// as `panels`: its leading n / 16 * 16 columns packed into n / 16
/// contiguous row-major (k x 16) panels.  `row_end - row_begin` must be a
/// multiple of kMatmulBlockRows.  `stops` is scratch for k + 1 entries,
/// owned by the caller so that the -mavx2 file instantiates no library
/// templates the rest of the binary could link to.  Call only when
/// matmul_avx2_compiled() and the CPU supports AVX2.
void matmul_blocks_avx2(const float* a, const float* panels, float* c, std::int64_t k,
                        std::int64_t n, std::int64_t row_begin, std::int64_t row_end,
                        std::int64_t* stops);

}  // namespace detail

}  // namespace defa::nn
