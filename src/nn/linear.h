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

#include <cstdint>

#include "tensor/tensor.h"

namespace defa::nn {

/// C = A (MxK) * B (KxN).  Parallelized over rows of A; deterministic and
/// bit-identical across tiers and thread counts (see the file comment).
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// Y = X * W (+ bias broadcast over rows).  W is (K x N); bias is (N).
[[nodiscard]] Tensor linear(const Tensor& x, const Tensor& w, const Tensor* bias = nullptr);

namespace detail {

/// Rows the AVX2 tier computes together (one register tile is
/// kMatmulBlockRows x kMatmulBlockCols).
inline constexpr std::int64_t kMatmulBlockRows = 4;
/// Columns the AVX2 tier computes together.
inline constexpr std::int64_t kMatmulBlockCols = 16;

/// True when linear_avx2.cpp holds the real kernel rather than a stub.
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
