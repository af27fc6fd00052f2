#pragma once

/// \file norm.h
/// Per-token RMS normalization.  The encoder pipeline applies it after each
/// residual (X <- rmsnorm(X + attn(X))) to keep token magnitudes stable
/// across blocks — the role LayerNorm plays in the real detectors (the
/// affine parameters are irrelevant to pruning/quantization behaviour, so a
/// parameter-free RMS norm is used; see DESIGN.md §5).

#include "tensor/tensor.h"

namespace defa::nn {

/// Normalize every row of a rank-2 tensor to unit RMS (with epsilon guard).
void rms_norm_rows(Tensor& x, float eps = 1e-6f);

/// x <- rms_norm_rows(x + residual): byte-identical to `x.add_(residual);
/// rms_norm_rows(x, eps)`, as one parallel row pass (each row is added,
/// then normalized, with the same per-row double chain).
void residual_rms_norm_rows(Tensor& x, const Tensor& residual, float eps = 1e-6f);

/// residual_rms_norm_rows(x, residual, eps) that also returns
/// nrmse(reference, residual), both bit for bit, from one pass over the
/// rows: the rows are chunked on whole kSumBlock blocks of elements
/// (common/parallel.h: block_aligned_chunks), so each block's error
/// partial is added in nrmse's order.
[[nodiscard]] double residual_rms_norm_rows_nrmse(Tensor& x, const Tensor& residual,
                                                  const Tensor& reference, float eps = 1e-6f);

}  // namespace defa::nn
