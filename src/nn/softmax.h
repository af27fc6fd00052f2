#pragma once

/// \file softmax.h
/// Numerically-stable softmax.  In MSDeformAttn the softmax normalizes the
/// N_l*N_p attention logits of each (query, head) pair (Eq. 1).

#include <span>

#include "tensor/tensor.h"

namespace defa::nn {

/// In-place stable softmax over a contiguous span.
void softmax_inplace(std::span<float> v);

/// Softmax over the last dimension of any rank>=1 tensor.
[[nodiscard]] Tensor softmax_lastdim(const Tensor& t);

/// softmax_lastdim(quant::fake_quantize(t, bits)), bit for bit, without
/// the fake-quantized intermediate: one spec is fitted over `t`, then each
/// row is fake-quantized as it is read and normalized in place.
[[nodiscard]] Tensor quantized_softmax_lastdim(const Tensor& t, int bits);

}  // namespace defa::nn
