#pragma once

/// \file backend.h
/// `defa::kernels::Backend` — the pluggable compute-backend seam of the
/// functional model.
///
/// A backend implements the numeric hot path: dense linear/GEMM, softmax,
/// and the fused mask-aware MSGS + aggregation kernel.  Every layer above
/// (nn::msdeform_forward_ref, core::run_msgs, core::EncoderPipeline,
/// api::Engine and the serve/tools surfaces on top) selects a backend *by
/// name* through the runtime registry below, so swapping implementations —
/// or adding new ones (threaded-tile, INTn fast paths, GPU offload) —
/// never touches the callers.
///
/// Five backends ship built in:
///  * `reference` — bit-identical to the historical scalar code paths
///    (nn::matmul/linear/softmax_lastdim and the pre-refactor core/msgs
///    loops).  The correctness anchor.  Its INTn loop has an AVX2 tier
///    (reference_avx2.cpp), bit-identical to the scalar loop, taken
///    whenever the build and the CPU have AVX2.
///  * `fused` — the optimized CPU path: consumes a precomputed
///    `SamplingPlan` (level-major SoA bilinear corners + resolved
///    value-buffer offsets), skips PAP-pruned points with one predictable
///    branch and zero arithmetic, and keeps a compile-time-`d_head`
///    register accumulator tile so the per-point channel loop is a
///    branchless, vectorizable gather.
///  * `simd` — explicit vectorization of the fused hot loop: AVX2 / NEON
///    intrinsics selected by runtime ISA dispatch (src/common/simd.h) with
///    a portable scalar fallback, including a vector INTn quantized path.
///  * `tiled` — intra-request parallelism: per-level work lists executed
///    on the shared `defa::ThreadPool` inside one run_msgs call, with a
///    deterministic per-query reduction so one large request saturates
///    the machine without changing a single output bit.
///  * `quill` — cache-local execution for large scenes: queries reordered
///    by the value-memory tile their sampling footprint first touches
///    (a cached `LocalityPlan`), levels walked sequentially so each
///    query's accumulation chain is untouched, inner gathers on the simd
///    tiers.  The QUILL co-design (PAPERS.md) in software.
/// All are bit-identical to `reference` in fp32 and exactly equal on the
/// INTn datapath (enforced by tests/test_kernels.cpp and the differential
/// harness in tests/test_backend_differential.cpp).
///
/// Each backend has one INTn loop, `run_msgs_int`, and it reads value
/// codes (`quant::QTensor`).  The encoder's INTn value projection produces
/// those codes in one quantization and hands them over; the float entry
/// `run_msgs` quantizes float values once and calls the same loop.
///
/// The contract every backend must honor (docs/KERNELS.md):
///  * deterministic — results are a pure function of the inputs;
///  * thread-compatible — `const` methods may run concurrently;
///  * masking semantics — a PAP-masked point contributes nothing (no BI,
///    no aggregation), exactly like the reference `continue`.

#include <memory>
#include <string>
#include <vector>

#include "config/model_config.h"
#include "prune/masks.h"
#include "tensor/tensor.h"

namespace defa::quant {
class QTensor;
}  // namespace defa::quant

namespace defa::kernels {

class SamplingPlan;
class LocalityPlan;

/// Per-call configuration of the fused MSGS + aggregation kernel.
struct MsgsSpec {
  /// Points pruned by PAP are skipped entirely (no BI, no aggregation).
  const prune::PointMask* point_mask = nullptr;
  /// Run the integer datapath: values/probs/fractions quantized to the
  /// given widths, BI in Horner form on codes, aggregation in fixed point.
  bool quantized = false;
  int act_bits = 12;   ///< value-code width
  int frac_bits = 12;  ///< t0/t1 and probability fraction width
  /// Optional precomputed sampling geometry for `locs`.  Backends that
  /// consume plans (fused) use it instead of re-deriving the bilinear
  /// corners; backends that don't (reference) ignore it.  Must have been
  /// built from exactly the `locs` tensor passed alongside.
  const SamplingPlan* plan = nullptr;
  /// Optional gather-locality schedule for `plan` (the quill backend's
  /// query-visit permutation).  Must have been derived from exactly the
  /// sampling plan above; backends that don't reorder ignore it.
  const LocalityPlan* locality = nullptr;
};

/// One compute-backend implementation of the numeric hot path.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// Does run_msgs consume `MsgsSpec::plan`?  Callers that cache plans
  /// (EncoderPipeline) skip building them for backends that don't.
  [[nodiscard]] virtual bool wants_plan() const noexcept { return false; }

  /// Does run_msgs consume `MsgsSpec::locality`?  Only meaningful when
  /// wants_plan() is also true; callers derive and cache the locality
  /// schedule alongside the sampling plan for such backends (quill).
  [[nodiscard]] virtual bool wants_locality() const noexcept { return false; }

  /// Empty when the backend can run on this host right now; otherwise a
  /// human-readable reason it cannot (e.g. "DEFA_SIMD=avx2 but the CPU
  /// lacks AVX2").  Registration is unconditional — the registry describes
  /// what the binary *contains* — so measurement tools (the microbench
  /// backend matrix) skip unavailable backends with the reason instead of
  /// erroring, and `run_msgs` rejects them with the same message.
  [[nodiscard]] virtual std::string unavailable_reason() const { return {}; }

  /// C = A (MxK) * B (KxN).
  [[nodiscard]] virtual Tensor matmul(const Tensor& a, const Tensor& b) const = 0;
  /// Y = X * W (+ bias broadcast over rows).
  [[nodiscard]] virtual Tensor linear(const Tensor& x, const Tensor& w,
                                      const Tensor* bias) const = 0;
  /// Softmax over the last dimension.
  [[nodiscard]] virtual Tensor softmax_lastdim(const Tensor& t) const = 0;
  /// Fused mask-aware MSGS + aggregation: grid-sample `values` (N_in x D)
  /// at `locs` (N, H, L, P, 2), weight by `probs` (N, H, L*P), return the
  /// (N, D) head-concatenated output.  Shapes are validated by the caller
  /// (core::run_msgs).  With `spec.quantized` the values are quantized
  /// once, QTensor(values, spec.act_bits), and run_msgs_int runs on them.
  [[nodiscard]] Tensor run_msgs(const ModelConfig& m, const Tensor& values,
                                const Tensor& probs, const Tensor& locs,
                                const MsgsSpec& spec) const;
  /// The fp32 datapath of run_msgs (`spec.quantized` is ignored).
  [[nodiscard]] virtual Tensor run_msgs_fp32(const ModelConfig& m, const Tensor& values,
                                             const Tensor& probs, const Tensor& locs,
                                             const MsgsSpec& spec) const = 0;
  /// The INTn datapath on value codes quantized by the caller: the code
  /// width is `values.spec().bits` (`spec.quantized`/`act_bits` are
  /// ignored), fractions and probabilities use `spec.frac_bits`, and the
  /// output is the int32 accumulator times `values.spec().scale`.
  [[nodiscard]] virtual Tensor run_msgs_int(const ModelConfig& m,
                                            const quant::QTensor& values,
                                            const Tensor& probs, const Tensor& locs,
                                            const MsgsSpec& spec) const = 0;
};

// ------------------------------------------------------------------ registry

/// Register a backend under its `name()`.  Throws defa::CheckError on a
/// duplicate name.  The built-in backends are registered automatically.
void register_backend(std::unique_ptr<Backend> backend);

/// Look up a backend; nullptr on an unknown name.
[[nodiscard]] const Backend* find_backend(const std::string& name) noexcept;

/// Look up a backend; throws defa::CheckError listing the known names on
/// an unknown one.
[[nodiscard]] const Backend& backend(const std::string& name);

/// All registered backend names, sorted.
[[nodiscard]] std::vector<std::string> backend_names();

/// The registered names as one comma-joined string, for error messages
/// ("fused, reference").
[[nodiscard]] std::string known_backends();

/// Name of the process-wide default backend: the `DEFA_BACKEND`
/// environment variable when set (and known), else "reference".
[[nodiscard]] std::string default_backend_name();

/// The process-wide default backend (see default_backend_name()).
[[nodiscard]] const Backend& default_backend();

/// `*backend` when non-null, else the process default — the one place
/// the "null means default" resolution idiom lives.
[[nodiscard]] const Backend& backend_or_default(const Backend* backend);

namespace detail {
/// Factories implemented by the built-in backend translation units.
[[nodiscard]] std::unique_ptr<Backend> make_reference_backend();
[[nodiscard]] std::unique_ptr<Backend> make_fused_backend();
[[nodiscard]] std::unique_ptr<Backend> make_simd_backend();
[[nodiscard]] std::unique_ptr<Backend> make_tiled_backend();
[[nodiscard]] std::unique_ptr<Backend> make_quill_backend();
}  // namespace detail

}  // namespace defa::kernels
