#pragma once

/// \file backend_differential.h
/// Reusable cross-backend differential harness.
///
/// The repo's correctness contract is that every registered
/// `kernels::Backend` is *bit-identical* to `reference` in fp32 and
/// *exactly equal* on the INTn datapath — not "close", identical.  This
/// header is the machinery that proves it, shared by
/// tests/test_backend_differential.cpp and available to any future
/// backend's own test file:
///
///  * `differential_models()` — a model matrix spanning the dimensions a
///    backend can get wrong: every power-of-two d_head a register tile
///    might specialize on plus awkward widths (1, 3, 24), level counts
///    1..4, degenerate shapes (single-pixel level, one head, one point),
///    the >=512-channel heads that exceed any register-tile
///    specialization, and one shape large enough that parallel_for splits
///    its per-query loops into chunks.
///  * `make_inputs()` — seeded adversarial inputs: sampling locations
///    sweep in-bounds, out-of-bounds and *exact-integer* coordinates
///    (t = 0 edge cases), probabilities are a real softmax.
///  * `spec_variants()` — the MsgsSpec axis: dense fp32, PAP-masked,
///    INT12/INT8 quantized, masked+quantized, and a wide INTn config that
///    exercises vector-tier overflow fallbacks.
///  * `expect_bits_equal()` — comparison at the *bit-pattern* level
///    (float == would pass -0.0 vs +0.0 and miss NaN payloads), printing
///    the failing index and a reproducer line.
///  * `run_kernel_differential()` — the full kernel-level sweep of one
///    backend against reference: every model x input seed x spec variant,
///    each with and without a prebuilt SamplingPlan.
///
/// A new backend earns its registry slot by passing
///   run_kernel_differential(<name>)
/// plus the pipeline/engine-level matrix in the test file — see
/// docs/KERNELS.md ("Adding a backend").

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "config/model_config.h"
#include "kernels/backend.h"
#include "kernels/plan.h"
#include "nn/softmax.h"
#include "prune/pap.h"
#include "tensor/tensor.h"

namespace defa::difftest {

// ------------------------------------------------------------------ env RAII

/// Scoped environment-variable override (save on construction, restore on
/// destruction) for the DEFA_SIMD / DEFA_TILED_THREADS / DEFA_BACKEND
/// knobs the differential tests flip.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

// ------------------------------------------------------------- model matrix

/// One model under differential test.
struct DiffModel {
  std::string label;  ///< stable id, printed in reproducer lines
  ModelConfig m;
};

/// Build a custom validated config.  Levels are fine -> coarse.
inline ModelConfig make_model(std::string name, int d_model, int n_heads,
                              int n_points, std::vector<LevelShape> levels) {
  ModelConfig m;
  m.name = std::move(name);
  m.d_model = d_model;
  m.n_heads = n_heads;
  m.n_levels = static_cast<int>(levels.size());
  m.n_points = n_points;
  m.n_layers = 1;
  m.levels = std::move(levels);
  m.seed = 1;
  m.validate();
  return m;
}

/// The smallest matrix shape whose per-query loops parallel_for fans out:
/// a 4-level pyramid from a 12 x 16 base at the paper's head/level/point
/// counts (256 queries of 4096 MSGS work each), two blocks so the pipeline
/// carries an FWP mask across a layer boundary.
inline ModelConfig above_floor_model() {
  ModelConfig m = make_model("above_floor", 256, 8, 4, {{12, 16}, {6, 8}, {3, 4}, {2, 2}});
  m.n_layers = 2;
  m.validate();
  return m;
}

/// The kernel-level model matrix (see file comment for the axes).
inline std::vector<DiffModel> differential_models() {
  std::vector<DiffModel> out;
  out.push_back({"tiny", ModelConfig::tiny()});
  // d_head sweep: vector widths below/at/above one AVX2 lane group, odd
  // widths that force scalar tails, and the register-tile sizes the fused
  // backend specializes (8/16/32/64).
  for (const int dh : {1, 3, 8, 16, 24, 32, 64}) {
    out.push_back({"dhead" + std::to_string(dh),
                   make_model("dhead" + std::to_string(dh), 2 * dh, 2, 3,
                              {{6, 7}, {3, 4}})});
  }
  // Level-count sweep 1..4 (level-major plan layout, per-level work lists).
  out.push_back({"levels1", make_model("levels1", 32, 2, 2, {{7, 6}})});
  out.push_back({"levels3", make_model("levels3", 32, 2, 2, {{7, 6}, {4, 3}, {2, 2}})});
  out.push_back(
      {"levels4", make_model("levels4", 32, 2, 2, {{7, 6}, {4, 3}, {2, 2}, {1, 2}})});
  // Degenerate shapes: a single-pixel coarse level (every sample clamps or
  // pads), one head, one point per level.
  out.push_back({"pixel_level", make_model("pixel_level", 16, 2, 2, {{5, 5}, {1, 1}})});
  out.push_back({"one_head", make_model("one_head", 24, 1, 2, {{5, 4}, {2, 3}})});
  out.push_back({"one_point", make_model("one_point", 16, 4, 1, {{6, 5}, {3, 3}})});
  // Multi-chunk per-query path of every backend.
  out.push_back({"above_floor", above_floor_model()});
  return out;
}

/// Wide-head models for the register-tile cap regression: d_head at the
/// 512-channel specialization ceiling and just above it.  Kept out of
/// differential_models() because their value matrices are big; the cap
/// test runs them explicitly.
inline std::vector<DiffModel> wide_head_models() {
  return {
      {"dhead512", make_model("dhead512", 512, 1, 2, {{4, 4}, {2, 2}})},
      {"dhead544", make_model("dhead544", 544, 1, 2, {{4, 4}, {2, 2}})},
  };
}

// ------------------------------------------------------------------- inputs

struct DiffInputs {
  Tensor values;  ///< (N_in, D)
  Tensor probs;   ///< (N, H, L*P) — a real softmax
  Tensor locs;    ///< (N, H, L, P, 2) — adversarial coordinates
};

/// Seeded adversarial inputs for one model.  Locations are uniform in
/// [-2, extent+2) per level — in-bounds, partially and fully out-of-bounds
/// — and one in four is snapped to an exact integer coordinate so the
/// t0/t1 = 0 paths (and the floor() boundary) are always exercised.
inline DiffInputs make_inputs(const ModelConfig& m, std::uint64_t seed) {
  Rng rng(seed);
  DiffInputs in;
  in.values = Tensor::randn({m.n_in(), m.d_model}, rng);
  const Tensor logits =
      Tensor::randn({m.n_in(), m.n_heads, m.points_per_head()}, rng);
  in.probs = nn::softmax_lastdim(logits);
  in.locs = Tensor({m.n_in(), m.n_heads, m.n_levels, m.n_points, 2});
  for (std::int64_t q = 0; q < m.n_in(); ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      for (int l = 0; l < m.n_levels; ++l) {
        const LevelShape& lv = m.levels[static_cast<std::size_t>(l)];
        for (int p = 0; p < m.n_points; ++p) {
          float x = static_cast<float>(rng.uniform(-2.0, lv.w + 2.0));
          float y = static_cast<float>(rng.uniform(-2.0, lv.h + 2.0));
          if (rng.bernoulli(0.25)) x = std::floor(x);
          if (rng.bernoulli(0.25)) y = std::floor(y);
          in.locs(q, h, l, p, 0) = x;
          in.locs(q, h, l, p, 1) = y;
        }
      }
    }
  }
  return in;
}

// ------------------------------------------------------------ spec variants

/// One MsgsSpec configuration of the differential sweep.
struct SpecVariant {
  std::string label;
  bool pap = false;
  double pap_tau = 0.05;
  bool quantized = false;
  int act_bits = 12;
  int frac_bits = 12;
};

/// The MsgsSpec axis.  "int16x16" is act+frac = 32 > kMaxVectorQuantBits,
/// forcing vectorized backends onto their wide (int64) fallback path.
inline std::vector<SpecVariant> spec_variants() {
  return {
      {"fp32"},
      {"fp32+pap", /*pap=*/true},
      {"int12", false, 0.05, /*quantized=*/true, 12, 12},
      {"int8", false, 0.05, true, 8, 8},
      {"int12+pap", true, 0.05, true, 12, 12},
      {"int16x16", false, 0.05, true, 16, 16},
  };
}

// --------------------------------------------------------------- comparison

/// Bit-pattern equality of two fp32 tensors.  Returns true when identical;
/// otherwise reports the first divergence (index, both values, both bit
/// patterns) plus `context` — which should contain a reproducer line —
/// through ADD_FAILURE and returns false.
inline bool expect_bits_equal(const Tensor& ref, const Tensor& got,
                              const std::string& context) {
  if (ref.numel() != got.numel()) {
    ADD_FAILURE() << context << ": numel " << got.numel() << " != reference "
                  << ref.numel();
    return false;
  }
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    const std::uint32_t rb = std::bit_cast<std::uint32_t>(ref.at_flat(i));
    const std::uint32_t gb = std::bit_cast<std::uint32_t>(got.at_flat(i));
    if (rb != gb) {
      ADD_FAILURE() << context << ": first divergence at flat index " << i
                    << ": reference " << ref.at_flat(i) << " (bits 0x" << std::hex
                    << rb << "), got " << got.at_flat(i) << " (bits 0x" << gb
                    << std::dec << ")";
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ kernel sweep

/// Reproducer line for one kernel-level combination: enough to rerun the
/// exact failing case by hand.
inline std::string kernel_reproducer(const std::string& backend,
                                     const std::string& model_label,
                                     std::uint64_t seed, const SpecVariant& v,
                                     bool with_plan) {
  return "[difftest backend=" + backend + " model=" + model_label +
         " seed=" + std::to_string(seed) + " spec=" + v.label +
         (with_plan ? " plan=prebuilt" : " plan=none") + "]";
}

/// Run the full kernel-level differential sweep of `backend_name` against
/// the reference backend: differential_models() x `seeds` x
/// spec_variants(), each combination with and without a prebuilt
/// SamplingPlan.  Every output must match reference bit for bit.
inline void run_kernel_differential(const std::string& backend_name,
                                    const std::vector<std::uint64_t>& seeds = {7, 1234}) {
  const kernels::Backend& ref = kernels::backend("reference");
  const kernels::Backend& bk = kernels::backend(backend_name);
  ASSERT_TRUE(bk.unavailable_reason().empty())
      << "backend '" << backend_name
      << "' unavailable on this host: " << bk.unavailable_reason();

  for (const DiffModel& dm : differential_models()) {
    for (const std::uint64_t seed : seeds) {
      const DiffInputs in = make_inputs(dm.m, seed);
      const kernels::SamplingPlan plan = kernels::SamplingPlan::build(dm.m, in.locs);
      for (const SpecVariant& v : spec_variants()) {
        std::optional<prune::PointMask> mask;
        kernels::MsgsSpec spec;
        spec.quantized = v.quantized;
        spec.act_bits = v.act_bits;
        spec.frac_bits = v.frac_bits;
        if (v.pap) {
          mask.emplace(prune::pap_prune(dm.m, in.probs, v.pap_tau, nullptr));
          spec.point_mask = &*mask;
        }
        const Tensor expect = ref.run_msgs(dm.m, in.values, in.probs, in.locs, spec);
        for (const bool with_plan : {false, true}) {
          spec.plan = with_plan ? &plan : nullptr;
          const Tensor got = bk.run_msgs(dm.m, in.values, in.probs, in.locs, spec);
          if (!expect_bits_equal(
                  expect, got,
                  kernel_reproducer(backend_name, dm.label, seed, v, with_plan))) {
            return;  // one reproducer per run is enough to debug
          }
        }
      }
    }
  }
}

}  // namespace defa::difftest
