// Cross-backend differential tests: every registered kernels::Backend must
// be bit-identical to `reference` in fp32 and exactly equal on the INTn
// datapath — at the kernel level (run_msgs over the adversarial model x
// input x spec matrix of backend_differential.h), at the pipeline level
// (EncoderPipeline under every PruneConfig factory), and at the Engine
// level (request backend overlays, batched execution, randomized fuzz
// requests).  Plus the satellites that ride on the harness: the
// >=512-channel register-tile cap regression, the simd backend's ISA
// dispatch/availability semantics, and tiled-backend determinism across
// thread counts and under a loaded pool.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"
#include "api/request.h"
#include "backend_differential.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "core/pipeline.h"
#include "kernels/backend.h"
#include "nn/msdeform.h"
#include "workload/scene.h"

namespace defa {
namespace {

using difftest::DiffInputs;
using difftest::DiffModel;
using difftest::ScopedEnv;

// ------------------------------------------------------ kernel-level matrix

TEST(KernelDifferential, MatrixCrossesTheParallelFloor) {
  // Without a model above the floor every backend's per-query loop would
  // run as one inline chunk, and its multi-chunk path would go untested.
  const ModelConfig m = difftest::above_floor_model();
  EXPECT_GT(parallel_chunks(m.n_in(), m.msgs_work_per_query(), 4).count, 1);
  bool in_matrix = false;
  for (const DiffModel& dm : difftest::differential_models()) {
    in_matrix = in_matrix || dm.label == "above_floor";
  }
  EXPECT_TRUE(in_matrix);
}

TEST(KernelDifferential, Fused) { difftest::run_kernel_differential("fused"); }

TEST(KernelDifferential, Simd) { difftest::run_kernel_differential("simd"); }

TEST(KernelDifferential, SimdScalarTier) {
  // The portable fallback shim must hold the same contract as the vector
  // tiers — this is what the CI scalar-fallback build (DEFA_KERNELS_SIMD
  // off) runs implicitly, proven here on every host.
  const ScopedEnv force("DEFA_SIMD", "scalar");
  difftest::run_kernel_differential("simd");
}

TEST(KernelDifferential, Tiled) { difftest::run_kernel_differential("tiled"); }

TEST(KernelDifferential, TiledSingleThread) {
  const ScopedEnv threads("DEFA_TILED_THREADS", "1");
  difftest::run_kernel_differential("tiled");
}

TEST(KernelDifferential, Quill) { difftest::run_kernel_differential("quill"); }

TEST(KernelDifferential, QuillScalarTier) {
  // Forces the quill backend's scalar per-level kernels (the tier quill
  // shares with the simd backend via simd_detail::resolve_tier()).
  const ScopedEnv force("DEFA_SIMD", "scalar");
  difftest::run_kernel_differential("quill");
}

TEST(KernelDifferential, QuillReorderDisabled) {
  // DEFA_QUILL_REORDER=off replaces the locality permutation with the
  // identity order (the bench control); the contract must hold either way.
  const ScopedEnv off("DEFA_QUILL_REORDER", "off");
  difftest::run_kernel_differential("quill");
}

// ------------------------------------------------------- simd ISA dispatch

/// An ISA no current host supports alongside its own (x86 has no NEON,
/// ARM has no AVX2) — there is always one to force-fail with.
const char* unsupported_isa_name() {
  return simd::cpu_supports(simd::Isa::kAvx2) ? "neon" : "avx2";
}

TEST(SimdDispatch, ForcedUnsupportedIsaReportsUnavailable) {
  const ScopedEnv force("DEFA_SIMD", unsupported_isa_name());
  const kernels::Backend& bk = kernels::backend("simd");
  const std::string reason = bk.unavailable_reason();
  EXPECT_FALSE(reason.empty());
  EXPECT_NE(reason.find(unsupported_isa_name()), std::string::npos)
      << "reason should name the ISA: " << reason;
  // run_msgs must reject loudly, not silently degrade to another tier.
  const ModelConfig m = ModelConfig::tiny();
  const DiffInputs in = difftest::make_inputs(m, 5);
  EXPECT_THROW(
      (void)bk.run_msgs(m, in.values, in.probs, in.locs, kernels::MsgsSpec{}),
      CheckError);
}

TEST(SimdDispatch, UnknownValueReportsUnavailable) {
  const ScopedEnv force("DEFA_SIMD", "avx512-of-the-future");
  const kernels::Backend& bk = kernels::backend("simd");
  const std::string reason = bk.unavailable_reason();
  EXPECT_NE(reason.find("unknown DEFA_SIMD"), std::string::npos) << reason;
}

TEST(SimdDispatch, ScalarForceAlwaysAvailable) {
  const ScopedEnv force("DEFA_SIMD", "scalar");
  EXPECT_TRUE(kernels::backend("simd").unavailable_reason().empty());
}

TEST(SimdDispatch, AutoAlwaysAvailable) {
  const ScopedEnv force("DEFA_SIMD", nullptr);
  EXPECT_TRUE(kernels::backend("simd").unavailable_reason().empty());
  const ScopedEnv force2("DEFA_SIMD", "auto");
  EXPECT_TRUE(kernels::backend("simd").unavailable_reason().empty());
}

TEST(SimdDispatch, OtherBackendsAlwaysAvailable) {
  for (const char* name : {"reference", "fused", "tiled", "quill"}) {
    EXPECT_TRUE(kernels::backend(name).unavailable_reason().empty()) << name;
  }
}

// ------------------------------------------- d_head register-tile cap (512)

// The fused backend specializes register tiles for d_head 8/16/32/64 and
// the generic path handles the rest; heads at and just above 512 channels
// must run correctly on every backend — not silently corrupt past a tile
// cap.  The dense fp32 case is additionally pinned to the independent
// nn::msgs_aggregate_ref golden model, so this test cannot be fooled by a
// shared bug in the planned backends.
TEST(WideHeadRegression, AtAndAboveRegisterTileCap) {
  for (const DiffModel& dm : difftest::wide_head_models()) {
    const DiffInputs in = difftest::make_inputs(dm.m, 11);
    const Tensor golden = nn::msgs_aggregate_ref(dm.m, in.values, in.probs, in.locs);
    kernels::MsgsSpec dense;
    kernels::MsgsSpec quant;
    quant.quantized = true;
    for (const std::string& name : kernels::backend_names()) {
      const kernels::Backend& bk = kernels::backend(name);
      if (!bk.unavailable_reason().empty()) continue;
      ASSERT_TRUE(difftest::expect_bits_equal(
          golden, bk.run_msgs(dm.m, in.values, in.probs, in.locs, dense),
          "[wide-head dense model=" + dm.label + " backend=" + name + "]"));
    }
    const Tensor qref = kernels::backend("reference")
                            .run_msgs(dm.m, in.values, in.probs, in.locs, quant);
    for (const std::string& name : kernels::backend_names()) {
      const kernels::Backend& bk = kernels::backend(name);
      if (!bk.unavailable_reason().empty()) continue;
      ASSERT_TRUE(difftest::expect_bits_equal(
          qref, bk.run_msgs(dm.m, in.values, in.probs, in.locs, quant),
          "[wide-head int12 model=" + dm.label + " backend=" + name + "]"));
    }
  }
}

// --------------------------------------------------- pipeline-level matrix

void expect_results_equal(const core::EncoderResult& ref,
                          const core::EncoderResult& got, const std::string& what) {
  EXPECT_EQ(ref.final_nrmse, got.final_nrmse) << what;
  EXPECT_EQ(ref.point_reduction(), got.point_reduction()) << what;
  EXPECT_EQ(ref.pixel_reduction(), got.pixel_reduction()) << what;
  EXPECT_EQ(ref.total_actual.total(), got.total_actual.total()) << what;
  ASSERT_EQ(ref.layers.size(), got.layers.size()) << what;
  for (std::size_t i = 0; i < ref.layers.size(); ++i) {
    EXPECT_EQ(ref.layers[i].out_nrmse, got.layers[i].out_nrmse)
        << what << " layer " << i;
    EXPECT_EQ(ref.layers[i].kept_points, got.layers[i].kept_points)
        << what << " layer " << i;
  }
}

void run_pipeline_differential(const ModelConfig& m) {
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const core::EncoderPipeline pipeline(wl);
  const std::vector<core::PruneConfig> configs = {
      core::PruneConfig::baseline(),      core::PruneConfig::defa_default(m),
      core::PruneConfig::only_fwp(),      core::PruneConfig::only_pap(),
      core::PruneConfig::only_narrow(m),  core::PruneConfig::only_quant(12),
      core::PruneConfig::only_quant(8),
  };
  const kernels::Backend& ref = kernels::backend("reference");
  for (const core::PruneConfig& cfg : configs) {
    const core::EncoderResult expect = pipeline.run(cfg, &ref);
    for (const std::string& name : kernels::backend_names()) {
      const kernels::Backend& bk = kernels::backend(name);
      if (!bk.unavailable_reason().empty()) continue;
      expect_results_equal(expect, pipeline.run(cfg, &bk),
                           "[pipeline model=" + m.name + " config=" + cfg.label +
                               " backend=" + name + "]");
    }
  }
}

TEST(PipelineDifferential, AllConfigsAllBackends) {
  run_pipeline_differential(ModelConfig::tiny());
}

TEST(PipelineDifferential, AboveParallelFloorAllConfigsAllBackends) {
  const ModelConfig m = difftest::above_floor_model();
  ASSERT_GT(parallel_chunks(m.n_in(), m.msgs_work_per_query(), 4).count, 1);
  run_pipeline_differential(m);
}

// ----------------------------------------------------- engine-level matrix

TEST(EngineDifferential, BackendOverlayBitIdentical) {
  api::Engine engine;
  api::EvalRequest req;
  req.preset = "tiny";
  req.outputs = api::kFunctional;
  req.backend = "reference";
  const api::EvalResult expect = engine.run(req);
  ASSERT_TRUE(expect.functional.has_value());
  for (const std::string& name : kernels::backend_names()) {
    if (!kernels::backend(name).unavailable_reason().empty()) continue;
    req.backend = name;
    const api::EvalResult got = engine.run(req);
    ASSERT_TRUE(got.functional.has_value()) << name;
    EXPECT_TRUE(*expect.functional == *got.functional)
        << "[engine backend=" << name << "] functional stats diverge";
  }
}

// -------------------------------------------------------------- fuzz sweep

core::PruneConfig random_prune(const ModelConfig& m, Rng& rng) {
  // Start from defa_default when narrowing (it carries valid RangeSpecs),
  // else from baseline, then randomize each technique independently.
  const bool narrow = rng.bernoulli(0.4);
  core::PruneConfig cfg =
      narrow ? core::PruneConfig::defa_default(m) : core::PruneConfig::baseline();
  cfg.narrow = narrow;
  cfg.pap = rng.bernoulli(0.6);
  cfg.pap_tau = rng.uniform(0.01, 0.12);
  cfg.fwp = rng.bernoulli(0.5);
  cfg.fwp_k = rng.uniform(0.4, 0.9);
  cfg.quantize = rng.bernoulli(0.6);
  cfg.bits = rng.bernoulli(0.5) ? 12 : 8;
  cfg.label = "fuzz";
  return cfg;
}

api::EvalRequest random_request(Rng& rng) {
  api::EvalRequest req;
  ModelConfig m;
  if (rng.bernoulli(0.5)) {
    req.preset = "tiny";
    m = ModelConfig::tiny();
  } else {
    const int dh = 4 << rng.randint(0, 2);  // 4 / 8 / 16
    const int heads = static_cast<int>(rng.randint(1, 2));
    const int points = static_cast<int>(rng.randint(1, 3));
    const int w0 = static_cast<int>(rng.randint(4, 8));
    std::vector<LevelShape> levels = {{w0, w0 + 1}, {(w0 + 1) / 2, w0 / 2 + 1}};
    if (rng.bernoulli(0.5)) levels.push_back({2, 2});
    m = difftest::make_model("fuzz", dh * heads, heads, points, std::move(levels));
    m.n_layers = 2;
    req.model = m;
  }
  workload::SceneParams sp;
  sp.seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 20));
  sp.n_objects = static_cast<int>(rng.randint(2, 18));
  req.scene = sp;
  req.prune = random_prune(m, rng);
  req.outputs = api::kFunctional;
  return req;
}

// Seeded randomized EvalRequests through every backend pair: randomized
// model/scene/prune pulled through the full Engine stack must produce
// exactly equal functional results on every backend.  A failure prints a
// reproducer (master seed + case index + request JSON) sufficient to
// replay the case by hand through defa_cli or a unit test.
TEST(FuzzDifferential, RandomRequestsAllBackends) {
  constexpr std::uint64_t kMasterSeed = 20240817;
  constexpr int kCases = 10;
  Rng rng(kMasterSeed);
  api::Engine engine;
  for (int i = 0; i < kCases; ++i) {
    api::EvalRequest req = random_request(rng);
    req.backend = "reference";
    const api::EvalResult expect = engine.run(req);
    ASSERT_TRUE(expect.functional.has_value());
    for (const std::string& name : kernels::backend_names()) {
      if (!kernels::backend(name).unavailable_reason().empty()) continue;
      req.backend = name;
      const api::EvalResult got = engine.run(req);
      ASSERT_TRUE(got.functional.has_value());
      if (!(*expect.functional == *got.functional)) {
        req.backend.reset();  // the reproducer is backend-independent
        ADD_FAILURE() << "[fuzz seed=" << kMasterSeed << " case=" << i
                      << " backend=" << name
                      << "] functional stats diverge from reference; request: "
                      << api::to_json(req).dump();
        return;
      }
    }
  }
}

// ------------------------------------------------------ tiled determinism

// The tiled backend's output must be a pure function of the inputs — the
// same bytes at every thread count (1, 2, all) and with level x tile
// items racing on the shared pool.  "small" is large enough (1700
// queries, 4 levels) that work items genuinely interleave.
TEST(TiledDeterminism, ThreadCountInvariant) {
  const ModelConfig m = ModelConfig::small();
  const DiffInputs in = difftest::make_inputs(m, 21);
  const kernels::Backend& tiled = kernels::backend("tiled");
  for (const bool quantized : {false, true}) {
    kernels::MsgsSpec spec;
    spec.quantized = quantized;
    const Tensor expect =
        kernels::backend("reference").run_msgs(m, in.values, in.probs, in.locs, spec);
    for (const char* threads : {"1", "2", static_cast<const char*>(nullptr)}) {
      const ScopedEnv env("DEFA_TILED_THREADS", threads);
      ASSERT_TRUE(difftest::expect_bits_equal(
          expect, tiled.run_msgs(m, in.values, in.probs, in.locs, spec),
          std::string("[tiled threads=") + (threads != nullptr ? threads : "all") +
              (quantized ? " int12]" : " fp32]")));
    }
  }
}

// run_batch evaluates concurrently on the same pool the tiled backend's
// work items execute on — nested parallelism plus cross-request
// contention.  Batched results must equal sequential reference results
// exactly.
TEST(TiledDeterminism, LoadedPoolBatchMatchesSequentialReference) {
  api::Engine engine(api::Engine::Options{.memoize_results = false});
  std::vector<api::EvalRequest> batch;
  for (int i = 0; i < 6; ++i) {
    api::EvalRequest req;
    req.preset = "tiny";
    workload::SceneParams sp;
    sp.seed = static_cast<std::uint64_t>(1 + i % 3);  // repeated keys contend
    req.scene = sp;
    req.backend = "tiled";
    req.outputs = api::kFunctional;
    batch.push_back(req);
  }
  const std::vector<api::EvalResult> got = engine.run_batch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    api::EvalRequest ref_req = batch[i];
    ref_req.backend = "reference";
    const api::EvalResult expect = engine.run(ref_req);
    ASSERT_TRUE(expect.functional.has_value() && got[i].functional.has_value());
    EXPECT_TRUE(*expect.functional == *got[i].functional)
        << "[tiled batch request " << i << "] diverges from sequential reference";
  }
}

// ------------------------------------------------------ quill determinism

// The quill backend executes queries in a locality-derived permutation,
// so its determinism contract is tile-size invariance: the same bytes as
// reference at *every* tile size, including the degenerate extremes —
// tile_elems = 1 puts (nearly) every query in its own tile (the
// permutation is maximally fragmented), an enormous tile_elems puts all
// queries in a single tile per level (the permutation collapses back to
// ascending order).  "small" (1700 queries, 4 levels) is big enough that
// the per-level parallel sweeps genuinely interleave on the pool.
TEST(QuillDeterminism, TileSizeInvariant) {
  const ModelConfig m = ModelConfig::small();
  const DiffInputs in = difftest::make_inputs(m, 33);
  const kernels::SamplingPlan plan = kernels::SamplingPlan::build(m, in.locs);
  const kernels::Backend& quill = kernels::backend("quill");
  ASSERT_TRUE(quill.unavailable_reason().empty()) << quill.unavailable_reason();
  const std::vector<std::int64_t> tile_sizes = {
      1,                              // degenerate: one query per tile
      std::int64_t{1} << 40,          // degenerate: all queries, one tile
      kernels::locality_tile_elems()  // the production default
  };
  for (const bool quantized : {false, true}) {
    kernels::MsgsSpec spec;
    spec.quantized = quantized;
    const Tensor expect =
        kernels::backend("reference").run_msgs(m, in.values, in.probs, in.locs, spec);
    for (const std::int64_t tile_elems : tile_sizes) {
      const kernels::LocalityPlan loc = kernels::LocalityPlan::build(m, plan, tile_elems);
      spec.plan = &plan;
      spec.locality = &loc;
      ASSERT_TRUE(difftest::expect_bits_equal(
          expect, quill.run_msgs(m, in.values, in.probs, in.locs, spec),
          "[quill tile_elems=" + std::to_string(tile_elems) +
              (quantized ? " int12]" : " fp32]")));
    }
  }
}

// DEFA_L2_KB must steer the cached plan, not just freshly built ones: the
// pipeline keys locality plans by tile size, so two engine runs under
// different DEFA_L2_KB values exercise distinct cache entries yet must
// produce identical functional results.
TEST(QuillDeterminism, L2KnobInvariantThroughEngine) {
  api::Engine engine(api::Engine::Options{.memoize_results = false});
  api::EvalRequest req;
  req.preset = "tiny";
  req.outputs = api::kFunctional;
  req.backend = "reference";
  const api::EvalResult expect = engine.run(req);
  ASSERT_TRUE(expect.functional.has_value());
  req.backend = "quill";
  for (const char* kb : {"1", "64", static_cast<const char*>(nullptr)}) {
    const ScopedEnv env("DEFA_L2_KB", kb);
    const api::EvalResult got = engine.run(req);
    ASSERT_TRUE(got.functional.has_value());
    EXPECT_TRUE(*expect.functional == *got.functional)
        << "[quill DEFA_L2_KB=" << (kb != nullptr ? kb : "default")
        << "] diverges from reference";
  }
}

}  // namespace
}  // namespace defa
