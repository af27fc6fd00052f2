// Tests for the pluggable compute-backend layer (src/kernels/): registry
// behavior, the backend-equivalence suite (fused vs reference must be
// bit-identical in fp32 and exactly equal on the INTn datapath, under
// every PruneConfig shape), sampling-plan correctness and plan-cache
// reuse, and the unknown-backend error paths of the Engine / request /
// scenario surfaces.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "api/engine.h"
#include "api/request.h"
#include "core/msgs.h"
#include "core/pipeline.h"
#include "kernels/backend.h"
#include "kernels/plan.h"
#include "nn/msdeform.h"
#include "nn/softmax.h"
#include "prune/pap.h"
#include "quant/fixed_point.h"
#include "quant/qmsgs.h"
#include "serve/scenario.h"
#include "workload/scene.h"

namespace defa {
namespace {

using core::EncoderPipeline;
using core::EncoderResult;
using core::MsgsOptions;
using core::PruneConfig;

struct Fixture {
  ModelConfig m = ModelConfig::tiny();
  workload::SceneWorkload wl;
  Tensor values;
  Tensor probs;
  Tensor locs;

  Fixture() : wl(make_wl()) {
    Rng rng(17);
    values = Tensor::randn({m.n_in(), m.d_model}, rng);
    const nn::MsdaFields f = wl.layer_fields(0);
    probs = nn::softmax_lastdim(f.logits);
    locs = f.locs;
  }

  workload::SceneWorkload make_wl() {
    workload::SceneParams p;
    p.seed = m.seed;
    return workload::SceneWorkload(m, p);
  }
};

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.at_flat(i), b.at_flat(i)) << what << " diverges at flat index " << i;
  }
}

// ----------------------------------------------------------------- registry

TEST(KernelRegistry, BuiltinBackendsRegistered) {
  const std::vector<std::string> names = kernels::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "reference"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "fused"), names.end());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(KernelRegistry, FindAndLookup) {
  EXPECT_NE(kernels::find_backend("reference"), nullptr);
  EXPECT_EQ(kernels::find_backend("no_such_backend"), nullptr);
  EXPECT_EQ(kernels::backend("fused").name(), "fused");
  EXPECT_THROW((void)kernels::backend("no_such_backend"), CheckError);
  try {
    (void)kernels::backend("no_such_backend");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    // The error must list the known names so operators can self-serve.
    EXPECT_NE(std::string(e.what()).find("reference"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("fused"), std::string::npos);
  }
}

TEST(KernelRegistry, DefaultBackendFollowsEnvironment) {
  const char* saved = std::getenv("DEFA_BACKEND");
  const std::string restore = saved != nullptr ? saved : "";
  unsetenv("DEFA_BACKEND");
  EXPECT_EQ(kernels::default_backend_name(), "reference");
  setenv("DEFA_BACKEND", "fused", 1);
  EXPECT_EQ(kernels::default_backend_name(), "fused");
  // Unknown names fall back to the reference backend instead of failing
  // every evaluation in the process.
  setenv("DEFA_BACKEND", "no_such_backend", 1);
  EXPECT_EQ(kernels::default_backend_name(), "reference");
  if (saved != nullptr) {
    setenv("DEFA_BACKEND", restore.c_str(), 1);
  } else {
    unsetenv("DEFA_BACKEND");
  }
}

// ------------------------------------------------------- kernel equivalence

TEST(BackendEquivalence, DenseFp32BitIdentical) {
  Fixture fx;
  const kernels::Backend& ref = kernels::backend("reference");
  const kernels::Backend& fused = kernels::backend("fused");
  const kernels::MsgsSpec spec;
  expect_bitwise_equal(ref.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       fused.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       "dense fp32");
}

TEST(BackendEquivalence, PapMaskedFp32BitIdentical) {
  Fixture fx;
  prune::PapStats stats;
  const prune::PointMask mask = prune::pap_prune(fx.m, fx.probs, 0.03, &stats);
  ASSERT_GT(stats.fraction_pruned(), 0.0);  // the mask must actually prune
  kernels::MsgsSpec spec;
  spec.point_mask = &mask;
  const kernels::Backend& ref = kernels::backend("reference");
  const kernels::Backend& fused = kernels::backend("fused");
  expect_bitwise_equal(ref.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       fused.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       "PAP-masked fp32");
}

TEST(BackendEquivalence, QuantizedExactlyEqualAcrossWidths) {
  Fixture fx;
  const kernels::Backend& ref = kernels::backend("reference");
  const kernels::Backend& fused = kernels::backend("fused");
  for (const int bits : {8, 10, 12, 14}) {
    kernels::MsgsSpec spec;
    spec.quantized = true;
    spec.act_bits = bits;
    spec.frac_bits = bits;
    expect_bitwise_equal(ref.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                         fused.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                         ("INT" + std::to_string(bits)).c_str());
  }
}

TEST(BackendEquivalence, MaskedQuantizedExactlyEqual) {
  Fixture fx;
  prune::PapStats stats;
  const prune::PointMask mask = prune::pap_prune(fx.m, fx.probs, 0.03, &stats);
  kernels::MsgsSpec spec;
  spec.point_mask = &mask;
  spec.quantized = true;
  const kernels::Backend& ref = kernels::backend("reference");
  const kernels::Backend& fused = kernels::backend("fused");
  expect_bitwise_equal(ref.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       fused.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       "PAP-masked INT12");
}

// ------------------------------------------------- reference INTn tiers

/// The reference INTn loop written out serially: the output both of the
/// reference backend's tiers (AVX2 and the scalar loop) must reproduce
/// byte for byte.
Tensor serial_int_msgs(const ModelConfig& m, const quant::QTensor& v, const Tensor& probs,
                       const Tensor& locs, const prune::PointMask& mask, int fb) {
  const int dh = m.d_head();
  Tensor out({m.n_in(), m.d_model});
  for (std::int64_t q = 0; q < m.n_in(); ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      std::vector<std::int32_t> acc(static_cast<std::size_t>(dh), 0);
      for (int l = 0; l < m.n_levels; ++l) {
        const LevelShape& lv = m.levels[static_cast<std::size_t>(l)];
        for (int p = 0; p < m.n_points; ++p) {
          if (!mask.keep(q, h, l, p)) continue;
          const std::int32_t prob_q =
              quant::to_fraction_code(probs(q, h, l * m.n_points + p), fb);
          if (prob_q == 0) continue;
          const nn::BiPoint bp = nn::bi_locate(locs(q, h, l, p, 0), locs(q, h, l, p, 1));
          const std::int32_t t0_q = quant::to_fraction_code(bp.t0, fb);
          const std::int32_t t1_q = quant::to_fraction_code(bp.t1, fb);
          const auto code = [&](int x, int y, int c) -> std::int32_t {
            if (x < 0 || x >= lv.w || y < 0 || y >= lv.h) return 0;
            const std::int64_t token = m.level_offset(l) + static_cast<std::int64_t>(y) * lv.w + x;
            return v.code(token * m.d_model + h * dh + c);
          };
          for (int c = 0; c < dh; ++c) {
            const std::int32_t s = quant::bi_horner_int(
                code(bp.x0, bp.y0, c), code(bp.x0 + 1, bp.y0, c), code(bp.x0, bp.y0 + 1, c),
                code(bp.x0 + 1, bp.y0 + 1, c), t0_q, t1_q, fb);
            acc[static_cast<std::size_t>(c)] += quant::ag_weight_int(s, prob_q, fb);
          }
        }
      }
      for (int c = 0; c < dh; ++c) {
        out(q, h * dh + c) = static_cast<float>(acc[static_cast<std::size_t>(c)]) * v.spec().scale;
      }
    }
  }
  return out;
}

struct IntTierCase {
  int d_model;  ///< over 2 heads: d_head 32, or 12 (an 8-lane block plus a 4-channel tail)
  int act_bits;
  int frac_bits;  ///< 16/16 exceeds the int32 lane bound and takes the scalar loop
};

class ReferenceIntTiers : public ::testing::TestWithParam<IntTierCase> {};

TEST_P(ReferenceIntTiers, MatchSerialLoopByteForByte) {
  const IntTierCase tc = GetParam();
  ModelConfig m;
  m.d_model = tc.d_model;
  m.n_heads = 2;
  m.n_levels = 2;
  m.n_points = 4;
  m.levels = {LevelShape{16, 20}, LevelShape{8, 10}};
  Rng rng(static_cast<std::uint64_t>(tc.d_model * 100 + tc.act_bits));

  Tensor locs({m.n_in(), m.n_heads, m.n_levels, m.n_points, 2});
  std::int64_t i = 0;
  for (std::int64_t q = 0; q < m.n_in(); ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      for (int l = 0; l < m.n_levels; ++l) {
        const LevelShape& lv = m.levels[static_cast<std::size_t>(l)];
        for (int p = 0; p < m.n_points; ++p, ++i) {
          float x = static_cast<float>(rng.uniform(-1.5, lv.w + 0.5));
          float y = static_cast<float>(rng.uniform(-1.5, lv.h + 0.5));
          if (i % 5 == 1) {  // exact integers, edges included
            x = std::floor(x);
            y = std::floor(y);
          } else if (i % 5 == 3) {  // every neighbor out of bounds
            x = -4.0f - x;
          }
          locs(q, h, l, p, 0) = x;
          locs(q, h, l, p, 1) = y;
        }
      }
    }
  }
  Tensor probs = nn::softmax_lastdim(
      Tensor::randn({m.n_in(), m.n_heads, m.points_per_head()}, rng, 0.0f, 2.0f));
  for (std::int64_t k = 0; k < probs.numel(); k += 7) {
    probs.at_flat(k) = 1e-6f;  // Q0.frac code 0 at every width tested
  }
  prune::PointMask mask(m);
  for (std::int64_t q = 0; q < m.n_in(); q += 3) mask.set_keep(q, q % 2, 1, 2, false);
  const quant::QTensor values(Tensor::randn({m.n_in(), m.d_model}, rng, 0.0f, 2.0f),
                              tc.act_bits);

  kernels::MsgsSpec spec;
  spec.point_mask = &mask;
  spec.frac_bits = tc.frac_bits;
  const Tensor got =
      kernels::backend("reference").run_msgs_int(m, values, probs, locs, spec);
  const Tensor want = serial_int_msgs(m, values, probs, locs, mask, tc.frac_bits);
  ASSERT_EQ(got.numel(), want.numel());
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(), want.data().size_bytes()), 0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReferenceIntTiers,
                         ::testing::Values(IntTierCase{64, 12, 12}, IntTierCase{24, 12, 12},
                                           IntTierCase{64, 8, 8}, IntTierCase{24, 8, 12},
                                           IntTierCase{64, 16, 16}, IntTierCase{24, 16, 16}));

TEST(BackendEquivalence, MsdeformForwardBitIdentical) {
  const ModelConfig m = ModelConfig::tiny();
  Rng rng(23);
  const nn::MsdaWeights w = nn::MsdaWeights::random(m, rng);
  const Tensor x = Tensor::randn({m.n_in(), m.d_model}, rng);
  const Tensor ref_norm = nn::reference_points(m);
  expect_bitwise_equal(
      nn::msdeform_forward_ref(m, x, ref_norm, w, &kernels::backend("reference")),
      nn::msdeform_forward_ref(m, x, ref_norm, w, &kernels::backend("fused")),
      "msdeform forward");
}

// ---------------------------------------------------- pipeline equivalence

/// Every PruneConfig shape the experiments use, on the tiny model.
std::vector<PruneConfig> all_prune_configs(const ModelConfig& m) {
  return {PruneConfig::baseline(),    PruneConfig::defa_default(m),
          PruneConfig::only_fwp(),    PruneConfig::only_pap(),
          PruneConfig::only_narrow(m), PruneConfig::only_quant(12),
          PruneConfig::only_quant(8)};
}

TEST(BackendEquivalence, PipelineRunsIdenticalUnderEveryPruneConfig) {
  const ModelConfig m = ModelConfig::tiny();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const EncoderPipeline pipe(wl);
  const kernels::Backend& ref = kernels::backend("reference");
  const kernels::Backend& fused = kernels::backend("fused");
  for (const PruneConfig& cfg : all_prune_configs(m)) {
    const EncoderResult a = pipe.run(cfg, &ref);
    const EncoderResult b = pipe.run(cfg, &fused);
    ASSERT_EQ(a.layers.size(), b.layers.size()) << cfg.label;
    EXPECT_EQ(a.final_nrmse, b.final_nrmse) << cfg.label;
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
      EXPECT_EQ(a.layers[i].out_nrmse, b.layers[i].out_nrmse)
          << cfg.label << " layer " << i;
      EXPECT_EQ(a.layers[i].kept_points, b.layers[i].kept_points)
          << cfg.label << " layer " << i;
      EXPECT_EQ(a.layers[i].kept_pixels, b.layers[i].kept_pixels)
          << cfg.label << " layer " << i;
    }
  }
}

TEST(BackendEquivalence, EngineResultsIdenticalAcrossBackends) {
  api::EvalRequest req;
  req.preset = "tiny";
  req.outputs = api::kFunctional | api::kAccuracy;

  api::Engine::Options ref_opts;
  ref_opts.backend = "reference";
  api::Engine ref_engine(ref_opts);
  api::Engine::Options fused_opts;
  fused_opts.backend = "fused";
  api::Engine fused_engine(fused_opts);
  EXPECT_EQ(ref_engine.run(req), fused_engine.run(req));

  // Per-request overlay beats the engine option: the same engine must
  // produce the same bytes under both overlays.
  api::EvalRequest overlay = req;
  overlay.backend = "fused";
  EXPECT_EQ(ref_engine.run(req), ref_engine.run(overlay));
}

// ------------------------------------------------------------ sampling plan

TEST(SamplingPlan, PlanAndPlanlessCallsMatchBitwise) {
  Fixture fx;
  const kernels::SamplingPlan plan = kernels::SamplingPlan::build(fx.m, fx.locs);
  EXPECT_TRUE(plan.matches(fx.m));
  const kernels::Backend& fused = kernels::backend("fused");
  kernels::MsgsSpec with_plan;
  with_plan.plan = &plan;
  expect_bitwise_equal(
      fused.run_msgs(fx.m, fx.values, fx.probs, fx.locs, kernels::MsgsSpec{}),
      fused.run_msgs(fx.m, fx.values, fx.probs, fx.locs, with_plan),
      "plan vs planless");
}

TEST(SamplingPlan, RejectsWrongShapes) {
  Fixture fx;
  Tensor bad_locs({fx.m.n_in(), fx.m.n_heads, fx.m.n_levels, fx.m.n_points, 3});
  EXPECT_THROW((void)kernels::SamplingPlan::build(fx.m, bad_locs), CheckError);

  // A plan built for another model must be rejected by the fused backend.
  const ModelConfig other = ModelConfig::small();
  workload::SceneParams sp;
  sp.seed = other.seed;
  const workload::SceneWorkload wl(other, sp);
  const kernels::SamplingPlan plan =
      kernels::SamplingPlan::build(other, wl.layer_fields(0).locs);
  kernels::MsgsSpec spec;
  spec.plan = &plan;
  EXPECT_THROW((void)kernels::backend("fused").run_msgs(fx.m, fx.values, fx.probs,
                                                        fx.locs, spec),
               CheckError);
}

TEST(PlanCache, SecondGetHitsAndSharesThePlan) {
  Fixture fx;
  kernels::PlanCache cache;
  const auto a = cache.get("layer0", fx.m, fx.locs);
  const auto b = cache.get("layer0", fx.m, fx.locs);
  EXPECT_EQ(a.get(), b.get());  // same shared plan object
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  (void)cache.get("layer1", fx.m, fx.locs);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 2u);  // counters survive clear()
}

TEST(LocalityPlan, PermutationPartitionsEveryLevel) {
  Fixture fx;
  const kernels::SamplingPlan plan = kernels::SamplingPlan::build(fx.m, fx.locs);
  for (const std::int64_t tile_elems : {std::int64_t{1}, std::int64_t{64},
                                        std::int64_t{1} << 40}) {
    const kernels::LocalityPlan loc =
        kernels::LocalityPlan::build(fx.m, plan, tile_elems);
    EXPECT_EQ(loc.tile_elems(), tile_elems);
    for (int l = 0; l < fx.m.n_levels; ++l) {
      // order(l) is a permutation of [0, n_in).
      std::vector<bool> seen(static_cast<std::size_t>(fx.m.n_in()), false);
      for (std::int64_t i = 0; i < fx.m.n_in(); ++i) {
        const std::int32_t q = loc.order(l)[i];
        ASSERT_GE(q, 0);
        ASSERT_LT(q, fx.m.n_in());
        ASSERT_FALSE(seen[static_cast<std::size_t>(q)]) << "duplicate query " << q;
        seen[static_cast<std::size_t>(q)] = true;
      }
      // tiles(l) is a contiguous partition of [0, n_in), keys ascending,
      // and within each run query ids ascend (stable sort keeps ties in
      // submission order — the determinism anchor).
      std::int64_t cursor = 0;
      std::int32_t prev_key = -1;
      for (const kernels::LocalityPlan::TileRange& t : loc.tiles(l)) {
        EXPECT_EQ(t.begin, cursor);
        EXPECT_LT(t.begin, t.end);
        EXPECT_GT(t.key, prev_key);
        for (std::int64_t i = t.begin + 1; i < t.end; ++i) {
          EXPECT_LT(loc.order(l)[i - 1], loc.order(l)[i]);
        }
        prev_key = t.key;
        cursor = t.end;
      }
      EXPECT_EQ(cursor, fx.m.n_in());
      // The everything-one-tile degenerate schedule collapses to at most
      // two runs: tile 0 plus the trailing all-out-of-bounds bucket.
      if (tile_elems == std::int64_t{1} << 40) {
        EXPECT_LE(loc.tiles(l).size(), 2u);
        EXPECT_EQ(loc.tiles(l).front().key, 0);
      }
    }
  }
}

TEST(PlanCache, LocalityGetHitsAndFeedsGlobalCounters) {
  Fixture fx;
  const kernels::PlanCache::GlobalStats before = kernels::PlanCache::global_stats();
  kernels::PlanCache cache;
  const auto plan = cache.get("layer0", fx.m, fx.locs);
  const auto a = cache.get_locality("layer0#loc64", fx.m, *plan, 64);
  const auto b = cache.get_locality("layer0#loc64", fx.m, *plan, 64);
  EXPECT_EQ(a.get(), b.get());  // same shared locality plan
  // Different tile size under a different key is a distinct entry.
  const auto c = cache.get_locality("layer0#loc128", fx.m, *plan, 128);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 3u);  // one sampling plan + two locality plans
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Instance traffic is mirrored into the process-wide counters the
  // engine's metrics read (plan caches live inside pooled contexts).
  kernels::PlanCache::GlobalStats now = kernels::PlanCache::global_stats();
  EXPECT_EQ(now.hits - before.hits, 1u);
  EXPECT_EQ(now.misses - before.misses, 3u);
  EXPECT_EQ(now.entries - before.entries, 3u);
  cache.clear();
  now = kernels::PlanCache::global_stats();
  EXPECT_EQ(now.entries, before.entries);  // the gauge drops on clear()
  EXPECT_EQ(now.misses - before.misses, 3u);  // counters survive clear()
}

TEST(PlanCache, GlobalCountersSurfaceThroughEngineStats) {
  api::Engine engine(api::Engine::Options{.memoize_results = false});
  engine.reset_stats();
  api::EvalRequest req;
  req.preset = "tiny";
  req.outputs = api::kFunctional;
  req.backend = "quill";  // wants_plan + wants_locality -> both cache kinds
  // PAP-only keeps the sampling locations dense, so run() reuses the
  // cached per-layer plans (the default defa config narrows + quantizes,
  // which moves geometry and bypasses the cache).
  req.prune = PruneConfig::only_pap();
  (void)engine.run(req);
  const api::Engine::CacheStats first = engine.cache_stats();
  EXPECT_GT(first.plan_misses, 0u);
  EXPECT_GT(first.plan_entries, 0u);
  // The same workload again only hits (dense geometry is cached per layer).
  (void)engine.run(req);
  const api::Engine::CacheStats second = engine.cache_stats();
  EXPECT_EQ(second.plan_misses, first.plan_misses);
  EXPECT_GT(second.plan_hits, first.plan_hits);
  // reset_stats zeroes the counters but not the resident-entries gauge.
  engine.reset_stats();
  const api::Engine::CacheStats reset = engine.cache_stats();
  EXPECT_EQ(reset.plan_hits, 0u);
  EXPECT_EQ(reset.plan_misses, 0u);
  EXPECT_EQ(reset.plan_entries, second.plan_entries);
}

TEST(PlanCache, PipelineReusesLayerPlansAcrossConfigs) {
  const ModelConfig m = ModelConfig::tiny();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const EncoderPipeline pipe(wl);
  const kernels::Backend& fused = kernels::backend("fused");

  // Building the reference trajectory populates one plan per layer...
  (void)pipe.run(PruneConfig::baseline(), &fused);
  const kernels::PlanCache::Stats after_build = pipe.plan_cache_stats();
  EXPECT_EQ(after_build.misses, static_cast<std::uint64_t>(m.n_layers));

  // ...and dense-geometry configs (PAP/FWP-only) only ever hit.
  (void)pipe.run(PruneConfig::only_pap(), &fused);
  (void)pipe.run(PruneConfig::only_fwp(), &fused);
  const kernels::PlanCache::Stats after_runs = pipe.plan_cache_stats();
  EXPECT_EQ(after_runs.misses, after_build.misses);
  EXPECT_GE(after_runs.hits,
            after_build.hits + 2 * static_cast<std::uint64_t>(m.n_layers));

  // Geometry-moving configs (quantize/narrow) bypass the cache entirely.
  (void)pipe.run(PruneConfig::only_quant(12), &fused);
  EXPECT_EQ(pipe.plan_cache_stats().misses, after_runs.misses);
}

// ------------------------------------------------------- unknown-name paths

TEST(BackendErrors, EngineOptionsRejectUnknownBackend) {
  api::Engine::Options opts;
  opts.backend = "no_such_backend";
  EXPECT_THROW(api::Engine{opts}, CheckError);
}

TEST(BackendErrors, RequestValidateRejectsUnknownBackend) {
  api::EvalRequest req;
  req.preset = "tiny";
  req.backend = "no_such_backend";
  EXPECT_THROW(req.validate(), CheckError);
  api::Engine engine;
  EXPECT_THROW((void)engine.run(req), CheckError);
}

TEST(BackendErrors, RequestJsonRoundTripsBackendField) {
  api::EvalRequest req;
  req.preset = "tiny";
  req.backend = "fused";
  const api::EvalRequest parsed = api::eval_request_from_json(api::to_json(req));
  ASSERT_TRUE(parsed.backend.has_value());
  EXPECT_EQ(*parsed.backend, "fused");
  EXPECT_EQ(parsed.request_key(), req.request_key());

  // An absent field stays absent (engine default applies at run time).
  api::EvalRequest plain;
  plain.preset = "tiny";
  EXPECT_FALSE(api::eval_request_from_json(api::to_json(plain)).backend.has_value());
}

TEST(BackendErrors, ScenarioFileRejectsUnknownBackend) {
  const char* text = R"({
    "scenarios": [{"name": "t", "request": {"preset": "tiny"}}],
    "server": {"backend": "no_such_backend"}
  })";
  EXPECT_THROW((void)serve::scenario_file_from_json(api::Json::parse(text)),
               CheckError);
}

TEST(BackendErrors, ScenarioFileAcceptsBackendAndMaxMemo) {
  const char* text = R"({
    "scenarios": [{"name": "t", "request": {"preset": "tiny"}}],
    "server": {"backend": "fused", "max_memo": 32}
  })";
  const serve::ScenarioFile file =
      serve::scenario_file_from_json(api::Json::parse(text));
  EXPECT_EQ(file.base.server.engine.backend, "fused");
  EXPECT_EQ(file.base.server.engine.max_memo, 32u);
}

}  // namespace
}  // namespace defa
