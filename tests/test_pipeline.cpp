// Integration tests for the DEFA encoder pipeline: baseline equivalence,
// technique isolation, reduction accounting and error monotonicity.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/fused_layer.h"
#include "core/msgs.h"
#include "core/pipeline.h"
#include "nn/linear.h"
#include "nn/softmax.h"
#include "quant/fixed_point.h"
#include "quant/qmsgs.h"

namespace defa::core {
namespace {

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture()
      : m_(ModelConfig::small()), wl_(make_wl()), pipe_(wl_) {}

  workload::SceneWorkload make_wl() {
    workload::SceneParams p;
    p.seed = m_.seed;
    return workload::SceneWorkload(m_, p);
  }

  ModelConfig m_;
  workload::SceneWorkload wl_;
  EncoderPipeline pipe_;
};

TEST_F(PipelineFixture, BaselineHasZeroErrorAndFullCounts) {
  const EncoderResult r = pipe_.run(PruneConfig::baseline());
  EXPECT_DOUBLE_EQ(r.final_nrmse, 0.0);
  EXPECT_DOUBLE_EQ(r.point_reduction(), 0.0);
  EXPECT_DOUBLE_EQ(r.pixel_reduction(), 0.0);
  EXPECT_DOUBLE_EQ(r.flop_reduction(), 0.0);
  ASSERT_EQ(static_cast<int>(r.layers.size()), m_.n_layers);
  for (const auto& l : r.layers) {
    EXPECT_EQ(l.kept_points, l.total_points);
    EXPECT_EQ(l.kept_pixels, l.total_pixels);
  }
}

TEST_F(PipelineFixture, DefaPrunesAndIncursBoundedError) {
  const EncoderResult r = pipe_.run(PruneConfig::defa_default(m_));
  EXPECT_GT(r.point_reduction(), 0.5);
  EXPECT_LT(r.point_reduction(), 0.95);
  EXPECT_GT(r.pixel_reduction(), 0.15);
  EXPECT_LT(r.pixel_reduction(), 0.7);
  EXPECT_GT(r.flop_reduction(), 0.3);
  EXPECT_LT(r.flop_reduction(), 0.7);
  EXPECT_GT(r.final_nrmse, 0.0);
  EXPECT_LT(r.final_nrmse, 1.0);
}

TEST_F(PipelineFixture, IsolationOnlyPapPrunesOnlyPoints) {
  const EncoderResult r = pipe_.run(PruneConfig::only_pap());
  EXPECT_GT(r.point_reduction(), 0.3);
  EXPECT_DOUBLE_EQ(r.pixel_reduction(), 0.0);
}

TEST_F(PipelineFixture, IsolationOnlyFwpPrunesOnlyPixels) {
  const EncoderResult r = pipe_.run(PruneConfig::only_fwp());
  EXPECT_DOUBLE_EQ(r.point_reduction(), 0.0);
  EXPECT_GT(r.pixel_reduction(), 0.02);
  // Layer 0 never has an incoming mask.
  EXPECT_EQ(r.layers[0].kept_pixels, r.layers[0].total_pixels);
  // Later layers do.
  EXPECT_LT(r.layers[2].kept_pixels, r.layers[2].total_pixels);
}

TEST_F(PipelineFixture, IsolationNarrowOnlyClamps) {
  const EncoderResult r = pipe_.run(PruneConfig::only_narrow(m_));
  EXPECT_DOUBLE_EQ(r.point_reduction(), 0.0);
  EXPECT_DOUBLE_EQ(r.pixel_reduction(), 0.0);
  EXPECT_GT(r.layers[0].clamp.clamped_points, 0);
  EXPECT_GT(r.final_nrmse, 0.0);
}

TEST_F(PipelineFixture, QuantizationErrorOrdering) {
  const double e12 = pipe_.run(PruneConfig::only_quant(12)).final_nrmse;
  const double e8 = pipe_.run(PruneConfig::only_quant(8)).final_nrmse;
  EXPECT_GT(e12, 0.0);
  EXPECT_GT(e8, e12 * 3.0);  // INT8 markedly worse (paper rejects it)
}

TEST_F(PipelineFixture, PapErrorMonotoneInTau) {
  double prev_err = -1.0;
  double prev_red = -1.0;
  for (double tau : {0.01, 0.03, 0.08}) {
    const EncoderResult r = pipe_.run(PruneConfig::only_pap(tau));
    EXPECT_GE(r.point_reduction(), prev_red);
    EXPECT_GE(r.final_nrmse, prev_err - 1e-9);
    prev_red = r.point_reduction();
    prev_err = r.final_nrmse;
  }
}

TEST_F(PipelineFixture, FlopAccountingIdentities) {
  const EncoderResult r = pipe_.run(PruneConfig::defa_default(m_));
  for (const auto& l : r.layers) {
    // Dense >= actual, both positive; attention projection never pruned.
    EXPECT_GT(l.flops_actual.total(), 0.0);
    EXPECT_LE(l.flops_actual.total(), l.flops_dense.total());
    EXPECT_DOUBLE_EQ(l.flops_actual.attn_proj, l.flops_dense.attn_proj);
    EXPECT_DOUBLE_EQ(l.flops_actual.softmax, l.flops_dense.softmax);
    // MSGS scales exactly with kept points.
    const double frac =
        static_cast<double>(l.kept_points) / static_cast<double>(l.total_points);
    EXPECT_NEAR(l.flops_actual.msgs_bi, l.flops_dense.msgs_bi * frac, 1.0);
  }
}

TEST_F(PipelineFixture, MasksMatchStats) {
  const EncoderResult r = pipe_.run(PruneConfig::defa_default(m_));
  ASSERT_EQ(r.point_masks.size(), r.layers.size());
  ASSERT_EQ(r.fmap_masks.size(), r.layers.size());
  for (std::size_t i = 0; i < r.layers.size(); ++i) {
    EXPECT_EQ(r.point_masks[i].kept_count(), r.layers[i].kept_points);
    EXPECT_EQ(r.fmap_masks[i].kept_count(), r.layers[i].kept_pixels);
  }
}

TEST_F(PipelineFixture, CachedFieldsStableAcrossRuns) {
  const Tensor& probs_before = pipe_.layer_probs(0);
  const float v = probs_before.at_flat(0);
  (void)pipe_.run(PruneConfig::defa_default(m_));
  EXPECT_EQ(pipe_.layer_probs(0).at_flat(0), v);
}

TEST_F(PipelineFixture, DeterministicAcrossRuns) {
  const EncoderResult a = pipe_.run(PruneConfig::defa_default(m_));
  const EncoderResult b = pipe_.run(PruneConfig::defa_default(m_));
  EXPECT_DOUBLE_EQ(a.final_nrmse, b.final_nrmse);
  EXPECT_EQ(a.layers[1].kept_points, b.layers[1].kept_points);
  EXPECT_EQ(a.layers[1].kept_pixels, b.layers[1].kept_pixels);
}

TEST(DenseFlops, MatchesClosedForm) {
  const ModelConfig m = ModelConfig::deformable_detr();
  const FlopCount f = dense_flops(m);
  const double n = static_cast<double>(m.n_in());
  // W_A: N x 256 x 128 MACs
  EXPECT_DOUBLE_EQ(f.attn_proj, 2.0 * n * 256 * 128);
  // W_S: one (x, y) pair per point, 2 columns of 256 each.
  EXPECT_DOUBLE_EQ(f.offset_proj, 2.0 * n * 128 * 2 * 256);
  EXPECT_DOUBLE_EQ(f.value_proj, 2.0 * n * 256 * 256);
  // MSGS: 4 MACs per channel per point; AG: 1 MAC.
  EXPECT_DOUBLE_EQ(f.msgs_bi, 2.0 * n * 128 * 32 * 4);
  EXPECT_DOUBLE_EQ(f.aggregation, 2.0 * n * 128 * 32);
  // MSGS is a small share of the module FLOPs (paper Sec. 2.2).
  EXPECT_LT(f.msgs_total() / f.total(), 0.2);
}

TEST(PrunedFlops, ScalesLinearly) {
  const ModelConfig m = ModelConfig::tiny();
  const FlopCount half = pruned_flops(m, m.n_in() * m.n_heads * m.n_levels *
                                             m.n_points / 2,
                                      m.n_in() / 2);
  const FlopCount full = dense_flops(m);
  EXPECT_NEAR(half.msgs_bi, full.msgs_bi / 2, 1e-6);
  EXPECT_NEAR(half.value_proj, full.value_proj / 2, full.value_proj * 0.02);
  EXPECT_DOUBLE_EQ(half.attn_proj, full.attn_proj);
}

// ------------------------------------------------------------------ goldens
// Results of the encoder, INTn projection and fixed-block nrmse sums
// included, pinned so every parallel stage is held to them bit for bit
// on every backend and at any thread count.

/// 4-level pyramid halving with ceil from an h x w base, 2 blocks.
ModelConfig pyramid_model(int h, int w) {
  ModelConfig m;
  m.name = "golden" + std::to_string(h) + "x" + std::to_string(w);
  m.n_layers = 2;
  m.seed = 7;
  for (int l = 0; l < 4; ++l) {
    m.levels.push_back(LevelShape{h, w});
    h = (h + 1) / 2;
    w = (w + 1) / 2;
  }
  m.validate();
  return m;
}

struct GoldenLayer {
  std::int64_t kept_points;
  std::int64_t kept_pixels;
  std::int64_t clamped_points;
  std::uint64_t out_nrmse_bits;
};

void expect_golden(const ModelConfig& m, std::uint64_t scene_seed, const PruneConfig& cfg,
                   std::uint64_t final_nrmse_bits, const std::vector<GoldenLayer>& layers) {
  workload::SceneParams p;
  p.seed = scene_seed;
  const workload::SceneWorkload wl(m, p);
  const EncoderPipeline pipe(wl);
  const EncoderResult r = pipe.run(cfg);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.final_nrmse), final_nrmse_bits)
      << "final_nrmse " << r.final_nrmse;
  ASSERT_EQ(r.layers.size(), layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    SCOPED_TRACE("layer " + std::to_string(i));
    EXPECT_EQ(r.layers[i].kept_points, layers[i].kept_points);
    EXPECT_EQ(r.layers[i].kept_pixels, layers[i].kept_pixels);
    EXPECT_EQ(r.layers[i].clamp.clamped_points, layers[i].clamped_points);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.layers[i].out_nrmse), layers[i].out_nrmse_bits);
  }
}

TEST(PipelineGolden, SweepShapeInt12) {
  // The threshold-sweep request class: 50x67 base, all four techniques at
  // off-default thresholds, INT12.
  const ModelConfig m = pyramid_model(50, 67);
  PruneConfig cfg;
  cfg.label = "sweep";
  cfg.pap = true;
  cfg.pap_tau = 0.0312;
  cfg.fwp = true;
  cfg.fwp_k = 0.645;
  cfg.narrow = true;
  cfg.ranges = RangeSpec::level_wise_default(m.n_levels);
  cfg.quantize = true;
  cfg.bits = 12;
  expect_golden(m, 20241017, cfg, 0x3fcae097b793c081ULL,
                {{80898, 4484, 24418, 0x3fbf9ba97b2c4c09ULL},
                 {81643, 1829, 24583, 0x3fd25f4daad7c8e4ULL}});
}

TEST(PipelineGolden, DefaDefault16x20) {
  const ModelConfig m = pyramid_model(16, 20);
  expect_golden(m, 3, PruneConfig::defa_default(m), 0x3fc3f0054882ea48ULL,
                {{7994, 426, 1481, 0x3fb8c67cb9cfb239ULL},
                 {8058, 208, 1452, 0x3fcff9fc757e5b10ULL}});
}

TEST(PipelineGolden, QuantOnlyInt8) {
  // Quantization without narrowing: the offsets move, nothing is clamped.
  const ModelConfig m = pyramid_model(16, 20);
  expect_golden(m, 5, PruneConfig::only_quant(8), 0x3fb53569fb5918c8ULL,
                {{54528, 426, 0, 0x3fb8455ea99366d7ULL},
                 {54528, 426, 0, 0x3fb895f02309c60cULL}});
}

// ------------------------------------------------ the fused INTn layer pass

/// 3 heads of 4 levels x 4 points: 48 points per query, which does not
/// divide kSumBlock, so chunks hold 256 queries (3 blocks) at a time.
ModelConfig three_head_model() {
  ModelConfig m;
  m.name = "three_heads";
  m.d_model = 48;
  m.n_heads = 3;
  m.n_points = 4;
  m.n_layers = 1;
  m.levels = {{24, 32}, {12, 16}, {6, 8}, {3, 4}};
  m.seed = 5;
  m.validate();
  return m;
}

/// The unfused chain run_fused_int_layer replaces.
FusedLayerResult oracle_layer(const ModelConfig& m, const Tensor& ref_norm,
                              const nn::MsdaFields& fields, const quant::QTensor& values,
                              const FusedLayerSpec& spec) {
  Tensor moved;
  const prune::ClampStats clamp =
      prune::quantize_and_clamp(m, ref_norm, spec.bits, spec.ranges, fields.locs, moved);
  const Tensor probs = nn::quantized_softmax_lastdim(fields.logits, spec.bits);
  prune::PapStats pap;
  prune::PointMask mask =
      spec.pap_tau.has_value() ? prune::pap_prune(m, probs, *spec.pap_tau, &pap) : prune::PointMask(m);
  MsgsOptions opt;
  opt.point_mask = &mask;
  opt.frac_bits = spec.bits;
  opt.backend = &kernels::backend("reference");
  FusedLayerResult r{run_msgs(m, values, probs, moved, opt), std::move(mask), 0, pap, clamp,
                     std::nullopt};
  r.kept_points = r.point_mask.kept_count();
  if (spec.count_frequency) r.freq = prune::count_sampled_frequency(m, moved, r.point_mask);
  return r;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every output bit, mask byte, count and stats field of `got` equals
/// `want`'s; doubles compared by their bits.
void expect_same_layer(const FusedLayerResult& got, const FusedLayerResult& want) {
  ASSERT_EQ(got.out.shape(), want.out.shape());
  EXPECT_EQ(std::memcmp(got.out.data().data(), want.out.data().data(),
                        want.out.data().size_bytes()),
            0)
      << "gather-aggregate output";
  ASSERT_EQ(got.point_mask.total(), want.point_mask.total());
  EXPECT_EQ(std::memcmp(got.point_mask.bytes().data(), want.point_mask.bytes().data(),
                        want.point_mask.bytes().size()),
            0)
      << "point mask";
  EXPECT_EQ(got.kept_points, want.kept_points);
  EXPECT_EQ(got.pap.total_points, want.pap.total_points);
  EXPECT_EQ(got.pap.pruned_points, want.pap.pruned_points);
  EXPECT_EQ(bits_of(got.pap.mean_dropped_mass), bits_of(want.pap.mean_dropped_mass))
      << got.pap.mean_dropped_mass << " vs " << want.pap.mean_dropped_mass;
  EXPECT_EQ(got.clamp.total_points, want.clamp.total_points);
  EXPECT_EQ(got.clamp.clamped_points, want.clamp.clamped_points);
  EXPECT_EQ(bits_of(got.clamp.max_excess_px), bits_of(want.clamp.max_excess_px));
  ASSERT_EQ(got.clamp.level_fraction.size(), want.clamp.level_fraction.size());
  for (std::size_t l = 0; l < want.clamp.level_fraction.size(); ++l) {
    EXPECT_EQ(bits_of(got.clamp.level_fraction[l]), bits_of(want.clamp.level_fraction[l]));
  }
  ASSERT_EQ(got.freq.has_value(), want.freq.has_value());
  if (want.freq.has_value()) {
    ASSERT_EQ(got.freq->size(), want.freq->size());
    std::int64_t differing = 0;
    for (std::int64_t t = 0; t < want.freq->size(); ++t) {
      differing += got.freq->count(t) != want.freq->count(t) ? 1 : 0;
    }
    EXPECT_EQ(differing, 0) << "FreqCounter tokens";
  }
}

/// Kept points whose probability code is 0: the gather skips them, the
/// frequency count must not.
std::int64_t kept_code_zero_points(const FusedLayerResult& r, const nn::MsdaFields& fields,
                                   int bits) {
  const Tensor probs = nn::quantized_softmax_lastdim(fields.logits, bits);
  std::int64_t n = 0;
  for (std::size_t i = 0; i < probs.data().size(); ++i) {
    n += r.point_mask.bytes()[i] != 0 && quant::to_fraction_code(probs.data()[i], bits) == 0;
  }
  return n;
}

/// The fused pass at one and at four executors' chunking, with and
/// without the frequency count, against the oracle chain.
void expect_fused_matches(const ModelConfig& m, const Tensor& ref_norm,
                          const nn::MsdaFields& fields, const quant::QTensor& values,
                          FusedLayerSpec spec) {
  spec.count_frequency = true;
  const FusedLayerResult want = oracle_layer(m, ref_norm, fields, values, spec);
  for (const int concurrency : {1, 4}) {
    SCOPED_TRACE("concurrency " + std::to_string(concurrency));
    expect_same_layer(run_fused_int_layer(m, ref_norm, fields, values, spec, concurrency), want);
  }
  spec.count_frequency = false;
  const FusedLayerResult no_count = run_fused_int_layer(m, ref_norm, fields, values, spec, 4);
  EXPECT_FALSE(no_count.freq.has_value());
  EXPECT_EQ(std::memcmp(no_count.out.data().data(), want.out.data().data(),
                        want.out.data().size_bytes()),
            0);
}

class FusedLayer : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] ModelConfig model() const {
    switch (GetParam()) {
      case 0: return ModelConfig::tiny();
      case 1: return ModelConfig::small();
      default: return three_head_model();
    }
  }
};

TEST_P(FusedLayer, MatchesOracleChainOverWidthsAndTechniques) {
  const ModelConfig m = model();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const nn::MsdaFields& fields = wl.layer_fields(0);
  const RangeSpec ranges = RangeSpec::level_wise_default(m.n_levels);
  for (const int bits : {8, 12, 16}) {
    const quant::QTensor values(wl.fmap(), bits);
    for (const std::optional<double> tau : {std::optional<double>{}, std::optional<double>{0.0},
                                            std::optional<double>{0.03}}) {
      for (const bool narrow : {false, true}) {
        SCOPED_TRACE("bits " + std::to_string(bits) + " pap " +
                     (tau ? std::to_string(*tau) : std::string("off")) + " narrow " +
                     std::to_string(narrow));
        FusedLayerSpec spec;
        spec.bits = bits;
        spec.pap_tau = tau;
        spec.ranges = narrow ? &ranges : nullptr;
        expect_fused_matches(m, wl.ref_norm(), fields, values, spec);
      }
    }
  }
}

TEST_P(FusedLayer, NonFiniteLocationsAndCodeZeroPointsMatchOracleChain) {
  const ModelConfig m = model();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const RangeSpec ranges = RangeSpec::level_wise_default(m.n_levels);
  const quant::QTensor values(wl.fmap(), 12);
  FusedLayerSpec spec;
  spec.bits = 12;
  spec.ranges = &ranges;

  // Logits far below the rest: their probabilities round to fraction code
  // 0, and without PAP (or at tau 0) those points stay kept.
  nn::MsdaFields code_zero = wl.layer_fields(0);
  for (std::int64_t q = 0; q < m.n_in(); q += 3) code_zero.logits(q, 0, 1) = -60.0f;
  for (const std::optional<double> tau : {std::optional<double>{}, std::optional<double>{0.0},
                                          std::optional<double>{0.03}}) {
    spec.pap_tau = tau;
    expect_fused_matches(m, wl.ref_norm(), code_zero, values, spec);
  }
  spec.pap_tau.reset();
  spec.count_frequency = true;
  EXPECT_GT(kept_code_zero_points(run_fused_int_layer(m, wl.ref_norm(), code_zero, values, spec),
                                  code_zero, spec.bits),
            0);

  // A NaN location requantizes to its center; a -inf one makes the fitted
  // offset scale infinite and every location NaN.
  nn::MsdaFields with_nan = wl.layer_fields(0);
  with_nan.locs(1, 0, 0, 1, 0) = std::numeric_limits<float>::quiet_NaN();
  with_nan.locs(2, 0, 1, 0, 1) = std::numeric_limits<float>::quiet_NaN();
  nn::MsdaFields with_inf = wl.layer_fields(0);
  with_inf.locs(3, 1, 0, 1, 1) = -std::numeric_limits<float>::infinity();
  for (const std::optional<double> tau : {std::optional<double>{}, std::optional<double>{0.03}}) {
    spec.pap_tau = tau;
    for (const RangeSpec* r : {static_cast<const RangeSpec*>(nullptr), &ranges}) {
      spec.ranges = r;
      expect_fused_matches(m, wl.ref_norm(), with_nan, values, spec);
      expect_fused_matches(m, wl.ref_norm(), with_inf, values, spec);
    }
  }
}

TEST_P(FusedLayer, FourExecutorsSplitTheLargerModels) {
  // The four-executor runs above exercise several chunks (and per-chunk
  // counters and tallies) wherever the model has the work for it.
  const ModelConfig m = model();
  const ChunkPlan plan =
      block_aligned_chunks(m.n_in(), m.msgs_work_per_query(), m.points_per_query(), 4);
  if (GetParam() == 0) {
    EXPECT_EQ(plan.count, 1);
  } else {
    EXPECT_GT(plan.count, 1);
    EXPECT_EQ(plan.size * m.points_per_query() % kSumBlock, 0);
  }
}

TEST_P(FusedLayer, PipelineMatchesTheStagedPath) {
  // The pipeline takes the fused pass on the reference backend's INTn
  // path and runs the stages on the others; both agree on every stat,
  // mask and error bit (the differential harness covers every backend).
  const ModelConfig m = model();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const EncoderPipeline pipe(wl);
  PruneConfig cfg = PruneConfig::defa_default(m);
  cfg.pap_tau = 0.04;
  const EncoderResult fused = pipe.run(cfg, &kernels::backend("reference"));
  const EncoderResult staged = pipe.run(cfg, &kernels::backend("fused"));
  EXPECT_EQ(bits_of(fused.final_nrmse), bits_of(staged.final_nrmse));
  ASSERT_EQ(fused.layers.size(), staged.layers.size());
  for (std::size_t l = 0; l < fused.layers.size(); ++l) {
    EXPECT_EQ(fused.layers[l].kept_points, staged.layers[l].kept_points);
    EXPECT_EQ(bits_of(fused.layers[l].pap.mean_dropped_mass),
              bits_of(staged.layers[l].pap.mean_dropped_mass));
    EXPECT_EQ(bits_of(fused.layers[l].out_nrmse), bits_of(staged.layers[l].out_nrmse));
    EXPECT_EQ(fused.layers[l].clamp.clamped_points, staged.layers[l].clamp.clamped_points);
    EXPECT_TRUE(std::equal(fused.point_masks[l].bytes().begin(),
                           fused.point_masks[l].bytes().end(),
                           staged.point_masks[l].bytes().begin()));
  }
}

INSTANTIATE_TEST_SUITE_P(Models, FusedLayer, ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           return info.param == 0 ? "tiny"
                                                  : info.param == 1 ? "small" : "three_heads";
                         });

// ------------------------------------------------ INTn value projection

TEST(ValueProjection, PrunedRowContentsLeaveCodesByteIdentical) {
  // A pruned row is never read: filling it with NaN or 1e30 gives the
  // codes and scale of the same input with that row zeroed.
  const ModelConfig m = ModelConfig::small();
  workload::SceneParams p;
  p.seed = m.seed;
  const workload::SceneWorkload wl(m, p);
  Tensor zeroed = wl.fmap();
  std::vector<std::uint8_t> keep(static_cast<std::size_t>(m.n_in()), 1);
  for (std::size_t r = 5; r < keep.size(); r += 3) keep[r] = 0;
  const std::int64_t pruned_row = 8;
  ASSERT_EQ(keep[pruned_row], 0);
  for (float& v : zeroed.row(pruned_row)) v = 0.0f;
  for (const int bits : {8, 12}) {
    const quant::QTensor want = project_value_codes(m, 1, zeroed, bits, keep);
    for (const float fill : {std::numeric_limits<float>::quiet_NaN(), 1e30f}) {
      SCOPED_TRACE("bits " + std::to_string(bits) + " fill " + std::to_string(fill));
      Tensor filled = zeroed;
      for (float& v : filled.row(pruned_row)) v = fill;
      const quant::QTensor got = project_value_codes(m, 1, filled, bits, keep);
      EXPECT_EQ(got.shape(), want.shape());
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got.spec().scale),
                std::bit_cast<std::uint32_t>(want.spec().scale));
      EXPECT_EQ(std::memcmp(got.codes().data(), want.codes().data(), want.codes().size_bytes()),
                0);
      for (std::int64_t j = 0; j < m.d_model; ++j) {
        ASSERT_EQ(got.code(pruned_row * m.d_model + j), 0);
      }
    }
  }
}

TEST(ValueProjection, EveryRowKeptIsTheIntegerProductOfWholeTensors) {
  // With no keep mask the activation codes are QTensor(x, bits), fitted
  // over every row, times the cached weight codes.
  const ModelConfig m = ModelConfig::tiny();
  workload::SceneParams p;
  p.seed = m.seed;
  const workload::SceneWorkload wl(m, p);
  const quant::QTensor all = project_value_codes(m, 0, wl.fmap(), 12);
  const quant::QTensor want = nn::int_matmul(quant::QTensor(wl.fmap(), 12),
                                             *layer_value_codes(m, 0, 12));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(all.spec().scale),
            std::bit_cast<std::uint32_t>(want.spec().scale));
  EXPECT_EQ(std::memcmp(all.codes().data(), want.codes().data(), want.codes().size_bytes()), 0);
}

// ---------------------------------------------------- value-weight cache

ModelConfig weight_model(std::uint64_t seed, int d_model) {
  ModelConfig m = ModelConfig::tiny();
  m.seed = seed;
  m.d_model = d_model;
  return m;
}

/// The weights drawn directly, bypassing the cache.
Tensor fresh_weights(std::uint64_t seed, int d_model, int layer) {
  Rng rng(mix_seed(seed, 0xBEEF, static_cast<std::uint64_t>(layer)));
  const float std = 1.0f / std::sqrt(static_cast<float>(d_model));
  return Tensor::randn({d_model, d_model}, rng, 0.0f, std);
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(ValueWeightCache, MatchesFreshDrawsAndSharesOneTensor) {
  struct Key {
    std::uint64_t seed;
    int d_model;
    int layer;
  };
  for (const Key k : {Key{7, 256, 0}, Key{7, 256, 1}, Key{11, 64, 2}, Key{7, 16, 0},
                      Key{0xC0FFEE, 32, 5}}) {
    SCOPED_TRACE("seed " + std::to_string(k.seed) + " d_model " + std::to_string(k.d_model) +
                 " layer " + std::to_string(k.layer));
    const ModelConfig m = weight_model(k.seed, k.d_model);
    const std::shared_ptr<const Tensor> first = layer_value_weights(m, k.layer);
    EXPECT_TRUE(bytes_equal(*first, fresh_weights(k.seed, k.d_model, k.layer)));
    EXPECT_EQ(layer_value_weights(m, k.layer).get(), first.get());
  }
}

TEST(ValueWeightCache, CachesQuantizedCodesBesideTheFp32Weights) {
  const ModelConfig m = weight_model(0x9E1A, 256);
  for (const int layer : {0, 1}) {
    const std::shared_ptr<const Tensor> fp32 = layer_value_weights(m, layer);
    for (const int bits : {8, 12, 16}) {
      SCOPED_TRACE("layer " + std::to_string(layer) + " bits " + std::to_string(bits));
      const std::shared_ptr<const quant::QTensor> q = layer_value_codes(m, layer, bits);
      const quant::QTensor want(*layer_value_weights(m, layer), bits);
      EXPECT_EQ(q->shape(), want.shape());
      EXPECT_EQ(q->spec().bits, bits);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(q->spec().scale),
                std::bit_cast<std::uint32_t>(want.spec().scale));
      EXPECT_EQ(std::memcmp(q->codes().data(), want.codes().data(), want.codes().size_bytes()),
                0);
      EXPECT_EQ(layer_value_codes(m, layer, bits).get(), q.get());
    }
    EXPECT_EQ(layer_value_weights(m, layer).get(), fp32.get());
  }
}

TEST(ValueWeightCache, StaysAtCapacityAndKeepsTheRecentlyUsed) {
  const ModelConfig kept = weight_model(0xAB0000, 16);
  const std::shared_ptr<const Tensor> kept_w = layer_value_weights(kept, 0);
  for (std::uint64_t s = 1; s <= kValueWeightCacheCapacity + 5; ++s) {
    (void)layer_value_weights(kept, 0);  // touch: most recently used again
    (void)layer_value_weights(weight_model(0xAB0000 + s, 16), 0);
    EXPECT_LE(value_weight_cache_size(), kValueWeightCacheCapacity);
  }
  EXPECT_EQ(value_weight_cache_size(), kValueWeightCacheCapacity);
  // Still cached: the same tensor comes back, not a rebuilt copy.
  EXPECT_EQ(layer_value_weights(kept, 0).get(), kept_w.get());
  // The oldest of the distinct seeds was evicted and is rebuilt on demand,
  // equal to the fresh draw.
  const ModelConfig evicted = weight_model(0xAB0001, 16);
  EXPECT_TRUE(bytes_equal(*layer_value_weights(evicted, 0), fresh_weights(0xAB0001, 16, 0)));
}

TEST(ValueWeightCache, ConcurrentFirstUseAgrees) {
  const ModelConfig m = weight_model(0x5EED5EED, 64);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Tensor>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together so the first uses overlap.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<std::size_t>(t)] = layer_value_weights(m, 3);
    });
  }
  for (std::thread& th : threads) th.join();
  const Tensor want = fresh_weights(0x5EED5EED, 64, 3);
  for (const auto& w : got) {
    ASSERT_NE(w, nullptr);
    EXPECT_TRUE(bytes_equal(*w, want));
  }
  // Whichever build won the insert is the one every later caller shares.
  const Tensor* cached = layer_value_weights(m, 3).get();
  EXPECT_EQ(layer_value_weights(m, 3).get(), cached);
}

}  // namespace
}  // namespace defa::core
