// Unit tests for src/common: checks, RNG, statistics, tables, parallel_for
// and its work-sized chunking rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <span>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "config/model_config.h"
#include "quant/fixed_point.h"

namespace defa {
namespace {

// ---------------------------------------------------------------- DEFA_CHECK
TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(DEFA_CHECK(1 + 1 == 2, "math works"));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(DEFA_CHECK(false, "expected failure"), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    DEFA_CHECK(false, "distinctive-marker");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("distinctive-marker"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(Check, CheckErrorIsLogicError) {
  EXPECT_THROW(DEFA_CHECK(false, ""), std::logic_error);
}

// ------------------------------------------------------------------------ Rng
TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, RandintRespectsInclusiveBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.randint(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values reachable
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  Rng rng(123);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // Child stream differs from continuing the parent.
  EXPECT_NE(child.uniform(), a.uniform());
}

TEST(SmallRng, DeterministicAndSeedSensitive) {
  SmallRng a(10), b(10), c(11);
  EXPECT_EQ(a.next(), b.next());
  SmallRng a2(10);
  EXPECT_NE(a2.next(), c.next());
}

TEST(SmallRng, Uniform01InRange) {
  SmallRng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(SmallRng, NormalMoments) {
  SmallRng rng(4);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(SmallRng, BernoulliFrequency) {
  SmallRng rng(8);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(MixSeed, OrderSensitive) {
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
  EXPECT_NE(mix_seed(1, 2, 3), mix_seed(1, 3, 2));
  EXPECT_EQ(mix_seed(1, 2, 3), mix_seed(1, 2, 3));
}

// ---------------------------------------------------------------- RunningStats
TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Metrics, RmseAndNrmse) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{1.0f, 2.0f, 3.0f};
  EXPECT_DOUBLE_EQ(rmse(a, b), 0.0);
  EXPECT_DOUBLE_EQ(nrmse(a, b), 0.0);

  const std::vector<float> c{2.0f, 3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(rmse(a, c), 1.0);
  EXPECT_GT(nrmse(a, c), 0.0);
}

TEST(Metrics, NrmseScaleInvariance) {
  std::vector<float> a{1.0f, -2.0f, 3.0f, 0.5f};
  std::vector<float> b{1.1f, -1.9f, 3.2f, 0.4f};
  const double e1 = nrmse(a, b);
  for (auto& x : a) x *= 10.0f;
  for (auto& x : b) x *= 10.0f;
  EXPECT_NEAR(nrmse(a, b), e1, 1e-6);
}

TEST(Metrics, MaxAbsDiff) {
  const std::vector<float> a{0.0f, 1.0f};
  const std::vector<float> b{0.5f, -1.0f};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 2.0);
}

TEST(Metrics, SizeMismatchThrows) {
  const std::vector<float> a{1.0f};
  const std::vector<float> b{1.0f, 2.0f};
  EXPECT_THROW((void)rmse(a, b), CheckError);
  EXPECT_THROW((void)nrmse(a, b), CheckError);
}

// ------------------------------------------------------- fixed-block sums

/// nrmse written out: serial double sums within each 4096-element block,
/// the block partials added in block order.
double block_nrmse(const std::vector<float>& ref, const std::vector<float>& test) {
  if (ref.empty()) return 0.0;
  double err = 0.0, mag = 0.0;
  for (std::size_t lo = 0; lo < ref.size(); lo += 4096) {
    double block_err = 0.0, block_mag = 0.0;
    for (std::size_t i = lo; i < std::min(ref.size(), lo + 4096); ++i) {
      const double d = static_cast<double>(ref[i]) - static_cast<double>(test[i]);
      block_err += d * d;
      block_mag += static_cast<double>(ref[i]) * static_cast<double>(ref[i]);
    }
    err += block_err;
    mag += block_mag;
  }
  if (mag == 0.0) return err == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return std::sqrt(err / mag);
}

/// Sizes around one block, and one of 40 blocks and a tail, which is
/// above kMinParallelWork and so fans out over several chunks.
constexpr std::size_t kBlockSumSizes[] = {0, 1, 4095, 4096, 4097, 40 * 4096 + 123};

TEST(FixedBlockSum, BlocksAre4096Elements) {
  EXPECT_EQ(kSumBlock, 4096);
  EXPECT_EQ(sum_block_count(0), 0);
  EXPECT_EQ(sum_block_count(1), 1);
  EXPECT_EQ(sum_block_count(4096), 1);
  EXPECT_EQ(sum_block_count(4097), 2);
  ASSERT_GT(parallel_chunks(sum_block_count(40 * 4096 + 123), 2 * kSumBlock, 4).count, 1);
}

TEST(FixedBlockSum, VisitsEveryBlockOnceWithItsBounds) {
  for (const std::size_t n : kBlockSumSizes) {
    const auto count = static_cast<std::size_t>(sum_block_count(static_cast<std::int64_t>(n)));
    std::vector<std::atomic<int>> visits(count);
    std::vector<std::int64_t> lo(count, -1), hi(count, -1);
    for_each_sum_block(static_cast<std::int64_t>(n), 2,
                       [&](std::int64_t b, std::int64_t begin, std::int64_t end) {
                         visits[static_cast<std::size_t>(b)].fetch_add(1);
                         lo[static_cast<std::size_t>(b)] = begin;
                         hi[static_cast<std::size_t>(b)] = end;
                       });
    for (std::size_t b = 0; b < count; ++b) {
      EXPECT_EQ(visits[b].load(), 1) << "n " << n << " block " << b;
      EXPECT_EQ(lo[b], static_cast<std::int64_t>(b * 4096));
      EXPECT_EQ(hi[b], static_cast<std::int64_t>(std::min(n, (b + 1) * 4096)));
    }
  }
}

TEST(FixedBlockSum, NrmseMatchesSerialPerBlockLoop) {
  Rng rng(99);
  for (const std::size_t n : kBlockSumSizes) {
    std::vector<float> ref(n), test(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Values and errors over many binades, so the order of the adds,
      // within and across blocks, shows in the bits.
      ref[i] = static_cast<float>(rng.normal(0.0, 1.0) * std::exp(rng.uniform(-12.0, 12.0)));
      test[i] = ref[i] + static_cast<float>(rng.normal(0.0, 1.0) * std::exp(rng.uniform(-12.0, 12.0)));
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(nrmse(ref, test)),
              std::bit_cast<std::uint64_t>(block_nrmse(ref, test)))
        << "n " << n;
  }
}

TEST(FixedBlockSum, NrmsePartialsAddInBlockOrder) {
  // Block 0's reference partial is 4096; each later block's is 2^-42, a
  // quarter of 4096's ulp.  Added in block order every small partial
  // rounds away; any other order lets them gather into a few ulps first.
  // The error is 1 in block 0 and 0 elsewhere, 4096 in any order.
  const std::size_t n = 41 * 4096;
  std::vector<float> ref(n, std::ldexp(1.0f, -27));
  std::fill_n(ref.begin(), 4096, 1.0f);
  std::vector<float> test = ref;
  std::fill_n(test.begin(), 4096, 2.0f);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(nrmse(ref, test)),
            std::bit_cast<std::uint64_t>(block_nrmse(ref, test)));
  EXPECT_EQ(nrmse(ref, test), 1.0);
}

// ---------------------------------------------- block-aligned chunking

TEST(BlockAlignedChunks, ItemsPerBlockQuantum) {
  EXPECT_EQ(sum_block_items(256), 16);  // rows of d_model 256
  EXPECT_EQ(sum_block_items(128), 32);  // queries of 8 x 4 x 4 points
  EXPECT_EQ(sum_block_items(48), 256);  // 3 heads: 3 blocks per quantum
  EXPECT_EQ(sum_block_items(4096), 1);
  EXPECT_EQ(sum_block_items(5000), 512);
  EXPECT_EQ(sum_block_items(3), 4096);
  EXPECT_EQ(sum_block_items(1), 4096);
  EXPECT_THROW((void)sum_block_items(0), CheckError);
}

TEST(BlockAlignedChunks, EveryBoundaryIsABlockBoundary) {
  // Items-per-block values that divide 4096 and ones that do not.
  for (const std::int64_t elems : {1, 3, 48, 100, 128, 256, 4096, 5000}) {
    for (const std::int64_t n : {1, 17, 426, 1700, 4484, 100003}) {
      for (const int concurrency : {1, 2, 4, 8}) {
        const ChunkPlan plan = block_aligned_chunks(n, kMinParallelWork, elems, concurrency);
        SCOPED_TRACE("elems " + std::to_string(elems) + " n " + std::to_string(n) +
                     " concurrency " + std::to_string(concurrency));
        ASSERT_GE(plan.count, 1);
        EXPECT_GE(plan.size * plan.count, n);
        EXPECT_LT(plan.size * (plan.count - 1), n);
        // Never more chunks than parallel_chunks would make.
        EXPECT_LE(plan.count, parallel_chunks(n, kMinParallelWork, concurrency).count);
        for (std::int64_t c = 1; c < plan.count; ++c) {
          EXPECT_EQ(c * plan.size * elems % kSumBlock, 0) << "chunk " << c;
        }
      }
    }
  }
  // Fans out when there are several quanta of work to share.
  EXPECT_GT(block_aligned_chunks(4484, kMinParallelWork, 128, 4).count, 1);
  EXPECT_GT(block_aligned_chunks(1020, kMinParallelWork, 48, 4).count, 1);
}

TEST(BlockAlignedChunks, BelowOneBlockRunsAsOneChunk) {
  for (const std::int64_t elems : {1, 48, 128, 256, 1000}) {
    const std::int64_t n = (kSumBlock - 1) / elems;
    EXPECT_EQ(block_aligned_chunks(n, 100 * kMinParallelWork, elems, 8).count, 1)
        << "elems " << elems;
  }
  // A single run covers every item on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  run_chunks(block_aligned_chunks(31, 100 * kMinParallelWork, 128, 8), 31,
             [&](std::int64_t c, std::int64_t b, std::int64_t e) {
               ++calls;
               EXPECT_EQ(c, 0);
               EXPECT_EQ(b, 0);
               EXPECT_EQ(e, 31);
               EXPECT_EQ(std::this_thread::get_id(), caller);
             });
  EXPECT_EQ(calls, 1);
}

TEST(BlockAlignedChunks, ChunkSerialSumsMatchForEachSumBlockBits) {
  // Rows of `elems` values; each chunk adds its rows' elements to the
  // partial of their block in order, splitting rows at block boundaries.
  Rng rng(7);
  for (const std::int64_t elems : {48, 100, 256}) {
    for (const std::int64_t rows : {3, 200, 1777}) {
      const auto n = static_cast<std::size_t>(rows * elems);
      std::vector<float> ref(n), test(n);
      for (std::size_t i = 0; i < n; ++i) {
        ref[i] = static_cast<float>(rng.normal(0.0, 1.0) * std::exp(rng.uniform(-12.0, 12.0)));
        test[i] = ref[i] + static_cast<float>(rng.normal(0.0, 1.0) *
                                              std::exp(rng.uniform(-12.0, 12.0)));
      }
      std::vector<ErrorSums> part(static_cast<std::size_t>(sum_block_count(rows * elems)));
      std::vector<std::atomic<int>> chunk_hits(64);
      const ChunkPlan plan = block_aligned_chunks(rows, kMinParallelWork, elems, 4);
      run_chunks(plan, rows, [&](std::int64_t c, std::int64_t r0, std::int64_t r1) {
        chunk_hits[static_cast<std::size_t>(c)].fetch_add(1);
        for (std::int64_t lo = r0 * elems; lo < r1 * elems;) {
          const std::int64_t b = lo / kSumBlock;
          const std::int64_t hi = std::min(r1 * elems, (b + 1) * kSumBlock);
          const std::span<const float> rs(ref), ts(test);
          part[static_cast<std::size_t>(b)].add(
              rs.subspan(static_cast<std::size_t>(lo), static_cast<std::size_t>(hi - lo)),
              ts.subspan(static_cast<std::size_t>(lo), static_cast<std::size_t>(hi - lo)));
          lo = hi;
        }
      });
      for (std::int64_t c = 0; c < plan.count; ++c) {
        EXPECT_EQ(chunk_hits[static_cast<std::size_t>(c)].load(), 1);
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(nrmse_of_blocks(part)),
                std::bit_cast<std::uint64_t>(nrmse(ref, test)))
          << "elems " << elems << " rows " << rows;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(nrmse(ref, test)),
                std::bit_cast<std::uint64_t>(block_nrmse(ref, test)));
    }
  }
}

// ------------------------------------------------------------------ TextTable
TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.new_row().add("alpha").add_num(1.5, 1);
  t.new_row().add("beta").add_int(42);
  const std::string s = t.str("Title");
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, TooManyCellsThrows) {
  TextTable t({"only"});
  t.new_row().add("x");
  EXPECT_THROW(t.add("y"), CheckError);
}

TEST(TextTable, AddBeforeRowThrows) {
  TextTable t({"c"});
  EXPECT_THROW(t.add("x"), CheckError);
}

TEST(Format, PercentAndRatio) {
  EXPECT_EQ(percent(0.433), "43.3%");
  EXPECT_EQ(ratio(3.06), "3.06x");
}

// ---------------------------------------------------------------- parallel_for
TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(0, 10000, kMinParallelWork, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, kMinParallelWork, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, InvertedRangeThrows) {
  EXPECT_THROW(parallel_for(2, 1, 1, [](std::int64_t, std::int64_t) {}), CheckError);
}

TEST(ParallelFor, SmallRangeRunsInline) {
  // 10 items of 100 work units each are far below the floor: one call on
  // the calling thread covering the whole range.
  ASSERT_EQ(parallel_chunks(10, 100).count, 1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for(3, 13, 100, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_EQ(b, 3);
    EXPECT_EQ(e, 13);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelChunks, FloorCountsWorkNotItems) {
  // The same 64 items run inline or fan out depending on their cost.
  EXPECT_EQ(parallel_chunks(64, kMinParallelWork / 64 - 1, 4).count, 1);
  EXPECT_GT(parallel_chunks(64, kMinParallelWork / 64, 4).count, 1);
  // One item that alone reaches the floor still has nothing to split.
  EXPECT_EQ(parallel_chunks(1, kMinParallelWork, 4).count, 1);
  EXPECT_EQ(parallel_chunks(0, kMinParallelWork, 4).count, 0);
  // A single executor never fans out; work below 1 counts as 1.
  EXPECT_EQ(parallel_chunks(1 << 20, kMinParallelWork, 1).count, 1);
  EXPECT_EQ(parallel_chunks(kMinParallelWork, 0, 4).count, 16);
}

TEST(ParallelChunks, BoundariesDependOnlyOnItemsAndConcurrency) {
  for (const std::int64_t n : {2, 17, 100, 426, 4484, 100003}) {
    for (const int concurrency : {2, 4, 8}) {
      const ChunkPlan a = parallel_chunks(n, kMinParallelWork, concurrency);
      const ChunkPlan b = parallel_chunks(n, 7 * kMinParallelWork, concurrency);
      EXPECT_EQ(a.size, b.size);
      EXPECT_EQ(a.count, b.count);
      // At most four chunks per executor, and together they cover [0, n).
      EXPECT_LE(a.count, 4 * concurrency);
      EXPECT_GE(a.size * a.count, n);
      EXPECT_LT(a.size * (a.count - 1), n);
    }
  }
}

// The per-query parallel_for sites of one encoder request, each with the
// work estimate its source passes.
struct Site {
  const char* name;
  std::int64_t items;
  std::int64_t work_per_item;
};

std::vector<Site> request_sites(const ModelConfig& m, int concurrency) {
  const std::int64_t n = m.n_in();
  const std::int64_t d = m.d_model;
  const std::int64_t shard = (n + concurrency - 1) / concurrency;
  return {
      {"run_msgs (every backend), msgs_aggregate_ref", n, m.msgs_work_per_query()},
      {"SamplingPlan::build", n, m.points_per_query() * 16},
      {"clamp_to_range", n, m.points_per_query() * 4},
      {"quantize_offsets", n, m.points_per_query() * 2 * quant::kQuantizeWork},
      {"matmul (value projection)", n, d * d},
      {"rms_norm_rows", n, d},
      {"softmax_lastdim (logits)", n * m.n_heads, m.points_per_head() * 8},
      {"quill INTn scatter", n, d},
      {"fake_quantize (values)", n * d, quant::kQuantizeWork},
      {"MsgsEngine::run (one shard per executor)", concurrency,
       shard * m.points_per_query() * 48},
  };
}

/// frame16x20: a 16 x 20 base halved three times, 426 queries.
ModelConfig frame16x20() {
  ModelConfig m;
  m.name = "frame16x20";
  m.n_layers = 2;
  m.levels = {{16, 20}, {8, 10}, {4, 5}, {2, 3}};
  m.seed = 7;
  m.validate();
  return m;
}

TEST(ParallelChunks, TinyPresetRequestSitesStayInline) {
  const ModelConfig m = ModelConfig::tiny();
  for (const Site& s : request_sites(m, 4)) {
    EXPECT_EQ(parallel_chunks(s.items, s.work_per_item, 4).count, 1) << s.name;
  }
  // Per-query loops too cheap to fan out at any preset size.
  EXPECT_EQ(parallel_chunks(m.n_in(), m.points_per_query(), 4).count, 1)
      << "locs_from_offsets";
  EXPECT_EQ(parallel_chunks(m.n_in(), 4, 4).count, 1) << "LocalityPlan keys";
}

TEST(ParallelChunks, Frame16x20RequestSitesFanOut) {
  const ModelConfig m = frame16x20();
  ASSERT_EQ(m.n_in(), 426);
  for (const Site& s : request_sites(m, 4)) {
    EXPECT_GT(parallel_chunks(s.items, s.work_per_item, 4).count, 1) << s.name;
  }
}

TEST(ParallelChunks, SceneGenerationFansOutEvenOnTinyScenes) {
  // SceneWorkload's per-token fmap and per-query layer_fields loops are
  // dominated by exp/tanh/normal calls (32 units each).  Even a tiny scene
  // is ~0.1 ms (fmap) and ~0.45 ms (one layer's fields) of serial work, so
  // both fan out; they run once per scene, off the per-request path.
  constexpr std::int64_t kTranscendental = 32;
  constexpr std::int64_t kObjects = 14;  // SceneParams default
  for (const ModelConfig& m : {ModelConfig::tiny(), frame16x20()}) {
    const std::int64_t fmap_work =
        m.d_model * kTranscendental + kObjects * (kTranscendental + m.d_model);
    const std::int64_t fields_work = m.points_per_query() * (kObjects + 2) * kTranscendental;
    EXPECT_GT(parallel_chunks(m.n_in(), fmap_work, 4).count, 1) << m.name;
    EXPECT_GT(parallel_chunks(m.n_in(), fields_work, 4).count, 1) << m.name;
  }
}

TEST(ParallelFor, HardwareThreadsPositive) {
  EXPECT_GE(hardware_threads(), 1);
  EXPECT_LE(hardware_threads(), 32);
}

#if defined(__linux__)
TEST(ParallelFor, HardwareThreadsCountsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(hardware_threads(), std::clamp(CPU_COUNT(&saved), 1, 32));

  // Pin this thread to (at most) two of its CPUs, as `taskset -c 0,1`
  // would: the count follows the mask, not the machine.
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu = 0; cpu < CPU_SETSIZE && CPU_COUNT(&pinned) < 2; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) CPU_SET(cpu, &pinned);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(pinned), &pinned), 0);
  const int pinned_threads = hardware_threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned_threads, CPU_COUNT(&pinned));
}
#endif

}  // namespace
}  // namespace defa
