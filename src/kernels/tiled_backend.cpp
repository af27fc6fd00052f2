// The `tiled` backend: intra-request parallelism for the fused MSGS +
// aggregation kernel.
//
// `fused` and `simd` parallelize across *queries*, which works until one
// large request arrives alone — parallel_for's work-sized floor and
// batch-level concurrency leave the machine idle.  This backend splits a
// single run_msgs call into (level x query-tile) work items executed on
// the shared defa::ThreadPool, the multi-scale-parallel decomposition of
// the paper: each item gathers from exactly one level's contiguous token
// range, so items have disjoint working sets and level-local cache
// behavior.
//
// Determinism is the hard part: fp32 addition is not associative, so
// "whichever thread finishes first accumulates" would make output bits a
// function of scheduling.  The fix is a two-phase scheme with a fixed
// reduction order:
//  * Phase A (parallel): item (l, tile) computes the per-point terms
//    w * bi_horner(...) — the exact operand chain of the reference
//    backend — into its own scratch slots.  No item writes another's.
//  * Reduce (parallel across tiles, sequential within a query): the item
//    that *last* finishes a tile (per-tile atomic countdown over levels)
//    sums that tile's terms in the reference's (l, p) order and writes the
//    output rows.  PAP-masked points are skipped in the sum exactly like
//    the reference `continue` — never added as 0.0f, which would turn a
//    -0.0f accumulator into +0.0f and break bit-identity.
// The reduction order is a pure function of the inputs, so the output is
// bit-identical to `reference` for every thread count and every
// scheduling interleave (tests/test_backend_differential.cpp proves this
// at threads=1 vs N and under a concurrently loaded pool).  The INTn path
// is int32-associative, so phase A stores per-level partial sums instead
// of per-point terms (P times less scratch) and the reduce just adds
// them.
//
// Scratch is bounded by processing queries in super-blocks: a few tiles
// per executor are in flight at once, the block's scratch is reused, and
// memory stays O(block) rather than O(n_in).
//
// DEFA_TILED_THREADS (testing knob) caps the executor count per call:
// unset or <= 0 means all of the pool, 1 means the calling thread alone.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "kernels/plan.h"
#include "nn/bilinear.h"
#include "nn/linear.h"
#include "nn/softmax.h"
#include "quant/fixed_point.h"
#include "quant/qmsgs.h"

namespace defa::kernels {

namespace {

/// Queries per tile.  Small enough that a (tile x level) item is a useful
/// scheduling quantum, large enough to amortize the countdown atomics.
constexpr std::int64_t kTileQueries = 16;

int tiled_max_concurrency() {
  if (const char* env = std::getenv("DEFA_TILED_THREADS");
      env != nullptr && *env != '\0') {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  return 0;  // run_indexed: the pool size
}

/// Tiles per super-block: enough in-flight work to keep every executor
/// busy while the scratch footprint stays a small multiple of one tile.
std::int64_t superblock_tiles() {
  const std::int64_t executors = parallel_concurrency();
  return std::max<std::int64_t>(4, executors * 2);
}

// ----------------------------------------------------------------- fp32

void run_fp32_tiled(const ModelConfig& m, const Tensor& values, const Tensor& probs,
                    const SamplingPlan& plan, const prune::PointMask* pmask,
                    Tensor& out) {
  const int dh = m.d_head();
  const int lp = m.points_per_head();
  const int H = m.n_heads;
  const int L = m.n_levels;
  const int P = m.n_points;
  const std::int32_t* offs = plan.offsets().data();
  const float* t0s = plan.t0().data();
  const float* t1s = plan.t1().data();
  const float* vdata = values.data().data();
  const float* pdata = probs.data().data();
  float* odata = out.data().data();
  const std::vector<float> zero_row(static_cast<std::size_t>(dh), 0.0f);
  const float* zero = zero_row.data();

  const std::int64_t sb_tiles = superblock_tiles();
  const std::int64_t sb_q = sb_tiles * kTileQueries;
  // Per-point terms of one super-block, indexed
  // (((q_local*H + h)*L + l)*P + p)*dh + c.
  std::vector<float> terms(static_cast<std::size_t>(sb_q) * H * L * P * dh);
  std::vector<std::atomic<int>> pending(static_cast<std::size_t>(sb_tiles));
  const int max_conc = tiled_max_concurrency();
  const std::int64_t point_stride = static_cast<std::int64_t>(P) * dh;
  const std::int64_t level_stride = static_cast<std::int64_t>(L) * point_stride;

  for (std::int64_t q0 = 0; q0 < m.n_in(); q0 += sb_q) {
    const std::int64_t q1 = std::min<std::int64_t>(q0 + sb_q, m.n_in());
    const std::int64_t n_tiles = (q1 - q0 + kTileQueries - 1) / kTileQueries;
    for (std::int64_t t = 0; t < n_tiles; ++t) {
      pending[static_cast<std::size_t>(t)].store(L, std::memory_order_relaxed);
    }

    // Level-major item order: all tiles of level 0, then level 1, ... so
    // concurrent items cluster on one level's contiguous token range.
    ThreadPool::global().run_indexed(L * n_tiles, max_conc, [&](std::int64_t i) {
      const int l = static_cast<int>(i / n_tiles);
      const std::int64_t t = i % n_tiles;
      const std::int64_t tq0 = q0 + t * kTileQueries;
      const std::int64_t tq1 = std::min<std::int64_t>(tq0 + kTileQueries, q1);

      for (std::int64_t q = tq0; q < tq1; ++q) {
        const std::int64_t ql = q - q0;
        for (int h = 0; h < H; ++h) {
          const float* prow = pdata + static_cast<std::size_t>((q * H + h) * lp);
          const std::int64_t base = plan.slot(l, q, h, 0);
          float* tbase =
              terms.data() + (ql * H + h) * level_stride + l * point_stride;
          for (int p = 0; p < P; ++p) {
            if (pmask != nullptr && !pmask->keep(q, h, l, p)) continue;
            const std::int64_t s = (base + p) * 4;
            const float* r0 = offs[s + 0] >= 0 ? vdata + offs[s + 0] : zero;
            const float* r1 = offs[s + 1] >= 0 ? vdata + offs[s + 1] : zero;
            const float* r2 = offs[s + 2] >= 0 ? vdata + offs[s + 2] : zero;
            const float* r3 = offs[s + 3] >= 0 ? vdata + offs[s + 3] : zero;
            const float t0 = t0s[base + p];
            const float t1 = t1s[base + p];
            const float w = prow[l * P + p];
            float* term = tbase + static_cast<std::int64_t>(p) * dh;
            for (int c = 0; c < dh; ++c) {
              term[c] = w * nn::bi_horner(r0[c], r1[c], r2[c], r3[c], t0, t1);
            }
          }
        }
      }

      // Last level to finish this tile reduces it, inside the same
      // run_indexed call — the barrier-free "fine-grained event" of the
      // multi-core tiling scheme.  acq pairs with the other items' rel so
      // their term writes are visible.
      if (pending[static_cast<std::size_t>(t)].fetch_sub(
              1, std::memory_order_acq_rel) != 1) {
        return;
      }
      std::vector<float> acc(static_cast<std::size_t>(dh));
      for (std::int64_t q = tq0; q < tq1; ++q) {
        const std::int64_t ql = q - q0;
        for (int h = 0; h < H; ++h) {
          std::fill(acc.begin(), acc.end(), 0.0f);
          const float* tbase = terms.data() + (ql * H + h) * level_stride;
          for (int rl = 0; rl < L; ++rl) {
            for (int p = 0; p < P; ++p) {
              if (pmask != nullptr && !pmask->keep(q, h, rl, p)) continue;
              const float* term = tbase + rl * point_stride +
                                  static_cast<std::int64_t>(p) * dh;
              for (int c = 0; c < dh; ++c) acc[static_cast<std::size_t>(c)] += term[c];
            }
          }
          float* head_out = odata + static_cast<std::size_t>(q * m.d_model + h * dh);
          for (int c = 0; c < dh; ++c) head_out[c] = acc[static_cast<std::size_t>(c)];
        }
      }
    });
  }
}

// ----------------------------------------------------------------- INTn

void run_quant_tiled(const ModelConfig& m, const quant::QTensor& qvalues, const Tensor& probs,
                     const SamplingPlan& plan, const MsgsSpec& spec, Tensor& out) {
  const int dh = m.d_head();
  const int lp = m.points_per_head();
  const int H = m.n_heads;
  const int L = m.n_levels;
  const int P = m.n_points;
  const std::int32_t* offs = plan.offsets().data();
  const float* t0s = plan.t0().data();
  const float* t1s = plan.t1().data();
  const float out_scale = qvalues.spec().scale;
  const std::int16_t* codes = qvalues.codes().data();
  const float* pdata = probs.data().data();
  float* odata = out.data().data();
  const std::vector<std::int16_t> zero_row(static_cast<std::size_t>(dh), 0);
  const std::int16_t* zero = zero_row.data();

  const std::int64_t sb_tiles = superblock_tiles();
  const std::int64_t sb_q = sb_tiles * kTileQueries;
  // Integer accumulation is associative, so phase A stores per-*level*
  // partial sums, indexed ((q_local*H + h)*L + l)*dh + c.
  std::vector<std::int32_t> partials(static_cast<std::size_t>(sb_q) * H * L * dh);
  std::vector<std::atomic<int>> pending(static_cast<std::size_t>(sb_tiles));
  const int max_conc = tiled_max_concurrency();
  const std::int64_t level_stride = static_cast<std::int64_t>(L) * dh;

  for (std::int64_t q0 = 0; q0 < m.n_in(); q0 += sb_q) {
    const std::int64_t q1 = std::min<std::int64_t>(q0 + sb_q, m.n_in());
    const std::int64_t n_tiles = (q1 - q0 + kTileQueries - 1) / kTileQueries;
    for (std::int64_t t = 0; t < n_tiles; ++t) {
      pending[static_cast<std::size_t>(t)].store(L, std::memory_order_relaxed);
    }

    ThreadPool::global().run_indexed(L * n_tiles, max_conc, [&](std::int64_t i) {
      const int l = static_cast<int>(i / n_tiles);
      const std::int64_t t = i % n_tiles;
      const std::int64_t tq0 = q0 + t * kTileQueries;
      const std::int64_t tq1 = std::min<std::int64_t>(tq0 + kTileQueries, q1);

      for (std::int64_t q = tq0; q < tq1; ++q) {
        const std::int64_t ql = q - q0;
        for (int h = 0; h < H; ++h) {
          const float* prow = pdata + static_cast<std::size_t>((q * H + h) * lp);
          const std::int64_t base = plan.slot(l, q, h, 0);
          std::int32_t* part =
              partials.data() + (ql * H + h) * level_stride + static_cast<std::int64_t>(l) * dh;
          std::fill(part, part + dh, 0);
          for (int p = 0; p < P; ++p) {
            if (spec.point_mask != nullptr && !spec.point_mask->keep(q, h, l, p)) continue;
            const std::int32_t prob_q =
                quant::to_fraction_code(prow[l * P + p], spec.frac_bits);
            if (prob_q == 0) continue;
            const std::int64_t s = (base + p) * 4;
            const std::int16_t* r0 = offs[s + 0] >= 0 ? codes + offs[s + 0] : zero;
            const std::int16_t* r1 = offs[s + 1] >= 0 ? codes + offs[s + 1] : zero;
            const std::int16_t* r2 = offs[s + 2] >= 0 ? codes + offs[s + 2] : zero;
            const std::int16_t* r3 = offs[s + 3] >= 0 ? codes + offs[s + 3] : zero;
            const std::int32_t t0_q = quant::to_fraction_code(t0s[base + p], spec.frac_bits);
            const std::int32_t t1_q = quant::to_fraction_code(t1s[base + p], spec.frac_bits);
            for (int c = 0; c < dh; ++c) {
              const std::int32_t bi = quant::bi_horner_int(r0[c], r1[c], r2[c], r3[c],
                                                           t0_q, t1_q, spec.frac_bits);
              part[c] += quant::ag_weight_int(bi, prob_q, spec.frac_bits);
            }
          }
        }
      }

      if (pending[static_cast<std::size_t>(t)].fetch_sub(
              1, std::memory_order_acq_rel) != 1) {
        return;
      }
      for (std::int64_t q = tq0; q < tq1; ++q) {
        const std::int64_t ql = q - q0;
        for (int h = 0; h < H; ++h) {
          const std::int32_t* pbase = partials.data() + (ql * H + h) * level_stride;
          float* head_out = odata + static_cast<std::size_t>(q * m.d_model + h * dh);
          for (int c = 0; c < dh; ++c) {
            std::int32_t acc = 0;
            for (int rl = 0; rl < L; ++rl) {
              acc += pbase[static_cast<std::int64_t>(rl) * dh + c];
            }
            head_out[c] = static_cast<float>(acc) * out_scale;
          }
        }
      }
    });
  }
}

class TiledBackend final : public Backend {
 public:
  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "tiled";
    return kName;
  }

  [[nodiscard]] bool wants_plan() const noexcept override { return true; }

  [[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b) const override {
    return nn::matmul(a, b);
  }

  [[nodiscard]] Tensor linear(const Tensor& x, const Tensor& w,
                              const Tensor* bias) const override {
    return nn::linear(x, w, bias);
  }

  [[nodiscard]] Tensor softmax_lastdim(const Tensor& t) const override {
    return nn::softmax_lastdim(t);
  }

  [[nodiscard]] Tensor run_msgs_fp32(const ModelConfig& m, const Tensor& values,
                                     const Tensor& probs, const Tensor& locs,
                                     const MsgsSpec& spec) const override {
    return run(m, &values, nullptr, probs, locs, spec);
  }

  [[nodiscard]] Tensor run_msgs_int(const ModelConfig& m, const quant::QTensor& values,
                                    const Tensor& probs, const Tensor& locs,
                                    const MsgsSpec& spec) const override {
    return run(m, nullptr, &values, probs, locs, spec);
  }

 private:
  /// The fp32 path on `values`, or the INTn path on `codes` (one is null).
  static Tensor run(const ModelConfig& m, const Tensor* values, const quant::QTensor* codes,
                    const Tensor& probs, const Tensor& locs, const MsgsSpec& spec) {
    SamplingPlan local;
    const SamplingPlan* plan = spec.plan;
    if (plan == nullptr) {
      local = SamplingPlan::build(m, locs);
      plan = &local;
    }
    DEFA_CHECK(plan->matches(m), "tiled backend: sampling plan does not match the model");
    Tensor out({m.n_in(), m.d_model});
    if (codes != nullptr) {
      run_quant_tiled(m, *codes, probs, *plan, spec, out);
    } else {
      run_fp32_tiled(m, *values, probs, *plan, spec.point_mask, out);
    }
    return out;
  }
};

}  // namespace

namespace detail {
std::unique_ptr<Backend> make_tiled_backend() { return std::make_unique<TiledBackend>(); }
}  // namespace detail

}  // namespace defa::kernels
