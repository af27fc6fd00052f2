#include "core/fused_layer.h"

#include <algorithm>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "kernels/reference_int.h"
#include "nn/softmax.h"

namespace defa::core {

namespace {

/// Per point, beside the gather's own work: the fake-quantized softmax
/// (~8 + 2 ns), PAP (~2), requantizing and clamping the offset (~8) and
/// counting the neighbors (~8).
constexpr std::int64_t kFusedPointWork = 26;

/// What one chunk of pass 1 tallies; merged after the pass.
struct ChunkState {
  std::int64_t pruned = 0;
  prune::ClampTally clamp;
  std::optional<prune::FreqCounter> freq;
};

}  // namespace

FusedLayerResult run_fused_int_layer(const ModelConfig& m, const Tensor& ref_norm,
                                     const nn::MsdaFields& fields, const quant::QTensor& values,
                                     const FusedLayerSpec& spec, int concurrency) {
  const std::int64_t n = m.n_in();
  const std::int64_t pq = m.points_per_query();
  const std::int64_t lp = m.points_per_head();
  const std::int64_t total = n * pq;
  DEFA_CHECK(fields.logits.rank() == 3 && fields.logits.dim(0) == n &&
                 fields.logits.dim(1) == m.n_heads && fields.logits.dim(2) == lp,
             "logits must be (N, H, L*P)");
  DEFA_CHECK(fields.locs.rank() == 5 && fields.locs.numel() == 2 * total,
             "locs must be (N, H, L, P, 2)");
  DEFA_CHECK(values.shape() == std::vector<std::int64_t>({n, m.d_model}),
             "values must be (N_in, D)");
  const bool pap = spec.pap_tau.has_value();
  DEFA_CHECK(!pap || (*spec.pap_tau >= 0.0 && *spec.pap_tau < 1.0),
             "PAP threshold must be in [0,1)");
  DEFA_CHECK(spec.bits >= 2 && spec.bits <= quant::kMaxBits,
             "supported widths are 2.." + std::to_string(quant::kMaxBits) + " bits");
  const prune::OffsetQuantizer offsets(m, ref_norm, spec.ranges);
  const float* logits = fields.logits.data().data();
  const float* locs = fields.locs.data().data();

  // Pass 0: both fits, maxima over the whole layer.
  float logit_max = 0.0f;
  float offset_max = 0.0f;
  std::mutex mu;
  parallel_for(0, n, 2 * pq, [&](std::int64_t q0, std::int64_t q1) {
    const float lm = quant::max_abs(
        std::span<const float>(logits + q0 * pq, static_cast<std::size_t>((q1 - q0) * pq)));
    const float om = offsets.max_abs(locs, q0, q1);
    const std::lock_guard<std::mutex> lock(mu);
    logit_max = std::max(logit_max, lm);
    offset_max = std::max(offset_max, om);
  });
  const quant::QuantSpec logit_spec = quant::QuantSpec::from_max_abs(logit_max, spec.bits);
  const quant::QuantSpec offset_spec = quant::QuantSpec::from_max_abs(offset_max, spec.bits);

  // Pass 1: chunks of whole kSumBlock blocks of points, each walked in
  // tiles of about one block.
  FusedLayerResult r{Tensor({n, m.d_model}), prune::PointMask(m), 0, {}, {}, std::nullopt};
  const ChunkPlan plan =
      block_aligned_chunks(n, m.msgs_work_per_query() + pq * kFusedPointWork, pq, concurrency);
  std::vector<ChunkState> chunks(static_cast<std::size_t>(std::max<std::int64_t>(plan.count, 1)));
  std::vector<double> mass_part(pap ? static_cast<std::size_t>(sum_block_count(total)) : 0);
  const float threshold = pap ? static_cast<float>(*spec.pap_tau) : 0.0f;
  const std::int64_t tile = std::max<std::int64_t>(1, kSumBlock / pq);
  std::uint8_t* keep = r.point_mask.bytes().data();
  kernels::IntGatherRange gather;
  gather.m = &m;
  gather.codes = values.codes().data();
  gather.act_bits = values.spec().bits;
  gather.out_scale = values.spec().scale;
  gather.frac_bits = spec.bits;

  run_chunks(plan, n, [&](std::int64_t c, std::int64_t c0, std::int64_t c1) {
    ChunkState& st = chunks[static_cast<std::size_t>(c)];
    if (spec.count_frequency) st.freq.emplace(m);
    std::vector<float> probs(static_cast<std::size_t>(tile * pq));
    std::vector<float> moved(static_cast<std::size_t>(tile * pq * 2));
    double mass = 0.0;  // the running partial of the current block
    for (std::int64_t t0 = c0; t0 < c1; t0 += tile) {
      const std::int64_t t1 = std::min(c1, t0 + tile);
      const std::int64_t first = t0 * pq;
      const std::int64_t last = t1 * pq;
      const std::span<float> p(probs.data(), static_cast<std::size_t>(last - first));

      // The rows of nn::quantized_softmax_lastdim.
      quant::fake_quantize_into(std::span<const float>(logits + first, p.size()), logit_spec, p);
      for (std::size_t row = 0; row < p.size(); row += static_cast<std::size_t>(lp)) {
        nn::softmax_inplace(p.subspan(row, static_cast<std::size_t>(lp)));
      }

      // PAP, each block's dropped mass carried across tiles until the
      // block ends.
      if (pap) {
        for (std::int64_t lo = first; lo < last;) {
          const std::int64_t b = lo / kSumBlock;
          const std::int64_t block_end = std::min(total, (b + 1) * kSumBlock);
          const std::int64_t hi = std::min(last, block_end);
          prune::pap_threshold(p.data() + (lo - first), static_cast<std::size_t>(hi - lo),
                               threshold, keep + lo, st.pruned, mass);
          if (hi == block_end) {
            mass_part[static_cast<std::size_t>(b)] = mass;
            mass = 0.0;
          }
          lo = hi;
        }
      }

      offsets.requantize(offset_spec, locs, moved.data(), t0, t1, st.clamp);

      kernels::IntGatherRange g = gather;
      g.n = t1 - t0;
      g.probs = p.data();
      g.locs = moved.data();
      g.keep = pap ? keep + first : nullptr;
      g.out = r.out.data().data() + t0 * m.d_model;
      g.freq = st.freq.has_value() ? &*st.freq : nullptr;
      kernels::reference_int_gather(g);
    }
  });

  // Merge the chunks: integer sums and maxima, then the block partials in
  // block order.
  prune::ClampTally clamp;
  std::int64_t pruned = 0;
  for (ChunkState& st : chunks) {
    pruned += st.pruned;
    clamp.merge(st.clamp);
    if (!st.freq.has_value()) continue;
    if (r.freq.has_value()) {
      r.freq->merge(*st.freq);
    } else {
      r.freq = std::move(st.freq);
    }
  }
  if (spec.count_frequency && !r.freq.has_value()) r.freq.emplace(m);
  r.kept_points = total - pruned;
  if (pap) {
    double dropped_mass = 0.0;
    for (const double part : mass_part) dropped_mass += part;
    r.pap.total_points = total;
    r.pap.pruned_points = pruned;
    const double qh = static_cast<double>(n) * m.n_heads;
    r.pap.mean_dropped_mass = qh > 0 ? dropped_mass / qh : 0.0;
  }
  if (spec.ranges != nullptr) r.clamp = clamp.stats(m);
  return r;
}

}  // namespace defa::core
