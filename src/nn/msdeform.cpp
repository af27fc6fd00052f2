#include "nn/msdeform.h"

#include <cmath>
#include <numbers>

#include "common/parallel.h"
#include "nn/bilinear.h"
#include "nn/linear.h"
#include "nn/softmax.h"

namespace defa::nn {

MsdaWeights MsdaWeights::random(const ModelConfig& m, Rng& rng) {
  const std::int64_t d = m.d_model;
  const std::int64_t hlp = m.points_per_query();
  MsdaWeights w;
  const float init_std = 1.0f / std::sqrt(static_cast<float>(d));
  w.w_attn = Tensor::randn({d, hlp}, rng, 0.0f, init_std);
  w.b_attn = Tensor::zeros({hlp});
  // Offsets: near-zero projection plus a ring-pattern bias, mirroring the
  // Deformable DETR initialization (point p of head h starts at angle
  // 2*pi*(h + p/P)/H with radius p+1).
  w.w_samp = Tensor::randn({d, hlp * 2}, rng, 0.0f, 0.05f * init_std);
  w.b_samp = Tensor::zeros({hlp * 2});
  for (int h = 0; h < m.n_heads; ++h) {
    for (int l = 0; l < m.n_levels; ++l) {
      for (int p = 0; p < m.n_points; ++p) {
        const double angle =
            2.0 * std::numbers::pi *
            (h + static_cast<double>(p) / m.n_points) / m.n_heads;
        const std::int64_t idx =
            ((static_cast<std::int64_t>(h) * m.n_levels + l) * m.n_points + p) * 2;
        w.b_samp.at_flat(idx) = static_cast<float>((p + 1) * std::cos(angle));
        w.b_samp.at_flat(idx + 1) = static_cast<float>((p + 1) * std::sin(angle));
      }
    }
  }
  w.w_value = Tensor::randn({d, d}, rng, 0.0f, init_std);
  w.b_value = Tensor::zeros({d});
  return w;
}

Tensor reference_points(const ModelConfig& m) {
  Tensor ref({m.n_in(), 2});
  std::int64_t q = 0;
  for (int l = 0; l < m.n_levels; ++l) {
    const LevelShape& lv = m.levels[static_cast<std::size_t>(l)];
    for (int y = 0; y < lv.h; ++y) {
      for (int x = 0; x < lv.w; ++x, ++q) {
        ref(q, 0) = (static_cast<float>(x) + 0.5f) / static_cast<float>(lv.w);
        ref(q, 1) = (static_cast<float>(y) + 0.5f) / static_cast<float>(lv.h);
      }
    }
  }
  return ref;
}

Tensor locs_from_offsets(const ModelConfig& m, const Tensor& ref_norm,
                         const Tensor& offsets_px) {
  const std::int64_t n = m.n_in();
  DEFA_CHECK(ref_norm.rank() == 2 && ref_norm.dim(0) == n, "ref shape");
  DEFA_CHECK(offsets_px.rank() == 5 && offsets_px.dim(0) == n &&
                 offsets_px.dim(1) == m.n_heads && offsets_px.dim(2) == m.n_levels &&
                 offsets_px.dim(3) == m.n_points && offsets_px.dim(4) == 2,
             "offsets shape must be (N,H,L,P,2)");
  Tensor locs = offsets_px;
  parallel_for(0, n, m.points_per_query(), [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t q = begin; q < end; ++q) {
      const float rx = ref_norm(q, 0);
      const float ry = ref_norm(q, 1);
      // The per-level center is head-invariant, so compute it once per
      // (query, level) instead of once per (query, head, level).
      for (int l = 0; l < m.n_levels; ++l) {
        const LevelShape& lv = m.levels[static_cast<std::size_t>(l)];
        const float cx = rx * static_cast<float>(lv.w) - 0.5f;
        const float cy = ry * static_cast<float>(lv.h) - 0.5f;
        for (int h = 0; h < m.n_heads; ++h) {
          for (int p = 0; p < m.n_points; ++p) {
            locs(q, h, l, p, 0) += cx;
            locs(q, h, l, p, 1) += cy;
          }
        }
      }
    }
  });
  return locs;
}

MsdaFields fields_from_weights(const ModelConfig& m, const Tensor& x,
                               const Tensor& ref_norm, const MsdaWeights& weights) {
  const std::int64_t n = m.n_in();
  DEFA_CHECK(x.rank() == 2 && x.dim(0) == n && x.dim(1) == m.d_model, "x shape");

  MsdaFields f;
  f.logits = linear(x, weights.w_attn, &weights.b_attn);
  f.logits.reshape({n, m.n_heads, m.points_per_head()});

  Tensor offsets = linear(x, weights.w_samp, &weights.b_samp);
  offsets.reshape({n, m.n_heads, m.n_levels, m.n_points, 2});
  f.locs = locs_from_offsets(m, ref_norm, offsets);
  return f;
}

Tensor msgs_aggregate_ref(const ModelConfig& m, const Tensor& values,
                          const Tensor& probs, const Tensor& locs) {
  const std::int64_t n = m.n_in();
  const int dh = m.d_head();
  DEFA_CHECK(values.rank() == 2 && values.dim(0) == n && values.dim(1) == m.d_model,
             "values shape");
  DEFA_CHECK(probs.rank() == 3 && probs.dim(0) == n && probs.dim(1) == m.n_heads &&
                 probs.dim(2) == m.points_per_head(),
             "probs shape");
  DEFA_CHECK(locs.rank() == 5 && locs.dim(0) == n, "locs shape");

  Tensor out({n, m.d_model});
  parallel_for(0, n, m.msgs_work_per_query(), [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t q = begin; q < end; ++q) {
      std::span<float> orow = out.row(q);
      for (int h = 0; h < m.n_heads; ++h) {
        std::span<float> head_out = orow.subspan(static_cast<std::size_t>(h * dh),
                                                 static_cast<std::size_t>(dh));
        for (int l = 0; l < m.n_levels; ++l) {
          for (int p = 0; p < m.n_points; ++p) {
            const float weight = probs(q, h, l * m.n_points + p);
            if (weight == 0.0f) continue;
            bi_sample_accumulate(m, values, l, locs(q, h, l, p, 0), locs(q, h, l, p, 1),
                                 h * dh, dh, weight, head_out);
          }
        }
      }
    }
  });
  return out;
}

Tensor msdeform_forward_ref(const ModelConfig& m, const Tensor& x,
                            const Tensor& ref_norm, const MsdaWeights& weights,
                            const kernels::Backend* backend) {
  const kernels::Backend& b = kernels::backend_or_default(backend);
  const MsdaFields f = fields_from_weights(m, x, ref_norm, weights);
  const Tensor probs = b.softmax_lastdim(f.logits);
  const Tensor values = b.linear(x, weights.w_value, &weights.b_value);
  return b.run_msgs(m, values, probs, f.locs, kernels::MsgsSpec{});
}

}  // namespace defa::nn
