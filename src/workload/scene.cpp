#include "workload/scene.h"

#include <cmath>
#include <numbers>
#include <string>

#include "common/parallel.h"

namespace defa::workload {

namespace {

/// Gaussian salience contribution of one object at normalized distance² d2.
inline float blob_response(const ObjectBlob& b, float d2) noexcept {
  return b.weight * std::exp(-d2 / (2.0f * b.sigma * b.sigma));
}

inline float dist2(float ax, float ay, float bx, float by) noexcept {
  const float dx = ax - bx;
  const float dy = ay - by;
  return dx * dx + dy * dy;
}

/// parallel_for work of one exp, tanh or normal draw, in kMinParallelWork's
/// units; the scene loops are dominated by these calls.
constexpr std::int64_t kTranscendentalWork = 32;

}  // namespace

SceneWorkload::SceneWorkload(ModelConfig model, SceneParams params)
    : model_(std::move(model)), params_(params) {
  model_.validate();
  DEFA_CHECK(params_.n_objects >= 1 && params_.n_objects <= kMaxObjects,
             "scene needs 1.." + std::to_string(kMaxObjects) + " objects");
  DEFA_CHECK(params_.seek_fraction >= 0.0 && params_.seek_fraction <= 1.0,
             "seek_fraction in [0,1]");

  Rng rng(params_.seed);

  // --- objects -------------------------------------------------------------
  objects_.reserve(static_cast<std::size_t>(params_.n_objects));
  for (int k = 0; k < params_.n_objects; ++k) {
    ObjectBlob b;
    b.cx = static_cast<float>(rng.uniform(0.08, 0.92));
    b.cy = static_cast<float>(rng.uniform(0.08, 0.92));
    b.sigma = static_cast<float>(rng.uniform(params_.object_sigma_min, params_.object_sigma_max));
    b.weight = static_cast<float>(rng.uniform(0.5, 1.5));
    objects_.push_back(b);
    peak_saliency_ = std::max(peak_saliency_, b.weight);
  }

  ref_ = nn::reference_points(model_);

  // --- feature maps ---------------------------------------------------------
  // Token feature = sum_k a_k(token) * f_k + background + noise, where f_k is
  // the object's random signature direction.  Coarser levels see the same
  // scene (a backbone pyramid is spatially aligned).
  const std::int64_t d = model_.d_model;
  Rng feat_rng = rng.split();
  std::vector<Tensor> signatures;
  signatures.reserve(objects_.size());
  for (std::size_t k = 0; k < objects_.size(); ++k) {
    signatures.push_back(Tensor::randn({d}, feat_rng, 0.0f, 1.0f));
  }
  const Tensor background = Tensor::randn({d}, feat_rng, 0.0f, 1.0f);

  fmap_ = Tensor({model_.n_in(), d});
  const std::uint64_t noise_seed = mix_seed(params_.seed, 0xFEA7u);
  // Per token: one noise draw per channel, one exp and one d-wide
  // multiply-add per object.
  const auto n_obj = static_cast<std::int64_t>(objects_.size());
  const std::int64_t token_work =
      d * kTranscendentalWork + n_obj * (kTranscendentalWork + d);
  parallel_for(0, model_.n_in(), token_work, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t q = begin; q < end; ++q) {
      SmallRng noise(mix_seed(noise_seed, static_cast<std::uint64_t>(q)));
      const float xn = ref_(q, 0);
      const float yn = ref_(q, 1);
      std::span<float> row = fmap_.row(q);
      for (std::size_t k = 0; k < objects_.size(); ++k) {
        const float a = blob_response(objects_[k], dist2(xn, yn, objects_[k].cx, objects_[k].cy));
        if (a < 1e-4f) continue;
        std::span<const float> sig = signatures[k].data();
        for (std::int64_t c = 0; c < d; ++c) row[static_cast<std::size_t>(c)] += a * sig[static_cast<std::size_t>(c)];
      }
      std::span<const float> bg = background.data();
      const float bg_w = static_cast<float>(params_.background_level);
      const float noise_w = static_cast<float>(params_.feature_noise);
      for (std::int64_t c = 0; c < d; ++c) {
        row[static_cast<std::size_t>(c)] +=
            bg_w * bg[static_cast<std::size_t>(c)] +
            noise_w * static_cast<float>(noise.normal());
      }
    }
  });
}

float SceneWorkload::saliency(float xn, float yn) const noexcept {
  float s = 0.0f;
  for (const ObjectBlob& b : objects_) {
    s += blob_response(b, dist2(xn, yn, b.cx, b.cy));
  }
  return s / peak_saliency_;
}

nn::MsdaFields SceneWorkload::layer_fields(int layer) const {
  DEFA_CHECK(layer >= 0 && layer < model_.n_layers, "layer out of range");
  const std::int64_t n = model_.n_in();
  const int nh = model_.n_heads;
  const int nl = model_.n_levels;
  const int np = model_.n_points;

  nn::MsdaFields f;
  f.logits = Tensor({n, nh, static_cast<std::int64_t>(nl) * np});
  f.locs = Tensor({n, nh, nl, np, 2});

  // Layer-stable ring pattern with a small per-layer rotation: trained
  // models keep similar sampling structure across encoder blocks, which is
  // exactly what FWP's inter-layer mask transfer exploits.
  SmallRng layer_rng(mix_seed(params_.seed, 0x11AA, static_cast<std::uint64_t>(layer)));
  const double layer_rot = layer_rng.normal(0.0, params_.layer_jitter * 0.3);
  const double layer_logit_bias = layer_rng.normal(0.0, 0.1);

  const std::uint64_t point_seed = mix_seed(params_.seed, 0x5EED, static_cast<std::uint64_t>(layer));

  // The ring component's angle depends only on (head, point) and the layer
  // rotation, so its cos/sin are computed once per call, not per query.
  std::vector<double> ring_cos(static_cast<std::size_t>(nh) * np);
  std::vector<double> ring_sin(ring_cos.size());
  for (int h = 0; h < nh; ++h) {
    for (int p = 0; p < np; ++p) {
      const double angle =
          2.0 * std::numbers::pi * (h + static_cast<double>(p) / np) / nh + layer_rot;
      ring_cos[static_cast<std::size_t>(h * np + p)] = std::cos(angle);
      ring_sin[static_cast<std::size_t>(h * np + p)] = std::sin(angle);
    }
  }

  // Per sampling point: the saliency's exp per object plus a few RNG draws.
  const std::int64_t query_work = model_.points_per_query() *
                                  (static_cast<std::int64_t>(objects_.size()) + 2) *
                                  kTranscendentalWork;
  parallel_for(0, n, query_work, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t q = begin; q < end; ++q) {
      SmallRng qrng(mix_seed(point_seed, static_cast<std::uint64_t>(q)));
      const float rx = ref_(q, 0);
      const float ry = ref_(q, 1);

      // Per-(query,head): pick the attended object with probability
      // proportional to its proximity-weighted salience.
      for (int h = 0; h < nh; ++h) {
        // Score objects; sample one (softly) per head.
        float total = 0.0f;
        std::array<float, kMaxObjects> score{};
        const std::size_t n_obj = objects_.size();
        for (std::size_t k = 0; k < n_obj; ++k) {
          const ObjectBlob& b = objects_[k];
          const float reach = b.sigma + 0.10f;
          const float s =
              b.weight * std::exp(-dist2(rx, ry, b.cx, b.cy) / (2.0f * reach * reach));
          score[k] = s;
          total += s;
        }
        std::size_t chosen = 0;
        if (total > 1e-6f) {
          float pick = static_cast<float>(qrng.uniform01()) * total;
          for (std::size_t k = 0; k < n_obj; ++k) {
            pick -= score[k];
            if (pick <= 0.0f) {
              chosen = k;
              break;
            }
          }
        } else {
          chosen = qrng.below(n_obj);
        }
        const ObjectBlob& target = objects_[chosen];

        for (int l = 0; l < nl; ++l) {
          const LevelShape& lv = model_.levels[static_cast<std::size_t>(l)];
          const float cx = rx * static_cast<float>(lv.w) - 0.5f;
          const float cy = ry * static_cast<float>(lv.h) - 0.5f;
          const double sigma = params_.offset_sigma_px[static_cast<std::size_t>(l)];
          for (int p = 0; p < np; ++p) {
            // (1) stable ring component (initialization-like structure)
            const double ring_r = params_.ring_scale_px * (p + 1) / np;
            double ox = ring_r * ring_cos[static_cast<std::size_t>(h * np + p)];
            double oy = ring_r * ring_sin[static_cast<std::size_t>(h * np + p)];
            // (2) object-seeking component (content-dependent structure),
            // soft-capped: trained offsets stay within a bounded
            // receptive field, which is what makes range narrowing cheap.
            if (qrng.bernoulli(params_.seek_fraction)) {
              // Cap scales with the level's grid so the displacement is
              // consistent in normalized coordinates across the pyramid.
              const double cap = params_.seek_cap_px * lv.w /
                                 model_.levels.front().w;
              const double sx_px = params_.seek_strength * (target.cx - rx) * lv.w;
              const double sy_px = params_.seek_strength * (target.cy - ry) * lv.h;
              ox += cap * std::tanh(sx_px / cap);
              oy += cap * std::tanh(sy_px / cap);
            }
            // (3) jitter, with a rare long-range tail
            double s = sigma;
            if (qrng.bernoulli(params_.tail_prob)) s *= params_.tail_scale;
            ox += qrng.normal(0.0, s);
            oy += qrng.normal(0.0, s);

            const float px = cx + static_cast<float>(ox);
            const float py = cy + static_cast<float>(oy);
            f.locs(q, h, l, p, 0) = px;
            f.locs(q, h, l, p, 1) = py;

            // Logit: salience at the sampled location drives attention.
            const float sx = (px + 0.5f) / static_cast<float>(lv.w);
            const float sy = (py + 0.5f) / static_cast<float>(lv.h);
            const float sal = saliency(sx, sy);
            f.logits(q, h, static_cast<std::int64_t>(l) * np + p) =
                static_cast<float>(params_.logit_gain * sal +
                                   params_.logit_noise * qrng.normal() + layer_logit_bias);
          }
        }
      }
    }
  });
  return f;
}

}  // namespace defa::workload
