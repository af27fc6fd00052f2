#include "api/request.h"

#include <cmath>
#include <initializer_list>

#include "core/experiments.h"
#include "kernels/backend.h"
#include "quant/fixed_point.h"

namespace defa::api {

const std::vector<std::pair<std::string, Output>>& output_names() {
  static const std::vector<std::pair<std::string, Output>> kNames = {
      {"functional", kFunctional},
      {"latency", kLatency},
      {"energy", kEnergy},
      {"accuracy", kAccuracy},
  };
  return kNames;
}

const std::vector<std::string>& EvalRequest::presets() {
  static const std::vector<std::string> kPresets = {
      "deformable_detr", "dn_detr", "dino", "small", "tiny",
  };
  return kPresets;
}

namespace {

ModelConfig preset_model(const std::string& name) {
  if (name == "deformable_detr") return ModelConfig::deformable_detr();
  if (name == "dn_detr") return ModelConfig::dn_detr();
  if (name == "dino") return ModelConfig::dino();
  if (name == "small") return ModelConfig::small();
  if (name == "tiny") return ModelConfig::tiny();
  DEFA_CHECK(false, "EvalRequest: unknown model preset '" + name + "'");
  return {};
}

Json model_to_json(const ModelConfig& m) {
  Json j = Json::object();
  j["name"] = m.name;
  j["d_model"] = m.d_model;
  j["n_heads"] = m.n_heads;
  j["n_levels"] = m.n_levels;
  j["n_points"] = m.n_points;
  j["n_layers"] = m.n_layers;
  Json levels = Json::array();
  for (const LevelShape& lv : m.levels) {
    Json shape = Json::array();
    shape.push_back(lv.h);
    shape.push_back(lv.w);
    levels.push_back(std::move(shape));
  }
  j["levels"] = std::move(levels);
  j["baseline_ap"] = m.baseline_ap;
  j["seed"] = static_cast<double>(m.seed);
  return j;
}

Json scene_to_json(const workload::SceneParams& p) {
  Json j = Json::object();
  j["n_objects"] = p.n_objects;
  j["object_sigma_min"] = p.object_sigma_min;
  j["object_sigma_max"] = p.object_sigma_max;
  j["feature_noise"] = p.feature_noise;
  j["background_level"] = p.background_level;
  j["logit_gain"] = p.logit_gain;
  j["logit_noise"] = p.logit_noise;
  j["seek_fraction"] = p.seek_fraction;
  j["seek_strength"] = p.seek_strength;
  j["seek_cap_px"] = p.seek_cap_px;
  j["ring_scale_px"] = p.ring_scale_px;
  Json sigmas = Json::array();
  for (const double s : p.offset_sigma_px) sigmas.push_back(s);
  j["offset_sigma_px"] = std::move(sigmas);
  j["tail_prob"] = p.tail_prob;
  j["tail_scale"] = p.tail_scale;
  j["layer_jitter"] = p.layer_jitter;
  j["seed"] = static_cast<double>(p.seed);
  return j;
}

Json prune_to_json(const core::PruneConfig& c) {
  Json j = Json::object();
  j["label"] = c.label;
  j["pap"] = c.pap;
  j["pap_tau"] = c.pap_tau;
  j["fwp"] = c.fwp;
  j["fwp_k"] = c.fwp_k;
  j["narrow"] = c.narrow;
  Json radii = Json::array();
  for (int l = 0; l < c.ranges.used_levels; ++l) radii.push_back(c.ranges.radius(l));
  j["range_radii"] = std::move(radii);
  j["quantize"] = c.quantize;
  j["bits"] = c.bits;
  return j;
}

Json hw_to_json(const HwConfig& hw) {
  Json j = Json::object();
  j["pe_lanes"] = hw.pe_lanes;
  j["pe_macs_per_lane"] = hw.pe_macs_per_lane;
  j["ba_point_units"] = hw.ba_point_units;
  j["ba_channels_per_cycle"] = hw.ba_channels_per_cycle;
  j["sram_banks"] = hw.sram_banks;
  j["freq_mhz"] = hw.freq_mhz;
  j["act_bits"] = hw.act_bits;
  j["weight_bits"] = hw.weight_bits;
  Json radii = Json::array();
  for (int l = 0; l < hw.ranges.used_levels; ++l) radii.push_back(hw.ranges.radius(l));
  j["range_radii"] = std::move(radii);
  j["parallelism"] =
      hw.parallelism == MsgsParallelism::kInterLevel ? "inter_level" : "intra_level";
  j["act_streaming"] = hw.act_streaming == ActStreaming::kStreamOncePerPhase
                           ? "stream_once"
                           : "restream_per_col_tile";
  j["operator_fusion"] = hw.enable_operator_fusion;
  j["fmap_reuse"] = hw.enable_fmap_reuse;
  j["conflict_penalty_cycles"] = hw.conflict_penalty_cycles;
  j["mode_switch_cycles"] = hw.mode_switch_cycles;
  j["dram_gbps"] = hw.dram_gbps;
  j["dram_pj_per_bit"] = hw.dram_pj_per_bit;
  j["tiles"] = hw.tiles;
  return j;
}

// ---- strict request parsing (the defa_serve wire format) -------------------

void check_known_keys(const Json& j, const char* what,
                      std::initializer_list<const char*> keys) {
  for (const auto& [key, value] : j.members()) {
    bool known = false;
    for (const char* k : keys) known = known || key == k;
    DEFA_CHECK(known, std::string(what) + ": unknown key '" + key + "'");
  }
}

RangeSpec ranges_from_json(const Json& arr, const char* what) {
  DEFA_CHECK(arr.is_array(), std::string(what) + ": range_radii must be an array");
  DEFA_CHECK(arr.size() <= static_cast<std::size_t>(kMaxLevels),
             std::string(what) + ": range_radii has more than kMaxLevels entries");
  RangeSpec rs;
  rs.used_levels = static_cast<int>(arr.size());
  for (std::size_t l = 0; l < arr.size(); ++l) {
    rs.radius_px[l] = static_cast<int>(arr.at(l).as_int());
  }
  return rs;
}

ModelConfig model_from_json(const Json& j) {
  check_known_keys(j, "EvalRequest.model",
                   {"name", "d_model", "n_heads", "n_levels", "n_points", "n_layers",
                    "levels", "baseline_ap", "seed"});
  ModelConfig m;
  m.name = j.at("name").as_string();
  if (const Json* v = j.find("d_model")) m.d_model = static_cast<int>(v->as_int());
  if (const Json* v = j.find("n_heads")) m.n_heads = static_cast<int>(v->as_int());
  if (const Json* v = j.find("n_levels")) m.n_levels = static_cast<int>(v->as_int());
  if (const Json* v = j.find("n_points")) m.n_points = static_cast<int>(v->as_int());
  if (const Json* v = j.find("n_layers")) m.n_layers = static_cast<int>(v->as_int());
  for (const Json& shape : j.at("levels").items()) {
    DEFA_CHECK(shape.is_array() && shape.size() == 2,
               "EvalRequest.model: each level must be an [h, w] pair");
    LevelShape lv;
    lv.h = static_cast<int>(shape.at(std::size_t{0}).as_int());
    lv.w = static_cast<int>(shape.at(std::size_t{1}).as_int());
    m.levels.push_back(lv);
  }
  if (const Json* v = j.find("baseline_ap")) m.baseline_ap = v->as_number();
  if (const Json* v = j.find("seed")) {
    m.seed = static_cast<std::uint64_t>(v->as_int());
  }
  return m;
}

workload::SceneParams scene_from_json(const Json& j) {
  check_known_keys(
      j, "EvalRequest.scene",
      {"n_objects", "object_sigma_min", "object_sigma_max", "feature_noise",
       "background_level", "logit_gain", "logit_noise", "seek_fraction",
       "seek_strength", "seek_cap_px", "ring_scale_px", "offset_sigma_px",
       "tail_prob", "tail_scale", "layer_jitter", "seed"});
  workload::SceneParams p;
  if (const Json* v = j.find("n_objects")) p.n_objects = static_cast<int>(v->as_int());
  if (const Json* v = j.find("object_sigma_min")) p.object_sigma_min = v->as_number();
  if (const Json* v = j.find("object_sigma_max")) p.object_sigma_max = v->as_number();
  if (const Json* v = j.find("feature_noise")) p.feature_noise = v->as_number();
  if (const Json* v = j.find("background_level")) p.background_level = v->as_number();
  if (const Json* v = j.find("logit_gain")) p.logit_gain = v->as_number();
  if (const Json* v = j.find("logit_noise")) p.logit_noise = v->as_number();
  if (const Json* v = j.find("seek_fraction")) p.seek_fraction = v->as_number();
  if (const Json* v = j.find("seek_strength")) p.seek_strength = v->as_number();
  if (const Json* v = j.find("seek_cap_px")) p.seek_cap_px = v->as_number();
  if (const Json* v = j.find("ring_scale_px")) p.ring_scale_px = v->as_number();
  if (const Json* v = j.find("offset_sigma_px")) {
    DEFA_CHECK(v->is_array() &&
                   v->size() <= static_cast<std::size_t>(kMaxLevels),
               "EvalRequest.scene: offset_sigma_px must be an array of <= "
               "kMaxLevels numbers");
    for (std::size_t l = 0; l < v->size(); ++l) {
      p.offset_sigma_px[l] = v->at(l).as_number();
    }
  }
  if (const Json* v = j.find("tail_prob")) p.tail_prob = v->as_number();
  if (const Json* v = j.find("tail_scale")) p.tail_scale = v->as_number();
  if (const Json* v = j.find("layer_jitter")) p.layer_jitter = v->as_number();
  if (const Json* v = j.find("seed")) p.seed = static_cast<std::uint64_t>(v->as_int());
  return p;
}

core::PruneConfig prune_from_json(const Json& j) {
  check_known_keys(j, "EvalRequest.prune",
                   {"label", "pap", "pap_tau", "fwp", "fwp_k", "narrow",
                    "range_radii", "quantize", "bits"});
  core::PruneConfig c;
  if (const Json* v = j.find("label")) c.label = v->as_string();
  if (const Json* v = j.find("pap")) c.pap = v->as_bool();
  if (const Json* v = j.find("pap_tau")) c.pap_tau = v->as_number();
  if (const Json* v = j.find("fwp")) c.fwp = v->as_bool();
  if (const Json* v = j.find("fwp_k")) c.fwp_k = v->as_number();
  if (const Json* v = j.find("narrow")) c.narrow = v->as_bool();
  if (const Json* v = j.find("range_radii")) {
    c.ranges = ranges_from_json(*v, "EvalRequest.prune");
  }
  if (const Json* v = j.find("quantize")) c.quantize = v->as_bool();
  if (const Json* v = j.find("bits")) c.bits = static_cast<int>(v->as_int());
  return c;
}

HwConfig hw_from_json(const Json& j, HwConfig hw) {
  check_known_keys(
      j, "EvalRequest.hw",
      {"pe_lanes", "pe_macs_per_lane", "ba_point_units", "ba_channels_per_cycle",
       "sram_banks", "freq_mhz", "act_bits", "weight_bits", "range_radii",
       "parallelism", "act_streaming", "operator_fusion", "fmap_reuse",
       "conflict_penalty_cycles", "mode_switch_cycles", "dram_gbps",
       "dram_pj_per_bit", "tiles"});
  if (const Json* v = j.find("pe_lanes")) hw.pe_lanes = static_cast<int>(v->as_int());
  if (const Json* v = j.find("pe_macs_per_lane")) {
    hw.pe_macs_per_lane = static_cast<int>(v->as_int());
  }
  if (const Json* v = j.find("ba_point_units")) {
    hw.ba_point_units = static_cast<int>(v->as_int());
  }
  if (const Json* v = j.find("ba_channels_per_cycle")) {
    hw.ba_channels_per_cycle = static_cast<int>(v->as_int());
  }
  if (const Json* v = j.find("sram_banks")) hw.sram_banks = static_cast<int>(v->as_int());
  if (const Json* v = j.find("freq_mhz")) hw.freq_mhz = v->as_number();
  if (const Json* v = j.find("act_bits")) hw.act_bits = static_cast<int>(v->as_int());
  if (const Json* v = j.find("weight_bits")) {
    hw.weight_bits = static_cast<int>(v->as_int());
  }
  if (const Json* v = j.find("range_radii")) {
    hw.ranges = ranges_from_json(*v, "EvalRequest.hw");
  }
  if (const Json* v = j.find("parallelism")) {
    const std::string& s = v->as_string();
    DEFA_CHECK(s == "inter_level" || s == "intra_level",
               "EvalRequest.hw: parallelism must be inter_level | intra_level");
    hw.parallelism =
        s == "inter_level" ? MsgsParallelism::kInterLevel : MsgsParallelism::kIntraLevel;
  }
  if (const Json* v = j.find("act_streaming")) {
    const std::string& s = v->as_string();
    DEFA_CHECK(s == "stream_once" || s == "restream_per_col_tile",
               "EvalRequest.hw: act_streaming must be stream_once | "
               "restream_per_col_tile");
    hw.act_streaming = s == "stream_once" ? ActStreaming::kStreamOncePerPhase
                                          : ActStreaming::kRestreamPerColTile;
  }
  if (const Json* v = j.find("operator_fusion")) hw.enable_operator_fusion = v->as_bool();
  if (const Json* v = j.find("fmap_reuse")) hw.enable_fmap_reuse = v->as_bool();
  if (const Json* v = j.find("conflict_penalty_cycles")) {
    hw.conflict_penalty_cycles = static_cast<int>(v->as_int());
  }
  if (const Json* v = j.find("mode_switch_cycles")) {
    hw.mode_switch_cycles = static_cast<int>(v->as_int());
  }
  if (const Json* v = j.find("dram_gbps")) hw.dram_gbps = v->as_number();
  if (const Json* v = j.find("dram_pj_per_bit")) hw.dram_pj_per_bit = v->as_number();
  if (const Json* v = j.find("tiles")) hw.tiles = static_cast<int>(v->as_int());
  return hw;
}

OutputMask outputs_from_json(const Json& j) {
  if (j.is_array()) {
    OutputMask mask = 0;
    for (const Json& name : j.items()) {
      bool found = false;
      for (const auto& [known, bit] : output_names()) {
        if (name.as_string() == known) {
          mask |= bit;
          found = true;
        }
      }
      DEFA_CHECK(found, "EvalRequest: unknown output section '" + name.as_string() +
                            "' (known: functional, latency, energy, accuracy)");
    }
    return mask;
  }
  return static_cast<OutputMask>(j.as_int());
}

}  // namespace

ModelConfig EvalRequest::resolve_model() const {
  DEFA_CHECK(preset.empty() != !model.has_value(),
             "EvalRequest: set exactly one of {preset, model}");
  ModelConfig m = model.has_value() ? *model : preset_model(preset);
  m.validate();
  return m;
}

workload::SceneParams EvalRequest::resolve_scene(const ModelConfig& m) const {
  if (scene.has_value()) return *scene;
  workload::SceneParams p;
  p.seed = m.seed;
  return p;
}

core::PruneConfig EvalRequest::resolve_prune(const ModelConfig& m) const {
  return prune.has_value() ? *prune : core::PruneConfig::defa_default(m);
}

HwConfig EvalRequest::resolve_hw(const ModelConfig& m) const {
  return hw.has_value() ? *hw : HwConfig::make_default(m);
}

std::string EvalRequest::resolve_backend(const std::string& engine_default) const {
  if (backend.has_value()) return *backend;
  if (!engine_default.empty()) return engine_default;
  return kernels::default_backend_name();
}

void EvalRequest::validate() const {
  const ModelConfig m = resolve_model();  // throws on preset/model problems

  DEFA_CHECK(outputs != 0, "EvalRequest: empty output mask");
  DEFA_CHECK((outputs & ~kAllOutputs) == 0,
             "EvalRequest: unknown bits in output mask");

  if (backend.has_value()) {
    DEFA_CHECK(kernels::find_backend(*backend) != nullptr,
               "EvalRequest: unknown backend '" + *backend +
                   "' (known: " + kernels::known_backends() + ")");
  }

  const workload::SceneParams sp = resolve_scene(m);
  DEFA_CHECK(sp.n_objects > 0 && sp.n_objects <= workload::kMaxObjects,
             "EvalRequest: scene object count out of range [1, " +
                 std::to_string(workload::kMaxObjects) + "]");
  DEFA_CHECK(sp.object_sigma_min > 0 && sp.object_sigma_max >= sp.object_sigma_min,
             "EvalRequest: malformed scene object extents");

  const core::PruneConfig cfg = resolve_prune(m);
  if (cfg.quantize) {
    DEFA_CHECK(cfg.bits >= 2 && cfg.bits <= quant::kMaxBits,
               "EvalRequest: quantization bits out of range [2, " +
                   std::to_string(quant::kMaxBits) + "]");
  }
  if (cfg.pap) {
    DEFA_CHECK(cfg.pap_tau >= 0.0 && cfg.pap_tau < 1.0,
               "EvalRequest: PAP threshold out of range [0, 1)");
  }
  if (cfg.fwp) {
    DEFA_CHECK(cfg.fwp_k > 0.0, "EvalRequest: FWP multiplier must be positive");
  }
  if (cfg.narrow) {
    DEFA_CHECK(cfg.ranges.used_levels == m.n_levels,
               "EvalRequest: range_radii needs one radius per model level (" +
                   std::to_string(m.n_levels) + "), got " +
                   std::to_string(cfg.ranges.used_levels));
    for (int l = 0; l < m.n_levels; ++l) {
      DEFA_CHECK(cfg.ranges.radius(l) >= 0, "EvalRequest: range_radii must be >= 0");
    }
  }

  resolve_hw(m).validate(m);
}

std::string EvalRequest::workload_key() const {
  const ModelConfig m = resolve_model();
  // Single source of truth for workload identity: the Engine's context
  // cache key, so this always matches EvalResult::workload_key.
  return core::ContextPool::key_of(m, resolve_scene(m));
}

std::string EvalRequest::request_key(const std::string& engine_default) const {
  const ModelConfig m = resolve_model();
  Json key = Json::object();
  key["model"] = model_to_json(m);
  key["scene"] = scene_to_json(resolve_scene(m));
  key["prune"] = prune_to_json(resolve_prune(m));
  key["hw"] = hw_to_json(resolve_hw(m));
  key["backend"] = resolve_backend(engine_default);
  key["outputs"] = static_cast<double>(outputs);
  return key.dump();
}

// ----------------------------------------------------------- JSON conversion

namespace {

Json phase_rows_to_json(const std::vector<PhaseRow>& rows) {
  Json arr = Json::array();
  for (const PhaseRow& p : rows) {
    Json j = Json::object();
    j["name"] = p.name;
    j["cycles"] = p.cycles;
    j["stall_cycles"] = p.stall_cycles;
    j["macs"] = p.macs;
    j["sram_read_bytes"] = p.sram_read_bytes;
    j["sram_write_bytes"] = p.sram_write_bytes;
    j["dram_read_bytes"] = p.dram_read_bytes;
    j["dram_write_bytes"] = p.dram_write_bytes;
    arr.push_back(std::move(j));
  }
  return arr;
}

std::vector<PhaseRow> phase_rows_from_json(const Json& arr) {
  std::vector<PhaseRow> rows;
  for (const Json& j : arr.items()) {
    PhaseRow p;
    p.name = j.at("name").as_string();
    p.cycles = j.at("cycles").as_number();
    p.stall_cycles = j.at("stall_cycles").as_number();
    p.macs = j.at("macs").as_number();
    p.sram_read_bytes = j.at("sram_read_bytes").as_number();
    p.sram_write_bytes = j.at("sram_write_bytes").as_number();
    p.dram_read_bytes = j.at("dram_read_bytes").as_number();
    p.dram_write_bytes = j.at("dram_write_bytes").as_number();
    rows.push_back(std::move(p));
  }
  return rows;
}

}  // namespace

Json to_json(const EvalResult& r) {
  Json j = Json::object();
  j["benchmark"] = r.benchmark;
  j["workload_key"] = r.workload_key;
  j["outputs"] = static_cast<double>(r.outputs);

  if (r.functional.has_value()) {
    const FunctionalStats& f = *r.functional;
    Json fj = Json::object();
    fj["config_label"] = f.config_label;
    fj["point_reduction"] = f.point_reduction;
    fj["pixel_reduction"] = f.pixel_reduction;
    fj["flop_reduction"] = f.flop_reduction;
    fj["final_nrmse"] = f.final_nrmse;
    fj["dense_gflops"] = f.dense_gflops;
    fj["actual_gflops"] = f.actual_gflops;
    Json layers = Json::array();
    for (const LayerFunctionalRow& l : f.layers) {
      Json lj = Json::object();
      lj["layer"] = l.layer;
      lj["pap_pruned_frac"] = l.pap_pruned_frac;
      lj["fwp_mask_out_frac"] = l.fwp_mask_out_frac;
      lj["pixels_pruned_frac"] = l.pixels_pruned_frac;
      lj["clamped_frac"] = l.clamped_frac;
      lj["flops_saved_frac"] = l.flops_saved_frac;
      lj["out_nrmse"] = l.out_nrmse;
      lj["total_points"] = l.total_points;
      lj["kept_points"] = l.kept_points;
      lj["total_pixels"] = l.total_pixels;
      lj["kept_pixels"] = l.kept_pixels;
      layers.push_back(std::move(lj));
    }
    fj["layers"] = std::move(layers);
    j["functional"] = std::move(fj);
  }

  if (r.latency.has_value()) {
    const LatencyStats& l = *r.latency;
    Json lj = Json::object();
    lj["wall_cycles"] = l.wall_cycles;
    lj["time_ms"] = l.time_ms;
    lj["effective_gops"] = l.effective_gops;
    lj["msgs_groups"] = l.msgs_groups;
    lj["msgs_conflict_groups"] = l.msgs_conflict_groups;
    lj["msgs_points_per_cycle"] = l.msgs_points_per_cycle;
    lj["steady_state_layer"] = l.steady_state_layer;
    lj["steady_phases"] = phase_rows_to_json(l.steady_phases);
    lj["total_phases"] = phase_rows_to_json(l.total_phases);
    j["latency"] = std::move(lj);
  }

  if (r.energy.has_value()) {
    const EnergyStats& e = *r.energy;
    Json ej = Json::object();
    ej["pe_pj"] = e.pe_pj;
    ej["softmax_pj"] = e.softmax_pj;
    ej["sram_pj"] = e.sram_pj;
    ej["other_logic_pj"] = e.other_logic_pj;
    ej["dram_pj"] = e.dram_pj;
    ej["area_sram_mm2"] = e.area_sram_mm2;
    ej["area_pe_softmax_mm2"] = e.area_pe_softmax_mm2;
    ej["area_others_mm2"] = e.area_others_mm2;
    ej["chip_power_mw"] = e.chip_power_mw;
    ej["system_power_mw"] = e.system_power_mw;
    ej["gops_per_w"] = e.gops_per_w;
    Json macros = Json::array();
    for (const SramMacroRow& m : e.sram_macros) {
      Json mj = Json::object();
      mj["name"] = m.name;
      mj["capacity_bytes"] = m.capacity_bytes;
      mj["count"] = m.count;
      mj["word_bytes"] = m.word_bytes;
      macros.push_back(std::move(mj));
    }
    ej["sram_macros"] = std::move(macros);
    j["energy"] = std::move(ej);
  }

  if (r.accuracy.has_value()) {
    const AccuracyStats& a = *r.accuracy;
    Json aj = Json::object();
    aj["baseline_ap"] = a.baseline_ap;
    aj["proxy_ap"] = a.proxy_ap;
    Json drops = Json::array();
    for (const TechniqueDrop& d : a.drops) {
      Json dj = Json::object();
      dj["technique"] = d.technique;
      dj["measured_error"] = d.measured_error;
      dj["ap_drop"] = d.ap_drop;
      drops.push_back(std::move(dj));
    }
    aj["drops"] = std::move(drops);
    j["accuracy"] = std::move(aj);
  }

  return j;
}

EvalResult eval_result_from_json(const Json& j) {
  EvalResult r;
  r.benchmark = j.at("benchmark").as_string();
  r.workload_key = j.at("workload_key").as_string();
  r.outputs = static_cast<OutputMask>(j.at("outputs").as_int());

  if (const Json* fj = j.find("functional")) {
    FunctionalStats f;
    f.config_label = fj->at("config_label").as_string();
    f.point_reduction = fj->at("point_reduction").as_number();
    f.pixel_reduction = fj->at("pixel_reduction").as_number();
    f.flop_reduction = fj->at("flop_reduction").as_number();
    f.final_nrmse = fj->at("final_nrmse").as_number();
    f.dense_gflops = fj->at("dense_gflops").as_number();
    f.actual_gflops = fj->at("actual_gflops").as_number();
    for (const Json& lj : fj->at("layers").items()) {
      LayerFunctionalRow l;
      l.layer = static_cast<int>(lj.at("layer").as_int());
      l.pap_pruned_frac = lj.at("pap_pruned_frac").as_number();
      l.fwp_mask_out_frac = lj.at("fwp_mask_out_frac").as_number();
      l.pixels_pruned_frac = lj.at("pixels_pruned_frac").as_number();
      l.clamped_frac = lj.at("clamped_frac").as_number();
      l.flops_saved_frac = lj.at("flops_saved_frac").as_number();
      l.out_nrmse = lj.at("out_nrmse").as_number();
      l.total_points = lj.at("total_points").as_number();
      l.kept_points = lj.at("kept_points").as_number();
      l.total_pixels = lj.at("total_pixels").as_number();
      l.kept_pixels = lj.at("kept_pixels").as_number();
      f.layers.push_back(std::move(l));
    }
    r.functional = std::move(f);
  }

  if (const Json* lj = j.find("latency")) {
    LatencyStats l;
    l.wall_cycles = lj->at("wall_cycles").as_number();
    l.time_ms = lj->at("time_ms").as_number();
    l.effective_gops = lj->at("effective_gops").as_number();
    l.msgs_groups = lj->at("msgs_groups").as_number();
    l.msgs_conflict_groups = lj->at("msgs_conflict_groups").as_number();
    l.msgs_points_per_cycle = lj->at("msgs_points_per_cycle").as_number();
    l.steady_state_layer = static_cast<int>(lj->at("steady_state_layer").as_int());
    l.steady_phases = phase_rows_from_json(lj->at("steady_phases"));
    l.total_phases = phase_rows_from_json(lj->at("total_phases"));
    r.latency = std::move(l);
  }

  if (const Json* ej = j.find("energy")) {
    EnergyStats e;
    e.pe_pj = ej->at("pe_pj").as_number();
    e.softmax_pj = ej->at("softmax_pj").as_number();
    e.sram_pj = ej->at("sram_pj").as_number();
    e.other_logic_pj = ej->at("other_logic_pj").as_number();
    e.dram_pj = ej->at("dram_pj").as_number();
    e.area_sram_mm2 = ej->at("area_sram_mm2").as_number();
    e.area_pe_softmax_mm2 = ej->at("area_pe_softmax_mm2").as_number();
    e.area_others_mm2 = ej->at("area_others_mm2").as_number();
    e.chip_power_mw = ej->at("chip_power_mw").as_number();
    e.system_power_mw = ej->at("system_power_mw").as_number();
    e.gops_per_w = ej->at("gops_per_w").as_number();
    for (const Json& mj : ej->at("sram_macros").items()) {
      SramMacroRow m;
      m.name = mj.at("name").as_string();
      m.capacity_bytes = mj.at("capacity_bytes").as_number();
      m.count = mj.at("count").as_number();
      m.word_bytes = mj.at("word_bytes").as_number();
      e.sram_macros.push_back(std::move(m));
    }
    r.energy = std::move(e);
  }

  if (const Json* aj = j.find("accuracy")) {
    AccuracyStats a;
    a.baseline_ap = aj->at("baseline_ap").as_number();
    a.proxy_ap = aj->at("proxy_ap").as_number();
    for (const Json& dj : aj->at("drops").items()) {
      TechniqueDrop d;
      d.technique = dj.at("technique").as_string();
      d.measured_error = dj.at("measured_error").as_number();
      d.ap_drop = dj.at("ap_drop").as_number();
      a.drops.push_back(std::move(d));
    }
    r.accuracy = std::move(a);
  }

  return r;
}

Json to_json(const EvalRequest& r) {
  Json j = Json::object();
  if (!r.preset.empty()) j["preset"] = r.preset;
  if (r.model.has_value()) j["model"] = model_to_json(*r.model);
  if (r.scene.has_value()) j["scene"] = scene_to_json(*r.scene);
  if (r.prune.has_value()) j["prune"] = prune_to_json(*r.prune);
  if (r.hw.has_value()) j["hw"] = hw_to_json(*r.hw);
  if (r.backend.has_value()) j["backend"] = *r.backend;
  Json outs = Json::array();
  for (const auto& [name, bit] : output_names()) {
    if ((r.outputs & bit) != 0) outs.push_back(name);
  }
  j["outputs"] = std::move(outs);
  return j;
}

EvalRequest eval_request_from_json(const Json& j) {
  DEFA_CHECK(j.is_object(), "EvalRequest: JSON root must be an object");
  check_known_keys(j, "EvalRequest",
                   {"preset", "model", "scene", "prune", "hw", "backend", "outputs"});
  EvalRequest r;
  if (const Json* p = j.find("preset")) r.preset = p->as_string();
  if (const Json* m = j.find("model")) r.model = model_from_json(*m);
  DEFA_CHECK(!r.preset.empty() != r.model.has_value(),
             "EvalRequest: set exactly one of {preset, model}");
  if (const Json* s = j.find("scene")) r.scene = scene_from_json(*s);
  if (const Json* p = j.find("prune")) r.prune = prune_from_json(*p);
  if (const Json* h = j.find("hw")) {
    // Partial hw objects overlay the model's default configuration, so a
    // request can flip one toggle without restating the whole machine.
    r.hw = hw_from_json(*h, HwConfig::make_default(r.resolve_model()));
  }
  if (const Json* b = j.find("backend")) r.backend = b->as_string();
  if (const Json* o = j.find("outputs")) r.outputs = outputs_from_json(*o);
  return r;
}

}  // namespace defa::api
