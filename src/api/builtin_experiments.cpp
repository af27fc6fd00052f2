// Built-in registered experiments: every paper figure/table reproduction
// and the repo's own ablations, each wrapping the core experiment drivers
// behind the Engine.  The human-readable tables are exactly the ones the
// original bench binaries printed; each experiment additionally returns
// the underlying rows as JSON for the machine-readable trajectory.

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>

#include "api/registry.h"
#include "api/run_meta.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/experiments.h"
#include "core/msgs.h"
#include "kernels/backend.h"
#include "kernels/plan.h"
#include "nn/bilinear.h"
#include "nn/linear.h"
#include "nn/softmax.h"
#include "quant/qmsgs.h"
#include "workload/scene.h"

namespace defa::api {
namespace {

[[gnu::format(printf, 1, 2)]] std::string fmt(const char* f, ...) {
  char buf[2048];
  va_list args;
  va_start(args, f);
  std::vsnprintf(buf, sizeof(buf), f, args);
  va_end(args);
  return buf;
}

// ------------------------------------------------------------------- fig1b

Json run_fig1b_exp(Engine&, std::ostream& os) {
  os << "Figure 1(b) — MSDeformAttn latency breakdown on RTX 3090Ti\n";
  os << "(analytical GPU model; paper shares measured with CUDA profiling)\n\n";

  const double paper_share[] = {0.6328, 0.6036, 0.6331};

  TextTable t({"benchmark", "MM (ms)", "softmax (ms)", "MSGS+AG (ms)", "other (ms)",
               "MSGS+AG share", "paper", "MSGS FLOP share"});
  Json rows = Json::array();
  const auto data = core::run_fig1b();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto& r = data[i];
    t.new_row()
        .add(r.benchmark)
        .add_num(r.layer.mm_s * 1e3, 3)
        .add_num(r.layer.softmax_s * 1e3, 3)
        .add_num(r.layer.msgs_ag_s * 1e3, 3)
        .add_num(r.layer.elementwise_s * 1e3, 3)
        .add(percent(r.msgs_latency_share))
        .add(percent(paper_share[i]))
        .add(percent(r.msgs_flop_share));
    Json j = Json::object();
    j["benchmark"] = r.benchmark;
    j["mm_ms"] = r.layer.mm_s * 1e3;
    j["softmax_ms"] = r.layer.softmax_s * 1e3;
    j["msgs_ag_ms"] = r.layer.msgs_ag_s * 1e3;
    j["elementwise_ms"] = r.layer.elementwise_s * 1e3;
    j["msgs_latency_share"] = r.msgs_latency_share;
    j["paper_msgs_latency_share"] = paper_share[i];
    j["msgs_flop_share"] = r.msgs_flop_share;
    rows.push_back(std::move(j));
  }
  os << t.str() << "\n";
  os << "Note: the paper quotes the MSGS+AG compute share as 3.25%; our FLOP\n"
        "convention (Eq. 1 module without output projection, BI = 4 MACs/ch)\n"
        "yields ~11% — either way, an order of magnitude below its latency\n"
        "share, which is the bottleneck argument being reproduced.\n";

  Json out = Json::object();
  out["rows"] = std::move(rows);
  return out;
}

// ------------------------------------------------------------------- fig6a

Json run_fig6a_exp(Engine& engine, std::ostream& os) {
  os << "Figure 6(a) — Detection AP, baseline vs DEFA (proxy model)\n\n";

  const double paper_defa_ap[] = {45.5, 47.9, 49.4};

  TextTable t({"benchmark", "baseline AP", "DEFA AP", "paper DEFA", "dFWP", "dPAP",
               "dNarrow", "dINT12", "dINT8 (rejected)"});
  Json rows = Json::array();
  const auto data = core::run_fig6a(engine.pool());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto& r = data[i];
    t.new_row()
        .add(r.benchmark)
        .add_num(r.baseline_ap, 1)
        .add_num(r.defa_ap, 1)
        .add_num(paper_defa_ap[i], 1)
        .add_num(r.drop_fwp, 2)
        .add_num(r.drop_pap, 2)
        .add_num(r.drop_narrow, 2)
        .add_num(r.drop_int12, 2)
        .add_num(r.drop_int8, 1);
    Json j = Json::object();
    j["benchmark"] = r.benchmark;
    j["baseline_ap"] = r.baseline_ap;
    j["defa_ap"] = r.defa_ap;
    j["paper_defa_ap"] = paper_defa_ap[i];
    j["drop_fwp"] = r.drop_fwp;
    j["drop_pap"] = r.drop_pap;
    j["drop_narrow"] = r.drop_narrow;
    j["drop_int12"] = r.drop_int12;
    j["drop_int8"] = r.drop_int8;
    j["err_fwp"] = r.err_fwp;
    j["err_pap"] = r.err_pap;
    j["err_narrow"] = r.err_narrow;
    j["err_int12"] = r.err_int12;
    j["err_int8"] = r.err_int8;
    rows.push_back(std::move(j));
  }
  os << t.str() << "\n";

  TextTable e({"benchmark", "err FWP", "err PAP", "err narrow", "err INT12", "err INT8"});
  for (const auto& r : data) {
    e.new_row()
        .add(r.benchmark)
        .add_num(r.err_fwp, 4)
        .add_num(r.err_pap, 4)
        .add_num(r.err_narrow, 4)
        .add_num(r.err_int12, 4)
        .add_num(r.err_int8, 4);
  }
  os << e.str("Measured isolated NRMSE (proxy inputs)") << "\n";
  os << fmt("Faster R-CNN reference: AP %.1f (paper Fig. 6a dashed line)\n",
            accuracy::ApModel::faster_rcnn_ap());

  Json out = Json::object();
  out["rows"] = std::move(rows);
  out["faster_rcnn_ap"] = accuracy::ApModel::faster_rcnn_ap();
  return out;
}

// ------------------------------------------------------------------- fig6b

Json run_fig6b_exp(Engine& engine, std::ostream& os) {
  os << "Figure 6(b) — Reduction from pruning (measured on scene workloads)\n\n";

  struct PaperRow {
    double points, pixels, flops;
  };
  const PaperRow paper[] = {{0.86, 0.42, 0.52}, {0.83, 0.44, 0.53}, {0.82, 0.44, 0.53}};

  TextTable t({"benchmark", "points", "paper", "fmap pixels", "paper", "FLOPs", "paper"});
  Json rows = Json::array();
  const auto data = core::run_fig6b(engine.pool());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto& r = data[i];
    t.new_row()
        .add(r.benchmark)
        .add(percent(r.point_reduction))
        .add(percent(paper[i].points))
        .add(percent(r.pixel_reduction))
        .add(percent(paper[i].pixels))
        .add(percent(r.flop_reduction))
        .add(percent(paper[i].flops));
    Json j = Json::object();
    j["benchmark"] = r.benchmark;
    j["point_reduction"] = r.point_reduction;
    j["pixel_reduction"] = r.pixel_reduction;
    j["flop_reduction"] = r.flop_reduction;
    j["paper_point_reduction"] = paper[i].points;
    j["paper_pixel_reduction"] = paper[i].pixels;
    j["paper_flop_reduction"] = paper[i].flops;
    rows.push_back(std::move(j));
  }
  os << t.str() << "\n";

  Json out = Json::object();
  out["rows"] = std::move(rows);
  return out;
}

// ------------------------------------------------------------------- fig7a

Json run_fig7a_exp(Engine& engine, std::ostream& os) {
  os << "Figure 7(a) — MSGS throughput boost, inter- vs intra-level banks\n";
  os << "(cycle-accurate simulation of the 16-bank fetch pipeline)\n\n";

  const double paper_boost[] = {3.09, 3.02, 3.06};

  TextTable t({"benchmark", "inter (pts/cyc)", "intra (pts/cyc)", "boost", "paper",
               "intra conflict rate", "boost under PAP (extra)"});
  Json rows = Json::array();
  const auto data = core::run_fig7a(engine.pool());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto& r = data[i];
    t.new_row()
        .add(r.benchmark)
        .add_num(r.inter_points_per_cycle, 3)
        .add_num(r.intra_points_per_cycle, 3)
        .add(ratio(r.boost))
        .add(ratio(paper_boost[i]))
        .add(percent(r.intra_conflict_rate))
        .add(ratio(r.boost_pruned));
    Json j = Json::object();
    j["benchmark"] = r.benchmark;
    j["inter_points_per_cycle"] = r.inter_points_per_cycle;
    j["intra_points_per_cycle"] = r.intra_points_per_cycle;
    j["boost"] = r.boost;
    j["paper_boost"] = paper_boost[i];
    j["intra_conflict_rate"] = r.intra_conflict_rate;
    j["boost_pruned"] = r.boost_pruned;
    rows.push_back(std::move(j));
  }
  os << t.str() << "\n";
  os << "Observation (ours): under PAP the gap narrows — partially-filled\n"
        "inter-level groups idle point-units, while intra-level groups pack\n"
        "survivors of one level more densely.\n";

  Json out = Json::object();
  out["rows"] = std::move(rows);
  return out;
}

// ------------------------------------------------------------------- fig7b

Json run_fig7b_exp(Engine& engine, std::ostream& os) {
  os << "Figure 7(b) — Energy savings of operator fusion and fmap reuse\n";
  os << "(share of MSGS memory-access energy of the respective baseline)\n\n";

  TextTable t({"benchmark", "fusion DRAM", "paper", "fusion SRAM", "paper",
               "reuse DRAM", "paper", "reuse SRAM", "paper"});
  Json rows = Json::array();
  const auto data = core::run_fig7b(engine.pool());
  for (const auto& r : data) {
    t.new_row()
        .add(r.benchmark)
        .add(percent(r.fusion_dram_saving))
        .add("73.3%")
        .add(percent(r.fusion_sram_saving))
        .add("15.9%")
        .add(percent(r.reuse_dram_saving))
        .add("88.2%")
        .add(percent(r.reuse_sram_saving))
        .add("22.7%");
    Json j = Json::object();
    j["benchmark"] = r.benchmark;
    j["fusion_dram_saving"] = r.fusion_dram_saving;
    j["fusion_sram_saving"] = r.fusion_sram_saving;
    j["reuse_dram_saving"] = r.reuse_dram_saving;
    j["reuse_sram_saving"] = r.reuse_sram_saving;
    j["fusion_extra_sram_frac"] = r.fusion_extra_sram_frac;
    j["prune_sram_access_frac"] = r.prune_sram_access_frac;
    rows.push_back(std::move(j));
  }
  os << t.str() << "\n";

  TextTable s({"benchmark", "fusion extra SRAM storage", "paper", "prune SRAM access",
               "paper"});
  for (const auto& r : data) {
    s.new_row()
        .add(r.benchmark)
        .add(percent(r.fusion_extra_sram_frac, 2))
        .add("+0.5%")
        .add(percent(r.prune_sram_access_frac, 3))
        .add("<0.1%");
  }
  os << s.str("Sanity rows quoted in the paper's text") << "\n";

  Json out = Json::object();
  out["rows"] = std::move(rows);
  return out;
}

// -------------------------------------------------------------------- fig8

Json energy_breakdown_json(const energy::EnergyBreakdown& e) {
  Json j = Json::object();
  j["dram_pj"] = e.dram_pj;
  j["sram_pj"] = e.sram_pj;
  j["pe_pj"] = e.pe_pj;
  j["softmax_pj"] = e.softmax_pj;
  j["other_logic_pj"] = e.other_logic_pj;
  return j;
}

Json run_fig8_exp(Engine& engine, std::ostream& os) {
  os << "Figure 8 — Area and energy breakdowns (De DETR workload)\n\n";

  const auto f8 = core::run_fig8(engine.pool());

  const double at = f8.area.total();
  TextTable a({"component", "mm^2", "share", "paper"});
  a.new_row().add("SRAM").add_num(f8.area.sram_mm2, 2).add(percent(f8.area.sram_mm2 / at, 0)).add("72%");
  a.new_row()
      .add("PE array + softmax")
      .add_num(f8.area.pe_softmax_mm2, 2)
      .add(percent(f8.area.pe_softmax_mm2 / at, 0))
      .add("23%");
  a.new_row()
      .add("others (masks/ctrl)")
      .add_num(f8.area.others_mm2, 2)
      .add(percent(f8.area.others_mm2 / at, 0))
      .add("5%");
  a.new_row().add("total").add_num(at, 2).add("100%").add("2.63 mm^2");
  os << a.str("(a) Area breakdown") << "\n";

  const auto print_energy = [&os](const char* title, const energy::EnergyBreakdown& e) {
    const double et = e.total_pj();
    TextTable t({"component", "mJ", "share", "paper"});
    t.new_row().add("DRAM").add_num(e.dram_pj * 1e-9, 2).add(percent(e.dram_pj / et, 0)).add("93%");
    t.new_row().add("SRAM").add_num(e.sram_pj * 1e-9, 2).add(percent(e.sram_pj / et, 0)).add("5%");
    t.new_row()
        .add("logic (PE+softmax+ctrl)")
        .add_num(e.logic_pj() * 1e-9, 2)
        .add(percent(e.logic_pj() / et, 0))
        .add("2%");
    os << t.str(title) << "\n";
  };

  print_energy("(b) Energy breakdown — activation restream dataflow (paper-like MM traffic)",
               f8.energy_restream);
  print_energy("(b') Energy breakdown — weights-resident stream-once dataflow (default)",
               f8.energy_default);

  os << "Note: DRAM is the dominant energy consumer in both dataflows, as the\n"
        "paper reports (\"large data transfer in MM\"); its extreme 93% share\n"
        "implies substantially more MM restreaming than the disclosed buffer\n"
        "sizes require on our workload — see EXPERIMENTS.md for the analysis.\n";

  Json out = Json::object();
  Json area = Json::object();
  area["sram_mm2"] = f8.area.sram_mm2;
  area["pe_softmax_mm2"] = f8.area.pe_softmax_mm2;
  area["others_mm2"] = f8.area.others_mm2;
  out["area"] = std::move(area);
  out["energy_restream"] = energy_breakdown_json(f8.energy_restream);
  out["energy_default"] = energy_breakdown_json(f8.energy_default);
  return out;
}

// -------------------------------------------------------------------- fig9

Json run_fig9_exp(Engine& engine, std::ostream& os) {
  os << "Figure 9 — Speedup and energy-efficiency gain over GPUs\n";
  os << "(DEFA tiled to the GPU's peak TOPS with a GPU-class memory system)\n\n";

  const double paper_speedup[] = {11.8, 31.9, 10.1, 29.4, 10.8, 30.2};
  const double paper_ee[] = {23.2, 37.7, 20.3, 35.3, 21.6, 36.3};

  TextTable t({"benchmark", "GPU", "tiles", "GPU (ms)", "DEFA (ms)", "speedup", "paper",
               "speedup (BW-free)", "EE gain", "paper", "EE (BW-free)"});
  Json rows = Json::array();
  const auto data = core::run_fig9(engine.pool());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto& r = data[i];
    t.new_row()
        .add(r.benchmark)
        .add(r.gpu)
        .add_int(r.tiles)
        .add_num(r.gpu_time_ms, 2)
        .add_num(r.defa_time_ms, 3)
        .add(ratio(r.speedup, 1))
        .add(ratio(paper_speedup[i], 1))
        .add(ratio(r.speedup_compute_bound, 1))
        .add(ratio(r.ee_improvement, 1))
        .add(ratio(paper_ee[i], 1))
        .add(ratio(r.ee_compute_bound, 1));
    Json j = Json::object();
    j["benchmark"] = r.benchmark;
    j["gpu"] = r.gpu;
    j["tiles"] = r.tiles;
    j["gpu_time_ms"] = r.gpu_time_ms;
    j["defa_time_ms"] = r.defa_time_ms;
    j["speedup"] = r.speedup;
    j["paper_speedup"] = paper_speedup[i];
    j["speedup_compute_bound"] = r.speedup_compute_bound;
    j["gpu_energy_j"] = r.gpu_energy_j;
    j["defa_energy_j"] = r.defa_energy_j;
    j["ee_improvement"] = r.ee_improvement;
    j["paper_ee_improvement"] = paper_ee[i];
    j["ee_compute_bound"] = r.ee_compute_bound;
    rows.push_back(std::move(j));
  }
  os << t.str() << "\n";
  os << "Reading: the faithful model (sliding-window fmap stream at the GPU's\n"
        "DRAM bandwidth) gives the left columns; the BW-free columns lift the\n"
        "DRAM roofline and bound the paper's reported near-linear scaling from\n"
        "above.  The paper's numbers sit between the two — see EXPERIMENTS.md.\n";

  Json out = Json::object();
  out["rows"] = std::move(rows);
  return out;
}

// ------------------------------------------------------------------ table1

Json run_table1_exp(Engine& engine, std::ostream& os) {
  os << "Table 1 — Comparison with other ASIC platforms\n\n";

  TextTable t({"design", "venue", "function", "tech", "area (mm^2)", "freq (MHz)",
               "precision", "power (mW)", "GOPS", "GOPS/W"});
  Json rows = Json::array();
  for (const auto& r : core::run_table1(engine.pool())) {
    t.new_row()
        .add(r.name)
        .add(r.venue)
        .add(r.function)
        .add(std::to_string(r.tech_nm) + "nm")
        .add_num(r.area_mm2, 2)
        .add_num(r.freq_mhz, 0)
        .add(r.precision)
        .add_num(r.power_mw, 1)
        .add_num(r.throughput_gops, 0)
        .add_num(r.ee_gops_per_w, 0);
    Json j = Json::object();
    j["name"] = r.name;
    j["venue"] = r.venue;
    j["function"] = r.function;
    j["tech_nm"] = r.tech_nm;
    j["area_mm2"] = r.area_mm2;
    j["freq_mhz"] = r.freq_mhz;
    j["precision"] = r.precision;
    j["power_mw"] = r.power_mw;
    j["throughput_gops"] = r.throughput_gops;
    j["ee_gops_per_w"] = r.ee_gops_per_w;
    rows.push_back(std::move(j));
  }
  os << t.str() << "\n";
  os << "Paper DEFA row: 2.63 mm^2 / 99.8 mW / 418 GOPS / 4187 GOPS/W.\n"
        "Throughput follows the effective-ops convention (dense ops / time),\n"
        "so pruning lifts it above the 204.8 GOPS dense peak.\n";

  Json out = Json::object();
  out["rows"] = std::move(rows);
  return out;
}

// --------------------------------------------------- ablation: prune sweep

Json run_ablation_prune_sweep_exp(Engine& engine, std::ostream& os) {
  os << "Ablation — PAP tau / FWP k sweeps (small configuration)\n\n";

  const auto& ap = accuracy::ApModel::paper_calibrated();
  Json out = Json::object();

  // Both sweeps are independent requests — fan them across the pool.
  const std::vector<double> taus = {0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12};
  const std::vector<double> ks = {0.2, 0.4, 0.55, 0.66, 0.8, 1.0, 1.3};

  std::vector<EvalRequest> requests;
  for (const double tau : taus) {
    EvalRequest req;
    req.preset = "small";
    req.prune = core::PruneConfig::only_pap(tau);
    req.outputs = kFunctional;
    requests.push_back(std::move(req));
  }
  for (const double k : ks) {
    EvalRequest req;
    req.preset = "small";
    req.prune = core::PruneConfig::only_fwp(k);
    req.outputs = kFunctional;
    requests.push_back(std::move(req));
  }
  const std::vector<EvalResult> results = engine.run_batch(requests);

  {
    TextTable t({"tau", "points pruned", "FLOP reduction", "NRMSE", "proxy dAP"});
    Json rows = Json::array();
    for (std::size_t i = 0; i < taus.size(); ++i) {
      const FunctionalStats& f = *results[i].functional;
      const double dap = ap.drop(accuracy::Technique::kPap, f.final_nrmse);
      t.new_row()
          .add_num(taus[i], 3)
          .add(percent(f.point_reduction))
          .add(percent(f.flop_reduction))
          .add_num(f.final_nrmse, 4)
          .add_num(dap, 2);
      Json j = Json::object();
      j["tau"] = taus[i];
      j["point_reduction"] = f.point_reduction;
      j["flop_reduction"] = f.flop_reduction;
      j["final_nrmse"] = f.final_nrmse;
      j["proxy_ap_drop"] = dap;
      rows.push_back(std::move(j));
    }
    os << t.str("PAP threshold sweep (paper default tau = 0.03)") << "\n";
    out["pap_sweep"] = std::move(rows);
  }

  {
    TextTable t({"k", "pixels pruned", "FLOP reduction", "NRMSE", "proxy dAP"});
    Json rows = Json::array();
    for (std::size_t i = 0; i < ks.size(); ++i) {
      const FunctionalStats& f = *results[taus.size() + i].functional;
      const double dap = ap.drop(accuracy::Technique::kFwp, f.final_nrmse);
      t.new_row()
          .add_num(ks[i], 2)
          .add(percent(f.pixel_reduction))
          .add(percent(f.flop_reduction))
          .add_num(f.final_nrmse, 4)
          .add_num(dap, 2);
      Json j = Json::object();
      j["k"] = ks[i];
      j["pixel_reduction"] = f.pixel_reduction;
      j["flop_reduction"] = f.flop_reduction;
      j["final_nrmse"] = f.final_nrmse;
      j["proxy_ap_drop"] = dap;
      rows.push_back(std::move(j));
    }
    os << t.str("FWP multiplier sweep (Eq. 2; default k = 0.66)") << "\n";
    out["fwp_sweep"] = std::move(rows);
  }

  {
    const ModelConfig m = ModelConfig::small();
    std::vector<EvalRequest> combos;
    for (const auto& cfg : {core::PruneConfig::only_pap(), core::PruneConfig::only_fwp(),
                            core::PruneConfig::defa_default(m)}) {
      EvalRequest req;
      req.preset = "small";
      req.prune = cfg;
      req.outputs = kFunctional;
      combos.push_back(std::move(req));
    }
    const std::vector<EvalResult> combo_results = engine.run_batch(combos);

    TextTable t({"config", "points", "pixels", "FLOPs", "NRMSE"});
    Json rows = Json::array();
    for (const EvalResult& r : combo_results) {
      const FunctionalStats& f = *r.functional;
      t.new_row()
          .add(f.config_label)
          .add(percent(f.point_reduction))
          .add(percent(f.pixel_reduction))
          .add(percent(f.flop_reduction))
          .add_num(f.final_nrmse, 4);
      Json j = Json::object();
      j["config"] = f.config_label;
      j["point_reduction"] = f.point_reduction;
      j["pixel_reduction"] = f.pixel_reduction;
      j["flop_reduction"] = f.flop_reduction;
      j["final_nrmse"] = f.final_nrmse;
      rows.push_back(std::move(j));
    }
    os << t.str("Interaction: PAP concentrates sampling, boosting FWP") << "\n";
    out["interaction"] = std::move(rows);
  }
  return out;
}

// ----------------------------------------- ablation: bounded-range policies

Json run_ablation_range_narrowing_exp(Engine& engine, std::ostream& os) {
  os << "Ablation — bounded-range policies (Sec. 4.1)\n\n";

  Json out = Json::object();

  const ModelConfig paper_m = ModelConfig::deformable_detr();
  {
    const RangeSpec level_wise = RangeSpec::level_wise_default(paper_m.n_levels);
    const RangeSpec unified = RangeSpec::unified_from(level_wise);
    HwConfig hw_lw = HwConfig::make_default(paper_m);
    HwConfig hw_un = hw_lw;
    hw_un.ranges = unified;
    const double sram_lw = energy::area_breakdown(paper_m, hw_lw).sram_mm2;
    const double sram_un = energy::area_breakdown(paper_m, hw_un).sram_mm2;

    TextTable t({"policy", "radii (per level)", "window pixels", "SRAM mm^2", "extra"});
    const auto radii = [](const RangeSpec& s) {
      std::string r;
      for (int l = 0; l < s.used_levels; ++l) {
        r += (l > 0 ? "/" : "") + std::to_string(s.radius(l));
      }
      return r;
    };
    t.new_row()
        .add("level-wise (DEFA)")
        .add(radii(level_wise))
        .add_int(level_wise.window_pixels())
        .add_num(sram_lw, 2)
        .add("-");
    t.new_row()
        .add("unified")
        .add(radii(unified))
        .add_int(unified.window_pixels())
        .add_num(sram_un, 2)
        .add(percent(sram_un / sram_lw - 1.0));
    os << t.str("Storage (paper: unified costs ~+25%)") << "\n";

    Json storage = Json::object();
    storage["level_wise_radii"] = radii(level_wise);
    storage["unified_radii"] = radii(unified);
    storage["level_wise_window_pixels"] = static_cast<double>(level_wise.window_pixels());
    storage["unified_window_pixels"] = static_cast<double>(unified.window_pixels());
    storage["level_wise_sram_mm2"] = sram_lw;
    storage["unified_sram_mm2"] = sram_un;
    storage["unified_extra_frac"] = sram_un / sram_lw - 1.0;
    out["storage"] = std::move(storage);
  }

  // Radius sweep: accuracy cost vs on-chip window size (small config).
  const ModelConfig m = ModelConfig::small();
  const std::vector<int> radii = {2, 3, 4, 6, 8, 10};
  std::vector<EvalRequest> requests;
  for (const int r : radii) {
    core::PruneConfig cfg;
    cfg.label = "narrow";
    cfg.narrow = true;
    cfg.ranges = RangeSpec::unified(m.n_levels, r);
    EvalRequest req;
    req.preset = "small";
    req.prune = cfg;
    req.outputs = kFunctional;
    requests.push_back(std::move(req));
  }
  const std::vector<EvalResult> results = engine.run_batch(requests);

  TextTable t({"unified radius", "window pixels", "clamped points", "NRMSE"});
  Json rows = Json::array();
  for (std::size_t i = 0; i < radii.size(); ++i) {
    const FunctionalStats& f = *results[i].functional;
    const auto window = RangeSpec::unified(m.n_levels, radii[i]).window_pixels();
    t.new_row()
        .add_int(radii[i])
        .add_int(window)
        .add(percent(f.layers[0].clamped_frac, 2))
        .add_num(f.final_nrmse, 4);
    Json j = Json::object();
    j["radius"] = radii[i];
    j["window_pixels"] = static_cast<double>(window);
    j["clamped_frac_layer0"] = f.layers[0].clamped_frac;
    j["final_nrmse"] = f.final_nrmse;
    rows.push_back(std::move(j));
  }
  os << t.str("Radius sweep: SRAM vs accuracy trade-off") << "\n";
  out["radius_sweep"] = std::move(rows);
  return out;
}

// ------------------------------------------------- ablation: tile scaling

Json run_ablation_scaling_exp(Engine& engine, std::ostream& os) {
  os << "Ablation — DEFA tile scaling and the DRAM roofline\n\n";

  const ModelConfig m = ModelConfig::deformable_detr();
  const auto ctx = engine.pool().get(m);
  const auto traces = ctx->defa_traces();
  const double dense_ops = ctx->dense_encoder_flops();

  TextTable t({"tiles", "peak TOPS", "BW (GB/s)", "time (ms)", "eff. GOPS",
               "compute-bound time", "bound by"});
  Json rows = Json::array();
  for (const int tiles : {1, 4, 16, 66, 195, 512}) {
    HwConfig hw = HwConfig::make_default(m);
    hw.tiles = tiles;
    hw.dram_gbps = 1008.0;  // 3090Ti-class memory system
    const arch::DefaAccelerator acc(m, hw);
    const auto run = acc.simulate_run(traces);
    const auto sum = energy::summarize(m, hw, run, dense_ops);

    HwConfig free_bw = hw;
    free_bw.dram_gbps = 0.0;
    const arch::DefaAccelerator acc2(m, free_bw);
    const double t_free =
        static_cast<double>(acc2.simulate_run(traces).wall_cycles()) * hw.cycle_ns() * 1e-6;

    const bool dram_bound = sum.time_ms > t_free * 1.2;
    t.new_row()
        .add_int(tiles)
        .add_num(hw.peak_gops() * 1e-3, 1)
        .add_num(hw.dram_gbps, 0)
        .add_num(sum.time_ms, 3)
        .add_num(sum.effective_gops, 0)
        .add_num(t_free, 3)
        .add(dram_bound ? "DRAM" : "compute");
    Json j = Json::object();
    j["tiles"] = tiles;
    j["peak_tops"] = hw.peak_gops() * 1e-3;
    j["dram_gbps"] = hw.dram_gbps;
    j["time_ms"] = sum.time_ms;
    j["effective_gops"] = sum.effective_gops;
    j["compute_bound_time_ms"] = t_free;
    j["bound_by"] = dram_bound ? "DRAM" : "compute";
    rows.push_back(std::move(j));
  }
  os << t.str() << "\n";
  os << "The fmap window stream (each pixel refetched ~window-height times by\n"
        "the 1-D slide reuse of Fig. 4) fixes per-pass DRAM traffic; beyond\n"
        "~100 tiles the stream, not the PE array, sets the pass time.\n";

  Json out = Json::object();
  out["rows"] = std::move(rows);
  return out;
}

// -------------------------------------------------------------- microbench

/// Minimal deterministic-loop timer: runs `f` until ~`budget_s` of wall
/// time is spent, returns nanoseconds per call.  Coarse by design — the
/// microbench documents relative kernel costs, not stable absolutes.
template <typename F>
double time_ns_per_op(F&& f, double budget_s = 0.05) {
  using Clock = std::chrono::steady_clock;
  f();  // warmup
  const auto t0 = Clock::now();
  std::int64_t iters = 0;
  double elapsed_s = 0.0;
  do {
    f();
    ++iters;
    elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed_s < budget_s);
  return elapsed_s * 1e9 / static_cast<double>(iters);
}

/// Noise-robust timer for the backend matrix: calibrates an iteration
/// count to ~`batch_s` of wall time, then reports the *minimum* ns/call
/// over `reps` batches.  The minimum is the standard robust estimator for
/// ratio comparisons on shared machines — transient load inflates some
/// batches, never deflates one.
template <typename F>
double min_ns_per_op(F&& f, double batch_s = 0.02, int reps = 5) {
  using Clock = std::chrono::steady_clock;
  f();  // warmup
  const auto c0 = Clock::now();
  f();
  const double once_s = std::chrono::duration<double>(Clock::now() - c0).count();
  const auto iters = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(batch_s / std::max(once_s, 1e-9)));
  double best_s = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < iters; ++i) f();
    const double batch = std::chrono::duration<double>(Clock::now() - t0).count();
    best_s = std::min(best_s, batch / static_cast<double>(iters));
  }
  return best_s * 1e9;
}

/// Backend-matrix section of the microbench: the fused MSGS + aggregation
/// kernel of every registered backend, timed per PruneConfig-shaped
/// variant on the tiny preset's default scene workload, with speedups
/// against the `reference` backend.  Plan-consuming backends get the
/// cached per-layer sampling plan, matching how the EncoderPipeline calls
/// them in steady state.
Json run_backend_matrix(std::ostream& os) {
  const ModelConfig m = ModelConfig::tiny();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  Rng rng(4);
  const Tensor values = Tensor::randn({m.n_in(), m.d_model}, rng);
  const nn::MsdaFields f = wl.layer_fields(0);
  const Tensor probs = nn::softmax_lastdim(f.logits);
  const kernels::SamplingPlan plan = kernels::SamplingPlan::build(m, f.locs);
  prune::PapStats pap_stats;
  const prune::PointMask pap_mask =
      prune::pap_prune(m, probs, core::PruneConfig::only_pap().pap_tau, &pap_stats);

  struct Variant {
    const char* config;           ///< PruneConfig-style label
    const prune::PointMask* mask;
    bool quantized;
  };
  const Variant variants[] = {
      {"baseline", nullptr, false},
      {"PAP", &pap_mask, false},
      {"INT12", nullptr, true},
      {"PAP+INT12", &pap_mask, true},
  };

  const double n_queries = static_cast<double>(m.n_in());
  TextTable t({"kernel", "config", "backend", "ns/query", "speedup vs reference"});
  Json matrix = Json::array();
  double sink = 0.0;
  // The reference backend is timed first per variant: it defines the
  // denominator every other backend's speedup is reported against.
  std::vector<std::string> ordered{"reference"};
  for (const std::string& name : kernels::backend_names()) {
    if (name != "reference") ordered.push_back(name);
  }
  for (const Variant& variant : variants) {
    double reference_ns = 0.0;
    for (const std::string& name : ordered) {
      const kernels::Backend& backend = kernels::backend(name);
      // A backend the binary contains but this host/config cannot run
      // (e.g. DEFA_SIMD forcing an ISA the CPU lacks) is *skipped with a
      // note*, never an error: the matrix documents what was measured.
      if (const std::string reason = backend.unavailable_reason(); !reason.empty()) {
        t.new_row()
            .add("msgs_aggregate")
            .add(variant.config)
            .add(name)
            .add("skipped")
            .add(reason);
        Json row = Json::object();
        row["kernel"] = "msgs_aggregate";
        row["config"] = variant.config;
        row["backend"] = name;
        row["skipped"] = true;
        row["note"] = reason;
        matrix.push_back(std::move(row));
        continue;
      }
      kernels::MsgsSpec spec;
      spec.point_mask = variant.mask;
      spec.quantized = variant.quantized;
      spec.plan = &plan;
      const double ns = min_ns_per_op([&] {
        sink += backend.run_msgs(m, values, probs, f.locs, spec)(0, 0);
      });
      if (name == "reference") reference_ns = ns;
      const double speedup = reference_ns > 0.0 ? reference_ns / ns : 0.0;
      t.new_row()
          .add("msgs_aggregate")
          .add(variant.config)
          .add(name)
          .add_num(ns / n_queries, 1)
          .add_num(speedup, 2);
      Json row = Json::object();
      row["kernel"] = "msgs_aggregate";
      row["config"] = variant.config;
      row["backend"] = name;
      row["ns_per_op"] = ns;
      row["ns_per_query"] = ns / n_queries;
      row["speedup_vs_reference"] = speedup;
      matrix.push_back(std::move(row));
    }
  }
  os << "Backend matrix (tiny preset, default scene; plan reused as in the\n"
        "EncoderPipeline steady state; 'reference' rows define speedup 1.0)\n\n";
  os << t.str() << "\n";
  os << fmt("(checksum %.3g — ignore; defeats dead-code elimination)\n\n", sink);

  Json out = Json::object();
  Json names = Json::array();
  for (const std::string& name : kernels::backend_names()) names.push_back(name);
  out["backends"] = std::move(names);
  out["workload"] = "tiny/default-scene";
  out["rows"] = std::move(matrix);
  return out;
}

/// Thread-scaling section: one *single* run_msgs call on the tiled
/// backend over a large scene (the `small` preset — 1700 queries, 4
/// levels), timed at executor counts 1..all via the DEFA_TILED_THREADS
/// knob.  This is the case the query-parallel backends cannot speed up —
/// one lone request on an otherwise idle machine — and the reason the
/// tiled backend exists.  On a single-core host the curve is flat by
/// construction; `hardware_executors` records how many executors the
/// measurement actually had.
Json run_tiled_scaling(std::ostream& os) {
  const ModelConfig m = ModelConfig::small();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  Rng rng(6);
  const Tensor values = Tensor::randn({m.n_in(), m.d_model}, rng);
  const nn::MsdaFields f = wl.layer_fields(0);
  const Tensor probs = nn::softmax_lastdim(f.logits);
  const kernels::SamplingPlan plan = kernels::SamplingPlan::build(m, f.locs);
  const kernels::Backend& tiled = kernels::backend("tiled");
  kernels::MsgsSpec spec;
  spec.plan = &plan;

  const int executors = parallel_concurrency();
  const char* saved = std::getenv("DEFA_TILED_THREADS");
  const std::string restore = saved != nullptr ? saved : "";

  TextTable t({"threads", "ns/op", "speedup vs 1 thread"});
  Json rows = Json::array();
  double sink = 0.0;
  double one_thread_ns = 0.0;
  for (int threads = 1; threads <= executors; ++threads) {
    setenv("DEFA_TILED_THREADS", std::to_string(threads).c_str(), 1);
    const double ns = min_ns_per_op([&] {
      sink += tiled.run_msgs(m, values, probs, f.locs, spec)(0, 0);
    });
    if (threads == 1) one_thread_ns = ns;
    const double speedup = ns > 0.0 ? one_thread_ns / ns : 0.0;
    t.new_row().add_num(threads, 0).add_num(ns / 1e3, 1).add_num(speedup, 2);
    Json row = Json::object();
    row["threads"] = threads;
    row["ns_per_op"] = ns;
    row["speedup_vs_1thread"] = speedup;
    rows.push_back(std::move(row));
  }
  if (saved != nullptr) {
    setenv("DEFA_TILED_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("DEFA_TILED_THREADS");
  }

  os << "Tiled-backend thread scaling (small preset, ONE run_msgs call —\n"
        "intra-request parallelism; ns/op column is microseconds)\n\n";
  os << t.str() << "\n";
  os << fmt("(checksum %.3g — ignore; defeats dead-code elimination)\n\n", sink);

  Json out = Json::object();
  out["workload"] = "small/default-scene";
  out["hardware_executors"] = executors;
  out["rows"] = std::move(rows);
  return out;
}

/// Locality section: the MSGS kernel of every backend across scene sizes
/// whose value memory ranges from cache-resident to several times L2 —
/// the regime the quill backend exists for.  Per cell: ns/query with the
/// cached plans (steady state), speedup against `fused` (the fastest
/// non-reordering CPU path and the baseline the quill win is judged
/// against).  quill cells additionally report the one-time locality-plan
/// build cost (amortized per query) and the reorder on/off delta via the
/// DEFA_QUILL_REORDER knob — the control isolating the query-reorder win
/// from the level-sequential restructuring.
Json run_locality_matrix(std::ostream& os) {
  // Pyramid scenes: level-0 halved (rounding up) per level, the FPN shape
  // of the real presets.  small == the `small` preset; large == the
  // deformable_detr COCO shape (~18 MB of value memory, >> L2).
  const auto pyramid_model = [](const char* name, int h0, int w0) {
    ModelConfig m;
    m.name = name;
    int h = h0, w = w0;
    for (int l = 0; l < 4; ++l) {
      m.levels.push_back(LevelShape{h, w});
      h = (h + 1) / 2;
      w = (w + 1) / 2;
    }
    m.n_layers = 1;
    m.baseline_ap = 45.0;
    m.seed = 11;
    m.validate();
    return m;
  };
  const ModelConfig scenes[] = {
      pyramid_model("small", 32, 40),     // 1700 queries, ~1.7 MB values
      pyramid_model("medium", 64, 80),    // 6800 queries, ~7.0 MB
      pyramid_model("large", 100, 134),   // 17821 queries, ~18.2 MB
  };

  const std::int64_t tile_elems = kernels::locality_tile_elems();
  std::vector<std::string> ordered{"fused"};
  for (const std::string& name : kernels::backend_names()) {
    if (name != "fused") ordered.push_back(name);
  }

  const char* saved = std::getenv("DEFA_QUILL_REORDER");
  const std::string restore = saved != nullptr ? saved : "";

  TextTable t({"scene", "queries", "value MB", "backend", "ns/query",
               "speedup vs fused"});
  Json scene_rows = Json::array();
  double sink = 0.0;
  for (const ModelConfig& m : scenes) {
    workload::SceneParams sp;
    sp.seed = m.seed;
    const workload::SceneWorkload wl(m, sp);
    Rng rng(8);
    const Tensor values = Tensor::randn({m.n_in(), m.d_model}, rng);
    const nn::MsdaFields f = wl.layer_fields(0);
    const Tensor probs = nn::softmax_lastdim(f.logits);
    const kernels::SamplingPlan plan = kernels::SamplingPlan::build(m, f.locs);
    const kernels::LocalityPlan loc = kernels::LocalityPlan::build(m, plan, tile_elems);
    const double n_queries = static_cast<double>(m.n_in());
    const double value_mb = static_cast<double>(m.n_in()) * m.d_model * 4.0 / 1048576.0;

    Json rows = Json::array();
    double fused_ns = 0.0;
    for (const std::string& name : ordered) {
      const kernels::Backend& backend = kernels::backend(name);
      if (const std::string reason = backend.unavailable_reason(); !reason.empty()) {
        t.new_row().add(m.name).add_num(n_queries, 0).add_num(value_mb, 1)
            .add(name).add("skipped").add(reason);
        Json row = Json::object();
        row["backend"] = name;
        row["skipped"] = true;
        row["note"] = reason;
        rows.push_back(std::move(row));
        continue;
      }
      kernels::MsgsSpec spec;
      spec.plan = &plan;
      if (backend.wants_locality()) spec.locality = &loc;
      const double ns = min_ns_per_op([&] {
        sink += backend.run_msgs(m, values, probs, f.locs, spec)(0, 0);
      });
      if (name == "fused") fused_ns = ns;
      const double speedup = fused_ns > 0.0 ? fused_ns / ns : 0.0;
      t.new_row().add(m.name).add_num(n_queries, 0).add_num(value_mb, 1)
          .add(name).add_num(ns / n_queries, 1).add_num(speedup, 2);
      Json row = Json::object();
      row["backend"] = name;
      row["ns_per_op"] = ns;
      row["ns_per_query"] = ns / n_queries;
      row["speedup_vs_fused"] = speedup;
      if (backend.wants_locality()) {
        // One-time planning cost, and the reorder on/off control.
        const double plan_ns = time_ns_per_op([&] {
          sink += static_cast<double>(
              kernels::LocalityPlan::build(m, plan, tile_elems).order(0)[0]);
        });
        row["plan_build_ns"] = plan_ns;
        row["plan_build_ns_per_query"] = plan_ns / n_queries;
        setenv("DEFA_QUILL_REORDER", "off", 1);
        const double off_ns = min_ns_per_op([&] {
          sink += backend.run_msgs(m, values, probs, f.locs, spec)(0, 0);
        });
        if (saved != nullptr) {
          setenv("DEFA_QUILL_REORDER", restore.c_str(), 1);
        } else {
          unsetenv("DEFA_QUILL_REORDER");
        }
        row["reorder_off_ns_per_query"] = off_ns / n_queries;
        row["reorder_speedup"] = ns > 0.0 ? off_ns / ns : 0.0;
      }
      rows.push_back(std::move(row));
    }
    Json scene = Json::object();
    scene["scene"] = m.name;
    scene["n_queries"] = static_cast<double>(m.n_in());
    scene["value_mb"] = value_mb;
    scene["rows"] = std::move(rows);
    scene_rows.push_back(std::move(scene));
  }

  os << "Locality matrix (one layer, cached plans; value-memory size vs the\n"
        "gather working set — quill reorders queries into cache-sized tiles,\n"
        "DEFA_L2_KB tile size; 'fused' rows define speedup 1.0)\n\n";
  os << t.str() << "\n";
  os << fmt("(checksum %.3g — ignore; defeats dead-code elimination)\n\n", sink);

  Json out = Json::object();
  out["tile_kb"] = static_cast<double>(tile_elems * 4 / 1024);
  out["scenes"] = std::move(scene_rows);
  return out;
}

Json run_microbench_exp(Engine&, std::ostream& os) {
  os << "Kernel microbenchmarks (wall-clock; coarse, relative costs)\n\n";

  // Sink defeating dead-code elimination across iterations.
  double sink = 0.0;

  TextTable t({"kernel", "ns/op"});
  Json rows = Json::array();
  const auto report = [&](const std::string& name, double ns) {
    t.new_row().add(name).add_num(ns, 1);
    Json j = Json::object();
    j["kernel"] = name;
    j["ns_per_op"] = ns;
    rows.push_back(std::move(j));
  };

  {
    SmallRng rng(1);
    const float t0 = static_cast<float>(rng.uniform01());
    const float t1 = static_cast<float>(rng.uniform01());
    report("bi_direct", time_ns_per_op([&] {
      sink += nn::bi_direct(1.0f, 2.0f, 3.0f, 4.0f, t0, t1);
    }));
    report("bi_horner", time_ns_per_op([&] {
      sink += nn::bi_horner(1.0f, 2.0f, 3.0f, 4.0f, t0, t1);
    }));
    report("bi_horner_int12", time_ns_per_op([&] {
      sink += static_cast<double>(quant::bi_horner_int(1000, -500, 250, 125, 2048, 1024, 12));
    }));
  }

  for (const int n : {16, 128}) {
    Rng rng(2);
    const Tensor logits = Tensor::randn({n}, rng);
    std::vector<float> buf(static_cast<std::size_t>(n));
    report(fmt("softmax_%d", n), time_ns_per_op([&] {
      std::copy(logits.data().begin(), logits.data().end(), buf.begin());
      nn::softmax_inplace(buf);
      sink += buf[0];
    }));
  }

  for (const int n : {64, 256}) {
    Rng rng(3);
    const Tensor a = Tensor::randn({n, n}, rng);
    const Tensor b = Tensor::randn({n, n}, rng);
    report(fmt("matmul_%dx%d", n, n), time_ns_per_op([&] {
      sink += nn::matmul(a, b)(0, 0);
    }, 0.2));
  }

  {
    const ModelConfig m = ModelConfig::tiny();
    workload::SceneParams sp;
    sp.seed = m.seed;
    const workload::SceneWorkload wl(m, sp);
    Rng rng(4);
    const Tensor values = Tensor::randn({m.n_in(), m.d_model}, rng);
    const nn::MsdaFields f = wl.layer_fields(0);
    const Tensor probs = nn::softmax_lastdim(f.logits);
    report("msgs_aggregate_tiny", time_ns_per_op([&] {
      sink += core::run_msgs(m, values, probs, f.locs, core::MsgsOptions{})(0, 0);
    }, 0.2));
    core::MsgsOptions opt;
    opt.quantized = true;
    report("msgs_aggregate_tiny_int12", time_ns_per_op([&] {
      sink += core::run_msgs(m, values, probs, f.locs, opt)(0, 0);
    }, 0.2));
    report("scene_generation_tiny", time_ns_per_op([&] {
      const workload::SceneWorkload w(m, sp);
      sink += w.fmap()(0, 0);
    }, 0.2));
  }

  os << t.str() << "\n";
  os << fmt("(checksum %.3g — ignores; defeats dead-code elimination)\n\n", sink);

  Json out = Json::object();
  Json meta = run_metadata();
  meta["backend"] = kernels::default_backend_name();
  out["meta"] = std::move(meta);
  out["rows"] = std::move(rows);
  out["backend_matrix"] = run_backend_matrix(os);
  out["tiled_scaling"] = run_tiled_scaling(os);
  out["locality"] = run_locality_matrix(os);
  return out;
}

}  // namespace

void register_builtin_experiments() {
  static const bool registered = [] {
    Registry& r = Registry::instance();
    r.add({"fig1b", "Fig. 1(b): MSDeformAttn latency breakdown on RTX 3090Ti",
           "Analytical GPU model of the dense block; reproduces the MSGS "
           "latency-vs-FLOP-share bottleneck argument.",
           run_fig1b_exp});
    r.add({"fig6a", "Fig. 6(a): detection AP, baseline vs DEFA (proxy model)",
           "Isolated per-technique NRMSE mapped through the calibrated AP "
           "proxy on all three paper benchmarks.",
           run_fig6a_exp});
    r.add({"fig6b", "Fig. 6(b): reduction of sampling points / pixels / FLOPs",
           "Full-DEFA pruning reductions measured on the scene workloads.",
           run_fig6b_exp});
    r.add({"fig7a", "Fig. 7(a): MSGS throughput, inter- vs intra-level banks",
           "Cycle-accurate 16-bank fetch pipeline at equal parallelism.",
           run_fig7a_exp});
    r.add({"fig7b", "Fig. 7(b): energy savings of operator fusion and fmap reuse",
           "MSGS memory-access energy ablation of the two dataflow tactics.",
           run_fig7b_exp});
    r.add({"fig8", "Fig. 8: area and energy breakdowns",
           "Chip area and per-component energy of one DEFA instance on the "
           "De DETR workload.",
           run_fig8_exp});
    r.add({"fig9", "Fig. 9: speedup and energy efficiency vs GPUs",
           "DEFA tiled to GPU-peak TOPS with a GPU-class memory system, vs "
           "RTX 2080Ti / 3090Ti.",
           run_fig9_exp});
    r.add({"table1", "Table 1: comparison with attention ASICs",
           "Literature rows plus the computed DEFA row from the simulator "
           "and energy model.",
           run_table1_exp});
    r.add({"ablation_prune_sweep", "Ablation: PAP tau / FWP k sweeps",
           "Sparsity/accuracy trade-off behind the paper's operating point "
           "(batched over the Engine).",
           run_ablation_prune_sweep_exp});
    r.add({"ablation_range_narrowing", "Ablation: bounded-range policies",
           "Level-wise vs unified restriction storage cost and the "
           "radius/accuracy trade-off.",
           run_ablation_range_narrowing_exp});
    r.add({"ablation_scaling", "Ablation: DEFA tile scaling and the DRAM roofline",
           "Where the sliding-window DRAM stream starts to bind under "
           "Fig. 9-style tiling.",
           run_ablation_scaling_exp});
    r.add({"microbench", "Kernel microbenchmarks + backend matrix",
           "Wall-clock costs of the hot functional-model kernels (bilinear "
           "forms, INT12 datapath, softmax, matmul) and the per-backend "
           "fused-MSGS matrix with speedups vs the reference backend "
           "(the BENCH_kernels.json artifact).",
           run_microbench_exp});
    return true;
  }();
  (void)registered;
}

}  // namespace defa::api
