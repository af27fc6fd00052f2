// Tests for the public API layer: request validation, the Engine's shared
// context cache, batched-vs-sequential determinism, the experiment
// registry and JSON round-tripping.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "api/engine.h"
#include "api/registry.h"
#include "api/request.h"
#include "api/result_io.h"
#include "prune/range.h"
#include "quant/fixed_point.h"
#include "workload/scene.h"

namespace defa::api {
namespace {

EvalRequest tiny_request(OutputMask outputs = kFunctional) {
  EvalRequest req;
  req.preset = "tiny";
  req.outputs = outputs;
  return req;
}

// ----------------------------------------------------------------------- Json

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json::parse("null"), Json());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(Json::parse("\"a\\nb\\u0041\"").as_string(), "a\nbA");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["zeta"] = 1;
  j["alpha"] = 2;
  EXPECT_EQ(j.dump(), "{\"zeta\":1,\"alpha\":2}");
}

TEST(Json, NumbersRoundTripBitExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -0.0215}) {
    Json j = Json::object();
    j["v"] = v;
    const Json back = Json::parse(j.dump());
    EXPECT_EQ(back.at("v").as_number(), v);
  }
}

TEST(Json, NestedStructuresRoundTrip) {
  Json j = Json::object();
  j["list"] = Json::array();
  j["list"].push_back(Json(1.5));
  j["list"].push_back(Json("two"));
  j["list"].push_back(Json());
  j["nested"] = Json::object();
  j["nested"]["flag"] = true;
  const Json back = Json::parse(j.dump(2));
  EXPECT_EQ(back, j);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), CheckError);
  EXPECT_THROW((void)Json::parse("{"), CheckError);
  EXPECT_THROW((void)Json::parse("[1,]"), CheckError);
  EXPECT_THROW((void)Json::parse("{\"a\":1,}"), CheckError);
  EXPECT_THROW((void)Json::parse("{\"a\":1} trailing"), CheckError);
  EXPECT_THROW((void)Json::parse("{\"a\":1,\"a\":2}"), CheckError);
  EXPECT_THROW((void)Json::parse("nul"), CheckError);
  // RFC 8259 number strictness (strtod alone would accept all of these).
  EXPECT_THROW((void)Json::parse("01"), CheckError);
  EXPECT_THROW((void)Json::parse(".5"), CheckError);
  EXPECT_THROW((void)Json::parse("1."), CheckError);
  EXPECT_THROW((void)Json::parse("1e"), CheckError);
  EXPECT_THROW((void)Json::parse("-"), CheckError);
  EXPECT_EQ(Json::parse("0.5e+2").as_number(), 50.0);
}

TEST(Json, ParserRejectsTruncatedInput) {
  // Truncation points through one representative document.
  const std::string full = R"({"a": [1, 2.5, "sA"], "b": {"c": true}})";
  for (const std::size_t cut : {1u, 5u, 9u, 14u, 20u, 27u, 33u, 38u}) {
    EXPECT_THROW((void)Json::parse(full.substr(0, cut)), CheckError) << cut;
  }
  EXPECT_THROW((void)Json::parse("\"unterminated"), CheckError);
  EXPECT_THROW((void)Json::parse("\"bad escape \\"), CheckError);
  EXPECT_THROW((void)Json::parse("\"trunc \\u00"), CheckError);
  EXPECT_THROW((void)Json::parse("[1, 2"), CheckError);
  EXPECT_THROW((void)Json::parse("{\"k\":"), CheckError);
  EXPECT_THROW((void)Json::parse("-"), CheckError);
  EXPECT_THROW((void)Json::parse("12e"), CheckError);
}

TEST(Json, ParserRejectsDuplicateKeysAtAnyDepth) {
  EXPECT_THROW((void)Json::parse(R"({"a":1,"a":2})"), CheckError);
  EXPECT_THROW((void)Json::parse(R"({"o":{"x":1,"x":1}})"), CheckError);
  EXPECT_THROW((void)Json::parse(R"([{"k":0,"k":0}])"), CheckError);
  EXPECT_NO_THROW((void)Json::parse(R"({"o1":{"x":1},"o2":{"x":1}})"));
}

TEST(Json, NonFiniteNumbersRejectedBothWays) {
  // The RFC 8259 grammar has no non-finite literals ...
  EXPECT_THROW((void)Json::parse("NaN"), CheckError);
  EXPECT_THROW((void)Json::parse("Infinity"), CheckError);
  EXPECT_THROW((void)Json::parse("-Infinity"), CheckError);
  EXPECT_THROW((void)Json::parse("1e999"), CheckError);  // overflows to inf
  // ... and the writer refuses to produce one.
  Json j = Json::object();
  j["v"] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)j.dump(), CheckError);
  j["v"] = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)j.dump(), CheckError);
}

// ----------------------------------------------------------- request validation

TEST(EvalRequest, UnknownPresetThrows) {
  EvalRequest req;
  req.preset = "resnet50";
  EXPECT_THROW(req.validate(), CheckError);
}

TEST(EvalRequest, NeitherPresetNorModelThrows) {
  EvalRequest req;
  EXPECT_THROW(req.validate(), CheckError);
}

TEST(EvalRequest, BothPresetAndModelThrows) {
  EvalRequest req;
  req.preset = "tiny";
  req.model = ModelConfig::tiny();
  EXPECT_THROW(req.validate(), CheckError);
}

TEST(EvalRequest, EmptyOutputMaskThrows) {
  EvalRequest req = tiny_request(0);
  EXPECT_THROW(req.validate(), CheckError);
}

TEST(EvalRequest, UnknownOutputBitsThrow) {
  EvalRequest req = tiny_request(kAllOutputs | (1u << 17));
  EXPECT_THROW(req.validate(), CheckError);
}

TEST(EvalRequest, BadPruneParametersThrow) {
  EvalRequest req = tiny_request();
  req.prune = core::PruneConfig::only_quant(40);
  EXPECT_THROW(req.validate(), CheckError);

  req.prune = core::PruneConfig::only_pap(1.5);
  EXPECT_THROW(req.validate(), CheckError);

  req.prune = core::PruneConfig::only_fwp(-0.1);
  EXPECT_THROW(req.validate(), CheckError);
}

/// The message of the CheckError `req.validate()` throws, or "" if none.
std::string validation_error(const EvalRequest& req) {
  try {
    req.validate();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(EvalRequest, QuantizationWidthBoundedByCodeWidth) {
  // Codes are int16: 16 bits is the widest width evaluation supports, so
  // wider requests must fail validation rather than evaluation.
  EvalRequest req = tiny_request();
  req.prune = core::PruneConfig::only_quant(quant::kMaxBits);
  EXPECT_EQ(validation_error(req), "");
  for (const int bits : {17, 24}) {
    req.prune = core::PruneConfig::only_quant(bits);
    EXPECT_NE(validation_error(req).find("EvalRequest: quantization bits out of range [2, 16]"),
              std::string::npos)
        << bits;
  }
}

TEST(EvalRequest, WidestQuantizationEvaluates) {
  EvalRequest req = tiny_request();
  req.prune = core::PruneConfig::only_quant(quant::kMaxBits);
  Engine engine;
  EXPECT_NO_THROW((void)engine.run(req));
}

TEST(EvalRequest, SceneObjectCountBounded) {
  EvalRequest req = tiny_request();
  workload::SceneParams sp;
  sp.n_objects = workload::kMaxObjects;
  req.scene = sp;
  EXPECT_EQ(validation_error(req), "");
  sp.n_objects = workload::kMaxObjects + 1;
  req.scene = sp;
  EXPECT_NE(validation_error(req).find("EvalRequest: scene object count out of range [1, 64]"),
            std::string::npos);
}

TEST(EvalRequest, RangeRadiiOnePerLevel) {
  // The tiny preset has 2 levels: one radius short, one over, and a
  // 4-level spec are all rejected before evaluation; exactly 2 passes.
  const auto narrow_with = [](std::initializer_list<int> radii) {
    RangeSpec ranges;
    for (const int r : radii) ranges.radius_px[static_cast<std::size_t>(ranges.used_levels++)] = r;
    EvalRequest req = tiny_request();
    req.prune = core::PruneConfig::only_narrow(ModelConfig::tiny());
    req.prune->ranges = ranges;
    return req;
  };
  EXPECT_EQ(validation_error(narrow_with({8, 6})), "");
  for (const auto& req : {narrow_with({8}), narrow_with({8, 6, 6}), narrow_with({8, 8, 6, 6})}) {
    EXPECT_NE(validation_error(req).find("EvalRequest: range_radii needs one radius per model "
                                         "level (2), got "),
              std::string::npos);
  }
}

TEST(EvalRequest, NegativeRangeRadiusThrows) {
  // A negative radius would give std::clamp a lower bound above its upper
  // one.  Rejected in validation, over the wire and on the library path.
  const Json wire = Json::parse(
      R"({"preset":"tiny","prune":{"narrow":true,"range_radii":[8,-3]}})");
  const EvalRequest req = eval_request_from_json(wire);
  EXPECT_NE(validation_error(req).find("EvalRequest: range_radii must be >= 0"),
            std::string::npos);
  const ModelConfig m = ModelConfig::tiny();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  Tensor locs = wl.layer_fields(0).locs;
  Tensor out;
  EXPECT_THROW((void)prune::clamp_to_range(m, wl.ref_norm(), req.prune->ranges, locs),
               CheckError);
  EXPECT_THROW((void)prune::quantize_and_clamp(m, wl.ref_norm(), 12, &req.prune->ranges,
                                               locs, out),
               CheckError);
}

TEST(EvalRequest, BadSceneThrows) {
  EvalRequest req = tiny_request();
  workload::SceneParams sp;
  sp.n_objects = 0;
  req.scene = sp;
  EXPECT_THROW(req.validate(), CheckError);
}

TEST(EvalRequest, MalformedCustomModelThrows) {
  EvalRequest req;
  req.model = ModelConfig::tiny();
  req.model->n_heads = 3;  // d_model not divisible
  EXPECT_THROW(req.validate(), CheckError);
}

TEST(EvalRequest, ValidRequestPasses) {
  EXPECT_NO_THROW(tiny_request(kAllOutputs).validate());
}

TEST(Engine, RunRejectsInvalidRequest) {
  Engine engine;
  EvalRequest req;
  req.preset = "nope";
  EXPECT_THROW((void)engine.run(req), CheckError);
}

// --------------------------------------------------------------- context cache

TEST(Engine, ContextCacheHitsForIdenticalWorkload) {
  Engine engine;
  const ModelConfig m = ModelConfig::tiny();
  const auto a = engine.context(m);
  const auto b = engine.context(m);
  EXPECT_EQ(a.get(), b.get());  // same shared context object
  EXPECT_EQ(engine.cached_contexts(), 1u);

  // A different scene is a different workload.
  workload::SceneParams sp;
  sp.seed = m.seed + 1;
  const auto c = engine.context(m, sp);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(engine.cached_contexts(), 2u);
}

TEST(Engine, RepeatedRequestsReturnIdenticalResults) {
  Engine engine;
  const EvalRequest req = tiny_request(kAllOutputs);
  const EvalResult first = engine.run(req);
  const EvalResult second = engine.run(req);
  EXPECT_EQ(first, second);
  EXPECT_GE(engine.memoized_results(), 1u);
  EXPECT_EQ(engine.cached_contexts(), 1u);
}

TEST(Engine, MemoizationCanBeDisabled) {
  Engine::Options opts;
  opts.memoize_results = false;
  Engine engine(opts);
  const EvalRequest req = tiny_request();
  const EvalResult first = engine.run(req);
  const EvalResult second = engine.run(req);
  EXPECT_EQ(first, second);  // deterministic even without the memo
  EXPECT_EQ(engine.memoized_results(), 0u);
}

TEST(Engine, CacheStatsCountHitsAndMisses) {
  Engine engine;
  const EvalRequest req = tiny_request();
  (void)engine.run(req);  // memo miss + context miss
  (void)engine.run(req);  // memo hit; the context pool is not touched
  const Engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.memo_misses, 1u);
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.context.misses, 1u);
  EXPECT_EQ(stats.context.hits, 0u);
  EXPECT_EQ(stats.context.evictions, 0u);
}

TEST(Engine, BoundedContextPoolEvictsLruAndStaysCorrect) {
  // Unbounded reference results for three distinct workloads.
  Engine reference;
  Engine::Options opts;
  opts.max_contexts = 2;
  opts.memoize_results = false;  // every run really touches the pool
  Engine engine(opts);

  const ModelConfig m = ModelConfig::tiny();
  std::vector<EvalRequest> reqs;
  for (const std::uint64_t seed : {m.seed, m.seed + 1, m.seed + 2}) {
    EvalRequest r;
    r.preset = "tiny";
    workload::SceneParams sp;
    sp.seed = seed;
    r.scene = sp;
    reqs.push_back(std::move(r));
  }

  // Cycle through 3 workloads twice against a 2-context pool: every get
  // misses (LRU always evicted the workload that comes back next) but the
  // rebuilt contexts reproduce bit-identical results.
  for (int round = 0; round < 2; ++round) {
    for (const EvalRequest& r : reqs) {
      EXPECT_EQ(engine.run(r), reference.run(r));
      EXPECT_LE(engine.cached_contexts(), 2u);
    }
  }
  const Engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.context.misses, 6u);
  EXPECT_EQ(stats.context.hits, 0u);
  EXPECT_EQ(stats.context.evictions, 4u);

  // Re-touching the most recent workloads now hits.
  (void)engine.run(reqs[2]);
  EXPECT_EQ(engine.cache_stats().context.hits, 1u);
}

TEST(Engine, BoundedMemoEvictsLruAndStaysCorrect) {
  // Unbounded reference results for three distinct requests.
  Engine reference;
  Engine::Options opts;
  opts.max_memo = 2;
  Engine engine(opts);

  std::vector<EvalRequest> reqs;
  for (const int bits : {8, 10, 12}) {
    EvalRequest r;
    r.preset = "tiny";
    r.prune = core::PruneConfig::only_quant(bits);
    reqs.push_back(std::move(r));
  }

  // Cycle through 3 request identities twice against a 2-entry memo: the
  // second round always misses (LRU evicted the entry that comes back
  // next) but re-evaluation reproduces bit-identical results.
  for (int round = 0; round < 2; ++round) {
    for (const EvalRequest& r : reqs) {
      EXPECT_EQ(engine.run(r), reference.run(r));
      EXPECT_LE(engine.memoized_results(), 2u);
    }
  }
  const Engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.memo_misses, 6u);
  EXPECT_EQ(stats.memo_hits, 0u);
  EXPECT_EQ(stats.memo_evictions, 4u);

  // Re-touching the most recent request now hits without evicting.
  (void)engine.run(reqs[2]);
  EXPECT_EQ(engine.cache_stats().memo_hits, 1u);
  EXPECT_EQ(engine.cache_stats().memo_evictions, 4u);
}

TEST(Engine, MemoLruFollowsRecencyOfUse) {
  Engine::Options opts;
  opts.max_memo = 2;
  Engine engine(opts);
  EvalRequest a = tiny_request();
  EvalRequest b = tiny_request();
  b.prune = core::PruneConfig::only_pap();
  EvalRequest c = tiny_request();
  c.prune = core::PruneConfig::only_fwp();

  (void)engine.run(a);  // memo: {a}
  (void)engine.run(b);  // memo: {a, b}
  (void)engine.run(a);  // touch a -> b is now LRU
  (void)engine.run(c);  // evicts b, not a
  EXPECT_EQ(engine.cache_stats().memo_evictions, 1u);
  (void)engine.run(a);  // still resident
  EXPECT_EQ(engine.cache_stats().memo_hits, 2u);
  (void)engine.run(b);  // evicted above -> miss again
  EXPECT_EQ(engine.cache_stats().memo_misses, 4u);
}

TEST(EngineReconfigure, ShrinkingCacheBoundsEvictsAndResetStatsZeroes) {
  api::Engine engine;
  api::EvalRequest req;
  req.preset = "tiny";
  for (const int seed : {0, 101, 202}) {
    api::EvalRequest r = req;
    if (seed != 0) {
      workload::SceneParams scene;
      scene.seed = static_cast<unsigned>(seed);
      r.scene = scene;
    }
    (void)engine.run(r);
  }
  EXPECT_EQ(engine.cached_contexts(), 3u);

  api::Engine::Reconfig rc;
  rc.max_contexts = 1;
  engine.reconfigure(rc);
  EXPECT_EQ(engine.cached_contexts(), 1u);
  EXPECT_GE(engine.cache_stats().context.evictions, 2u);

  engine.reset_stats();
  EXPECT_EQ(engine.cache_stats().context.hits, 0u);
  EXPECT_EQ(engine.cache_stats().context.evictions, 0u);
  EXPECT_EQ(engine.cache_stats().memo_misses, 0u);

  // An unknown backend is refused before anything is applied.
  api::Engine::Reconfig bad;
  bad.backend = "no_such_backend";
  bad.max_contexts = 99;
  EXPECT_THROW(engine.reconfigure(bad), CheckError);
  EXPECT_EQ(engine.cached_contexts(), 1u);  // untouched
  (void)engine.run(req);                    // still serves
}

// ---------------------------------------------------------- batch determinism

TEST(Engine, BatchMatchesSequentialBitwise) {
  // Distinct engines so the batched run cannot serve memoized copies of
  // the sequential results.
  Engine sequential_engine;
  Engine::Options opts;
  opts.max_parallel_requests = 4;
  Engine batch_engine(opts);

  std::vector<EvalRequest> requests;
  requests.push_back(tiny_request(kAllOutputs));
  {
    EvalRequest req = tiny_request(kFunctional | kAccuracy);
    req.prune = core::PruneConfig::only_pap(0.05);
    requests.push_back(req);
  }
  {
    EvalRequest req = tiny_request();
    req.prune = core::PruneConfig::only_fwp(0.8);
    requests.push_back(req);
  }
  {
    EvalRequest req = tiny_request(kFunctional | kLatency);
    req.prune = core::PruneConfig::baseline();
    requests.push_back(req);
  }
  // Duplicate of request 0: must come back identical, served from cache.
  requests.push_back(tiny_request(kAllOutputs));

  std::vector<EvalResult> expected;
  expected.reserve(requests.size());
  for (const EvalRequest& r : requests) expected.push_back(sequential_engine.run(r));

  const std::vector<EvalResult> actual = batch_engine.run_batch(requests);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "request " << i;
  }
  // All five requests share one workload context.
  EXPECT_EQ(batch_engine.cached_contexts(), 1u);
}

TEST(Engine, MultiBenchmarkBatchMatchesSequential) {
  // Two different workloads in one batch (the paper-benchmark sweep shape,
  // at test scale): per-request results must equal sequential runs and
  // each workload gets exactly one shared context.
  Engine sequential_engine;
  Engine batch_engine;

  std::vector<EvalRequest> requests;
  for (const char* preset : {"tiny", "small"}) {
    EvalRequest req;
    req.preset = preset;
    req.outputs = kFunctional | kLatency;
    requests.push_back(std::move(req));
  }

  std::vector<EvalResult> expected;
  for (const EvalRequest& r : requests) expected.push_back(sequential_engine.run(r));
  const std::vector<EvalResult> actual = batch_engine.run_batch(requests);

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << requests[i].preset;
  }
  EXPECT_EQ(batch_engine.cached_contexts(), 2u);
}

TEST(Engine, BatchValidatesEveryRequestUpFront) {
  Engine engine;
  std::vector<EvalRequest> requests = {tiny_request()};
  EvalRequest bad;
  bad.preset = "bogus";
  requests.push_back(bad);
  EXPECT_THROW((void)engine.run_batch(requests), CheckError);
}

TEST(Engine, EmptyBatchIsFine) {
  Engine engine;
  EXPECT_TRUE(engine.run_batch({}).empty());
}

// -------------------------------------------------------------------- registry

TEST(Registry, EnumeratesAllBuiltinExperiments) {
  register_builtin_experiments();
  register_builtin_experiments();  // idempotent
  const Registry& r = Registry::instance();
  EXPECT_EQ(r.size(), 12u);

  const std::vector<std::string> expected = {
      "ablation_prune_sweep", "ablation_range_narrowing", "ablation_scaling",
      "fig1b", "fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9",
      "microbench", "table1"};
  EXPECT_EQ(r.names(), expected);

  for (const std::string& name : r.names()) {
    const Experiment* e = r.find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_FALSE(e->title.empty()) << name;
    EXPECT_FALSE(e->description.empty()) << name;
    EXPECT_TRUE(static_cast<bool>(e->run)) << name;
  }
}

TEST(Registry, FindUnknownReturnsNull) {
  register_builtin_experiments();
  EXPECT_EQ(Registry::instance().find("fig42"), nullptr);
}

TEST(Registry, DuplicateRegistrationThrows) {
  register_builtin_experiments();
  Experiment dup;
  dup.name = "fig1b";
  dup.run = [](Engine&, std::ostream&) { return Json::object(); };
  EXPECT_THROW(Registry::instance().add(std::move(dup)), CheckError);
}

TEST(Registry, RunExperimentProducesTablesAndJson) {
  Engine engine;
  std::ostringstream out;
  // fig1b is analytic (no heavyweight context), cheap even at paper scale.
  const Json j = run_experiment(engine, "fig1b", out);
  EXPECT_EQ(j.at("experiment").as_string(), "fig1b");
  EXPECT_FALSE(j.at("title").as_string().empty());
  ASSERT_EQ(j.at("rows").size(), 3u);
  EXPECT_NE(out.str().find("MSGS"), std::string::npos);
  // The emitted JSON survives a round trip.
  EXPECT_EQ(Json::parse(j.dump(2)), j);
}

TEST(Registry, RunUnknownExperimentThrows) {
  Engine engine;
  std::ostringstream out;
  EXPECT_THROW((void)run_experiment(engine, "fig42", out), CheckError);
}

// ------------------------------------------------------------ JSON round trip

TEST(EvalResult, JsonRoundTripIsLossless) {
  Engine engine;
  const EvalResult original = engine.run(tiny_request(kAllOutputs));
  ASSERT_TRUE(original.functional.has_value());
  ASSERT_TRUE(original.latency.has_value());
  ASSERT_TRUE(original.energy.has_value());
  ASSERT_TRUE(original.accuracy.has_value());

  const std::string text = to_json(original).dump(2);
  const EvalResult back = eval_result_from_json(Json::parse(text));
  EXPECT_EQ(back, original);
}

TEST(EvalResult, JsonSectionsMirrorOutputMask) {
  Engine engine;
  const EvalResult r = engine.run(tiny_request(kFunctional));
  const Json j = to_json(r);
  EXPECT_TRUE(j.contains("functional"));
  EXPECT_FALSE(j.contains("latency"));
  EXPECT_FALSE(j.contains("energy"));
  EXPECT_FALSE(j.contains("accuracy"));

  const EvalResult back = eval_result_from_json(j);
  EXPECT_EQ(back, r);
}

// --------------------------------------------------------------- sanity checks

TEST(Engine, FunctionalSectionMatchesSeedExpectations) {
  Engine engine;
  const EvalResult r = engine.run(tiny_request(kAllOutputs));
  const FunctionalStats& f = *r.functional;
  EXPECT_EQ(r.benchmark, "tiny");
  EXPECT_GT(f.point_reduction, 0.3);
  EXPECT_GT(f.flop_reduction, 0.1);
  EXPECT_GT(f.final_nrmse, 0.0);
  EXPECT_EQ(static_cast<int>(f.layers.size()), ModelConfig::tiny().n_layers);
  EXPECT_GT(r.latency->wall_cycles, 0.0);
  EXPECT_GT(r.energy->total_pj(), 0.0);
  EXPECT_GT(r.accuracy->baseline_ap, r.accuracy->proxy_ap);
  EXPECT_EQ(r.accuracy->drops.size(), 4u);  // fwp, pap, narrow, quant
}

TEST(Engine, CustomHwConfigChangesLatency) {
  Engine engine;
  EvalRequest req = tiny_request(kLatency);
  const EvalResult base = engine.run(req);

  const ModelConfig m = ModelConfig::tiny();
  HwConfig hw = HwConfig::make_default(m);
  hw.freq_mhz = 800.0;
  req.hw = hw;
  const EvalResult fast = engine.run(req);
  EXPECT_LT(fast.latency->time_ms, base.latency->time_ms);
}

}  // namespace
}  // namespace defa::api
