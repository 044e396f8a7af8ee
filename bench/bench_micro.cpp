// Micro-benchmarks (google-benchmark) of the performance-critical pieces:
// min-cost-flow solves, greedy OPT packing, GBDT training and prediction,
// feature extraction, and per-request policy costs.

#include <benchmark/benchmark.h>

#include "cache/factory.hpp"
#include "core/lfo_model.hpp"
#include "features/dataset_builder.hpp"
#include "gbdt/gbdt.hpp"
#include "opt/opt.hpp"
#include "trace/generator.hpp"
#include "trace/scenario.hpp"
#include "trace/zipf.hpp"
#include "util/rng.hpp"

namespace {

using namespace lfo;

const trace::Trace& micro_trace() {
  static const trace::Trace t = [] {
    trace::GeneratorConfig config;
    config.num_requests = 50000;
    config.seed = 7;
    config.classes = trace::production_mix(0.05);
    return trace::generate_trace(config);
  }();
  return t;
}

void BM_MinCostFlowExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto window = micro_trace().window(0, n);
  opt::OptConfig config;
  config.cache_size = micro_trace().unique_bytes() / 16;
  config.mode = opt::OptMode::kExactMcf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::compute_opt(window, config));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MinCostFlowExact)->Arg(500)->Arg(1000)->Arg(2000);

void BM_GreedyPackingOpt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto window = micro_trace().window(0, n);
  opt::OptConfig config;
  config.cache_size = micro_trace().unique_bytes() / 16;
  config.mode = opt::OptMode::kGreedyPacking;
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::compute_opt(window, config));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GreedyPackingOpt)->Arg(2000)->Arg(10000)->Arg(50000);

void BM_GbdtTrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto window = micro_trace().window(0, n);
  core::LfoConfig config;
  config.set_cache_size(micro_trace().unique_bytes() / 16);
  const auto opt = opt::compute_opt(window, config.opt);
  features::DatasetBuildOptions build;
  build.features = config.features;
  build.cache_size = config.cache_size;
  const auto data = features::build_dataset(window, opt, build);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gbdt::train(data, config.gbdt));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
// 50K rows is the window shape lfo_bench and the pipeline train on.
BENCHMARK(BM_GbdtTrain)
    ->Arg(5000)
    ->Arg(20000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/// The fit on lfo_bench's wide_churn shape: a 50K-request window of the
/// production mix at scale 2 with 30% one-hit ids, labelled by greedy
/// OPT at a 5% cache, with num_gaps = 50 (16 features) and the paper's
/// GBDT defaults, fitted serially.
void BM_GbdtTrainWideChurn(benchmark::State& state) {
  static const gbdt::Dataset data = [] {
    trace::scenario::FloodConfig flood;
    flood.base.num_requests = 50000;
    flood.base.seed = 1;
    flood.base.cost_model = trace::CostModel::kByteHitRatio;
    flood.base.classes = trace::production_mix(2.0);
    flood.flood_fraction = 0.3;
    flood.flood_duration = flood.base.num_requests;
    const auto trace = trace::scenario::one_hit_flood(flood);
    core::LfoConfig config;
    config.set_cache_size(trace.unique_bytes() / 20);
    config.features.num_gaps = 50;
    const auto window = trace.window(0, trace.size());
    features::DatasetBuildOptions build;
    build.features = config.features;
    build.cache_size = config.cache_size;
    return features::build_dataset(
        window, opt::compute_opt(window, config.opt), build);
  }();
  const auto params = gbdt::Params::paper_defaults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gbdt::train(data, params));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_GbdtTrainWideChurn)->Unit(benchmark::kMillisecond);

/// One trained LFO model shared by the predictor microbenchmarks (GBDT
/// training is itself benchmarked above; re-training per benchmark would
/// dominate setup time).
const core::TrainResult& micro_model() {
  static const core::TrainResult trained = [] {
    const auto window = micro_trace().window(0, 20000);
    core::LfoConfig config;
    config.set_cache_size(micro_trace().unique_bytes() / 16);
    return core::train_on_window(window, config);
  }();
  return trained;
}

void BM_Predict(benchmark::State& state) {
  const auto& trained = micro_model();
  std::vector<float> row(trained.model->dimension(), 1.0f);
  util::Rng rng(3);
  for (auto _ : state) {
    row[0] = static_cast<float>(rng.uniform(1 << 20));
    row[3] = static_cast<float>(rng.uniform(1 << 16));
    benchmark::DoNotOptimize(trained.model->predict(row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Predict);

/// A matrix of `rows` realistic feature rows for the predict benches.
std::vector<float> micro_feature_matrix(std::size_t rows) {
  const std::size_t dim = micro_model().model->dimension();
  std::vector<float> matrix(rows * dim);
  util::Rng rng(11);
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = matrix.data() + r * dim;
    row[0] = static_cast<float>(rng.uniform(1 << 20));
    row[1] = row[0];
    row[2] = static_cast<float>(rng.uniform(1 << 24));
    for (std::size_t f = 3; f < dim; ++f) {
      // Mix of observed gaps and the missing-gap sentinel.
      row[f] = rng.uniform(4) == 0
                   ? 1e8f
                   : static_cast<float>(1 + rng.uniform(1 << 16));
    }
  }
  return matrix;
}

/// Serving engine under measurement in the per-engine roofline suite.
enum class EngineKind { kTreeWalk, kFlat };

/// Analytic bytes touched per fully-traversed row: feature-row reads,
/// the per-visit node bytes, one leaf value per tree, and the output
/// double. Deliberately a cold-cache upper bound — together with the
/// measured ns/row it locates each walk against the memory roofline.
double engine_bytes_per_row(EngineKind kind) {
  const auto& model = *micro_model().model;
  const double dim = static_cast<double>(model.dimension());
  const auto& forest = model.forest();
  const double trees = static_cast<double>(forest.num_trees());
  const double flat_levels = static_cast<double>(forest.total_levels());
  switch (kind) {
    case EngineKind::kTreeWalk:
      // Per visit: left/right/feature int32 + float threshold across
      // parallel arrays, plus the compared feature float.
      return dim * 4 + flat_levels * (16 + 4) + trees * 8 + 8;
    case EngineKind::kFlat:
      // Per visit: one 12-byte packed node + the compared feature float.
      return dim * 4 + flat_levels * (12 + 4) + trees * 8 + 8;
  }
  return 0.0;
}

/// Single-sample predict: the serving engine and its reference walk.
void BM_ForestPredictSingle(benchmark::State& state, EngineKind kind) {
  const auto& trained = micro_model();
  const std::size_t dim = trained.model->dimension();
  const auto matrix = micro_feature_matrix(512);
  const auto& forest = trained.model->forest();
  const auto& booster = trained.model->booster();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::span<const float> row{matrix.data() + (i % 512) * dim, dim};
    if (kind == EngineKind::kFlat) {
      benchmark::DoNotOptimize(forest.predict_proba(row));
    } else {
      benchmark::DoNotOptimize(booster.predict_proba(row));
    }
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes_per_row"] = engine_bytes_per_row(kind);
}
BENCHMARK_CAPTURE(BM_ForestPredictSingle, flat, EngineKind::kFlat);
BENCHMARK_CAPTURE(BM_ForestPredictSingle, tree_walk,
                  EngineKind::kTreeWalk);

void BM_FeatureExtraction(benchmark::State& state) {
  features::FeatureExtractor extractor{features::FeatureConfig{}};
  std::vector<float> row(extractor.dimension());
  features::FeatureScratch scratch;
  const auto& t = micro_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& r = t[i % t.size()];
    extractor.extract(r, i, 1 << 20, row, scratch);
    extractor.observe(r, i);
    benchmark::DoNotOptimize(row.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureExtraction);

/// extract() alone on a warm history (the per-request serving cost with
/// no observe/history mutation mixed in).
void BM_FeatureExtractOnly(benchmark::State& state) {
  features::FeatureExtractor extractor{features::FeatureConfig{}};
  std::vector<float> row(extractor.dimension());
  features::FeatureScratch scratch;
  const auto& t = micro_trace();
  for (std::size_t i = 0; i < t.size(); ++i) extractor.observe(t[i], i);
  std::size_t i = 0;
  for (auto _ : state) {
    extractor.extract(t[i % t.size()], t.size() + i, 1 << 20, row, scratch);
    benchmark::DoNotOptimize(row.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureExtractOnly);

void BM_PolicyAccess(benchmark::State& state, const char* name) {
  const auto& t = micro_trace();
  auto policy = cache::make_policy(name, t.unique_bytes() / 16, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->access(t[i % t.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_PolicyAccess, lru, "LRU");
BENCHMARK_CAPTURE(BM_PolicyAccess, s4lru, "S4LRU");
BENCHMARK_CAPTURE(BM_PolicyAccess, gdsf, "GDSF");
BENCHMARK_CAPTURE(BM_PolicyAccess, gdwheel, "GD-Wheel");
BENCHMARK_CAPTURE(BM_PolicyAccess, lhd, "LHD");
BENCHMARK_CAPTURE(BM_PolicyAccess, hyperbolic, "Hyperbolic");

void BM_ZipfSample(benchmark::State& state) {
  trace::ZipfSampler z(1000000, 0.9);
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

}  // namespace

BENCHMARK_MAIN();
