#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/lfo_cache.hpp"
#include "core/lfo_model.hpp"
#include "core/windowed.hpp"
#include "trace/generator.hpp"

namespace lfo::core {
namespace {

using trace::Request;

/// A hand-built model that thresholds on the size feature (index 0):
/// predicts "cache" for small objects. Lets the policy be tested without
/// a training run.
std::shared_ptr<const LfoModel> small_object_model(
    const features::FeatureConfig& config, float size_threshold) {
  gbdt::Tree tree(0.0);
  // left (size <= threshold) -> +4 (p ~ 0.98), right -> -4 (p ~ 0.02).
  tree.split_leaf(0, 0, size_threshold, 4.0, -4.0);
  std::vector<gbdt::Tree> trees{tree};
  return std::make_shared<const LfoModel>(gbdt::Model(0.0, std::move(trees)),
                                          config);
}

features::FeatureConfig small_config() {
  features::FeatureConfig config;
  config.num_gaps = 4;
  return config;
}

LfoConfig fast_lfo_config(std::uint64_t cache_size) {
  LfoConfig config;
  config.set_cache_size(cache_size);
  config.opt.mode = opt::OptMode::kGreedyPacking;
  config.features.num_gaps = 10;
  config.gbdt.num_iterations = 15;
  return config;
}

TEST(LfoModelTest, PredictAndImportance) {
  const auto config = small_config();
  const auto model = small_object_model(config, 100.0f);
  std::vector<float> row(config.dimension(), 0.0f);
  row[0] = 50.0f;
  EXPECT_GT(model->predict(row), 0.9);
  row[0] = 500.0f;
  EXPECT_LT(model->predict(row), 0.1);

  const auto importance = model->feature_importance();
  ASSERT_EQ(importance.size(), config.dimension());
  EXPECT_EQ(importance[0].name, "size");
  EXPECT_EQ(importance[0].splits, 1u);
  EXPECT_DOUBLE_EQ(importance[0].share, 1.0);
}

TEST(LfoCacheTest, BootstrapAdmitsEverythingLikeLru) {
  LfoCache cache(3, small_config());
  EXPECT_FALSE(cache.has_model());
  cache.access({1, 1, 1.0});
  cache.access({2, 1, 1.0});
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LfoCacheTest, AdmissionFollowsModelCutoff) {
  LfoCache cache(1000, small_config());
  cache.swap_model(small_object_model(small_config(), 100.0f));
  cache.access({1, 50, 50.0});   // small: admitted
  cache.access({2, 500, 500.0});  // large: bypassed
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.bypassed(), 1u);
}

TEST(LfoCacheTest, EvictsLowestLikelihoodFirst) {
  // Model: p decreasing in size. Fill with small objects of increasing
  // size, then overflow: the largest (lowest p) must be evicted.
  features::FeatureConfig config = small_config();
  LfoCache cache(100, config);
  // Two-leaf-per-split ladder: use three stacked stumps on size.
  gbdt::Tree t1(0.0), t2(0.0), t3(0.0);
  t1.split_leaf(0, 0, 20.0f, 1.0, -1.0);
  t2.split_leaf(0, 0, 40.0f, 1.0, -1.0);
  t3.split_leaf(0, 0, 60.0f, 1.0, -1.0);
  auto model = std::make_shared<const LfoModel>(
      gbdt::Model(1.0, {t1, t2, t3}), config);
  cache.swap_model(model);
  cache.access({1, 10, 10.0});  // p = sigmoid(4) high
  cache.access({2, 30, 30.0});  // p = sigmoid(2)
  cache.access({3, 50, 50.0});  // p = sigmoid(0) = 0.5 (>= cutoff)
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  cache.access({4, 15, 15.0});  // needs 5 bytes: evicts object 3 (lowest p)
  EXPECT_FALSE(cache.contains(3));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(4));
}

/// Admits every size: size <= 20 scores sigmoid(4), larger sigmoid(1).
std::shared_ptr<const LfoModel> two_score_model(
    const features::FeatureConfig& config) {
  gbdt::Tree tree(0.0);
  tree.split_leaf(0, 0, 20.0f, 4.0, 1.0);
  return std::make_shared<const LfoModel>(gbdt::Model(0.0, {tree}), config);
}

/// Fills a 1020-byte cache with objects 0..99 in that recency order (0
/// least recent): 10-byte objects, except the one at `low` (30 bytes,
/// the lower score). Then admits a 10-byte object, which evicts once.
void fill_then_evict_once(LfoCache& cache, trace::ObjectId low) {
  cache.swap_model(two_score_model(small_config()));
  for (trace::ObjectId id = 0; id < 100; ++id) {
    const std::uint64_t size = id == low ? 30 : 10;
    cache.access({id, size, static_cast<double>(size)});
  }
  ASSERT_EQ(cache.used_bytes(), 1020u);
  cache.access({1000, 10, 10.0});
  ASSERT_TRUE(cache.contains(1000));
}

TEST(SampledEviction, LowestScoreAmongTheLeastRecentIsEvicted) {
  // The low-score object is the kEvictionSample-th least recent: the
  // last one the eviction scan looks at.
  LfoCache cache(1020, small_config());
  const trace::ObjectId low = LfoCache::kEvictionSample - 1;
  fill_then_evict_once(cache, low);
  EXPECT_FALSE(cache.contains(low));
  EXPECT_TRUE(cache.contains(0));  // least recent, but scored higher
}

TEST(SampledEviction, LowerScoreOutsideTheSampleIsNotEvicted) {
  // One entry more recent than the sample: the scan never sees it, and
  // the tie among the sampled entries goes to the least recent.
  LfoCache cache(1020, small_config());
  const trace::ObjectId low = LfoCache::kEvictionSample;
  fill_then_evict_once(cache, low);
  EXPECT_TRUE(cache.contains(low));
  EXPECT_FALSE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
}

TEST(SampledEviction, TiesAndBootstrapEvictTheLeastRecent) {
  // Bootstrap scores every admission 0.5; the model scores these
  // same-size objects alike. Either way eviction is LRU: the hit on 1
  // makes 2 the least recent.
  for (const bool with_model : {false, true}) {
    SCOPED_TRACE(with_model ? "model" : "bootstrap");
    LfoCache cache(3, small_config());
    if (with_model) cache.swap_model(small_object_model(small_config(), 10));
    cache.access({1, 1, 1.0});
    cache.access({2, 1, 1.0});
    cache.access({3, 1, 1.0});
    EXPECT_TRUE(cache.access({1, 1, 1.0}));
    cache.access({4, 1, 1.0});
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_TRUE(cache.contains(4));
  }
}

TEST(LfoCacheTest, HitCanDemoteTheHitObject) {
  // gap1-sensitive model: gap1 <= 10 scores sigmoid(4), larger (or
  // missing) sigmoid(-4), below the cutoff. Object 1 is hit after a
  // 20-request gap: the hit re-scores it below the cutoff but keeps it
  // cached, and the next eviction takes it although it is the most
  // recent entry (the paper's hit-then-evict behaviour).
  const auto config = small_config();
  LfoCache cache(100, config);
  const auto gap1_index = 3;  // size, cost, free, gap1...
  gbdt::Tree tree(0.0);
  tree.split_leaf(0, gap1_index, 10.0f, 4.0, -4.0);
  cache.swap_model(std::make_shared<const LfoModel>(
      gbdt::Model(0.0, {tree}), config));

  // A first request has no gap1 and is bypassed; the second is admitted.
  for (const trace::ObjectId id : {1, 1, 3, 3}) cache.access({id, 40, 40.0});
  ASSERT_TRUE(cache.contains(1));
  ASSERT_TRUE(cache.contains(3));
  // Object 99 (1 byte) is admitted on its second request, then hits.
  for (int i = 0; i < 20; ++i) cache.access({99, 1, 1.0});
  EXPECT_TRUE(cache.access({1, 40, 40.0}));  // gap1 = 21
  EXPECT_TRUE(cache.contains(1));
  // Recency is now 3, 99, 1 (least recent first). Object 2 needs 40
  // bytes of the 19 free: one eviction.
  cache.access({2, 40, 40.0});
  cache.access({2, 40, 40.0});
  EXPECT_TRUE(cache.contains(2));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(99));
}

TEST(LfoCacheTest, CutoffIsAdjustable) {
  LfoCache cache(1000, small_config(), 0.9);
  cache.swap_model(small_object_model(small_config(), 100.0f));
  EXPECT_DOUBLE_EQ(cache.cutoff(), 0.9);
  cache.set_cutoff(0.999);
  cache.access({1, 50, 50.0});  // p ~ 0.98 < 0.999: bypassed
  EXPECT_FALSE(cache.contains(1));
}

TEST(TrainOnWindow, LearnsOptWellOnSkewedTrace) {
  const auto t = trace::generate_zipf_trace(20000, 800, 1.0, 60);
  const auto config = fast_lfo_config(t.unique_bytes() / 6);
  const auto result =
      train_on_window(std::span<const Request>(t.requests()), config);
  ASSERT_NE(result.model, nullptr);
  EXPECT_EQ(result.num_samples, t.size());
  // The paper reports >93% agreement with OPT; in-sample on a synthetic
  // trace we should comfortably clear 85%.
  EXPECT_GT(result.train_accuracy, 0.85);
  EXPECT_GT(result.opt.hit_requests, 0u);
}

TEST(TrainOnWindow, EmptyWindowThrows) {
  const auto config = fast_lfo_config(1 << 20);
  EXPECT_THROW(train_on_window({}, config), std::invalid_argument);
}

TEST(TrainOnWindow, ScoresTheServingModelOnItsOwnRows) {
  const auto t = trace::generate_zipf_trace(16000, 600, 1.0, 63);
  const auto config = fast_lfo_config(t.unique_bytes() / 6);
  const auto window0 = t.window(0, 8000);
  const auto window1 = t.window(8000, 8000);
  const auto a = train_on_window(window0, config);
  ASSERT_NE(a.model, nullptr);
  EXPECT_EQ(a.model->training_summary().rows, window0.size());

  const auto b = train_on_window(window1, config, a.model.get());
  ASSERT_NE(b.model, nullptr);

  // The serving model, scored on the job's own rows, agrees count for
  // count with a separate replay of the window.
  ASSERT_TRUE(b.serving_confusion.has_value());
  const auto replayed = evaluate_predictions(*a.model, window1, b.opt,
                                             config.cache_size, config.cutoff);
  EXPECT_EQ(b.serving_confusion->tp(), replayed.tp());
  EXPECT_EQ(b.serving_confusion->fp(), replayed.fp());
  EXPECT_EQ(b.serving_confusion->fn(), replayed.fn());
  EXPECT_EQ(b.serving_confusion->tn(), replayed.tn());
  EXPECT_EQ(b.candidate.serving_accuracy, replayed.accuracy());

  // Drift is scored against the baseline the serving model carries.
  ASSERT_TRUE(b.drift.has_value());
  const auto drift = obs::feature_drift(a.model->training_summary(),
                                        b.model->training_summary());
  EXPECT_EQ(b.drift->mean_score, drift.mean_score);
  EXPECT_EQ(b.drift->max_score, drift.max_score);
  EXPECT_EQ(b.drift->worst_feature, drift.worst_feature);
  EXPECT_EQ(b.candidate.feature_drift, drift.mean_score);

  // The in-sample figures: the booster's own confusion on the window's
  // dataset, and the admit shares derived from it.
  features::DatasetBuildOptions build;
  build.features = config.features;
  build.cache_size = config.cache_size;
  const auto train = gbdt::confusion(
      b.model->booster(), features::build_dataset(window1, b.opt, build),
      config.cutoff);
  const auto total = static_cast<double>(train.total());
  EXPECT_EQ(b.train_confusion.tp(), train.tp());
  EXPECT_EQ(b.train_confusion.fp(), train.fp());
  EXPECT_EQ(b.train_confusion.fn(), train.fn());
  EXPECT_EQ(b.train_confusion.tn(), train.tn());
  EXPECT_EQ(b.candidate.train_accuracy, train.accuracy());
  EXPECT_EQ(b.candidate.model_admit_share,
            static_cast<double>(train.tp() + train.fp()) / total);
  EXPECT_EQ(b.candidate.opt_admit_share,
            static_cast<double>(train.tp() + train.fn()) / total);
  EXPECT_FALSE(b.candidate.train_failed);
}

TEST(TrainOnWindow, WithoutServingModelDriftAndServingAccuracyAreUnknown) {
  const auto t = trace::generate_zipf_trace(6000, 300, 1.0, 64);
  const auto config = fast_lfo_config(t.unique_bytes() / 6);
  const auto result =
      train_on_window(std::span<const Request>(t.requests()), config);
  EXPECT_FALSE(result.serving_confusion.has_value());
  EXPECT_FALSE(result.drift.has_value());
  EXPECT_EQ(result.candidate.feature_drift, -1.0);
  EXPECT_EQ(result.candidate.serving_accuracy, -1.0);
  EXPECT_EQ(result.candidate.train_accuracy, result.train_accuracy);
}

TEST(TrainOnWindow, RejectsServingModelOfAnotherSchema) {
  const auto t = trace::generate_zipf_trace(2000, 100, 1.0, 65);
  const auto config = fast_lfo_config(t.unique_bytes() / 6);
  auto dense = config.features;
  dense.thin_gaps = false;
  const auto serving = small_object_model(dense, 100.0f);
  EXPECT_THROW(train_on_window(std::span<const Request>(t.requests()),
                               config, serving.get()),
               std::invalid_argument);
}

TEST(TrainOnWindow, LoadedServingModelGivesAccuracyButNoDrift) {
  // The training summary is not persisted: a loaded model still scores
  // the window, but its drift is unknown.
  const auto t = trace::generate_zipf_trace(12000, 400, 1.0, 66);
  const auto config = fast_lfo_config(t.unique_bytes() / 6);
  const auto a = train_on_window(t.window(0, 6000), config);
  std::stringstream file;
  a.model->save(file);
  const auto loaded = LfoModel::load(file);
  EXPECT_EQ(loaded.training_summary().rows, 0u);

  const auto window1 = t.window(6000, 6000);
  const auto from_trained = train_on_window(window1, config, a.model.get());
  const auto from_loaded = train_on_window(window1, config, &loaded);
  ASSERT_TRUE(from_loaded.serving_confusion.has_value());
  EXPECT_EQ(from_loaded.candidate.serving_accuracy,
            from_trained.candidate.serving_accuracy);
  EXPECT_GE(from_loaded.candidate.serving_accuracy, 0.0);
  EXPECT_FALSE(from_loaded.drift.has_value());
  EXPECT_EQ(from_loaded.candidate.feature_drift, -1.0);
  EXPECT_TRUE(from_trained.drift.has_value());
}

TEST(TrainOnWindow, ServingModelDoesNotChangeTheTrainedModel) {
  // Scoring the serving model reads the dataset only: the new model, its
  // labels and its in-sample figures are the same with or without it.
  const auto t = trace::generate_zipf_trace(12000, 500, 0.9, 67);
  const auto config = fast_lfo_config(t.unique_bytes() / 8);
  const auto a = train_on_window(t.window(0, 6000), config);
  const auto window1 = t.window(6000, 6000);
  const auto alone = train_on_window(window1, config);
  const auto scored = train_on_window(window1, config, a.model.get());
  EXPECT_EQ(alone.opt.cached, scored.opt.cached);
  EXPECT_EQ(alone.train_accuracy, scored.train_accuracy);
  EXPECT_EQ(alone.candidate.model_admit_share,
            scored.candidate.model_admit_share);
  features::DatasetBuildOptions build;
  build.features = config.features;
  build.cache_size = config.cache_size;
  const auto dataset = features::build_dataset(window1, alone.opt, build);
  for (std::size_t i = 0; i < dataset.num_rows(); ++i) {
    ASSERT_EQ(alone.model->predict(dataset.row(i)),
              scored.model->predict(dataset.row(i)))
        << "row " << i;
  }
}

TEST(TrainOnWindow, TrainingSummaryDescribesTheWindowsRows) {
  const auto t = trace::generate_zipf_trace(5000, 300, 1.0, 68);
  const auto config = fast_lfo_config(t.unique_bytes() / 6);
  const std::span<const Request> window(t.requests());
  const auto result = train_on_window(window, config);
  features::DatasetBuildOptions build;
  build.features = config.features;
  build.cache_size = config.cache_size;
  const auto dataset = features::build_dataset(window, result.opt, build);
  const auto expected = obs::summarize_rows(dataset.features_matrix(),
                                            dataset.num_features());
  const auto& summary = result.model->training_summary();
  EXPECT_EQ(summary.rows, expected.rows);
  EXPECT_EQ(summary.mean, expected.mean);
  EXPECT_EQ(summary.stddev, expected.stddev);
  // A hand-built model carries no baseline.
  EXPECT_EQ(small_object_model(small_config(), 100.0f)
                ->training_summary()
                .rows,
            0u);
}

TEST(EvaluatePredictions, PerfectModelHasZeroError) {
  // Evaluate the trained model against the same OPT labels in-sample: the
  // confusion accuracy must equal the training accuracy.
  const auto t = trace::generate_zipf_trace(8000, 300, 1.0, 61);
  const auto config = fast_lfo_config(t.unique_bytes() / 5);
  std::span<const Request> reqs(t.requests());
  const auto result = train_on_window(reqs, config);
  const auto confusion = evaluate_predictions(
      *result.model, reqs, result.opt, config.cache_size, config.cutoff);
  EXPECT_NEAR(confusion.accuracy(), result.train_accuracy, 1e-9);
}

TEST(WindowedRunner, ReportsTheJobsServingScoreAndDrift) {
  // With swap_lag 0 and every model activated, window k is served by the
  // model trained on window k-1: its prediction error and drift are that
  // model's score and baseline, exactly as train_on_window reports them.
  const auto t = trace::generate_zipf_trace(12000, 500, 1.0, 69);
  WindowedConfig config;
  config.lfo = fast_lfo_config(t.unique_bytes() / 6);
  config.window_size = 4000;
  const auto result = run_windowed_lfo(t, config);
  ASSERT_EQ(result.windows.size(), 3u);

  std::shared_ptr<const LfoModel> serving;
  for (std::size_t k = 0; k < result.windows.size(); ++k) {
    const auto& report = result.windows[k];
    ASSERT_EQ(report.rollout.decision, RolloutDecision::kActivated) << k;
    const auto trained = train_on_window(
        t.window(report.begin, report.length), config.lfo, serving.get());
    if (serving == nullptr) {
      EXPECT_EQ(report.prediction_error, -1.0);
      EXPECT_EQ(report.health.feature_drift, -1.0);
    } else {
      EXPECT_EQ(report.prediction_error,
                1.0 - trained.serving_confusion->accuracy())
          << k;
      EXPECT_EQ(report.health.false_positive_share,
                trained.serving_confusion->false_positive_share())
          << k;
      EXPECT_EQ(report.health.feature_drift, trained.drift->mean_score) << k;
      EXPECT_EQ(report.health.max_feature_drift, trained.drift->max_score)
          << k;
    }
    EXPECT_EQ(report.train_accuracy, trained.train_accuracy) << k;
    serving = trained.model;
  }
}

TEST(WindowedRunner, RunsAllWindowsAndImprovesOverBootstrap) {
  const auto t = trace::generate_zipf_trace(30000, 1000, 1.0, 62);
  WindowedConfig config;
  config.lfo = fast_lfo_config(t.unique_bytes() / 6);
  config.window_size = 6000;
  const auto result = run_windowed_lfo(t, config);
  ASSERT_EQ(result.windows.size(), 5u);
  EXPECT_EQ(result.overall.requests, t.size());
  // First window has no model => no out-of-sample error reported.
  EXPECT_LT(result.windows[0].prediction_error, 0.0);
  for (std::size_t w = 1; w < result.windows.size(); ++w) {
    const auto err = result.windows[w].prediction_error;
    EXPECT_GE(err, 0.0) << w;
    EXPECT_LE(err, 0.5) << w;  // far better than coin-flipping
  }
  // OPT per window approximately bounds the online policy. (Cross-window
  // cache state lets LFO collect hits whose intervals began in the
  // previous window, so the in-window OPT is not a strict bound.)
  for (const auto& w : result.windows) {
    EXPECT_LE(w.bhr, w.opt_bhr + 0.15) << w.index;
  }
}

TEST(WindowedRunner, ZeroWindowSizeIsRefused) {
  // A zero step would serve empty windows forever, one report each.
  const auto t = trace::generate_zipf_trace(1000, 100, 1.0, 63);
  WindowedConfig config;
  config.lfo = fast_lfo_config(t.unique_bytes() / 6);
  config.window_size = 0;
  for (const std::size_t threads : {0u, 2u}) {
    config.train_threads = threads;
    EXPECT_THROW(run_windowed_lfo(t, config), std::invalid_argument)
        << "train_threads=" << threads;
  }
}

}  // namespace
}  // namespace lfo::core
