#include "core/windowed.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace lfo::core {

namespace {

// lfo-lint: allow(nondet): wall-clock diagnostics only, never decisions
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Serve one window through the cache and fill the report's hit ratios
/// plus the serve-side model-health fields (admission rate, deltas vs
/// the previous window's report when one exists).
void serve_window(LfoCache& cache, std::span<const trace::Request> window,
                  WindowReport& report, const WindowReport* previous) {
  LFO_TRACE_SPAN("serve_window");
  const auto before = cache.stats();
  const auto bypassed_before = cache.bypassed();
  // Sampled per-request latency: clock reads on every 64th request
  // keep the histogram meaningful at < 1% timing overhead.
  static obs::LatencyHistogram& request_hist =
      obs::MetricsRegistry::instance().histogram("lfo_request_seconds");
  std::size_t i = 0;
  for (const auto& r : window) {
    if ((i++ & 63u) == 0u) {
      obs::ScopedTimer timer(request_hist);
      cache.access(r);
    } else {
      cache.access(r);
    }
  }
  const auto after = cache.stats();
  const auto bytes = after.bytes_requested - before.bytes_requested;
  const auto reqs = after.requests - before.requests;
  report.bhr = bytes ? static_cast<double>(after.bytes_hit -
                                           before.bytes_hit) /
                           static_cast<double>(bytes)
                     : 0.0;
  report.ohr = reqs ? static_cast<double>(after.hits - before.hits) /
                          static_cast<double>(reqs)
                    : 0.0;

  auto& health = report.health;
  const auto misses = reqs - (after.hits - before.hits);
  const auto bypassed = cache.bypassed() - bypassed_before;
  if (misses > 0) {
    health.admission_rate = 1.0 - static_cast<double>(bypassed) /
                                      static_cast<double>(misses);
  }
  if (previous != nullptr) {
    health.bhr_delta = report.bhr - previous->bhr;
    if (health.admission_rate >= 0.0 &&
        previous->health.admission_rate >= 0.0) {
      health.admission_rate_delta =
          health.admission_rate - previous->health.admission_rate;
    }
  }
}

/// Everything one training task hands back to the pipeline: the
/// training job's result (which also scores the model that served the
/// window, off the serving thread when a pool runs the task) plus the
/// retry record and timing.
struct TrainedWindow {
  TrainResult result;
  /// Attempts consumed (1 = first try succeeded); train_failed is set
  /// when every attempt failed — result.model is null then and the
  /// rollout guard rejects the candidate.
  std::uint32_t train_attempts = 0;
  bool train_failed = false;
  Clock::time_point started;
  Clock::time_point finished;
};

TrainedWindow train_window_task(std::span<const trace::Request> window,
                                const WindowedConfig& config,
                                std::size_t window_index,
                                std::shared_ptr<const LfoModel> serving) {
  LFO_TRACE_SPAN("train_window");
  TrainedWindow out;
  out.started = Clock::now();
  // Bounded retry: a failed attempt — an injected fault or a real
  // exception out of train_on_window — is retried up to
  // kMaxTrainRetries times before the job counts as failed and the
  // guard keeps the last-good model.
  const std::uint32_t max_attempts = 1 + kMaxTrainRetries;
  for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    out.train_attempts = attempt;
    if (attempt > 1) LFO_COUNTER_INC("lfo_train_retries_total");
    try {
      if (config.train_fault && config.train_fault(window_index, attempt)) {
        throw std::runtime_error("injected training fault");
      }
      out.result = train_on_window(window, config.lfo, serving.get());
      out.train_failed = false;
      break;
    } catch (const std::exception& e) {
      LFO_COUNTER_INC("lfo_train_failures_total");
      util::log_warn("rollout: training job for window ", window_index,
                     " attempt ", attempt, "/", max_attempts,
                     " failed: ", e.what());
      out.train_failed = true;
    }
  }
  out.finished = Clock::now();
  return out;
}

/// The gate's view of a trained (or failed) candidate.
RolloutCandidate candidate_of(const TrainedWindow& trained) {
  if (!trained.train_failed) return trained.result.candidate;
  RolloutCandidate failed;
  failed.train_failed = true;
  return failed;
}

/// Copy the training task's diagnostics into the window's report.
void fill_training_report(WindowReport& report, const TrainedWindow& trained,
                          double drift_warn_threshold) {
  report.rollout.train_attempts = trained.train_attempts;
  report.rollout.train_failed = trained.train_failed;
  if (trained.train_failed) {
    // No model, no OPT labels: the serving/training diagnostics keep
    // their "undefined" defaults; only the attempt record is real.
    return;
  }
  report.train_accuracy = trained.result.train_accuracy;
  report.opt_seconds = trained.result.opt_seconds;
  report.train_seconds = trained.result.train_seconds;
  report.opt_bhr = trained.result.opt.bhr;
  report.opt_ohr = trained.result.opt.ohr;

  auto& health = report.health;
  if (const auto& confusion = trained.result.serving_confusion) {
    report.prediction_error = 1.0 - confusion->accuracy();
    health.decision_accuracy = confusion->accuracy();
    health.false_positive_share = confusion->false_positive_share();
    health.false_negative_share = confusion->false_negative_share();
  }
  if (const auto& drift = trained.result.drift) {
    health.feature_drift = drift->mean_score;
    health.max_feature_drift = drift->max_score;
    health.drift_worst_feature = drift->worst_feature;
    if (drift_warn_threshold > 0.0 &&
        health.feature_drift >= drift_warn_threshold) {
      health.drift_warning = true;
      util::log_warn("model-health: window ", report.index,
                     " feature drift ", health.feature_drift,
                     " (max ", health.max_feature_drift, " at feature ",
                     health.drift_worst_feature,
                     ") crossed the warn threshold ", drift_warn_threshold);
    }
  }
}

/// Boundary k, for window k: publish the serve-side gauges and the
/// guard's post-boundary state (apply_rollout has already counted this
/// boundary's decision).
void publish_boundary(const WindowReport& report) {
  LFO_COUNTER_INC("lfo_windows_total");
  LFO_GAUGE_SET("lfo_window_bhr", report.bhr);
  LFO_GAUGE_SET("lfo_window_ohr", report.ohr);
  if (report.health.admission_rate >= 0.0) {
    LFO_GAUGE_SET("lfo_admission_rate", report.health.admission_rate);
  }
  LFO_GAUGE_SET("lfo_rollout_state",
                static_cast<double>(static_cast<int>(report.rollout.state)));
}

/// Window k's training was collected: publish its training and
/// model-health figures. Runs on the serving thread; never alters
/// decisions.
void publish_training(const WindowReport& report) {
  if (report.health.decision_accuracy >= 0.0) {
    LFO_GAUGE_SET("lfo_model_decision_accuracy",
                  report.health.decision_accuracy);
  }
  if (report.health.feature_drift >= 0.0) {
    LFO_GAUGE_SET("lfo_model_feature_drift", report.health.feature_drift);
  }
  if (report.health.drift_warning) {
    LFO_COUNTER_INC("lfo_drift_warnings_total");
  }
  if (report.train_seconds > 0.0) {
    LFO_HISTOGRAM_OBSERVE_SECONDS("lfo_opt_seconds", report.opt_seconds);
    LFO_HISTOGRAM_OBSERVE_SECONDS("lfo_train_seconds",
                                  report.train_seconds);
  }
}

/// Swap a freshly activated model into the cache (spanned and counted).
void swap_model_into(LfoCache& cache,
                     std::shared_ptr<const LfoModel> model) {
  LFO_TRACE_SPAN("model_swap");
  LFO_COUNTER_INC("lfo_models_swapped_total");
  cache.swap_model(std::move(model));
}

/// Run the candidate due at the end of `window_index` through the
/// rollout guard and apply its verdict: swap on activate, clear the
/// model on fallback, keep the last-good model on reject. Records the
/// decision on the current window's report (the guard itself counts the
/// transition in the metrics registry).
void apply_rollout(RolloutGuard& guard, LfoCache& cache,
                   WindowedResult& result, std::size_t window_index,
                   std::size_t trained_on,
                   std::shared_ptr<const LfoModel> model,
                   const RolloutCandidate& candidate) {
  const RolloutVerdict verdict = guard.evaluate(candidate);
  auto& current = result.windows[window_index].rollout;
  current.decision = verdict.decision;
  current.reason = verdict.reason;
  switch (verdict.decision) {
    case RolloutDecision::kRejected:
      util::log_warn("rollout: window ", window_index,
                     " rejected the model trained on window ", trained_on,
                     ": ", verdict.reason);
      break;
    case RolloutDecision::kFallback:
      util::log_warn("rollout: window ", window_index,
                     " entered heuristic fallback: ", verdict.reason);
      break;
    case RolloutDecision::kRecovered:
      util::log_info("rollout: window ", window_index,
                     " recovered from fallback (model trained on window ",
                     trained_on, ")");
      break;
    case RolloutDecision::kActivated:
    case RolloutDecision::kNone:
      break;
  }
  if (verdict.activate) {
    swap_model_into(cache, std::move(model));
  } else if (verdict.clear_model) {
    LFO_COUNTER_INC("lfo_models_cleared_total");
    cache.swap_model(nullptr);
  }
}

/// Stamp the guard's post-boundary state onto the window's report (done
/// every window, whether or not a candidate was due).
void record_rollout_state(const RolloutGuard& guard, WindowReport& report) {
  report.rollout.state = guard.state();
  report.rollout.consecutive_rejections = guard.consecutive_rejections();
  report.rollout.drift_streak = guard.drift_streak();
}

/// One window's training job, collected FIFO at boundary k + swap_lag.
struct TrainJob {
  std::future<TrainedWindow> trained;
  std::size_t window_index = 0;
  /// When the serving thread went back to serving after submitting.
  Clock::time_point submitted;
};

}  // namespace

WindowedResult run_windowed_lfo(const trace::Trace& trace,
                                const WindowedConfig& config) {
  if (config.window_size == 0) {
    throw std::invalid_argument("run_windowed_lfo: window_size must be > 0");
  }
  LFO_TRACE_THREAD_LABEL("serve");
  WindowedResult result;
  LfoCache cache(config.lfo.cache_size, config.lfo.features,
                 config.lfo.cutoff);
  RolloutGuard guard(config.rollout);
  // train_threads == 0 trains inline on the serving thread; otherwise
  // jobs run on the pool while later windows are served.
  std::optional<util::ThreadPool> pool;
  if (config.train_threads > 0) pool.emplace(config.train_threads);
  // Jobs waiting out their activation lag, oldest first. Failed jobs
  // queue too — the collection schedule must not depend on training
  // outcomes — and are rejected by the guard when they surface.
  std::deque<TrainJob> jobs;

  // Block on the oldest job, fill its window's training diagnostics and
  // publish them; returns the trained window.
  const auto collect = [&] {
    TrainJob job = std::move(jobs.front());
    jobs.pop_front();
    const auto wait_start = Clock::now();
    TrainedWindow trained = [&] {
      LFO_TRACE_SPAN("swap_wait");
      return job.trained.get();
    }();
    auto& report = result.windows[job.window_index];
    fill_training_report(report, trained, config.drift_warn_threshold);
    report.pipeline.wait_seconds = seconds_between(wait_start, Clock::now());
    // Time the job ran while the serving thread was free to serve — the
    // overlap the paper's §3 asks for. Inline jobs finish before serving
    // resumes, so theirs is 0.
    report.pipeline.overlap_seconds = std::max(
        0.0, seconds_between(std::max(trained.started, job.submitted),
                             std::min(trained.finished, wait_start)));
    publish_training(report);
    return trained;
  };
  std::size_t window_index = 0;
  for (std::size_t begin = 0; begin < trace.size();
       begin += config.window_size) {
    const auto window = trace.window(begin, config.window_size);
    WindowReport report;
    report.index = window_index;
    report.begin = begin;
    report.length = window.size();
    report.pipeline.queue_depth = static_cast<std::uint32_t>(jobs.size());
    LFO_GAUGE_SET("lfo_train_queue_depth", jobs.size());

    // Serve the window with the model trained on an earlier one.
    const WindowReport* previous =
        result.windows.empty() ? nullptr : &result.windows.back();
    serve_window(cache, window, report, previous);
    result.windows.push_back(report);

    // Train on the window just served.
    LFO_COUNTER_INC("lfo_train_jobs_total");
    std::packaged_task<TrainedWindow()> train(
        [window, &config, window_index, serving = cache.model()] {
          return train_window_task(window, config, window_index, serving);
        });
    TrainJob job{train.get_future(), window_index, {}};
    if (pool) {
      pool->submit([train = std::move(train)]() mutable {
        LFO_TRACE_THREAD_LABEL("train");
        train();
      });
    } else {
      train();
    }
    job.submitted = Clock::now();
    jobs.push_back(std::move(job));
    if (jobs.size() > config.swap_lag) {
      const auto trained_on = jobs.front().window_index;
      TrainedWindow trained = collect();
      apply_rollout(guard, cache, result, window_index, trained_on,
                    std::move(trained.result.model), candidate_of(trained));
    }
    record_rollout_state(guard, result.windows[window_index]);
    publish_boundary(result.windows[window_index]);
    ++window_index;
  }

  // Drain jobs whose models never activate (trailing windows): their
  // training diagnostics still land in the reports.
  while (!jobs.empty()) collect();
  LFO_CHECK(!pool || pool->pending() == 0u)
      << "pipeline drained but training tasks remain queued";

  result.overall = cache.stats();
  result.bypassed = cache.bypassed();
  return result;
}

bool same_decisions(const WindowedResult& a, const WindowedResult& b) {
  if (a.overall.requests != b.overall.requests ||
      a.overall.hits != b.overall.hits ||
      a.overall.bytes_requested != b.overall.bytes_requested ||
      a.overall.bytes_hit != b.overall.bytes_hit ||
      a.overall.expired_hits != b.overall.expired_hits ||
      a.bypassed != b.bypassed || a.windows.size() != b.windows.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    const auto& wa = a.windows[i];
    const auto& wb = b.windows[i];
    if (wa.index != wb.index || wa.begin != wb.begin ||
        wa.length != wb.length || wa.bhr != wb.bhr || wa.ohr != wb.ohr ||
        wa.prediction_error != wb.prediction_error ||
        wa.train_accuracy != wb.train_accuracy ||
        wa.opt_bhr != wb.opt_bhr || wa.opt_ohr != wb.opt_ohr) {
      return false;
    }
    // The model-health monitor is deterministic too: it derives from
    // the trace and the decision schedule only, so any divergence
    // across thread counts is a bug.
    const auto& ha = wa.health;
    const auto& hb = wb.health;
    if (ha.decision_accuracy != hb.decision_accuracy ||
        ha.feature_drift != hb.feature_drift ||
        ha.admission_rate != hb.admission_rate ||
        ha.bhr_delta != hb.bhr_delta ||
        ha.drift_warning != hb.drift_warning) {
      return false;
    }
    // The rollout guard feeds back into decisions, so its per-window
    // record must agree exactly: same state, same gate decision, same
    // training outcome. (train_attempts is excluded — a stateful fault
    // hook may legitimately vary the attempt count without changing the
    // final outcome the decisions depend on.)
    const auto& ra = wa.rollout;
    const auto& rb = wb.rollout;
    if (ra.state != rb.state || ra.decision != rb.decision ||
        ra.train_failed != rb.train_failed) {
      return false;
    }
  }
  return true;
}

}  // namespace lfo::core
