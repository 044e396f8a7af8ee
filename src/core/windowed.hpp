#ifndef LFO_CORE_WINDOWED_HPP
#define LFO_CORE_WINDOWED_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "cache/policy.hpp"
#include "core/lfo_cache.hpp"
#include "core/lfo_model.hpp"
#include "core/rollout.hpp"
#include "obs/model_health.hpp"
#include "trace/trace.hpp"

namespace lfo::core {

/// Bounded retry for failed training jobs: total attempts are
/// 1 + kMaxTrainRetries before the window's job counts as failed.
inline constexpr std::uint32_t kMaxTrainRetries = 2;

/// Configuration of the sliding-window pipeline (paper Fig 2).
struct WindowedConfig {
  LfoConfig lfo;
  /// Requests per window; a model is trained on every window (the
  /// paper's design).
  std::size_t window_size = 50000;
  /// Deferred activation: the model trained on window t starts serving at
  /// window t+1+swap_lag. A lag of 1 models asynchronous training that
  /// runs while the next window is already being served — the paper's §3
  /// note that "training tasks [must] not interfere with the request
  /// traffic". 0 = the idealized synchronous swap of Fig 2.
  std::uint32_t swap_lag = 0;
  /// Where each window's training job (OPT derivation, dataset build,
  /// GBDT fit) runs. 0 = inline on the serving thread, between windows.
  /// n >= 1 = on a pool of n threads, overlapped with serving the next
  /// window(s). Either way job k is collected at boundary k + swap_lag,
  /// so every thread count makes identical caching decisions
  /// (same_decisions below); only wall-clock overlap changes.
  std::size_t train_threads = 0;
  /// Model-health monitor: warn (util::log_warn + WindowReport
  /// drift_warning) when a window's mean feature-drift score vs the
  /// serving model's training window crosses this value. Calibrated on
  /// the golden traces: the stationary web scenario stays under 0.02
  /// while the flash-crowd scenario spikes past 0.22, so 0.1 splits
  /// them with ~5x margin on the quiet side (see EXPERIMENTS.md
  /// "Observability"). <= 0 disables the warning.
  double drift_warn_threshold = 0.1;
  /// Health-gated model rollout (core::RolloutGuard): freshly trained
  /// models are shadow-scored against the last served window before
  /// activation; failing models are rejected (last-good model keeps
  /// serving) and sustained failure/drift falls back to the heuristic
  /// bootstrap mode until a model re-qualifies. Defaults activate every
  /// golden-trace model, so decisions match the unguarded pipeline
  /// exactly (verified in tests/test_rollout.cpp).
  RolloutConfig rollout;
  /// Test-only fault injection: when set, called once per training
  /// attempt (attempt starts at 1) for the job trained on
  /// `window_index`; returning true fails that attempt as if the
  /// training job crashed or timed out. Failed attempts retry up to
  /// kMaxTrainRetries times; a job whose every attempt fails produces
  /// a train_failed candidate that the guard rejects.
  /// Must be deterministic in (window_index, attempt) for
  /// decision-determinism guarantees to hold; called from the training
  /// threads when train_threads > 0.
  std::function<bool(std::size_t window_index, std::uint32_t attempt)>
      train_fault;
};

/// Observability of the retraining pipeline, per window. These fields
/// describe wall-clock behaviour only; they are excluded from
/// same_decisions().
struct PipelineStats {
  /// Training jobs submitted but not yet collected when this window
  /// started serving.
  std::uint32_t queue_depth = 0;
  /// Wall-clock this window's training ran concurrently with request
  /// serving (before the pipeline blocked on its result, if ever).
  /// Always 0 for inline training (train_threads == 0).
  double overlap_seconds = 0.0;
  /// Wall-clock the serving thread blocked waiting for this window's
  /// training at swap time (~0 when training finished within its lag).
  double wait_seconds = 0.0;
};

/// Per-window diagnostics.
struct WindowReport {
  std::size_t index = 0;
  std::size_t begin = 0;
  std::size_t length = 0;
  // Cache performance of LFO over this window (the model trained on the
  // previous window is serving, exactly as in Fig 2).
  double bhr = 0.0;
  double ohr = 0.0;
  // Agreement of the *serving* model with this window's OPT, i.e. the
  // paper's prediction error measured out-of-sample. Negative when no
  // model was serving (first window).
  double prediction_error = -1.0;
  // Training diagnostics of the model trained on this window.
  double train_accuracy = 0.0;
  double opt_seconds = 0.0;
  double train_seconds = 0.0;
  // OPT's offline hit ratios on this window (for the optimality gap).
  double opt_bhr = 0.0;
  double opt_ohr = 0.0;
  // Retraining-pipeline observability (wall-clock only).
  PipelineStats pipeline;
  // Online model-health monitor: serving-model accuracy vs OPT, feature
  // drift vs the serving model's training window, admission-rate and
  // BHR deltas (see obs::ModelHealth). Deterministic diagnostics; they
  // never feed back into decisions.
  obs::ModelHealth health;
  // Rollout-guard record: the gate decision taken at this window's
  // boundary, the guard state after it, and the training attempts of
  // the job trained on this window. Unlike `health`, the guard DOES
  // feed back into decisions (that is its job) — state / decision /
  // train_failed are part of the decision record and compared by
  // same_decisions().
  RolloutStatus rollout;
};

/// Result of replaying a trace through the windowed pipeline.
struct WindowedResult {
  std::vector<WindowReport> windows;
  cache::CacheStats overall;
  std::uint64_t bypassed = 0;
};

/// Drive a trace through LFO's record -> derive OPT -> train -> serve
/// loop. The cache state and feature history persist across windows; only
/// the model is swapped at window boundaries. With config.train_threads
/// > 0 the train side runs on a thread pool overlapped with serving.
/// Throws std::invalid_argument when config.window_size is 0.
WindowedResult run_windowed_lfo(const trace::Trace& trace,
                                const WindowedConfig& config);

/// True iff two runs made identical caching decisions and produced
/// identical quality metrics: overall stats, bypass/demotion counters and
/// every per-window decision field compare exactly — including the
/// rollout guard's state / decision / train_failed record. Wall-clock
/// fields (opt_seconds, train_seconds, PipelineStats) are ignored — they
/// are the only fields allowed to differ across train_threads (inline
/// or pooled training).
bool same_decisions(const WindowedResult& a, const WindowedResult& b);

}  // namespace lfo::core

#endif  // LFO_CORE_WINDOWED_HPP
