#ifndef LFO_CORE_ROLLOUT_HPP
#define LFO_CORE_ROLLOUT_HPP

#include <cstdint>
#include <string>

#include "obs/model_health.hpp"

namespace lfo::core {

/// Where the guarded pipeline currently sources its caching decisions.
enum class RolloutState : std::uint8_t {
  kBootstrap,  ///< no model has ever qualified; heuristic serving
  kServing,    ///< a gated model is live
  kFallback,   ///< models disqualified; reverted to the heuristic
};

/// What the guard did at one window boundary.
enum class RolloutDecision : std::uint8_t {
  kNone,       ///< no candidate reached the gate at this boundary
  kActivated,  ///< candidate passed the gate and was swapped in
  kRejected,   ///< candidate failed the gate; last-good model kept serving
  kFallback,   ///< rejection/drift budget exhausted; heuristic mode entered
  kRecovered,  ///< a candidate re-qualified and ended a fallback episode
};

const char* to_string(RolloutState state);
const char* to_string(RolloutDecision decision);

/// Gate thresholds and fallback budgets. Defaults are calibrated so the
/// golden traces (web / video / flash-crowd, EXPERIMENTS.md "Robustness")
/// activate every window's model: with no injected faults the guarded
/// pipeline makes decisions identical to an unguarded run. All gates are
/// pure functions of training-side diagnostics, so guard decisions are
/// deterministic and survive inline vs pooled training (any
/// WindowedConfig::train_threads).
struct RolloutConfig {
  /// Master switch. Disabled, every trained candidate activates
  /// unconditionally (the pre-guard behaviour); a failed training job
  /// still keeps the last-good model — a null model is never installed.
  bool enabled = true;
  /// Gate 1 — agreement with OPT: the candidate's accuracy against the
  /// OPT labels of the window it was trained on (the last fully served
  /// window) must reach this. Golden traces sit at 0.85+; a mistrained
  /// or collapsed model falls under 0.6 (a constant predictor scores the
  /// base rate, ~0.5 on balanced windows).
  double min_train_accuracy = 0.6;
  /// Gate 2 — admission-rate delta: |model admit share - OPT admit
  /// share| on the training window must stay under this. Catches models
  /// that would admit nearly everything or nothing despite decent
  /// accuracy (cutoff collapse). Golden traces stay under 0.1.
  double max_admission_delta = 0.35;
  /// Gate 3 — live serving accuracy: the SERVING model's out-of-sample
  /// accuracy on the candidate's training window (the window it just
  /// served) must reach this. This is the only gate that scores the live
  /// model on traffic it did not train on, so it is the one that catches
  /// hostile regime changes — a popularity inversion leaves every
  /// candidate's own-window diagnostics healthy while the serving
  /// model's agreement with the new OPT collapses. A candidate with
  /// serving_accuracy unknown (-1: bootstrap, fallback) always passes,
  /// which is also what makes recovery work:
  /// after fallback there is no serving model, so the first healthy
  /// candidate re-qualifies. <= 0 disables the gate (the default — the
  /// benign goldens are decision-identical with it off, so it is opt-in
  /// for adversarial regimes).
  double min_serving_accuracy = 0.0;
  /// Fallback trigger A: this many consecutive gate failures (rejected
  /// candidates or failed training jobs) abandon the stale last-good
  /// model and revert to the heuristic.
  std::uint32_t max_consecutive_rejections = 3;
  /// Fallback trigger B: this many consecutive FAILING candidates whose
  /// feature drift (obs::feature_drift vs the serving model's training
  /// window) is >= drift_fallback_threshold abandon the stale serving
  /// model before the rejection budget runs out. A passing candidate
  /// resets the streak — activating a model trained on the drifted
  /// window is the correct response to drift, so only drift paired with
  /// gate failures counts as evidence. <= 0 disables the drift trigger.
  /// Calibration: the flash-crowd golden peaks near 0.25, so 0.45 stays
  /// quiet on the goldens while a genuine regime change (drift ~1+)
  /// trips it.
  double drift_fallback_threshold = 0.45;
  std::uint32_t drift_fallback_windows = 3;
};

/// Training-side diagnostics of one candidate model, assembled by
/// core::train_on_window (TrainResult::candidate). Everything the gate consumes is derived from the trace
/// and the decision schedule only — no wall-clock, no RNG.
struct RolloutCandidate {
  /// All training attempts failed; there is no model to evaluate.
  bool train_failed = false;
  /// Agreement with OPT on the training window (TrainResult).
  double train_accuracy = -1.0;
  /// Fraction of training rows the candidate admits at the cutoff.
  double model_admit_share = -1.0;
  /// Fraction of training rows OPT admitted.
  double opt_admit_share = -1.0;
  /// Mean feature drift of the candidate's training window vs the
  /// serving model's training window; -1 when unknown (no serving model,
  /// or one without a training summary).
  double feature_drift = -1.0;
  /// Out-of-sample accuracy of the currently SERVING model on this
  /// candidate's training window (TrainResult::serving_confusion); -1
  /// when unknown (no serving model).
  double serving_accuracy = -1.0;
};

/// The guard's answer for one candidate.
struct RolloutVerdict {
  RolloutDecision decision = RolloutDecision::kNone;
  /// Swap the candidate in (kActivated / kRecovered).
  bool activate = false;
  /// Clear the serving model: the pipeline must revert to the heuristic
  /// bootstrap mode (kFallback only).
  bool clear_model = false;
  /// Human-readable gate outcome ("train_accuracy 0.41 < 0.6", ...).
  std::string reason;
};

/// Per-window guard status mirrored onto core::WindowReport. The state /
/// decision / train_failed fields are part of the decision record and
/// compared by core::same_decisions.
struct RolloutStatus {
  /// State after this window's boundary was processed.
  RolloutState state = RolloutState::kBootstrap;
  /// What happened at this window's boundary (kNone when no candidate
  /// was due, e.g. during the swap lag).
  RolloutDecision decision = RolloutDecision::kNone;
  std::uint32_t consecutive_rejections = 0;
  std::uint32_t drift_streak = 0;
  /// Training attempts consumed by the job trained ON this window
  /// (1 = first try succeeded; 0 = no job trained on this window).
  std::uint32_t train_attempts = 0;
  /// True when every attempt of this window's training job failed.
  bool train_failed = false;
  std::string reason;
};

/// Deterministic state machine gating model activation (Cold-RL-style
/// inference/health gates with heuristic fallback). run_windowed_lfo
/// and ShardedLfoCache::install_candidate feed it one RolloutCandidate
/// at every swap point; the guard answers activate / reject / fallback /
/// recover, tracks the rejection and drift budgets, and counts each
/// transition in the lfo_rollout_*_total metrics, so both callers'
/// transitions are counted once. The counters are write-only: its
/// behaviour is a pure function of the candidate sequence.
class RolloutGuard {
 public:
  explicit RolloutGuard(RolloutConfig config);

  /// Judge the candidate due at this window boundary and advance the
  /// state machine.
  RolloutVerdict evaluate(const RolloutCandidate& candidate);

  RolloutState state() const { return state_; }
  std::uint32_t consecutive_rejections() const { return rejections_; }
  std::uint32_t drift_streak() const { return drift_.streak(); }
  const RolloutConfig& config() const { return config_; }

 private:
  /// Gate check only (no state update). Returns empty string on pass,
  /// else the failure reason.
  std::string gate_failure(const RolloutCandidate& candidate) const;

  RolloutConfig config_;
  RolloutState state_ = RolloutState::kBootstrap;
  std::uint32_t rejections_ = 0;  ///< consecutive, reset on activation
  obs::DriftTracker drift_;
};

}  // namespace lfo::core

#endif  // LFO_CORE_ROLLOUT_HPP
