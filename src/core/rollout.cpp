#include "core/rollout.hpp"

#include <cmath>
#include <sstream>

#include "obs/metrics.hpp"

namespace lfo::core {

const char* to_string(RolloutState state) {
  switch (state) {
    case RolloutState::kBootstrap: return "bootstrap";
    case RolloutState::kServing: return "serving";
    case RolloutState::kFallback: return "fallback";
  }
  return "?";
}

const char* to_string(RolloutDecision decision) {
  switch (decision) {
    case RolloutDecision::kNone: return "none";
    case RolloutDecision::kActivated: return "activated";
    case RolloutDecision::kRejected: return "rejected";
    case RolloutDecision::kFallback: return "fallback";
    case RolloutDecision::kRecovered: return "recovered";
  }
  return "?";
}

RolloutGuard::RolloutGuard(RolloutConfig config)
    : config_(config),
      drift_(config.drift_fallback_threshold,
             config.drift_fallback_windows) {}

std::string RolloutGuard::gate_failure(
    const RolloutCandidate& candidate) const {
  std::ostringstream reason;
  if (candidate.train_failed) {
    reason << "training job failed after all retries";
    return reason.str();
  }
  if (candidate.train_accuracy < config_.min_train_accuracy) {
    reason << "train_accuracy " << candidate.train_accuracy << " < "
           << config_.min_train_accuracy;
    return reason.str();
  }
  if (candidate.model_admit_share >= 0.0 &&
      candidate.opt_admit_share >= 0.0) {
    const double delta =
        std::abs(candidate.model_admit_share - candidate.opt_admit_share);
    if (delta > config_.max_admission_delta) {
      reason << "admission delta " << delta << " > "
             << config_.max_admission_delta << " (model "
             << candidate.model_admit_share << ", OPT "
             << candidate.opt_admit_share << ")";
      return reason.str();
    }
  }
  if (config_.min_serving_accuracy > 0.0 &&
      candidate.serving_accuracy >= 0.0 &&
      candidate.serving_accuracy < config_.min_serving_accuracy) {
    reason << "serving_accuracy " << candidate.serving_accuracy << " < "
           << config_.min_serving_accuracy;
    return reason.str();
  }
  return {};
}

RolloutVerdict RolloutGuard::evaluate(const RolloutCandidate& candidate) {
  RolloutVerdict verdict;

  if (!config_.enabled) {
    // Unguarded reference behaviour: every trained model activates. A
    // failed training job still cannot install a null model — the
    // last-good model keeps serving, exactly like a rejection but with
    // no budget accounting.
    if (candidate.train_failed) {
      LFO_COUNTER_INC("lfo_rollout_rejected_total");
      verdict.decision = RolloutDecision::kRejected;
      verdict.reason = "training job failed (guard disabled)";
      return verdict;
    }
    verdict.decision = RolloutDecision::kActivated;
    verdict.activate = true;
    state_ = RolloutState::kServing;
    LFO_COUNTER_INC("lfo_rollout_activated_total");
    return verdict;
  }

  // Sustained-drift trigger: the candidate's drift score describes how
  // far the live window has moved from the SERVING model's training
  // window, so it feeds the fallback budget even when the candidate
  // itself passes its own-window gates.
  drift_.observe(candidate.feature_drift);

  std::string failure = gate_failure(candidate);
  if (failure.empty()) {
    const bool was_fallback = state_ == RolloutState::kFallback;
    verdict.decision = was_fallback ? RolloutDecision::kRecovered
                                    : RolloutDecision::kActivated;
    verdict.activate = true;
    verdict.reason = std::move(failure);
    state_ = RolloutState::kServing;
    rejections_ = 0;
    drift_.reset();
    LFO_COUNTER_INC("lfo_rollout_activated_total");
    if (was_fallback) LFO_COUNTER_INC("lfo_rollout_recovered_total");
    return verdict;
  }

  ++rejections_;
  LFO_COUNTER_INC("lfo_rollout_rejected_total");
  const bool budget_exhausted =
      rejections_ >= config_.max_consecutive_rejections;
  const bool drift_exhausted = drift_.triggered();
  if (state_ != RolloutState::kFallback &&
      state_ != RolloutState::kBootstrap &&
      (budget_exhausted || drift_exhausted)) {
    verdict.decision = RolloutDecision::kFallback;
    verdict.clear_model = true;
    verdict.reason = failure + (drift_exhausted && !budget_exhausted
                                    ? " [sustained drift]"
                                    : " [rejection budget exhausted]");
    state_ = RolloutState::kFallback;
    drift_.reset();
    LFO_COUNTER_INC("lfo_rollout_fallback_total");
    return verdict;
  }
  // Plain rejection: in kServing the last-good model keeps serving
  // (rollback semantics); in kBootstrap / kFallback the heuristic keeps
  // serving until a candidate qualifies.
  verdict.decision = RolloutDecision::kRejected;
  verdict.reason = std::move(failure);
  return verdict;
}

}  // namespace lfo::core
