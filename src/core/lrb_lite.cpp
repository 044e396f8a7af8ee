#include "core/lrb_lite.hpp"

#include <algorithm>
#include <cmath>

#include "gbdt/dataset.hpp"
#include "util/logging.hpp"

namespace lfo::core {

namespace {
/// Eviction candidates sampled per eviction.
constexpr std::uint32_t kSampleSize = 64;
/// Training-buffer cap; samples past it are dropped until a retrain
/// halves the buffer.
constexpr std::size_t kMaxTrainSamples = 200000;
}  // namespace

LrbCache::LrbCache(std::uint64_t capacity, LrbConfig config,
                   std::uint64_t seed)
    : cache::CachePolicy(capacity),
      config_(std::move(config)),
      rng_(seed),
      extractor_(config_.features),
      next_retrain_(config_.retrain_interval),
      row_buffer_(config_.features.dimension(), 0.0f) {}

bool LrbCache::contains(trace::ObjectId object) const {
  return index_.contains(object);
}

void LrbCache::clear() {
  slots_.clear();
  index_.clear();
  open_.clear();
  pending_fifo_.clear();
  extractor_.reset();
  sub_used(used_bytes());
}

void LrbCache::record_sample(const trace::Request& request,
                             const std::vector<float>& row) {
  const auto it = open_.find(request.object);
  if (it != open_.end()) {
    // Close the previous sample with the observed reuse distance.
    const double gap =
        static_cast<double>(clock() - it->second.time);
    if (train_rows_.size() < kMaxTrainSamples) {
      train_rows_.push_back(std::move(it->second.row));
      train_labels_.push_back(
          static_cast<float>(std::log2(std::max(1.0, gap))));
    }
  }
  open_[request.object] = {row, clock(), next_seq_};
  pending_fifo_.push_back({request.object, clock(), next_seq_});
  ++next_seq_;
}

void LrbCache::expire_pending() {
  const float beyond = static_cast<float>(
      std::log2(2.0 * static_cast<double>(config_.label_horizon)));
  while (!pending_fifo_.empty() &&
         clock() - pending_fifo_.front().time > config_.label_horizon) {
    const auto p = pending_fifo_.front();
    pending_fifo_.pop_front();
    const auto it = open_.find(p.object);
    if (it == open_.end() || it->second.seq != p.seq) continue;  // stale
    if (train_rows_.size() < kMaxTrainSamples) {
      train_rows_.push_back(std::move(it->second.row));
      train_labels_.push_back(beyond);
    }
    open_.erase(it);
  }
}

void LrbCache::maybe_retrain() {
  if (clock() < next_retrain_) return;
  next_retrain_ = clock() + config_.retrain_interval;
  if (train_rows_.size() < config_.min_train_samples) return;
  gbdt::Dataset data(extractor_.dimension());
  data.reserve(train_rows_.size());
  for (std::size_t i = 0; i < train_rows_.size(); ++i) {
    data.add_row(train_rows_[i], train_labels_[i]);
  }
  model_ = std::make_unique<gbdt::Model>(gbdt::train(data, config_.gbdt));
  ++retrains_;
  util::log_debug("LRB-lite retrained on ", data.num_rows(), " samples");
  // Keep the most recent half of the buffer so the estimator tracks
  // drift without forgetting everything.
  const std::size_t keep = train_rows_.size() / 2;
  train_rows_.erase(train_rows_.begin(),
                    train_rows_.end() - static_cast<std::ptrdiff_t>(keep));
  train_labels_.erase(
      train_labels_.begin(),
      train_labels_.end() - static_cast<std::ptrdiff_t>(keep));
}

double LrbCache::predicted_next_use(const Slot& slot) {
  // Re-extract the object's *current* features — gap_1 is now the time
  // since its last access — and predict the log2 reuse distance from now.
  // (Evaluating stale admission-time features instead would mark every
  // slightly-late hot object as overdue and evict it.)
  const trace::Request as_of_now{slot.object, slot.size, slot.cost};
  extractor_.extract(as_of_now, clock(), 0, row_buffer_, scratch_);
  const double log_gap = model_->predict_raw(row_buffer_);
  return static_cast<double>(clock()) +
         std::exp2(std::clamp(log_gap, 0.0, 40.0));
}

void LrbCache::on_hit(const trace::Request& request) {
  extractor_.extract(request, clock(), 0, row_buffer_, scratch_);
  record_sample(request, row_buffer_);
  extractor_.observe(request, clock());
  auto& slot = slots_[index_[request.object]];
  slot.last_access = clock();
  expire_pending();
  maybe_retrain();
}

void LrbCache::on_miss(const trace::Request& request) {
  extractor_.extract(request, clock(), 0, row_buffer_, scratch_);
  record_sample(request, row_buffer_);
  extractor_.observe(request, clock());
  expire_pending();
  maybe_retrain();
  if (request.size > capacity()) return;
  while (free_bytes() < request.size) evict_one();
  index_.emplace(request.object, slots_.size());
  slots_.push_back({request.object, request.size, request.cost, clock()});
  add_used(request.size);
}

void LrbCache::evict_one() {
  std::size_t victim = 0;
  if (!model_) {
    // Bootstrap: evict the sampled least-recently-used object.
    victim = rng_.uniform(slots_.size());
    for (std::uint32_t s = 1; s < kSampleSize; ++s) {
      const auto cand = rng_.uniform(slots_.size());
      if (slots_[cand].last_access < slots_[victim].last_access) {
        victim = cand;
      }
    }
  } else {
    victim = rng_.uniform(slots_.size());
    double victim_next = predicted_next_use(slots_[victim]);
    for (std::uint32_t s = 1; s < kSampleSize; ++s) {
      const auto cand = rng_.uniform(slots_.size());
      const double next = predicted_next_use(slots_[cand]);
      if (next > victim_next) {  // farthest predicted reuse
        victim = cand;
        victim_next = next;
      }
    }
  }
  sub_used(slots_[victim].size);
  index_.erase(slots_[victim].object);
  if (victim + 1 != slots_.size()) {
    slots_[victim] = std::move(slots_.back());
    index_[slots_[victim].object] = victim;
  }
  slots_.pop_back();
}

}  // namespace lfo::core
