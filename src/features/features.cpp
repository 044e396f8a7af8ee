#include "features/features.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <random>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace lfo::features {

std::size_t FeatureConfig::dimension() const {
  std::size_t dim = gap_indices().size();
  if (include_size) ++dim;
  if (include_cost) ++dim;
  if (include_free_bytes) ++dim;
  return dim;
}

std::vector<std::uint32_t> FeatureConfig::gap_indices() const {
  // Thin: 8 -> 12 -> 16 -> 24 -> ..., adding half of a power of two and
  // a third of 3*2^k. A 64-bit counter cannot wrap past num_gaps.
  std::vector<std::uint32_t> idx;
  for (std::uint64_t g = 1; g <= num_gaps;
       g += !thin_gaps || g < 8 ? 1 : g / (std::has_single_bit(g) ? 2 : 3)) {
    idx.push_back(static_cast<std::uint32_t>(g));
  }
  return idx;
}

std::vector<std::string> FeatureConfig::names() const {
  std::vector<std::string> names;
  if (include_size) names.emplace_back("size");
  if (include_cost) names.emplace_back("cost");
  if (include_free_bytes) names.emplace_back("free");
  for (const auto g : gap_indices()) {
    names.push_back("gap" + std::to_string(g));
  }
  return names;
}

namespace {

constexpr std::size_t kMinSlots = 16;
constexpr std::uint32_t kNoBlock = std::numeric_limits<std::uint32_t>::max();

std::uint64_t draw_seed() {
  std::random_device device;
  return (static_cast<std::uint64_t>(device()) << 32) ^ device();
}

}  // namespace

HistoryTable::HistoryTable(std::uint32_t depth)
    : HistoryTable(depth, draw_seed()) {}

HistoryTable::HistoryTable(std::uint32_t depth, std::uint64_t seed)
    : capacity_(depth),
      top_(static_cast<std::uint32_t>(std::bit_width(depth - 1u))),
      seed_(seed) {
  if (capacity_ == 0 || capacity_ > kMaxGaps) {
    throw std::invalid_argument("HistoryTable: depth must be in [1, 65535]");
  }
  clear();
}

std::size_t HistoryTable::home(trace::ObjectId object) const {
  return static_cast<std::size_t>(util::mix64(object ^ seed_)) &
         (slots_.size() - 1);
}

std::size_t HistoryTable::probe(trace::ObjectId object) const {
  // Load <= 1/2 guarantees an empty slot ends every probe chain.
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(object);
  while (slots_[i].count != 0 && slots_[i].key != object) i = (i + 1) & mask;
  return i;
}

void HistoryTable::grow_slots() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.count == 0) continue;
    std::size_t i = home(slot.key);
    while (slots_[i].count != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::uint32_t HistoryTable::class_of(std::uint32_t count) const {
  return std::min(static_cast<std::uint32_t>(std::bit_width(count - 1u)),
                  top_);
}

std::uint32_t HistoryTable::class_size(std::uint32_t cls) const {
  return std::min(std::uint32_t{1} << cls, capacity_);
}

std::uint32_t HistoryTable::allocate(std::uint32_t cls) {
  auto& slab = slabs_[cls];
  std::uint32_t& first_free = free_[cls];
  if (first_free != kNoBlock) {
    // A free block's first timestamp holds the next free block.
    const std::uint32_t offset = first_free;
    first_free = static_cast<std::uint32_t>(slab[offset]);
    return offset;
  }
  const std::size_t end = slab.size() + class_size(cls);
  if (end > kNoBlock) {
    throw std::length_error("HistoryTable: ring slab " + std::to_string(cls) +
                            " is out of offsets");
  }
  const auto offset = static_cast<std::uint32_t>(slab.size());
  slab.resize(end);
  return offset;
}

void HistoryTable::release(std::uint32_t cls, std::uint32_t offset) {
  slabs_[cls][offset] = free_[cls];
  free_[cls] = offset;
}

void HistoryTable::record(trace::ObjectId object, std::uint64_t time) {
  std::size_t i = probe(object);
  if (slots_[i].count == 0) {
    if ((tracked_ + 1) * 2 > slots_.size()) {
      grow_slots();
      i = probe(object);
    }
    const std::uint32_t offset = allocate(0);
    slabs_[0][offset] = time;
    slots_[i] = Slot{object, offset, 0, 1};
    ++tracked_;
    return;
  }
  Slot& slot = slots_[i];
  const std::uint32_t count = slot.count;
  if (count == capacity_) {
    // Full at depth: overwrite the oldest timestamp.
    slabs_[top_][slot.offset + slot.head] = time;
    const std::uint32_t head = slot.head + 1u;
    slot.head = static_cast<std::uint16_t>(head == capacity_ ? 0 : head);
    return;
  }
  // Below depth the ring has never wrapped: head is 0 and the
  // timestamps sit oldest to newest.
  std::uint32_t cls = class_of(count);
  if (count == class_size(cls)) {
    const std::uint32_t offset = allocate(cls + 1);
    std::copy_n(slabs_[cls].begin() + slot.offset, count,
                slabs_[cls + 1].begin() + offset);
    release(cls, slot.offset);
    slot.offset = offset;
    ++cls;
  }
  slabs_[cls][slot.offset + count] = time;
  slot.count = static_cast<std::uint16_t>(count + 1);
}

std::uint32_t HistoryTable::depth(trace::ObjectId object) const {
  return slots_[probe(object)].count;
}

void HistoryTable::gaps(trace::ObjectId object, std::uint64_t now,
                        std::span<float> out, float missing_value) const {
  std::fill(out.begin(), out.end(), missing_value);
  const Slot& slot = slots_[probe(object)];
  const std::uint32_t count = slot.count;
  if (count == 0) return;
  const std::uint32_t cls = class_of(count);
  const std::uint32_t size = class_size(cls);
  const std::uint64_t* ring = slabs_[cls].data() + slot.offset;
  // Walk from the newest recorded time backwards. gap_1 = now - newest;
  // gap_k = time_{k-1} - time_k for k >= 2.
  std::uint32_t pos = slot.head + count - 1;
  if (pos >= size) pos -= size;
  std::uint64_t later = now;
  const std::size_t n = std::min<std::size_t>(count, out.size());
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t t = ring[pos];
    out[k] = static_cast<float>(later - t);
    later = t;
    pos = pos == 0 ? size - 1 : pos - 1;
  }
}

void HistoryTable::clear() {
  // Fresh vectors, so the memory goes back rather than staying reserved.
  slots_ = std::vector<Slot>(kMinSlots);
  tracked_ = 0;
  slabs_ = std::vector<std::vector<std::uint64_t>>(top_ + 1);
  free_.assign(top_ + 1, kNoBlock);
}

std::size_t HistoryTable::bytes() const {
  std::size_t total = slots_.capacity() * sizeof(Slot);
  for (const auto& slab : slabs_) {
    total += slab.capacity() * sizeof(std::uint64_t);
  }
  return total;
}

std::size_t HistoryTable::bytes_per_object() const {
  return tracked_ == 0 ? 0 : bytes() / tracked_;
}

FeatureExtractor::FeatureExtractor(FeatureConfig config)
    : config_(config),
      gap_indices_(config.gap_indices()),
      history_(gap_indices_.empty() ? 0 : gap_indices_.back()),
      dimension_(config.dimension()) {}

LFO_HOT_PATH void FeatureExtractor::extract(const trace::Request& request,
                               std::uint64_t time, std::uint64_t free_bytes,
                               std::span<float> out,
                               FeatureScratch& scratch) const {
  if (out.size() != dimension()) {
    throw std::invalid_argument("FeatureExtractor::extract: bad out size");
  }
  if (scratch.gaps.size() != gap_indices_.back()) {
    // lfo-lint: allow(hotpath): one-time scratch growth on first call
    scratch.gaps.resize(gap_indices_.back());  // first use only
  }
  std::size_t i = 0;
  if (config_.include_size) out[i++] = static_cast<float>(request.size);
  if (config_.include_cost) out[i++] = static_cast<float>(request.cost);
  if (config_.include_free_bytes) {
    out[i++] = static_cast<float>(free_bytes);
  }
  history_.gaps(request.object, time, scratch.gaps,
                config_.missing_gap_value);
  for (const auto g : gap_indices_) {
    out[i++] = scratch.gaps[g - 1];
  }
}

void FeatureExtractor::observe(const trace::Request& request,
                               std::uint64_t time) {
  history_.record(request.object, time);
}

void FeatureExtractor::reset() { history_.clear(); }

}  // namespace lfo::features
