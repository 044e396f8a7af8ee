#include "spans.hpp"

#include <algorithm>
#include <fstream>

namespace lfo_bench {

namespace {

constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {
        "learn.window",        "opt.compute_opt",
        "features.build_dataset", "gbdt.train",
        "gbdt.confusion",      "core.LfoModel",
        "rollout.install_candidate", "sharded_cache.frame",
        "sharded_cache.access", "lfo_cache.access_hit",
        "lfo_cache.access_miss", "features.extract",
        "gbdt.predict",        "features.observe",
        "server.exchange",
};

/// Median cost of an empty span: the clock reads every span pays.
double calibrate_overhead_ns() {
  constexpr int kSamples = 2001;
  std::vector<std::int64_t> ns(kSamples);
  for (auto& sample : ns) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    sample =
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  }
  std::nth_element(ns.begin(), ns.begin() + kSamples / 2, ns.end());
  return static_cast<double>(ns[kSamples / 2]);
}

}  // namespace

const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

SpanLog::SpanLog(std::size_t capacity)
    : capacity_(capacity),
      origin_(Clock::now()),
      overhead_ns_(calibrate_overhead_ns()) {
  kept_.reserve(capacity_);
}

double SpanLog::net_ns(Layer layer) const {
  const auto& total = totals_[static_cast<std::size_t>(layer)];
  return static_cast<double>(total.ns) -
         overhead_ns_ * static_cast<double>(total.count);
}

double SpanLog::mean_net_ns(Layer layer) const {
  const auto n = count(layer);
  return n == 0 ? 0.0 : net_ns(layer) / static_cast<double>(n);
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  for (const auto& span : kept_) {
    os << "{\"name\":\"" << layer_name(span.layer) << "\",\"parent\":\""
       << layer_name(span.parent) << "\",\"id\":" << span.id
       << ",\"start_ns\":" << span.start_ns
       << ",\"end_ns\":" << span.start_ns + span.dur_ns << "}\n";
  }
  return static_cast<bool>(os);
}

}  // namespace lfo_bench
