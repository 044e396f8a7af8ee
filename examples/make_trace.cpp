// Trace generation tool: produce synthetic CDN traces in the library's
// text or binary format, for use with policy_playground / trace_analysis
// or external simulators (webcachesim's format is the same text layout).
//
// Usage:
//   make_trace out.txt                           # default production mix
//   make_trace out.bin --format=binary --requests=500000
//   make_trace out.txt --mix=zipf --objects=10000 --alpha=1.0
//   make_trace out.txt --drift --flash-crowd
//
// A malformed value or an unknown option prints the usage line and
// exits 2.

#include <iostream>
#include <string>

#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/trace_stats.hpp"
#include "util/strings.hpp"

namespace {

int usage() {
  std::cerr << "usage: make_trace OUT_FILE [--requests=N] [--seed=N] "
               "[--format=text|binary] [--mix=production|zipf] "
               "[--objects=N] [--alpha=A] [--drift] [--flash-crowd]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lfo;

  if (argc < 2) return usage();
  const std::string out_path = argv[1];
  std::uint64_t requests = 200000;
  std::uint64_t seed = 1;
  std::string format = "text";
  std::string mix = "production";
  std::uint64_t objects = 10000;
  double alpha = 0.9;
  bool drift = false;
  bool flash_crowd = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--requests=", 0) == 0) {
      const auto value = util::parse_uint(arg.substr(11));
      if (!value) return usage();
      requests = *value;
    } else if (arg.rfind("--seed=", 0) == 0) {
      const auto value = util::parse_uint(arg.substr(7));
      if (!value) return usage();
      seed = *value;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg.rfind("--mix=", 0) == 0) {
      mix = arg.substr(6);
    } else if (arg.rfind("--objects=", 0) == 0) {
      const auto value = util::parse_uint(arg.substr(10));
      if (!value) return usage();
      objects = *value;
    } else if (arg.rfind("--alpha=", 0) == 0) {
      const auto value = util::parse_double(arg.substr(8));
      if (!value) return usage();
      alpha = *value;
    } else if (arg == "--drift") {
      drift = true;
    } else if (arg == "--flash-crowd") {
      flash_crowd = true;
    } else {
      return usage();
    }
  }

  trace::GeneratorConfig config;
  config.num_requests = requests;
  config.seed = seed;
  if (mix == "zipf") {
    trace::ContentClass cc;
    cc.name = "zipf";
    cc.num_objects = objects;
    cc.zipf_alpha = alpha;
    config.classes = {cc};
  } else {
    config.classes = trace::production_mix(0.05);
  }
  if (drift) {
    config.drift.reshuffle_interval = requests / 8 + 1;
    config.drift.reshuffle_fraction = 0.2;
  }
  if (flash_crowd) {
    config.drift.reshuffle_interval = requests / 8 + 1;
    config.drift.flash_crowd_probability = 0.5;
    config.drift.flash_crowd_share = 0.3;
    config.drift.flash_crowd_duration = requests / 10;
  }

  const auto trace = trace::generate_trace(config);
  if (format == "binary") {
    trace::write_binary_trace_file(trace, out_path);
  } else {
    trace::write_text_trace_file(trace, out_path);
  }
  std::cout << "wrote " << out_path << " (" << format << ")\n"
            << trace::compute_stats(trace) << '\n';
  return 0;
}
