// Figure 7: prediction throughput (million requests/second) as a function
// of the number of predictor threads. The paper measures ~300K
// predictions/s on one thread with near-linear scaling to 44 threads, and
// notes that two threads suffice for a 40 Gbit/s link at a 32 KB mean
// object size.
//
// Output: CSV "threads,million_reqs_per_sec,per_thread" plus the derived
// link-utilization figures. (On this container the thread sweep exercises
// the same code path as the paper's 44-core testbed; absolute scaling is
// bounded by the available cores.)

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/windowed.hpp"
#include "features/dataset_builder.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/trace_span.hpp"
#include "util/csv.hpp"

using namespace lfo;

namespace {

/// Run `rows` predictions split across `threads` workers; returns
/// seconds. Each worker owns a contiguous block of rows and scores it
/// one row at a time through LfoModel::predict, as requests are served.
double timed_predict(const core::LfoModel& model,
                     std::span<const float> matrix, std::size_t dim,
                     std::size_t rows, unsigned threads,
                     std::uint64_t repeats) {
  std::atomic<double> sink{0.0};  // defeats dead-code elimination
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const std::size_t per_worker = (rows + threads - 1) / threads;
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      const std::size_t begin = std::min(rows, w * per_worker);
      const std::size_t end = std::min(rows, begin + per_worker);
      double local = 0.0;
      for (std::uint64_t rep = 0; rep < repeats; ++rep) {
        for (std::size_t i = begin; i < end; ++i) {
          local += model.predict(matrix.subspan(i * dim, dim));
        }
      }
      sink.fetch_add(local);
    });
  }
  for (auto& t : workers) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// End-to-end windowed run with `train_threads` training threads (0 =
/// inline), returning wall-clock seconds and the finished result (for
/// the PipelineStats columns).
std::pair<double, core::WindowedResult> timed_pipeline(
    const trace::Trace& trace, core::WindowedConfig config,
    std::size_t train_threads) {
  config.train_threads = train_threads;
  const auto start = std::chrono::steady_clock::now();
  auto result = core::run_windowed_lfo(trace, config);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return {secs, std::move(result)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto hw = std::max(1u, std::thread::hardware_concurrency());
  bench::Args args(argc, argv, {{"train-requests", "50000"},
                                {"predict-requests", "100000"},
                                {"repeats", "3"},
                                {"seed", "1"},
                                {"max-threads", "8"},
                                {"cache-fraction", "0.05"},
                                {"pipeline-requests", "40000"},
                                {"pipeline-window", "5000"},
                                {"swap-lag", "1"},
                                {"train-threads", std::to_string(hw)},
                                {"obs-repeats", "2"},
                                {"obs-out-prefix", ""}});
  std::cout << "# Figure 7: prediction throughput vs threads\n";
  args.print(std::cout);

  const auto train_n = args.get_u64("train-requests");
  const auto predict_n = args.get_u64("predict-requests");
  const auto trace =
      bench::standard_trace(train_n + predict_n, args.get_u64("seed"));
  const auto cache_size =
      bench::scaled_cache_size(trace, args.get_double("cache-fraction"));
  const auto config = bench::standard_lfo_config(cache_size);

  const auto trained = core::train_on_window(trace.window(0, train_n), config);

  // Materialize the prediction workload's feature rows once: the bench
  // isolates predictor cost, matching the paper's measurement.
  const auto eval_window = trace.window(train_n, predict_n);
  const auto eval_opt = opt::compute_opt(eval_window, config.opt);
  features::DatasetBuildOptions build;
  build.features = config.features;
  build.cache_size = cache_size;
  const auto dataset = features::build_dataset(eval_window, eval_opt, build);

  const auto repeats = args.get_u64("repeats");
  std::cout << "# hardware_concurrency=" << hw << '\n';

  // Row-major copy of the workload: the thread sweep hands each worker
  // a contiguous block of it and the engine comparison below reuses it.
  const std::size_t dim = trained.model->dimension();
  const std::size_t rows = dataset.num_rows();
  std::vector<float> matrix(rows * dim);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto row = dataset.row(i);
    std::copy(row.begin(), row.end(),
              matrix.begin() + static_cast<std::ptrdiff_t>(i * dim));
  }

  // Thread sweep through the serving walk. The server-level
  // equivalent of this curve — full request path, sockets and shard
  // locks included — is bench_server's BENCH_server.json.
  util::CsvWriter csv(std::cout);
  csv.header({"threads", "million_reqs_per_sec", "per_thread_mreqs"});
  double single_thread = 0.0;
  for (unsigned threads = 1; threads <= args.get_u64("max-threads");
       threads *= 2) {
    const double secs =
        timed_predict(*trained.model, matrix, dim, rows, threads, repeats);
    const double total =
        static_cast<double>(rows) * static_cast<double>(repeats);
    const double mrps = total / secs / 1e6;
    if (threads == 1) single_thread = mrps;
    csv.field(threads).field(mrps).field(mrps / threads).end_row();
  }

  // --- Inference engines: the reference per-tree walk vs the compiled
  // flat forest that serves requests, one row at a time on one thread.
  // Both must produce bitwise-identical probabilities.
  const auto& booster = trained.model->booster();
  const auto& forest = trained.model->forest();
  std::vector<double> walk_out(rows), flat_single_out(rows);

  // Best-of-repeats, like the overhead sections below: the minimum per-
  // repeat wall time estimates the kernel's throughput rather than the
  // co-tenant noise a mean would fold in.
  const auto preds_per_sec = [&](auto&& body) {
    double best = std::numeric_limits<double>::infinity();
    for (std::uint64_t rep = 0; rep < repeats; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      body();
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      best = std::min(best, secs);
    }
    return static_cast<double>(rows) / best;
  };
  const auto row_at = [&](std::size_t i) {
    return std::span<const float>{matrix.data() + i * dim, dim};
  };
  const double walk_pps = preds_per_sec([&] {
    for (std::size_t i = 0; i < rows; ++i) {
      walk_out[i] = booster.predict_proba(row_at(i));
    }
  });
  const double flat_single_pps = preds_per_sec([&] {
    for (std::size_t i = 0; i < rows; ++i) {
      flat_single_out[i] = forest.predict_proba(row_at(i));
    }
  });

  bool bitwise_identical = true;
  for (std::size_t i = 0; i < rows; ++i) {
    bitwise_identical &= walk_out[i] == flat_single_out[i];
  }

  // Chained timing: serving cannot overlap consecutive predictions (each
  // waits on its own feature extract, and the admit decision waits on
  // it), so here the next row is chosen from the previous score and no
  // prediction starts before the one ahead of it has finished.
  std::size_t chain_end = 0;
  const auto chained_ns = [&](auto&& predict) {
    return 1e9 / preds_per_sec([&] {
      for (std::size_t i = 0; i < rows; ++i) {
        const double p = predict(row_at(chain_end));
        chain_end =
            (chain_end + 1 + (std::bit_cast<std::uint64_t>(p) & 1)) % rows;
      }
    });
  };
  const double walk_chained_ns =
      chained_ns([&](auto row) { return booster.predict_proba(row); });
  const double flat_chained_ns =
      chained_ns([&](auto row) { return forest.predict_proba(row); });

  std::cout << "\n# Inference-engine comparison (single thread)\n";
  util::CsvWriter engine_csv(std::cout);
  engine_csv.header({"engine", "million_preds_per_sec", "ns_per_pred",
                     "speedup_vs_tree_walk", "chained_ns_per_pred"});
  const auto engine_row = [&](const char* name, double pps,
                              double chained) {
    engine_csv.field(name).field(pps / 1e6).field(1e9 / pps)
        .field(pps / walk_pps).field(chained).end_row();
  };
  engine_row("tree_walk", walk_pps, walk_chained_ns);
  engine_row("flat_single", flat_single_pps, flat_chained_ns);
  std::cout << "# float engines bitwise identical: "
            << (bitwise_identical ? "yes" : "NO (bug)")
            << "; flat_single speedup " << flat_single_pps / walk_pps
            << "x (acceptance: >= 1x); chain ended at row " << chain_end
            << '\n';

  // Link-rate arithmetic from the paper: 40 Gbit/s at 32 KB objects needs
  // 40e9 / 8 / 32768 ~ 152K predictions/s.
  const double needed_40g = 40e9 / 8.0 / 32768.0 / 1e6;
  std::cout << "# 40 Gbit/s at 32KB objects needs " << needed_40g
            << " M reqs/s; one thread delivers " << single_thread
            << " M reqs/s => " << (single_thread >= needed_40g
                                       ? "a single thread suffices"
                                       : "multiple threads required")
            << '\n';
  std::cout << "# expected shape: hundreds of K reqs/s per thread; "
               "near-linear scaling up to the physical core count\n";

  // --- End-to-end pipeline: inline retraining (train_threads=0, the
  // "serial" row) vs a training pool of --train-threads (the "async"
  // row). Same trace, same swap_lag, so the two runs make identical
  // caching decisions (core::same_decisions); only the wall clock may
  // differ.
  const auto pipe_trace = bench::standard_trace(
      args.get_u64("pipeline-requests"), args.get_u64("seed") + 1);
  core::WindowedConfig wconfig;
  wconfig.lfo = bench::standard_lfo_config(
      bench::scaled_cache_size(pipe_trace, args.get_double("cache-fraction")));
  wconfig.window_size = args.get_u64("pipeline-window");
  wconfig.swap_lag = args.get_u64("swap-lag");
  const std::size_t train_threads = args.get_u64("train-threads");

  std::cout << "\n# End-to-end windowed pipeline: serial vs async retraining\n"
            << "# (swap_lag=" << wconfig.swap_lag
            << ", windows=" << pipe_trace.size() / wconfig.window_size
            << ", train_threads=" << train_threads
            << ")\n";
  const auto [sync_secs, sync_result] =
      timed_pipeline(pipe_trace, wconfig, /*train_threads=*/0);
  const auto [async_secs, async_result] =
      timed_pipeline(pipe_trace, wconfig, train_threads);

  util::CsvWriter pipe_csv(std::cout);
  pipe_csv.header({"mode", "seconds", "speedup", "bhr", "overlap_seconds",
                   "wait_seconds", "mean_queue_depth"});
  const auto pipeline_row = [&](const char* mode, double secs,
                                const core::WindowedResult& result) {
    double overlap = 0.0, wait = 0.0, depth_sum = 0.0;
    for (const auto& w : result.windows) {
      overlap += w.pipeline.overlap_seconds;
      wait += w.pipeline.wait_seconds;
      depth_sum += w.pipeline.queue_depth;
    }
    pipe_csv.field(mode).field(secs).field(sync_secs / secs)
        .field(result.overall.bhr()).field(overlap).field(wait)
        .field(depth_sum / static_cast<double>(std::max<std::size_t>(
                               1, result.windows.size())))
        .end_row();
  };
  pipeline_row("serial", sync_secs, sync_result);
  pipeline_row("async", async_secs, async_result);
  std::cout << "# identical decisions: "
            << (core::same_decisions(sync_result, async_result) ? "yes"
                                                                : "NO (bug)")
            << "; expected >=2x speedup on >=4 cores (training hidden "
               "behind serving)\n";

  // Rollout guard A/B: the serial runs above use the default
  // health-gated activation (core::RolloutGuard); rerun with the guard
  // disabled (unconditional swaps, the pre-guard behaviour). With no
  // training faults the guard must be decision-invisible, and its cost
  // — one gate evaluation per window boundary — must vanish in the
  // wall-clock noise.
  auto unguarded_config = wconfig;
  unguarded_config.rollout.enabled = false;
  const auto [unguarded_secs, unguarded_result] =
      timed_pipeline(pipe_trace, unguarded_config, /*train_threads=*/0);
  const bool guard_same_decisions =
      core::same_decisions(sync_result, unguarded_result);
  const double guard_overhead_pct =
      (sync_secs / unguarded_secs - 1.0) * 100.0;
  std::cout << "# identical decisions (guarded vs unguarded rollout): "
            << (guard_same_decisions ? "yes" : "NO (bug)")
            << "; guard wall-clock delta " << guard_overhead_pct
            << "% (expected: noise)\n";

  // --- Observability overhead: the same async pipeline with span
  // tracing off vs on (metrics are always on; there is no switch for
  // them). Both modes must make identical decisions, and the traced
  // run must stay within a few percent of the untraced one (<5%).
  const auto obs_repeats = std::max<std::uint64_t>(1, args.get_u64("obs-repeats"));
  const auto timed_obs_run = [&](bool enabled) {
    obs::set_tracing_enabled(enabled);
    double best = 0.0;
    core::WindowedResult result;
    for (std::uint64_t rep = 0; rep < obs_repeats; ++rep) {
      // Fresh span buffer per repeat so the trace stays bounded; the
      // registry just keeps accumulating (counters are monotonic anyway).
      obs::clear_trace();
      auto [secs, r] = timed_pipeline(pipe_trace, wconfig, train_threads);
      if (rep == 0 || secs < best) best = secs;
      result = std::move(r);
    }
    return std::pair{best, std::move(result)};
  };
  const auto [off_secs, off_result] = timed_obs_run(false);
  const auto [on_secs, on_result] = timed_obs_run(true);
  const double overhead_pct = (on_secs / off_secs - 1.0) * 100.0;

  std::cout << "\n# Tracing overhead (async pipeline, best of "
            << obs_repeats << ")\n";
  util::CsvWriter obs_csv(std::cout);
  obs_csv.header({"tracing", "seconds", "overhead_pct"});
  obs_csv.field("off").field(off_secs).field(0.0).end_row();
  obs_csv.field("on").field(on_secs).field(overhead_pct).end_row();
  std::cout << "# identical decisions (tracing on vs off): "
            << (core::same_decisions(off_result, on_result) ? "yes"
                                                            : "NO (bug)")
            << "; recorded spans: " << obs::recorded_span_count()
            << "; expected overhead well under 5%\n";

  // --- Live telemetry overhead: the obs-on async pipeline again, now
  // with an in-process TelemetryServer being scraped at 1 Hz
  // (/metrics + /stats). Scrape handlers are pure registry reads, so
  // decisions must match the unscraped obs-on run and the wall-clock
  // delta must stay under 2%.
  double scraped_secs = 0.0;
  double scrape_overhead_pct = 0.0;
  bool telemetry_same_decisions = false;
  std::uint64_t scrape_count = 0;
  {
    obs::set_tracing_enabled(true);
    obs::TelemetryServer server({});
    if (!server.start()) {
      std::cout << "# telemetry server failed to start: "
                << server.last_error() << '\n';
    } else {
      std::atomic<bool> stop_scraper{false};
      std::atomic<std::uint64_t> scrapes{0};
      std::thread scraper([&] {
        while (!stop_scraper.load(std::memory_order_acquire)) {
          if (!obs::fetch_local(server.port(), "/metrics").empty()) {
            scrapes.fetch_add(1, std::memory_order_relaxed);
          }
          if (!obs::fetch_local(server.port(), "/stats").empty()) {
            scrapes.fetch_add(1, std::memory_order_relaxed);
          }
          // 1 Hz cadence, polling the stop flag so shutdown is prompt.
          for (int i = 0;
               i < 20 && !stop_scraper.load(std::memory_order_acquire);
               ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        }
      });
      core::WindowedResult scraped_result;
      for (std::uint64_t rep = 0; rep < obs_repeats; ++rep) {
        obs::clear_trace();
        auto [secs, r] = timed_pipeline(pipe_trace, wconfig, train_threads);
        if (rep == 0 || secs < scraped_secs) scraped_secs = secs;
        scraped_result = std::move(r);
      }
      stop_scraper.store(true, std::memory_order_release);
      scraper.join();
      server.stop();
      scrape_count = scrapes.load(std::memory_order_relaxed);
      telemetry_same_decisions =
          core::same_decisions(on_result, scraped_result);
      scrape_overhead_pct = (scraped_secs / on_secs - 1.0) * 100.0;

      std::cout << "\n# Live telemetry overhead (1 Hz scraper, best of "
                << obs_repeats << ")\n";
      util::CsvWriter scrape_csv(std::cout);
      scrape_csv.header({"telemetry_mode", "seconds", "overhead_pct"});
      scrape_csv.field("unscraped").field(on_secs).field(0.0).end_row();
      scrape_csv.field("scraped_1hz").field(scraped_secs)
          .field(scrape_overhead_pct).end_row();
      std::cout << "# identical decisions (scraped vs unscraped): "
                << (telemetry_same_decisions ? "yes" : "NO (bug)")
                << "; scrapes served: " << scrape_count
                << "; acceptance: overhead < 2%\n";
    }
  }

  const auto prefix = args.get_string("obs-out-prefix");
  if (!prefix.empty()) {
    std::ofstream prom(prefix + ".prom");
    obs::write_prometheus_text(prom,
                               obs::MetricsRegistry::instance().snapshot());
    std::ofstream jsonl(prefix + ".jsonl");
    obs::write_jsonl_snapshot(jsonl, "bench_fig7");
    std::ofstream trace_os(prefix + ".trace.json");
    obs::write_chrome_trace(trace_os);
    std::cout << "# wrote " << prefix << ".prom, " << prefix << ".jsonl, "
              << prefix << ".trace.json (load in chrome://tracing)\n";
  }
  obs::set_tracing_enabled(false);

  // Machine-readable summary for tooling (tools/run_bench.sh writes
  // BENCH_fig7.json by default).
  if (const auto json_path = args.json_path(); !json_path.empty()) {
    bench::JsonDoc doc;
    doc.set("bench", "fig7_throughput")
        .set("git_revision", bench::git_revision())
        .set("seed", args.get_u64("seed"))
        .set("predict_requests", static_cast<std::uint64_t>(rows))
        .set("num_trees",
             static_cast<std::uint64_t>(
                 trained.model->booster().num_trees()))
        .set("single_thread_million_reqs_per_sec", single_thread)
        .set("tree_walk_preds_per_sec", walk_pps)
        .set("tree_walk_ns_per_request", 1e9 / walk_pps)
        .set("flat_single_preds_per_sec", flat_single_pps)
        .set("flat_single_ns_per_request", 1e9 / flat_single_pps)
        .set("flat_single_speedup", flat_single_pps / walk_pps)
        .set("tree_walk_chained_ns_per_request", walk_chained_ns)
        .set("flat_single_chained_ns_per_request", flat_chained_ns)
        .set("engines_bitwise_identical", bitwise_identical)
        .set("pipeline_serial_s_per_window",
             sync_secs / static_cast<double>(sync_result.windows.size()))
        .set("pipeline_async_s_per_window",
             async_secs / static_cast<double>(async_result.windows.size()))
        .set("async_pipeline_speedup", sync_secs / async_secs)
        .set("rollout_guard_same_decisions", guard_same_decisions)
        .set("rollout_guard_overhead_pct", guard_overhead_pct)
        .set("obs_overhead_pct", overhead_pct)
        .set("telemetry_scrape_overhead_pct", scrape_overhead_pct)
        .set("telemetry_same_decisions", telemetry_same_decisions)
        .set("telemetry_scrapes_served", scrape_count);
    doc.write_file(json_path);
    std::cout << "# wrote " << json_path << '\n';
  }

  // Hard correctness/performance gates: a failed gate turns the bench
  // run red (tools/run_bench.sh propagates the exit code), so decision
  // drift or the flat_single regression cannot land silently.
  bool gates_ok = true;
  const auto gate = [&](bool ok, const char* what) {
    if (!ok) {
      std::cout << "# GATE FAILED: " << what << '\n';
      gates_ok = false;
    }
  };
  gate(bitwise_identical, "float engines bitwise identical");
  gate(flat_single_pps / walk_pps >= 1.0,
       "flat_single_speedup >= 1.0 (scalar flat path lost to tree walk)");
  return gates_ok ? 0 : 1;
}
