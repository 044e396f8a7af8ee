// TSan-targeted stress tests (ctest label "stress"): hammer the ThreadPool
// shutdown contract and concurrent const feature extraction from many
// threads. These run in every suite, but their real job is under the
// `tsan` preset where the scheduler interleavings are checked for data
// races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "features/features.hpp"
#include "trace/generator.hpp"
#include "util/thread_pool.hpp"

namespace {

using lfo::util::ThreadPool;
using lfo::util::ThreadPoolStopped;

TEST(ThreadPoolStress, SubmitShutdownRaceNeverLosesTasks) {
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};

    std::vector<std::thread> submitters;
    std::vector<std::vector<std::future<void>>> futures(4);
    submitters.reserve(4);
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&, t] {
        while (true) {
          try {
            futures[static_cast<std::size_t>(t)].push_back(
                pool.submit([&executed] { ++executed; }));
            ++accepted;
          } catch (const ThreadPoolStopped&) {
            return;  // shutdown won the race: stop submitting
          }
        }
      });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pool.shutdown();
    for (auto& s : submitters) s.join();

    // Every accepted task must have run: shutdown drains, never drops.
    for (auto& per_thread : futures) {
      for (auto& f : per_thread) EXPECT_NO_THROW(f.get());
    }
    EXPECT_EQ(executed.load(), accepted.load());
  }
}

TEST(ThreadPoolStress, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), ThreadPoolStopped);
}

TEST(ThreadPoolStress, ShutdownIsIdempotentAndConcurrent) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) pool.submit([&ran] { ++ran; });
  std::vector<std::thread> closers;
  closers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    closers.emplace_back([&pool] { pool.shutdown(); });
  }
  for (auto& c : closers) c.join();
  // Every shutdown() caller returned only after the drain completed.
  EXPECT_EQ(ran.load(), 50);
  pool.shutdown();  // idempotent
  EXPECT_THROW(pool.submit([] {}), ThreadPoolStopped);
}

TEST(ThreadPoolStress, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) pool.submit([&ran] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolStress, RepeatedCreateDestroyCycles) {
  // Construction/teardown churn from a live submitter inside each cycle.
  std::atomic<int> total{0};
  for (int cycle = 0; cycle < 25; ++cycle) {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) pool.submit([&total] { ++total; });
    // Pool destroyed immediately with the queue possibly non-empty.
  }
  EXPECT_EQ(total.load(), 25 * 20);
}

TEST(FeatureExtractorStress, ConcurrentConstExtractIsRaceFree) {
  // extract() used to write through a `mutable` gap buffer, making
  // concurrent const extraction a data race. With caller-owned scratch
  // the extractor is genuinely read-only here; TSan checks exactly that.
  const auto trace = lfo::trace::generate_zipf_trace(4000, 400, 0.9, 17);
  lfo::features::FeatureConfig config;
  config.num_gaps = 16;
  const lfo::features::FeatureExtractor extractor = [&] {
    lfo::features::FeatureExtractor warm(config);
    for (std::size_t i = 0; i < trace.size(); ++i) warm.observe(trace[i], i);
    return warm;
  }();

  // Serial reference rows.
  const std::size_t dim = extractor.dimension();
  std::vector<float> expected(trace.size() * dim);
  {
    lfo::features::FeatureScratch scratch;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      std::span<float> row{expected.data() + i * dim, dim};
      extractor.extract(trace[i], trace.size() + i, 1 << 20, row, scratch);
    }
  }

  constexpr int kThreads = 4;
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> mismatches{0};
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      // One scratch per thread — the documented thread-safety contract.
      lfo::features::FeatureScratch scratch;
      std::vector<float> row(dim);
      for (std::size_t i = static_cast<std::size_t>(t); i < trace.size();
           i += kThreads) {
        extractor.extract(trace[i], trace.size() + i, 1 << 20, row, scratch);
        for (std::size_t f = 0; f < dim; ++f) {
          if (row[f] != expected[i * dim + f]) ++mismatches;
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
