#ifndef LFO_UTIL_THREAD_POOL_HPP
#define LFO_UTIL_THREAD_POOL_HPP

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace lfo::util {

/// Thrown by submit() once the pool has begun shutting down. Callers that
/// race submission against shutdown (allowed) must handle it; silently
/// dropping the task would leave its future never-ready.
class ThreadPoolStopped : public std::runtime_error {
 public:
  ThreadPoolStopped() : std::runtime_error("ThreadPool: pool is stopped") {}
};

/// Fixed-size worker pool. run_windowed_lfo trains windows on one when
/// WindowedConfig::train_threads is nonzero.
///
/// Shutdown contract: shutdown() (or destruction) stops admission first,
/// then drains every task already queued, then joins the workers. submit()
/// from other threads may race shutdown() safely — it either enqueues the
/// task (which will run) or throws ThreadPoolStopped; tasks are never
/// silently dropped. Calling submit() after the destructor has *returned*
/// is still undefined, as for any dead object.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Tasks queued but not yet picked up by a worker (observability; the
  /// value may be stale by the time the caller reads it).
  std::size_t pending() const;

  /// Stop accepting tasks, drain the queue, join all workers. Idempotent
  /// and safe to call concurrently with submit() from other threads.
  void shutdown();

  /// Enqueue a task; returns a future for its completion. Throws
  /// ThreadPoolStopped if the pool is shutting down.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mu_);
      if (stop_) throw ThreadPoolStopped();
      tasks_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();

  /// Written only by the constructor and joined by the one shutdown()
  /// caller that owns joining_.
  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  CondVar cv_;       // workers wait here for tasks/stop
  CondVar join_cv_;  // late shutdown() callers wait here
  std::deque<std::function<void()>> tasks_ LFO_GUARDED_BY(mu_);
  bool stop_ LFO_GUARDED_BY(mu_) = false;
  /// One shutdown() caller owns the joins; the rest wait on join_cv_.
  bool joining_ LFO_GUARDED_BY(mu_) = false;
  bool joined_ LFO_GUARDED_BY(mu_) = false;  // all workers joined
};

}  // namespace lfo::util

#endif  // LFO_UTIL_THREAD_POOL_HPP
