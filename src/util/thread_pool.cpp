#include "util/thread_pool.hpp"

#include <algorithm>

namespace lfo::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  // Joining cannot happen under the lock, so this is explicit
  // lock()/unlock() rather than a scoped MutexLock; the thread-safety
  // analysis still verifies every guarded access between the calls.
  mu_.lock();
  stop_ = true;
  // Notify under the lock: a worker between its predicate check and its
  // wait() cannot miss the stop signal.
  cv_.notify_all();
  if (joining_) {
    // Another thread owns the joins; wait until it finishes so every
    // shutdown() caller can rely on the workers being gone on return.
    while (!joined_) join_cv_.wait(mu_);
    mu_.unlock();
    return;
  }
  joining_ = true;
  mu_.unlock();
  for (auto& w : workers_) w.join();
  mu_.lock();
  joined_ = true;
  join_cv_.notify_all();
  mu_.unlock();
}

std::size_t ThreadPool::pending() const {
  MutexLock lock(mu_);
  return tasks_.size();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) cv_.wait(mu_);
      if (tasks_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace lfo::util
