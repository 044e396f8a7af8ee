#ifndef LFO_TESTS_FD_TEST_UTIL_HPP
#define LFO_TESTS_FD_TEST_UTIL_HPP

// File-descriptor fixtures for the out-of-descriptor tests of both
// loopback ports (test_server.cpp, test_telemetry_server.cpp).

#include <sys/eventfd.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <vector>

namespace lfo::testutil {

/// Lowers this process's RLIMIT_NOFILE soft limit and takes every free
/// descriptor below it; the destructor gives them back and restores the
/// limit. A server in the same process then gets EMFILE from accept4.
class DescriptorExhaustion {
 public:
  explicit DescriptorExhaustion(rlim_t limit) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min(limit, saved_.rlim_cur);
    ::setrlimit(RLIMIT_NOFILE, &lowered);
    for (int fd; (fd = ::eventfd(0, EFD_CLOEXEC)) >= 0;) held_.push_back(fd);
  }
  ~DescriptorExhaustion() {
    for (const int fd : held_) ::close(fd);
    ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  DescriptorExhaustion(const DescriptorExhaustion&) = delete;
  DescriptorExhaustion& operator=(const DescriptorExhaustion&) = delete;

  std::size_t held() const { return held_.size(); }
  /// Give one descriptor back.
  void release_one() {
    ::close(held_.back());
    held_.pop_back();
  }

 private:
  rlimit saved_{};
  std::vector<int> held_;
};

}  // namespace lfo::testutil

#endif  // LFO_TESTS_FD_TEST_UTIL_HPP
