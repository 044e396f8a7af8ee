// Fork-based death tests for LFO_CHECK / LFO_CHECK_EQ and friends.
// Deliberately avoids gtest's death-test machinery: a plain fork() with a
// stderr pipe keeps the abort path identical to production (no re-exec,
// no extra threads) and verifies the exact bytes the failure prints.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <string>

#include "util/check.hpp"

namespace {

struct DeathResult {
  bool aborted = false;      ///< child died from SIGABRT
  bool exited_clean = false; ///< child returned from fn and _exit(0)-ed
  std::string stderr_text;
};

/// Run fn() in a forked child with stderr captured; report how it died.
DeathResult run_in_fork(void (*fn)()) {
  DeathResult result;
  int fds[2];
  if (pipe(fds) != 0) {
    ADD_FAILURE() << "pipe() failed";
    return result;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork() failed";
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    // Child: route stderr into the pipe and run the candidate.
    close(fds[0]);
    dup2(fds[1], STDERR_FILENO);
    close(fds[1]);
    fn();
    _exit(0);  // only reached when the check did NOT fire
  }
  close(fds[1]);
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) {
    result.stderr_text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  result.aborted = WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT;
  result.exited_clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return result;
}

void failing_check() {
  const int answer = 41;
  LFO_CHECK(answer == 42) << "streamed context " << answer;
}

TEST(CheckDeath, CheckAbortsWithExpressionAndContext) {
  const auto death = run_in_fork(&failing_check);
  EXPECT_TRUE(death.aborted) << "LFO_CHECK did not abort";
  EXPECT_NE(death.stderr_text.find("answer == 42"), std::string::npos)
      << "missing expression text in: " << death.stderr_text;
  EXPECT_NE(death.stderr_text.find("streamed context 41"), std::string::npos)
      << "missing streamed context in: " << death.stderr_text;
  EXPECT_NE(death.stderr_text.find("test_check_death.cpp"), std::string::npos)
      << "missing file name in: " << death.stderr_text;
}

void failing_check_eq() {
  const std::uint64_t used = 1310720;
  const std::uint64_t capacity = 1048576;
  LFO_CHECK_LE(used, capacity) << "over capacity";
}

TEST(CheckDeath, CheckEqPrintsBothOperandValues) {
  const auto death = run_in_fork(&failing_check_eq);
  EXPECT_TRUE(death.aborted) << "LFO_CHECK_LE did not abort";
  EXPECT_NE(death.stderr_text.find("used <= capacity"), std::string::npos)
      << "missing expression in: " << death.stderr_text;
  EXPECT_NE(death.stderr_text.find("1310720"), std::string::npos)
      << "missing lhs value in: " << death.stderr_text;
  EXPECT_NE(death.stderr_text.find("1048576"), std::string::npos)
      << "missing rhs value in: " << death.stderr_text;
}

void passing_checks() {
  LFO_CHECK(1 + 1 == 2) << "never printed";
  LFO_CHECK_EQ(3, 3) << "never printed";
  LFO_CHECK_GT(4, 3);
}

TEST(CheckDeath, PassingChecksDoNotAbortOrPrint) {
  const auto death = run_in_fork(&passing_checks);
  EXPECT_TRUE(death.exited_clean);
  EXPECT_EQ(death.stderr_text, "");
}

int g_evaluations = 0;
int count_evaluation() {
  ++g_evaluations;
  return 1;
}

TEST(CheckDeath, DcheckOperandEvaluation) {
  g_evaluations = 0;
  LFO_DCHECK(count_evaluation() == 1);
  LFO_DCHECK_EQ(count_evaluation(), 1);
#if LFO_DEBUG_CHECKS
  // Debug/sanitizer builds: DCHECKs are real checks.
  EXPECT_EQ(g_evaluations, 2)
      << "enabled LFO_DCHECK must evaluate its operands";
#else
  // Release builds: operands must compile but never run.
  EXPECT_EQ(g_evaluations, 0)
      << "disabled LFO_DCHECK must not evaluate its operands";
#endif
}

#if LFO_DEBUG_CHECKS
void failing_dcheck() {
  const int lhs = 2, rhs = 5;
  LFO_DCHECK_EQ(lhs, rhs) << "dcheck context";
}

TEST(CheckDeath, EnabledDcheckAborts) {
  const auto death = run_in_fork(&failing_dcheck);
  EXPECT_TRUE(death.aborted);
  EXPECT_NE(death.stderr_text.find("lhs == rhs"), std::string::npos);
}
#endif

}  // namespace
