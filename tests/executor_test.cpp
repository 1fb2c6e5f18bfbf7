// Executor unit tests: task accounting, drain semantics, inline mode, and
// the metric hooks.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "common/executor.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace desword {
namespace {

TEST(ExecutorTest, RunsEveryTaskAndDrains) {
  Executor exec(4);
  constexpr int kN = 200;
  std::atomic<int> ran{0};
  for (int i = 0; i < kN; ++i) {
    exec.post([&ran] { ran.fetch_add(1); });
  }
  exec.drain();
  EXPECT_EQ(ran.load(), kN);
  EXPECT_EQ(exec.pending(), 0u);
}

TEST(ExecutorTest, InlineModeRunsOnCallerThread) {
  ThreadPool pool(1);
  Executor exec(pool);
  EXPECT_TRUE(exec.inline_mode());
  const auto caller = std::this_thread::get_id();
  bool ran = false;
  exec.post([&] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran = true;
  });
  EXPECT_TRUE(ran);  // inline: completed before post() returned
  exec.drain();
}

TEST(ExecutorTest, TaskExceptionsDoNotWedgeAccounting) {
  Executor exec(2);
  for (int i = 0; i < 8; ++i) {
    exec.post([] { throw std::runtime_error("task boom"); });
  }
  exec.drain();  // must not hang or terminate
  EXPECT_EQ(exec.pending(), 0u);
}

TEST(ExecutorTest, MetricHooksObserveSubmissionAndCompletion) {
  obs::install_executor_metrics();
  obs::Counter& submitted = obs::metric("exec.task.submitted");
  obs::Counter& completed = obs::metric("exec.task.completed");
  const auto before_submitted = submitted.value();
  const auto before_completed = completed.value();
  Executor exec(2);
  for (int i = 0; i < 10; ++i) exec.post([] {});
  exec.drain();
  EXPECT_EQ(submitted.value() - before_submitted, 10u);
  EXPECT_EQ(completed.value() - before_completed, 10u);
}

}  // namespace
}  // namespace desword
