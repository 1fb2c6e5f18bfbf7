#include "common/executor.h"

#include <atomic>
#include <functional>
#include <utility>

#include "common/timing.h"

namespace desword {

namespace {

// Hooks are stored as individual atomic function pointers so installation
// (once, at startup) and invocation (hot, from workers) need no lock and
// stay TSan-clean.
std::atomic<void (*)()> g_hook_submitted{nullptr};
std::atomic<void (*)(double, double)> g_hook_completed{nullptr};

}  // namespace

void set_executor_hooks(ExecutorHooks hooks) {
  g_hook_submitted.store(hooks.submitted, std::memory_order_relaxed);
  g_hook_completed.store(hooks.completed, std::memory_order_relaxed);
}

Executor::Executor(unsigned workers)
    // with_threads() counts total concurrency (caller + workers), so an
    // executor with `workers` OS worker threads needs a pool of width
    // workers + 1; workers == 0 maps to the inline concurrency-1 pool.
    : pool_(ThreadPool::with_threads(workers + 1)) {}

Executor::Executor(ThreadPool& pool) : pool_(pool) {}

Executor::~Executor() { drain(); }

void Executor::post(std::function<void()> fn) {
  if (!fn) return;
  {
    MutexLock lk(mu_);
    ++pending_;
  }
  if (auto* hook = g_hook_submitted.load(std::memory_order_relaxed)) hook();
  const std::uint64_t posted_ns = now_ns();
  pool_.submit([this, posted_ns, fn = std::move(fn)] {
    const std::uint64_t start_ns = now_ns();
    try {
      fn();
    } catch (...) {
      // Fire-and-forget: there is no caller to rethrow to. Tasks that can
      // fail report through their own completion channel.
    }
    const std::uint64_t end_ns = now_ns();
    // The completion hook fires BEFORE the pending count drops: drain()
    // returning must imply every submitted task's metrics have landed, or
    // a completion could be attributed past the executor's lifetime.
    if (auto* hook = g_hook_completed.load(std::memory_order_relaxed)) {
      hook(static_cast<double>(start_ns - posted_ns) / 1e6,
           static_cast<double>(end_ns - start_ns) / 1e6);
    }
    {
      MutexLock lk(mu_);
      if (--pending_ == 0) idle_cv_.notify_all();
    }
  });
}

void Executor::drain() {
  MutexLock lk(mu_);
  while (pending_ != 0) idle_cv_.wait(lk);
}

std::size_t Executor::pending() const {
  MutexLock lk(mu_);
  return pending_;
}

}  // namespace desword
