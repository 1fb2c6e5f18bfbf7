// Task-queue execution layer decoupling CPU-bound crypto work from the
// single-threaded transport event loop.
//
// The protocol endpoints (proxy, participants) are event-driven state
// machines that must never block their event loop on a modular
// exponentiation chain. They hand crypto work to an `Executor` — a
// fire-and-forget task queue backed by the shared `ThreadPool` — and
// receive the result back on the loop thread via `net::Transport::post()`.
//
// Neither endpoint needs a serial sub-executor: proof generation only
// reads the participant's decommitment state (a non-membership proof is a
// function of the prover key), so a participant's builds run concurrently,
// and the proxy's hop checks are pure, so it commits their verdicts in hop
// order on its loop thread. Both post straight to the executor.
//
// An `Executor` constructed with 0 workers runs every task inline on the
// posting thread, reproducing single-threaded behavior exactly — the
// protocol layer uses "no executor at all" for the bit-identical legacy
// path and an inline executor only ever appears in tests.
//
// Lifetime rule: tasks capture raw pointers to their owner, so the owner
// MUST `drain()` its executor before destruction (the protocol
// destructors do). `drain()` blocks until every in-flight and queued task
// finished; it must not be called from inside a task.
#pragma once

#include <cstddef>
#include <functional>

#include "common/mutex.h"
#include "common/thread_pool.h"

namespace desword {

/// Process-wide executor instrumentation hooks.
///
/// `desword_common` sits below the obs metrics layer, so the executor
/// cannot record instruments directly; instead the obs layer (which links
/// above common) installs these hooks once at startup via
/// `obs::install_executor_metrics()`. Both hooks may run concurrently from
/// worker threads and must be thread-safe. A null hook is skipped.
struct ExecutorHooks {
  /// A task was posted (called on the posting thread, before execution).
  void (*submitted)() = nullptr;
  /// A task finished. `wait_ms` is post-to-start queueing delay, `run_ms`
  /// the task's own execution time (called on the executing thread).
  void (*completed)(double wait_ms, double run_ms) = nullptr;
};

/// Installs process-wide hooks for every Executor. Safe to call more than
/// once (last installation wins) and concurrently with running executors.
void set_executor_hooks(ExecutorHooks hooks);

class Executor {
 public:
  /// Executor with `workers` dedicated OS worker threads, shared (via the
  /// ThreadPool::with_threads cache) with every other executor of the same
  /// width. `workers == 0` means inline execution on the posting thread.
  explicit Executor(unsigned workers);
  /// Executor over an explicit pool (tests; pool concurrency 1 = inline).
  explicit Executor(ThreadPool& pool);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues `fn` for execution on a worker (or runs it inline when the
  /// executor has no workers). Exceptions escaping `fn` are swallowed —
  /// post work that reports failure through its own channel.
  void post(std::function<void()> fn);

  /// Blocks until every posted task has finished. Must not be called from
  /// inside a posted task (it would wait on itself).
  void drain() DESWORD_EXCLUDES(mu_);

  /// Tasks posted but not yet finished.
  std::size_t pending() const DESWORD_EXCLUDES(mu_);

  /// True when tasks run inline on the posting thread (no workers).
  bool inline_mode() const { return pool_.concurrency() <= 1; }

 private:
  ThreadPool& pool_;
  mutable Mutex mu_;
  CondVar idle_cv_;
  std::size_t pending_ DESWORD_GUARDED_BY(mu_) = 0;
};

}  // namespace desword
