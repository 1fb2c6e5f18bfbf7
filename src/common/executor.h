// Task-queue execution layer decoupling CPU-bound crypto work from the
// single-threaded transport event loop.
//
// The protocol endpoints (proxy, participants) are event-driven state
// machines that must never block their event loop on a modular
// exponentiation chain. They hand crypto work to an `Executor` — a
// fire-and-forget task queue backed by the shared `ThreadPool` — and
// receive the result back on the loop thread via `net::Transport::post()`.
//
// Ordering is provided by `Strand`, a serial sub-executor in the asio
// tradition: tasks posted to one strand run one at a time, in post order,
// but different strands run concurrently on the underlying pool. The
// protocol maps state onto strands as:
//
//   * one strand per participant — proof generation is serialized per
//     node (the prover memoizes into its decommitment state), while
//     distinct participants prove concurrently;
//   * none for the proxy — its hop checks are pure, so they go straight to
//     the executor and the proxy commits their verdicts in hop order on
//     its loop thread.
//
// An `Executor` constructed with 0 workers runs every task inline on the
// posting thread, reproducing single-threaded behavior exactly — the
// protocol layer uses "no executor at all" for the bit-identical legacy
// path and an inline executor only ever appears in tests.
//
// Lifetime rule: tasks capture raw pointers to their owner, so the owner
// MUST `drain()` its strands/executor before destruction (the protocol
// destructors do). `drain()` blocks until every in-flight and queued task
// finished; it must not be called from inside a task.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>

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

/// Serial sub-executor: tasks run in post order, never concurrently with
/// each other. Internally keeps a queue and at most one "drainer" task on
/// the executor which runs queued entries until the queue empties.
///
/// The queue state is held by shared_ptr so a drainer scheduled on the
/// pool stays valid even if the Strand object itself is destroyed — but
/// the *tasks* still reference their owner, so owners drain before death.
class Strand {
 public:
  explicit Strand(std::shared_ptr<Executor> executor);

  /// Enqueues `fn` behind every previously posted task of this strand.
  void post(std::function<void()> fn);

  /// Blocks until the strand's queue is empty and no task is running.
  void drain();

  /// Tasks posted to this strand but not yet finished.
  std::size_t pending() const;

  /// True iff the calling thread is currently executing a task posted to
  /// this strand. Used by debug affinity assertions inside strand
  /// continuations (DESIGN.md §10); false from any other thread,
  /// including between this strand's tasks.
  bool running_on_this_thread() const;

 private:
  struct State {
    Mutex mu;
    CondVar idle_cv;
    std::deque<std::function<void()>> queue DESWORD_GUARDED_BY(mu);
    bool running DESWORD_GUARDED_BY(mu) = false;  // a drainer owns the strand
    // Hash of the thread id currently running a task of this strand (0 =
    // none). Written by the drainer around each task, read lock-free by
    // running_on_this_thread(); plain relaxed atomics suffice because the
    // only reader that can observe its own id is the executing thread.
    std::atomic<std::size_t> executing_thread_hash{0};
  };

  static void run_queue(const std::shared_ptr<State>& state);

  std::shared_ptr<Executor> executor_;
  std::shared_ptr<State> state_;
};

}  // namespace desword
