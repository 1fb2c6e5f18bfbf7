// Minimal blocking thread pool for CPU-bound crypto fan-out.
//
// The ZK-EDB hot paths (EDB-commit, batch proof generation, batch
// verification) decompose into coarse independent units whose cost is
// dominated by modular exponentiation — milliseconds each — so a simple
// shared-queue pool with per-index claiming is within noise of a
// work-stealing scheduler while staying dependency-free and easy to audit.
//
// Model: `for_each(n, f)` runs f(0..n-1), the CALLING thread participates,
// and the call blocks until every index finished. Because a blocked caller
// always drains its own batch, nested for_each from inside a task cannot
// deadlock even when every worker is busy: the nested call simply degrades
// to sequential execution on the calling thread. The first exception thrown
// by any index abandons the batch's unclaimed indices and is rethrown to
// the caller once in-flight indices drain.
//
// Thread count resolution order: set_default_threads() override, then the
// DESWORD_THREADS environment variable, then hardware_concurrency().
// A pool of size 1 has no workers and executes everything inline, exactly
// reproducing single-threaded behavior.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace desword {

class ThreadPool {
 public:
  /// Pool with total concurrency `threads` (>= 1): the caller plus
  /// `threads - 1` worker threads.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (worker threads + the participating caller).
  unsigned concurrency() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs f(i) for every i in [0, n), caller participating; blocks until
  /// all indices completed. Rethrows the first exception any index threw
  /// (remaining unclaimed indices are abandoned).
  void for_each(std::size_t n, const std::function<void(std::size_t)>& f);

  /// Fire-and-forget: enqueues `fn` for execution on a worker thread and
  /// returns immediately. On a pool with no workers (concurrency 1) the
  /// task runs inline on the calling thread instead. `fn` must not throw —
  /// an escaping exception from a detached task is swallowed (there is no
  /// caller to rethrow to); wrap tasks that can fail (the Executor layer
  /// does exactly that).
  void submit(std::function<void()> fn);

  /// Effective default concurrency: set_default_threads() override if any,
  /// else DESWORD_THREADS (clamped to >= 1), else hardware_concurrency().
  static unsigned default_threads();

  /// Process-wide override of default_threads(); 0 clears the override.
  static void set_default_threads(unsigned threads);

  /// Lazily-created process-wide pool of default_threads() concurrency.
  /// Note: sized on first use; later env/override changes pick a different
  /// pool via with_threads().
  static ThreadPool& shared();

  /// Lazily-created process-wide pool of exactly `threads` concurrency
  /// (threads >= 1). Pools are cached per count and shared by all callers.
  static ThreadPool& with_threads(unsigned threads);

  /// The pool an options `threads` knob selects: 0 resolves to
  /// default_threads(); null when that resolves to 1 (run sequentially).
  static ThreadPool* for_threads(unsigned threads);

 private:
  // Every Batch field is guarded by the owning pool's mu_ — a relationship
  // the capability annotations cannot express on a free-standing struct
  // (guarded_by needs the guarding member in scope), so the discipline is
  // documented here and checked by the accesses in thread_pool.cpp all
  // sitting inside MutexLock scopes (and by TSan via thread_pool_test).
  struct Batch {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t next = 0;     // next unclaimed index   (guarded by pool mu_)
    std::size_t running = 0;  // in-flight executions   (guarded by pool mu_)
    bool stopped = false;     // error: abandon the rest (guarded by pool mu_)
    std::exception_ptr error;

    bool drained() const { return stopped || next >= n; }
    bool done() const { return drained() && running == 0; }
  };

  void worker_loop();
  /// Claims and runs one index of `batch`; false once the batch is drained.
  bool run_one(Batch& batch) DESWORD_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar work_cv_;  // workers: a batch or task is available
  CondVar done_cv_;  // callers: a batch may have completed
  std::deque<std::shared_ptr<Batch>> queue_ DESWORD_GUARDED_BY(mu_);
  std::deque<std::function<void()>> tasks_ DESWORD_GUARDED_BY(mu_);
  bool stop_ DESWORD_GUARDED_BY(mu_) = false;
};

/// Convenience: run f(i) for i in [0, n) on `pool`, sequentially when
/// `pool` is null, its concurrency is 1, or n <= 1.
template <typename F>
void parallel_for(ThreadPool* pool, std::size_t n, F&& f) {
  if (pool == nullptr || pool->concurrency() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  const std::function<void(std::size_t)> fn = std::forward<F>(f);
  pool->for_each(n, fn);
}

}  // namespace desword
