#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <map>

namespace desword {

namespace {

Mutex g_default_mu;
unsigned g_default_override DESWORD_GUARDED_BY(g_default_mu) = 0;  // 0 = none

unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads - 1);
  for (unsigned i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::run_one(Batch& batch) {
  std::size_t index;
  {
    MutexLock lk(mu_);
    if (batch.drained()) return false;
    index = batch.next++;
    ++batch.running;
  }
  std::exception_ptr err;
  try {
    (*batch.fn)(index);
  } catch (...) {
    err = std::current_exception();
  }
  {
    MutexLock lk(mu_);
    if (err) {
      if (!batch.error) batch.error = err;
      batch.stopped = true;  // abandon unclaimed indices
    }
    --batch.running;
    if (batch.done()) done_cv_.notify_all();
  }
  return true;
}

void ThreadPool::for_each(std::size_t n,
                          const std::function<void(std::size_t)>& f) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &f;
  {
    MutexLock lk(mu_);
    queue_.push_back(batch);
  }
  work_cv_.notify_all();

  // The caller drains its own batch; workers may claim indices too.
  while (run_one(*batch)) {
  }

  {
    MutexLock lk(mu_);
    while (!batch->done()) done_cv_.wait(lk);
    queue_.erase(std::remove(queue_.begin(), queue_.end(), batch),
                 queue_.end());
  }
  // Once done() was observed under the lock nothing writes the batch again,
  // so the error slot is safe to read outside it.
  if (batch->error) std::rethrow_exception(batch->error);
}

void ThreadPool::submit(std::function<void()> fn) {
  if (!fn) return;
  if (workers_.empty()) {
    // No workers to hand off to: degrade to inline execution, exactly like
    // for_each does on a concurrency-1 pool.
    fn();
    return;
  }
  {
    MutexLock lk(mu_);
    tasks_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    std::shared_ptr<Batch> batch;
    {
      MutexLock lk(mu_);
      while (!stop_ && queue_.empty() && tasks_.empty()) work_cv_.wait(lk);
      if (stop_) return;
      if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else {
        batch = queue_.front();
        if (batch->drained()) {
          // Fully claimed (possibly still running elsewhere): retire it from
          // the queue and look for the next batch.
          queue_.pop_front();
          continue;
        }
      }
    }
    if (task) {
      try {
        task();
      } catch (...) {
        // Detached task: nobody to rethrow to. The Executor layer wraps
        // every submission in its own catch, so this is a last-resort
        // guard keeping a buggy task from terminating the worker.
      }
      continue;
    }
    while (run_one(*batch)) {
    }
  }
}

unsigned ThreadPool::default_threads() {
  {
    MutexLock lk(g_default_mu);
    if (g_default_override != 0) return g_default_override;
  }
  if (const char* env = std::getenv("DESWORD_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  return hardware_threads();
}

void ThreadPool::set_default_threads(unsigned threads) {
  MutexLock lk(g_default_mu);
  g_default_override = threads;
}

ThreadPool& ThreadPool::shared() { return with_threads(default_threads()); }

ThreadPool& ThreadPool::with_threads(unsigned threads) {
  if (threads == 0) threads = 1;
  static Mutex registry_mu;
  // Leaked intentionally: worker threads may outlive static destruction.
  static std::map<unsigned, std::unique_ptr<ThreadPool>>* registry =
      new std::map<unsigned, std::unique_ptr<ThreadPool>>();
  MutexLock lk(registry_mu);
  auto it = registry->find(threads);
  if (it == registry->end()) {
    it = registry->emplace(threads, std::make_unique<ThreadPool>(threads))
             .first;
  }
  return *it->second;
}

ThreadPool* ThreadPool::for_threads(unsigned threads) {
  if (threads == 0) threads = default_threads();
  return threads > 1 ? &with_threads(threads) : nullptr;
}

}  // namespace desword
