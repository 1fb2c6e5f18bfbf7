// Locking-discipline regression suite (ISSUE 8).
//
// Covers the annotated synchronization wrappers (common/mutex.h), the
// loop-thread affinity tagging (net/transport.h), and
// the three under-locked-read fixes that rode along with the annotation
// sweep:
//   * Network::stats() must not materialize map entries on reads of
//     unknown links (it was a const-method insertion with unbounded
//     growth);
//   * histogram snapshots must keep the Σ buckets ≤ count invariant under
//     concurrent observers (read order buckets→count pairs with the
//     write order count→bucket-release);
//   * the Network posted seam must hand every worker-posted continuation
//     to the loop thread exactly once.
//
// Tests here use raw std::thread on purpose: the raw-mutex lint rule
// covers src/ only, and exercising the wrappers from plain threads is the
// point.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "net/network.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace desword {
namespace {

TEST(MutexTest, MutexLockProvidesMutualExclusion) {
  Mutex mu;
  std::uint64_t guarded = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++guarded;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(guarded, static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(MutexTest, TryLockReflectsHeldState) {
  Mutex mu;
  mu.lock();
  // try_lock from another thread must fail while held (same-thread
  // try_lock on a held std::mutex is UB, so probe from a helper).
  bool acquired_while_held = true;
  std::thread probe([&] { acquired_while_held = mu.try_lock(); });
  probe.join();
  EXPECT_FALSE(acquired_while_held);
  mu.unlock();
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(MutexTest, CondVarProducerConsumer) {
  Mutex mu;
  CondVar cv;
  std::vector<int> queue;
  bool done = false;
  constexpr int kItems = 1000;

  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      MutexLock lock(mu);
      queue.push_back(i);
      cv.notify_one();
    }
    MutexLock lock(mu);
    done = true;
    cv.notify_one();
  });

  std::vector<int> consumed;
  {
    MutexLock lock(mu);
    while (!(done && queue.empty())) {
      while (queue.empty() && !done) cv.wait(lock);
      for (int v : queue) consumed.push_back(v);
      queue.clear();
    }
  }
  producer.join();

  ASSERT_EQ(consumed.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(consumed[i], i);
}

TEST(MutexTest, CondVarWaitForTimesOutWithoutNotify) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_FALSE(cv.wait_for(lock, std::chrono::milliseconds(10)));
}

TEST(MutexTest, SharedMutexAdmitsConcurrentReaders) {
  SharedMutex mu;
  Mutex state_mu;
  CondVar state_cv;
  int readers_inside = 0;
  bool both_seen = false;

  auto reader = [&] {
    ReaderMutexLock read_lock(mu);
    {
      MutexLock lock(state_mu);
      ++readers_inside;
      if (readers_inside == 2) both_seen = true;
      state_cv.notify_all();
      // Hold the shared lock until both readers are inside — impossible
      // if lock_shared were exclusive.
      while (!both_seen) state_cv.wait(lock);
    }
  };
  std::thread a(reader), b(reader);
  a.join();
  b.join();
  EXPECT_TRUE(both_seen);
}

TEST(MetricsTest, HistogramSnapshotBucketsNeverExceedCount) {
  obs::Histogram h;
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      std::uint64_t us = 1u << t;
      while (!stop.load(std::memory_order_relaxed)) {
        h.observe_us(us);
        us = us * 1103515245u + 12345u;  // cheap LCG spreads the buckets
        us %= (1u << 20);
      }
    });
  }
  // Snapshot like histogram_value() does: buckets first, count after.
  for (int iter = 0; iter < 2000; ++iter) {
    std::uint64_t bucket_sum = 0;
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
      bucket_sum += h.bucket(i);
    }
    const std::uint64_t count = h.count();
    ASSERT_LE(bucket_sum, count) << "snapshot shows more bucketed "
                                    "observations than its count";
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();
  // Quiescent: totals agree exactly.
  std::uint64_t bucket_sum = 0;
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    bucket_sum += h.bucket(i);
  }
  EXPECT_EQ(bucket_sum, h.count());
}

TEST(NetworkTest, PostedSeamDeliversEveryWorkerContinuationOnce) {
  net::Network network;
  std::atomic<int> delivered{0};
  constexpr int kThreads = 4;
  constexpr int kPostsPerThread = 250;
  std::vector<std::thread> posters;
  posters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < kPostsPerThread; ++i) {
        network.post([&delivered] {
          delivered.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& th : posters) th.join();
  EXPECT_EQ(network.posted_pending(),
            static_cast<std::size_t>(kThreads) * kPostsPerThread);
  EXPECT_TRUE(network.wait_posted(/*timeout_ms=*/0));
  EXPECT_EQ(network.run_posted(),
            static_cast<std::size_t>(kThreads) * kPostsPerThread);
  EXPECT_EQ(delivered.load(), kThreads * kPostsPerThread);
  EXPECT_EQ(network.run_posted(), 0u);  // nothing runs twice
}

TEST(NetworkTest, WorkPendingBracketBalances) {
  net::Network network;
  EXPECT_EQ(network.work_pending(), 0u);
  network.add_work();
  network.add_work();
  EXPECT_EQ(network.work_pending(), 2u);
  network.remove_work();
  EXPECT_EQ(network.work_pending(), 1u);
  network.remove_work();
  EXPECT_EQ(network.work_pending(), 0u);
}

// Regression: stats() on a const Network used operator[] and inserted an
// entry per queried (from, to) pair — observation mutated (and grew) the
// table. Unknown links must all map to one canonical zero record.
TEST(NetworkTest, StatsReadDoesNotMaterializeUnknownLinks) {
  net::Network network;
  const net::LinkStats& ab = network.stats("a", "b");
  const net::LinkStats& cd = network.stats("c", "d");
  EXPECT_EQ(&ab, &cd) << "distinct unknown links returned distinct "
                         "records — reads are materializing entries";
  EXPECT_EQ(ab.messages_sent, 0u);
  EXPECT_EQ(ab.bytes_sent, 0u);

  // A real send still gets its own live record.
  network.register_node("x", [](const net::Envelope&) {});
  network.register_node("y", [](const net::Envelope&) {});
  network.send("x", "y", "t", Bytes{1, 2, 3});
  const net::LinkStats& xy = network.stats("x", "y");
  EXPECT_NE(&xy, &ab);
  EXPECT_EQ(xy.messages_sent, 1u);
  // And reading it back did not disturb the unknown-link record.
  EXPECT_EQ(&network.stats("a", "b"), &ab);
}

TEST(TransportTest, PollBindsTheLoopThread) {
  net::Network network;
  net::SimTransport transport(network);

  // Unbound: every thread passes (setup happens before the loop starts).
  EXPECT_TRUE(transport.on_loop_thread());
  bool off_thread_before = false;
  std::thread pre([&] { off_thread_before = transport.on_loop_thread(); });
  pre.join();
  EXPECT_TRUE(off_thread_before);

  transport.poll();  // binds this thread as the loop thread

  EXPECT_TRUE(transport.on_loop_thread());
  bool off_thread_after = true;
  std::thread post([&] { off_thread_after = transport.on_loop_thread(); });
  post.join();
  EXPECT_FALSE(off_thread_after)
      << "a foreign thread still passes the loop-affinity predicate "
         "after poll() bound the loop";

  // Re-polling from the bound thread keeps the binding (first wins).
  transport.poll();
  EXPECT_TRUE(transport.on_loop_thread());
}

}  // namespace
}  // namespace desword
