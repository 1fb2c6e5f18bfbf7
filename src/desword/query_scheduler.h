// Admission control for concurrent query sessions.
//
// The proxy can drive many query state machines over one transport, but
// each in-flight session costs retransmission timers, executor tasks, and
// participant-side proof work. The scheduler bounds how many sessions are
// active at once: `submit` either launches a query immediately or parks it
// in a FIFO queue; `finished` frees the slot and admits the
// longest-waiting entrant.
//
// Loop-thread only — no locking. Launching may resolve a query
// synchronously (e.g. an empty candidate set), which re-enters
// `finished`; the drain loop re-checks its bounds every iteration, so the
// reentrancy is benign. The loop-only contract is machine-checked at the
// proxy's entry points via DESWORD_DCHECK_ON_LOOP (DESIGN.md §10) rather
// than by capability annotations — there is deliberately no mutex here to
// annotate, and the `loop-affinity` lint rule keeps scheduler_ touches out
// of worker-context executor tasks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <set>

namespace desword::protocol {

class QueryScheduler {
 public:
  using LaunchFn = std::function<void(std::uint64_t)>;

  /// `max_concurrent` of 0 is treated as 1.
  QueryScheduler(std::size_t max_concurrent, LaunchFn launch);

  /// Admits `query_id` (invoking the launch callback synchronously) when a
  /// slot is free, queues it otherwise. Returns true when launched now.
  bool submit(std::uint64_t query_id);

  /// Releases `query_id` — whether it held a slot or was still queued —
  /// and admits queued sessions while slots remain. No-op for ids the
  /// scheduler never saw.
  void finished(std::uint64_t query_id);

  bool is_queued(std::uint64_t query_id) const;
  std::size_t active() const { return active_.size(); }
  std::size_t queued() const { return queued_.size(); }
  std::size_t max_concurrent() const { return max_; }

 private:
  void launch(std::uint64_t query_id);

  std::size_t max_;
  LaunchFn launch_fn_;
  std::set<std::uint64_t> active_;
  std::deque<std::uint64_t> queued_;
};

}  // namespace desword::protocol
