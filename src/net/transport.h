// Transport abstraction decoupling the protocol layer from its message
// substrate.
//
// The DE-Sword proxy and participants are distributed backend servers
// (§II-C). The protocol endpoints (`protocol::Proxy`, `protocol::
// Participant`) are written against this interface only, so the same state
// machines run over:
//
//   * `SimTransport`  — the in-process simulated `Network` (deterministic
//     and lossless; what every test and the `Scenario` harness uses);
//   * `SocketTransport` — a poll(2)-based TCP event loop with
//     length-prefixed envelope framing (see net/wire.h), letting a proxy
//     and N participants run as separate OS processes.
//
// Faults come only from `FaultInjector` (net/fault_injector.h), a
// decorator that wraps either transport; `Scenario` always wraps its one
// SimTransport in one.
//
// Endpoints are event driven: they react to delivered envelopes and to
// timers. Timers are the only way an endpoint regains control without a
// message (retransmission, give-up timeouts) — there is no global "scan
// for stalled work" primitive, because one cannot exist outside a
// simulator.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "common/error.h"
#include "net/network.h"

namespace desword::net {

class Transport {
 public:
  using TimerId = std::uint64_t;
  using TimerFn = std::function<void()>;

  virtual ~Transport() = default;

  /// Registers the handler for envelopes addressed to `id`. Throws
  /// ProtocolError on duplicates.
  virtual void register_node(const NodeId& id, Handler handler) = 0;
  virtual void unregister_node(const NodeId& id) = 0;
  virtual bool has_node(const NodeId& id) const = 0;

  /// Queues a message for delivery. Never throws on an unreachable or
  /// unknown recipient — the message is dropped and counted, and the
  /// sender's timer/retransmission path recovers. Returns false when the
  /// transport KNOWS at send time that the message cannot reach the peer
  /// (unknown/deregistered node, synchronously refused connect, crash
  /// window): the sender may charge a retry immediately instead of waiting
  /// a full retransmission timeout. Returns true otherwise — including
  /// silent in-flight losses (lossy links, partitions), which only the
  /// timeout can detect.
  virtual bool send(const NodeId& from, const NodeId& to,
                    const std::string& type, Bytes payload) = 0;

  /// Transport clock. Simulated ticks for SimTransport, milliseconds since
  /// transport start for SocketTransport. Timer delays use the same unit.
  virtual std::uint64_t now() const = 0;

  /// Arms a one-shot timer firing `delay` clock units from now. The
  /// returned id can cancel it; ids are never reused.
  virtual TimerId set_timer(std::uint64_t delay, TimerFn fn) = 0;
  /// Cancels a pending timer; unknown / already-fired ids are a no-op.
  virtual void cancel_timer(TimerId id) = 0;
  /// Timers armed but not yet fired (pump-stall diagnostics).
  virtual std::size_t pending_timers() const = 0;

  /// Hands a closure from an executor worker back to the event loop: it
  /// runs on the loop thread during a subsequent poll(). The only
  /// thread-safe Transport entry point; it wakes a poll() blocked in
  /// timeout_ms.
  virtual void post(std::function<void()> fn) = 0;

  /// Off-loop work accounting bracket. While at least one add_work() is
  /// unbalanced, a completion is still owed to the loop, so the simulator
  /// must not declare quiescence (fire stall-scan timers) and poll() may
  /// block briefly waiting for the post(). Real-time transports need no
  /// such bracket — their timers have genuine deadlines — so the default
  /// is a no-op. Call add_work() on the loop thread before dispatching;
  /// the posted completion calls remove_work().
  virtual void add_work() {}
  virtual void remove_work() {}

  /// Processes pending transport work: delivers queued/readable envelopes
  /// to handlers and fires due timers. `timeout_ms` bounds how long a
  /// real-time transport may block waiting for events (ignored by the
  /// simulator). Returns the number of events processed (envelope
  /// deliveries + timer firings); 0 means the transport is idle.
  virtual std::size_t poll(int timeout_ms = 0) = 0;

  /// Per-link traffic counters (sent/dropped/bytes), keyed like the
  /// simulator's.
  virtual const LinkStats& stats(const NodeId& from, const NodeId& to)
      const = 0;
  virtual LinkStats total_stats() const = 0;

  // --- loop-thread affinity ---------------------------------------------
  //
  // Every Transport member except post() is loop-thread-only (DESIGN.md
  // §9/§10). The loop thread is tagged lazily: the first poll() binds the
  // calling thread as *the* loop thread, and `DESWORD_DCHECK_ON_LOOP`
  // assertions in the protocol handlers verify all later loop-only entry
  // points run on it. Before any poll() the transport is considered
  // unbound and every thread passes — setup (register_node, initial sends)
  // legitimately happens before the loop starts.

  /// True iff the calling thread is the bound loop thread, or no thread
  /// has been bound yet. Debug-assertion predicate, not a synchronization
  /// primitive.
  bool on_loop_thread() const {
    const std::size_t bound = loop_thread_hash_.load(std::memory_order_relaxed);
    return bound == 0 ||
           bound == std::hash<std::thread::id>{}(std::this_thread::get_id());
  }

 protected:
  /// Binds the calling thread as the loop thread (first caller wins;
  /// poll() implementations call this at entry, so re-binding from the
  /// same thread is the common no-op case).
  void bind_loop_thread() const {
    std::size_t expected = 0;
    loop_thread_hash_.compare_exchange_strong(
        expected, std::hash<std::thread::id>{}(std::this_thread::get_id()),
        std::memory_order_relaxed);
  }

 private:
  // 0 = unbound. Hash of std::thread::id (not the id itself) so the slot
  // is a lock-free atomic; a colliding hash could only ever weaken the
  // debug assertion, never break the transport.
  mutable std::atomic<std::size_t> loop_thread_hash_{0};
};

/// Debug-only loop-affinity assertion: fails (throws CheckError, like any
/// DESWORD_DCHECK) when executed off the transport's bound loop thread.
/// Compiled out under NDEBUG. Place at the top of loop-only entry points —
/// protocol handlers, timer callbacks, posted continuations.
#define DESWORD_DCHECK_ON_LOOP(transport)         \
  DESWORD_DCHECK((transport).on_loop_thread(),    \
                 "loop-affinity violation: running off the loop thread")

/// Adapter running the protocol over the in-process simulated `Network`,
/// byte-for-byte compatible with driving the `Network` directly (same
/// envelopes, same LinkStats accounting).
///
/// Timer semantics follow discrete-event simulation: while messages are in
/// flight the clock only advances through deliveries; once the queue is
/// fully drained nothing can preempt a pending timer anymore, so `poll()`
/// fires pending timers (in arming order) — but only while the network
/// stays quiescent. The moment a timer callback queues traffic, the round
/// ends: the remaining timers are no longer "due before anything else",
/// because the new in-flight messages would be delivered first in real
/// event order. Callbacks may also re-arm themselves or cancel sibling
/// timers mid-round; both are honored (a cancelled sibling never fires).
/// This reproduces exactly the retransmit-all-stalled-sessions rounds of
/// the historical `Proxy::pump()` stall scan.
class SimTransport final : public Transport {
 public:
  explicit SimTransport(Network& network) : network_(network) {}

  void register_node(const NodeId& id, Handler handler) override {
    network_.register_node(id, std::move(handler));
  }
  void unregister_node(const NodeId& id) override {
    network_.unregister_node(id);
  }
  bool has_node(const NodeId& id) const override {
    return network_.has_node(id);
  }

  bool send(const NodeId& from, const NodeId& to, const std::string& type,
            Bytes payload) override {
    return network_.send(from, to, type, std::move(payload));
  }

  std::uint64_t now() const override { return network_.now(); }

  TimerId set_timer(std::uint64_t delay, TimerFn fn) override;
  void cancel_timer(TimerId id) override;
  std::size_t pending_timers() const override { return timers_.size(); }

  void post(std::function<void()> fn) override {
    network_.post(std::move(fn));
  }
  void add_work() override { network_.add_work(); }
  void remove_work() override { network_.remove_work(); }

  std::size_t poll(int timeout_ms = 0) override;

  const LinkStats& stats(const NodeId& from, const NodeId& to) const override {
    return network_.stats(from, to);
  }
  LinkStats total_stats() const override { return network_.total_stats(); }

  Network& network() { return network_; }

 private:
  struct Timer {
    std::uint64_t deadline = 0;
    TimerFn fn;
  };

  Network& network_;
  TimerId next_timer_id_ = 1;
  std::map<TimerId, Timer> timers_;  // keyed by id == arming order
};

}  // namespace desword::net
