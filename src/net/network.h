// In-process simulated network.
//
// DE-Sword is a distributed protocol between the proxy and participant
// backend servers. This module gives the protocol layer a message-passing
// substrate without sockets: named endpoints exchange serialized envelopes
// through a central `Network`, a lossless FIFO queue in which every frame
// takes one tick, with per-link byte accounting. Byte counters back the
// communication-overhead numbers of Table II. The network itself never
// loses, duplicates or reorders a frame: faults come only from a
// `FaultInjector` (net/fault_injector.h) wrapped around the transport.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/mutex.h"

namespace desword::net {

using NodeId = std::string;

struct Envelope {
  NodeId from;
  NodeId to;
  std::string type;  // protocol message type tag
  Bytes payload;
  std::uint64_t deliver_at = 0;  // simulated time
};

struct LinkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
};

/// A handler consumes a delivered envelope and may send replies.
using Handler = std::function<void(const Envelope&)>;

class Network {
 public:
  /// Registers an endpoint. Throws ProtocolError on duplicates.
  void register_node(const NodeId& id, Handler handler);
  void unregister_node(const NodeId& id);
  bool has_node(const NodeId& id) const;

  /// Queues a message. Sending to an unknown (crashed / deregistered)
  /// recipient drops the message, counts it in
  /// `LinkStats::messages_dropped`, and returns false — it never throws,
  /// so a dead peer cannot kill the sender, but the sender learns the peer
  /// is known-dead and may charge a retry immediately. Every other frame
  /// is queued for delivery one tick from now.
  bool send(const NodeId& from, const NodeId& to, const std::string& type,
            Bytes payload);

  /// Delivers queued messages in send order until the queue drains or
  /// `max_steps` deliveries happened. A frame whose receiver unregistered
  /// while it was in flight is lost and counted as dropped. Returns
  /// deliveries.
  std::size_t run(std::size_t max_steps = SIZE_MAX);

  /// Simulated clock (advances as messages deliver).
  std::uint64_t now() const { return now_; }

  std::size_t pending() const { return queue_.size(); }

  // --- loop re-entry for off-loop (executor) work -----------------------
  //
  // Everything above is loop-thread-only, like the protocol handlers. The
  // four members below are the one thread-safe seam: executor workers hand
  // finished crypto back to the event loop by post()ing a completion
  // closure, and the loop thread drains them inside SimTransport::poll().
  // With several SimTransports sharing one Network, all of them are polled
  // by the same loop thread, so completions always run on that thread no
  // matter whose poll() drains them.

  /// Enqueues a loop-thread continuation. Thread safe; wakes wait_posted().
  void post(std::function<void()> fn) DESWORD_EXCLUDES(posted_mu_);
  /// Runs every queued continuation (loop thread only). Returns how many.
  std::size_t run_posted() DESWORD_EXCLUDES(posted_mu_);
  /// Blocks until a continuation is queued or `timeout_ms` elapsed.
  /// Returns true when one is pending.
  bool wait_posted(int timeout_ms) DESWORD_EXCLUDES(posted_mu_);
  std::size_t posted_pending() const DESWORD_EXCLUDES(posted_mu_);

  /// Off-loop work accounting: while `work_pending() > 0` the network is
  /// NOT quiescent even with an empty message queue — a completion is
  /// still coming — so SimTransport must keep timers holstered instead of
  /// firing a stall-scan round. Dispatchers add_work() before handing a
  /// job to the executor; the posted completion remove_work()s.
  void add_work() DESWORD_EXCLUDES(posted_mu_);
  void remove_work() DESWORD_EXCLUDES(posted_mu_);
  std::size_t work_pending() const DESWORD_EXCLUDES(posted_mu_);

  /// Counters for the directed link from->to. Reading an unknown link
  /// returns a canonical all-zero record WITHOUT materializing an entry —
  /// observation must not mutate the table (loop thread only, like every
  /// other non-post member).
  const LinkStats& stats(const NodeId& from, const NodeId& to) const;
  LinkStats total_stats() const;
  void reset_stats() { stats_.clear(); }

 private:
  // Thread-safe seam (workers + loop thread); everything else loop-only.
  mutable Mutex posted_mu_;
  CondVar posted_cv_;
  std::deque<std::function<void()>> posted_ DESWORD_GUARDED_BY(posted_mu_);
  std::size_t work_pending_ DESWORD_GUARDED_BY(posted_mu_) = 0;

  std::uint64_t now_ = 0;
  std::map<NodeId, Handler> nodes_;
  std::map<std::pair<NodeId, NodeId>, LinkStats> stats_;
  std::deque<Envelope> queue_;
};

}  // namespace desword::net
