#include "net/network.h"

#include <chrono>

#include "common/error.h"
#include "obs/metrics.h"

namespace desword::net {

namespace {

obs::Counter& frames_sent() {
  static obs::Counter& c = obs::metric("net.frame.sent");
  return c;
}

obs::Counter& frames_received() {
  static obs::Counter& c = obs::metric("net.frame.received");
  return c;
}

obs::Counter& frames_dropped() {
  static obs::Counter& c = obs::metric("net.frame.dropped");
  return c;
}

}  // namespace

void Network::register_node(const NodeId& id, Handler handler) {
  if (id.empty()) throw ProtocolError("node id must be non-empty");
  if (!handler) throw ProtocolError("node handler must be callable");
  if (!nodes_.emplace(id, std::move(handler)).second) {
    throw ProtocolError("duplicate node id: " + id);
  }
}

void Network::unregister_node(const NodeId& id) {
  if (nodes_.erase(id) == 0) {
    throw ProtocolError("unknown node id: " + id);
  }
}

bool Network::has_node(const NodeId& id) const {
  return nodes_.find(id) != nodes_.end();
}

bool Network::send(const NodeId& from, const NodeId& to,
                   const std::string& type, Bytes payload) {
  LinkStats& stats = stats_[{from, to}];
  stats.messages_sent += 1;
  stats.bytes_sent += payload.size();
  frames_sent().add();
  if (!has_node(to)) {
    // A crashed or deregistered peer must not take the *sender* down: the
    // message is dropped and counted, and the sender's retransmission /
    // no-response path deals with the silence. Returning false tells the
    // sender the drop is *known* so a retry can be charged immediately.
    stats.messages_dropped += 1;
    frames_dropped().add();
    return false;
  }
  queue_.push_back(Envelope{from, to, type, std::move(payload), now_ + 1});
  return true;
}

std::size_t Network::run(std::size_t max_steps) {
  std::size_t delivered = 0;
  while (!queue_.empty() && delivered < max_steps) {
    // Every frame takes one tick, so the queue is already in delivery
    // order: deliver_at never decreases from front to back.
    Envelope env = std::move(queue_.front());
    queue_.pop_front();
    now_ = env.deliver_at;
    const auto node = nodes_.find(env.to);
    if (node == nodes_.end()) {
      // The receiver left while the frame was in flight: it is lost, and
      // counted like any other drop so sent − dropped stays deliveries.
      stats_[{env.from, env.to}].messages_dropped += 1;
      frames_dropped().add();
      continue;
    }
    frames_received().add();
    node->second(env);
    ++delivered;
  }
  return delivered;
}

void Network::post(std::function<void()> fn) {
  if (!fn) return;
  {
    MutexLock lk(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  posted_cv_.notify_all();
}

std::size_t Network::run_posted() {
  std::size_t ran = 0;
  for (;;) {
    std::deque<std::function<void()>> batch;
    {
      MutexLock lk(posted_mu_);
      if (posted_.empty()) return ran;
      batch.swap(posted_);
    }
    for (auto& fn : batch) {
      fn();
      ++ran;
    }
  }
}

bool Network::wait_posted(int timeout_ms) {
  MutexLock lk(posted_mu_);
  if (timeout_ms <= 0) return !posted_.empty();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (posted_.empty()) {
    if (!posted_cv_.wait_until(lk, deadline)) break;  // timed out
  }
  return !posted_.empty();
}

std::size_t Network::posted_pending() const {
  MutexLock lk(posted_mu_);
  return posted_.size();
}

void Network::add_work() {
  MutexLock lk(posted_mu_);
  ++work_pending_;
}

void Network::remove_work() {
  MutexLock lk(posted_mu_);
  --work_pending_;
}

std::size_t Network::work_pending() const {
  MutexLock lk(posted_mu_);
  return work_pending_;
}

const LinkStats& Network::stats(const NodeId& from, const NodeId& to) const {
  // Lookup-only: the old operator[] body inserted a zero record for every
  // link anyone ever *asked* about, so diagnostic sweeps over unknown pairs
  // grew the table without bound. Unknown links share one canonical zero.
  static const LinkStats kZero;
  const auto it = stats_.find({from, to});
  return it == stats_.end() ? kZero : it->second;
}

LinkStats Network::total_stats() const {
  LinkStats total;
  for (const auto& [link, s] : stats_) {
    total.messages_sent += s.messages_sent;
    total.messages_dropped += s.messages_dropped;
    total.bytes_sent += s.bytes_sent;
  }
  return total;
}

}  // namespace desword::net
