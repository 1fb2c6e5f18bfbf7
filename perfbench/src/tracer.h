// Benchmark-side tracing: wall-clock spans recorded around calls into the
// DE-Sword layers, from outside the library.
//
// Spans live in memory and are written out as JSON lines when the run
// ends. Every span except the executor-busy intervals is opened and closed
// on the event-loop thread, so nesting (and therefore the parent link and
// self time) follows the loop thread's call stack. Executor activity is
// observed through the transport's add_work()/remove_work() bracket: one
// `common.executor.busy` interval per stretch of time during which at least
// one off-loop crypto job was owed to the loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "net/transport.h"

namespace perfbench {

std::uint64_t now_ns();

/// Canonical span names: "<layer>.<what>". The layer prefix is what the
/// per-layer attribution groups by.
namespace spans {
inline constexpr std::string_view kBeginQuery = "desword.proxy.begin_query";
inline constexpr std::string_view kPump = "desword.proxy.pump";
inline constexpr std::string_view kProxyHandle = "desword.proxy.handle";
inline constexpr std::string_view kParticipantHandle =
    "desword.participant.handle";
inline constexpr std::string_view kCompletion = "desword.completion";
inline constexpr std::string_view kProxyCompletion = "desword.proxy.completion";
inline constexpr std::string_view kParticipantCompletion =
    "desword.participant.completion";
inline constexpr std::string_view kPoll = "net.poll";
inline constexpr std::string_view kSend = "net.send";
inline constexpr std::string_view kExecutorBusy = "common.executor.busy";
inline constexpr std::string_view kDistribution =
    "supplychain.run_distribution";
inline constexpr std::string_view kDistribute = "bench.distribute_task";
}  // namespace spans

struct Span {
  std::string_view name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index of the enclosing span, -1 = root
  std::uint64_t query_id = 0;  // 0 = not tied to one query
  std::uint32_t thread = 0;    // 0 = event loop, 1 = executor (busy span)
  /// zkedb prove/verify histogram time observed while the span was open
  /// (µs). Only meaningful with inline crypto, where the loop thread itself
  /// runs the proofs inside the handler.
  std::uint64_t prove_us = 0;
  std::uint64_t verify_us = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  /// Loop thread only; spans already open are closed normally.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a loop-thread span nested under the innermost open one.
  std::int64_t open(std::string_view name, std::uint64_t query_id = 0);
  void close(std::int64_t index);
  /// Innermost open loop-thread span (-1 when none).
  std::int64_t current() const {
    return stack_.empty() ? -1 : stack_.back();
  }
  Span& at(std::int64_t index) { return spans_[static_cast<std::size_t>(index)]; }

  /// Executor bracket (add_work on the loop thread, remove_work on a
  /// worker): tracks the 0 -> 1 -> 0 transitions of the pending count.
  /// Thread safe.
  void work_added() DESWORD_EXCLUDES(exec_mu_);
  void work_removed() DESWORD_EXCLUDES(exec_mu_);

  /// All spans, loop-thread and executor, in recording order (executor
  /// intervals appended last). Call once the run is quiescent.
  std::vector<Span> snapshot() const DESWORD_EXCLUDES(exec_mu_);

  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;

  mutable desword::Mutex exec_mu_;
  std::uint64_t exec_pending_ DESWORD_GUARDED_BY(exec_mu_) = 0;
  std::uint64_t exec_start_ns_ DESWORD_GUARDED_BY(exec_mu_) = 0;
  std::vector<Span> exec_spans_ DESWORD_GUARDED_BY(exec_mu_);
};

/// RAII span; a no-op while the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::uint64_t query_id = 0,
        bool probe_crypto = false);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_ = -1;
  bool probe_crypto_ = false;
  std::uint64_t prove_us0_ = 0;
  std::uint64_t verify_us0_ = 0;
};

/// Transport decorator: forwards everything to `inner`, recording spans
/// around poll/send, every registered handler, every posted loop
/// continuation, and the executor work bracket.
class TracingTransport final : public desword::net::Transport {
 public:
  TracingTransport(desword::net::Transport& inner, Tracer& tracer,
                   desword::net::NodeId proxy_id, bool probe_crypto);

  void register_node(const desword::net::NodeId& id,
                     desword::net::Handler handler) override;
  void unregister_node(const desword::net::NodeId& id) override {
    inner_.unregister_node(id);
  }
  bool has_node(const desword::net::NodeId& id) const override {
    return inner_.has_node(id);
  }
  bool send(const desword::net::NodeId& from, const desword::net::NodeId& to,
            const std::string& type, desword::Bytes payload) override;
  std::uint64_t now() const override { return inner_.now(); }
  TimerId set_timer(std::uint64_t delay, TimerFn fn) override {
    return inner_.set_timer(delay, std::move(fn));
  }
  void cancel_timer(TimerId id) override { inner_.cancel_timer(id); }
  std::size_t pending_timers() const override {
    return inner_.pending_timers();
  }
  void post(std::function<void()> fn) override;
  void add_work() override;
  void remove_work() override;
  std::size_t poll(int timeout_ms = 0) override;
  const desword::net::LinkStats& stats(
      const desword::net::NodeId& from,
      const desword::net::NodeId& to) const override {
    return inner_.stats(from, to);
  }
  desword::net::LinkStats total_stats() const override {
    return inner_.total_stats();
  }

  /// Query-phase frames sent while tracing was enabled, kept for replay
  /// through the messages.h codec and for proof sizes.
  const std::vector<desword::net::Envelope>& captured() const {
    return captured_;
  }
  /// Time (ns) of the first frame the proxy sent for each query id, for
  /// the scheduler wait.
  const std::unordered_map<std::uint64_t, std::uint64_t>& first_send_ns()
      const {
    return first_send_ns_;
  }
  /// Payload bytes sent per message type while tracing was enabled.
  const std::map<std::string, std::uint64_t>& bytes_by_type() const {
    return bytes_by_type_;
  }

 private:
  desword::net::Transport& inner_;
  Tracer& tracer_;
  desword::net::NodeId proxy_id_;
  bool probe_crypto_;
  std::vector<desword::net::Envelope> captured_;
  std::unordered_map<std::uint64_t, std::uint64_t> first_send_ns_;
  std::map<std::string, std::uint64_t> bytes_by_type_;
};

}  // namespace perfbench
