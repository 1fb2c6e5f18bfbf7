// A DE-Sword participant backend node.
//
// Owns the participant's RFID-trace database and drives both protocol
// phases over an abstract `net::Transport` (simulated network or TCP):
//
//   * distribution phase: fetch/receive ps, aggregate the trace database
//     into a POC (applying any configured dishonest deviations), exchange
//     POCs with task parents to build POC pairs, and route everything to
//     the task-initial participant, who submits the POC list to the proxy;
//   * query phase: answer query / reveal / next-hop requests under the
//     configured query behaviour.
//
// Query-phase request handling is idempotent: a duplicate request (proxy
// retransmission, duplicated link delivery) is answered from a bounded
// reply cache instead of re-running proof generation, so retransmissions
// cost bytes but never CPU.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/mutex.h"
#include "desword/behavior.h"
#include "desword/crs_cache.h"
#include "desword/messages.h"
#include "net/transport.h"
#include "poc/poc.h"
#include "poc/poc_list.h"
#include "supplychain/graph.h"
#include "supplychain/trace.h"

namespace desword::protocol {

using supplychain::ParticipantId;

/// Task-local wiring handed to each involved participant before the
/// distribution phase runs (who its parents/children are for this task,
/// where each product went next, who the task-initial participant is).
struct TaskSetup {
  std::string task_id;
  ParticipantId initial;
  std::vector<ParticipantId> parents;
  std::vector<ParticipantId> children;
  /// Involved participants (needed by the initial participant to broadcast
  /// ps and to know when every report arrived).
  std::vector<ParticipantId> involved;
  /// Ground-truth next hop of each product this participant processed.
  std::map<supplychain::ProductId, ParticipantId> shipments;
};

/// Collaborator handles of a Participant — the same dependency-struct
/// shape as ProxyDeps, so both node types grow dependencies without
/// sprouting constructor overloads.
struct ParticipantDeps {
  CrsCachePtr crs_cache;
};

class Participant {
 public:
  Participant(ParticipantId id, net::Transport& transport, net::NodeId proxy,
              ParticipantDeps deps);
  ~Participant();

  Participant(const Participant&) = delete;
  Participant& operator=(const Participant&) = delete;

  const ParticipantId& id() const { return id_; }
  net::Transport& transport() { return transport_; }

  /// Loads the RFID-trace database produced by a distribution task.
  void load_database(supplychain::TraceDatabase db);
  const supplychain::TraceDatabase& database() const { return db_; }

  void set_distribution_behavior(DistributionBehavior behavior);
  void set_query_behavior(QueryBehavior behavior);
  const QueryBehavior& query_behavior() const { return query_behavior_; }

  /// Registers the task context. Must be called on every involved
  /// participant before `initiate_task` runs on the initial one.
  void begin_task(const TaskSetup& setup);

  /// Kicks off the distribution phase for a task (initial participant
  /// only): requests ps from the proxy and arms a retry timer that
  /// re-requests it until the POC list is submitted (the duplicate-ps
  /// recovery path re-broadcasts, which heals any lost message downstream).
  void initiate_task(const std::string& task_id);

  /// Whether this participant finished its distribution-phase duties for
  /// the task (POC built, pairs reported / list submitted).
  bool task_complete(const std::string& task_id) const;

  /// Task-level distribution error, or empty: the initial participant's
  /// bounded wait on "every report arrived" ran out and the task was given
  /// up. Names the participants whose reports never came. A later
  /// `initiate_task` re-kick clears it and restarts the retry budget.
  std::string task_error(const std::string& task_id) const;

  /// Bound on distribution-phase retry rounds (ps re-requests by the
  /// initial participant, report re-sends by the others) before the node
  /// gives up on the task. Must be >= 1.
  void set_max_distribution_retries(int retries);
  int max_distribution_retries() const { return max_distribution_retries_; }

  /// The POC built for a task, if any (for tests/inspection).
  const poc::Poc* poc_for_task(const std::string& task_id) const;

  struct Stats {
    /// Query-phase requests answered from the reply cache (no recompute) or
    /// joined onto an in-flight proof generation. Atomic because proof
    /// builders bump counters from executor workers.
    std::atomic<std::uint64_t> duplicate_requests_served{0};
    /// POC proofs actually generated (each is heavyweight ZK-EDB work).
    std::atomic<std::uint64_t> proofs_generated{0};
  };
  const Stats& stats() const { return stats_; }

  /// Attaches an executor: query/reveal/next-hop responses are then built
  /// on its workers, concurrently (a proof only reads the DPOC), and sent
  /// from the loop thread via `Transport::post()`. Without an executor (the
  /// default) every response is computed inline in the handler. Either
  /// way the response bytes are the same. Rebinding drains the old
  /// executor first. Must be called before query traffic arrives.
  void set_executor(std::shared_ptr<Executor> executor);

  /// Rebounds the query-phase reply cache (LRU; 0 = unbounded). Shrinks
  /// eagerly, evicting least-recently-used entries, when lowered.
  void set_reply_cache_capacity(std::size_t cap);
  std::size_t reply_cache_capacity() const { return reply_cache_capacity_; }
  std::size_t reply_cache_size() const { return reply_cache_.size(); }

  /// Receives envelopes whose type the participant does not understand
  /// (admin extensions layered on top of the core protocol).
  void set_fallback_handler(net::Handler handler) {
    fallback_ = std::move(handler);
  }

 private:
  struct TaskState {
    TaskSetup setup;
    Bytes ps;
    zkedb::EdbCrsPtr crs;
    std::unique_ptr<poc::PocScheme> scheme;
    std::optional<poc::Poc> own_poc;
    std::shared_ptr<poc::PocDecommitment> dpoc;
    std::vector<Bytes> buffered_child_pocs;  // arrived before own POC
    std::vector<std::pair<Bytes, Bytes>> pairs;  // (own POC, child POC)
    std::set<ParticipantId> children_reported;
    bool pairs_sent = false;
    // Initial-participant aggregation state.
    poc::PocList list;
    std::set<ParticipantId> reports_received;
    bool list_submitted = false;
    net::Transport::TimerId ps_retry_timer = 0;
    /// Retry timer for this node's own distribution sends (PocToParent /
    /// PocPairsToInitial) — the protocol has no acks for them, so re-sends
    /// are bounded best-effort (receivers dedup).
    net::Transport::TimerId report_retry_timer = 0;
    int ps_retries = 0;
    int report_retries = 0;
    /// Set when the bounded wait on "every report arrived" ran out: names
    /// the still-missing participants. The task is given up, not wedged.
    std::string error;
  };

  /// Per-commitment proving context for the query phase.
  struct ProofContext {
    zkedb::EdbCrsPtr crs;
    std::shared_ptr<poc::PocDecommitment> dpoc;
    std::shared_ptr<poc::PocScheme> scheme;
  };

  void handle(const net::Envelope& env);
  void dispatch(const net::Envelope& env);

  // Distribution phase.
  void on_ps_response(const PsResponse& m);
  void on_ps_broadcast(const PsBroadcast& m);
  void on_poc_to_parent(const net::Envelope& env, const PocToParent& m);
  void on_poc_pairs_to_initial(const net::Envelope& env,
                               const PocPairsToInitial& m);
  void aggregate_poc(TaskState& task);
  void absorb_child_poc(TaskState& task, const Bytes& child_poc);
  void maybe_send_pairs(TaskState& task);
  void absorb_report_at_initial(TaskState& task, const ParticipantId& from,
                                const PocPairsToInitial& m);
  void maybe_submit_list(TaskState& task);
  void on_ps_retry(const std::string& task_id);
  void on_report_retry(const std::string& task_id);
  /// (Re-)arms `report_retry_timer` unless the retry budget ran out.
  void arm_report_retry(TaskState& task);
  /// "involved minus reports_received", comma-joined, for give-up errors.
  static std::string missing_reports(const TaskState& task);

  // Query phase. Handlers only resolve the proving context (loop-thread
  // state) and hand a self-contained builder closure to respond_cached;
  // the expensive proof generation lives in the build_* methods, which
  // touch nothing but their by-value captures and are safe on a worker.
  void on_query_request(const net::Envelope& env, const QueryRequest& m);
  void on_reveal_request(const net::Envelope& env, const RevealRequest& m);
  void on_next_hop_request(const net::Envelope& env, const NextHopRequest& m);
  Bytes build_query_response(const QueryRequest& m,
                             const std::optional<ProofContext>& ctx);
  Bytes build_reveal_response(const RevealRequest& m,
                              const std::optional<ProofContext>& ctx);
  Bytes build_next_hop_response(const NextHopRequest& m) const;
  const ProofContext* context_for(const Bytes& poc_bytes) const;
  /// Ownership proof honouring wrong_trace behaviour.
  Bytes make_ownership_proof(const ProofContext& ctx,
                             const supplychain::ProductId& product);
  /// The one gateway to `PocScheme::prove`, counted in
  /// `stats_.proofs_generated`. Every request proves afresh: both proof
  /// kinds are a function of the prover key and the committed trie, so a
  /// repeat is byte-identical (the proxy's hop memo, keyed by the proof
  /// bytes, still hits) and costs a few milliseconds (DESIGN.md §12).
  /// Behaviour deviations (tampering, relabelling, corruption) apply on
  /// the returned proof at the call sites. Safe from concurrent executor
  /// workers.
  poc::PocProof prove_poc(const ProofContext& ctx,
                          const supplychain::ProductId& product);
  /// Applies the corrupt_proof deviation (bit-flips the serialized proof)
  /// when configured for `product`; identity otherwise.
  Bytes maybe_corrupt_proof(const supplychain::ProductId& product,
                            Bytes proof) const;
  /// Serves `env` from the reply cache, or computes the response payload
  /// via `compute`, caches it, and sends it. Deduplication is keyed on a
  /// digest of the request (type + payload), so retransmitted requests get
  /// byte-identical responses without re-running proof generation.
  ///
  /// Every miss registers an `in_flight_` entry that finish_in_flight
  /// completes. Inline (no executor), `compute` runs in the handler and
  /// completes in the same call stack. With an executor, `compute` runs on
  /// a worker and completes from a posted loop-thread continuation (builds
  /// for different requests may finish in any order); a duplicate request
  /// arriving meanwhile joins the entry
  /// (one proof generation, one response delivery per request arrival).
  /// `compute` must be self-contained (by-value captures only).
  void respond_cached(const net::Envelope& env, const std::string& resp_type,
                      std::function<Bytes()> compute);
  /// Loop-thread completion of a `compute`: caches the payload, answers
  /// every joined waiter. A failed compute (`ok == false`) just clears the
  /// in-flight entry so a retransmission recomputes.
  void finish_in_flight(const Bytes& key, bool ok, Bytes payload);
  /// Evicts least-recently-used replies until at most `limit` remain; a
  /// no-op while the cache is unbounded (capacity 0).
  void evict_replies(std::size_t limit);

  ParticipantId id_;
  net::Transport& transport_;
  net::NodeId proxy_;
  CrsCachePtr crs_cache_;
  supplychain::TraceDatabase db_;
  DistributionBehavior dist_behavior_;
  QueryBehavior query_behavior_;
  std::map<std::string, TaskState> tasks_;
  /// Commitment bytes -> proving context (across all tasks).
  std::map<Bytes, ProofContext> contexts_;
  /// Ground-truth next hops (merged across tasks).
  std::map<supplychain::ProductId, ParticipantId> shipments_;

  struct CachedReply {
    std::string type;
    Bytes payload;
    std::list<Bytes>::iterator pos;  // position in reply_cache_lru_
  };
  std::map<Bytes, CachedReply> reply_cache_;  // request digest -> reply
  std::list<Bytes> reply_cache_lru_;          // most recently used first
  /// "In-flight" reply-cache state: requests whose response is being built
  /// right now. Loop-thread only. `waiters` records every
  /// request arrival (original + joined duplicates); each gets its own
  /// response delivery when the build completes.
  struct InFlight {
    std::string resp_type;
    std::vector<net::NodeId> waiters;
  };
  std::map<Bytes, InFlight> in_flight_;
  /// Sized for the retransmission window of a handful of concurrent
  /// queries, not for history: a digest plus response per in-flight
  /// request round.
  std::size_t reply_cache_capacity_ = 128;
  int max_distribution_retries_ = 32;
  Stats stats_;
  net::Handler fallback_;

  std::shared_ptr<Executor> executor_;  // null = inline mode
  /// Aliveness token for posted completions: a completion that outlives
  /// this participant (weak_ptr expired) becomes a no-op instead of a
  /// use-after-free. The destructor drains the executor first, so workers
  /// never outlive the object either.
  std::shared_ptr<void> alive_ = std::make_shared<int>(0);
};

}  // namespace desword::protocol
