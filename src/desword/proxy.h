// The DE-Sword query proxy (e.g. the FDA).
//
// Responsibilities (§II-C):
//   * serve ps to initial participants and store submitted POC lists,
//     maintaining a POC-queue per initial participant (§IV-D);
//   * drive good/bad product path information queries hop by hop,
//     verifying every response against the POC list;
//   * maintain public reputation scores under the double-edged award
//     strategy.
//
// Each query is an event-driven session state machine over an abstract
// `net::Transport`: every request the session sends arms a retransmission
// timer; a matching response cancels it; when the timer fires past
// `max_retries`, the peer is deemed unresponsive. The proxy therefore
// runs identically over the in-process simulator (`SimTransport`) and a
// real TCP event loop (`SocketTransport`) — `pump()`/`run_query()` remain
// as synchronous conveniences that drive the transport until every
// in-flight session resolves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "desword/crs_cache.h"
#include "desword/messages.h"
#include "desword/query.h"
#include "desword/query_scheduler.h"
#include "desword/reputation.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "poc/poc_list.h"
#include "zkedb/verify_cache.h"

namespace desword::protocol {

/// How the proxy verifies proofs: worker fan-out and the verification
/// cache. Grouped so deployments tune one knob cluster (ProxyConfig::verify);
/// none of these fields ever changes verdicts. Query proofs are always
/// verified with the batched multi-exponentiation engine.
struct VerifyPolicy {
  /// Crypto worker threads. 0 (the default) keeps every verification
  /// inline in the transport loop — byte-identical to the historical
  /// single-threaded behavior. With workers, `scheme().verify` runs on the
  /// executor and its verdict is posted back to the loop thread.
  unsigned worker_threads = 0;
  /// Memoize accepted hop verdicts (the hop memo), keyed on digest(task ‖
  /// participant ‖ product ‖ POC commitment ‖ full proof bytes ‖ flavour).
  /// See zkedb/verify_cache.h for why this is sound.
  bool cache = true;
  /// Exact entry bound of the hop memo (one entry per accepted hop).
  std::size_t cache_capacity = 4096;
};

struct ProxyConfig {
  zkedb::EdbConfig edb;
  ScorePolicy scores{};
  int max_retries = 3;
  /// Base retransmission timeout in transport clock units (simulated ticks
  /// for SimTransport — where any value behaves the same, timers fire at
  /// quiescence — and milliseconds for SocketTransport). The first
  /// retransmission waits exactly this long.
  std::uint64_t retransmit_base = 250;
  /// Upper bound on a backed-off retransmission delay. Clamped up to
  /// `retransmit_base` when set lower.
  std::uint64_t retransmit_cap = 4000;
  /// Exponential backoff growth per retry. Each retry draws a delay
  /// uniformly from [base, min(cap, previous * backoff_factor)] —
  /// "decorrelated jitter", so a fleet of sessions stalled by the same
  /// outage does not retransmit in lockstep. <= 1.0 disables backoff
  /// (every retry waits exactly `retransmit_base`).
  double backoff_factor = 2.0;
  /// Seed for the jitter DRBG: runs with equal seeds draw equal delays, so
  /// chaos tests replay bit-identically.
  std::uint64_t backoff_seed = 0x5eedull;
  /// End-to-end budget per query, in transport clock units (0 = none).
  /// Checked whenever a stalled session regains control (retransmission
  /// fire, scheduler admission): past the budget the session force-
  /// finishes incomplete — `kNoResponse` violation against the pending
  /// peer, reputation penalty, `deadline_exceeded` trace span — instead of
  /// walking further hops or burning more retries. Detection granularity
  /// is therefore one retransmission delay, bounded by `retransmit_cap`.
  std::uint64_t query_deadline = 0;
  /// Bound on the reputation ledger's retained event history (ring buffer;
  /// 0 = unbounded). Scores are never affected, only the audit trail depth.
  std::size_t reputation_history_cap = ReputationLedger::kDefaultHistoryCap;
  /// Verification policy: worker fan-out, cache knobs. Verdicts
  /// — and thus reputation penalties — are identical under every setting.
  VerifyPolicy verify{};
  /// Query sessions allowed to drive the transport at once; further
  /// `begin_query` calls queue in the scheduler until a slot frees
  /// (0 is treated as 1).
  std::size_t max_concurrent_queries = 8;
};

/// Collaborator handles of a Proxy, gathered so the constructor surface
/// stays one signature as dependencies accrue. The proxy derives its CRS
/// from ProxyConfig::edb and adopts the cache's canonical instance.
struct ProxyDeps {
  CrsCachePtr crs_cache;
};

class Proxy {
 public:
  Proxy(net::NodeId id, net::Transport& transport, ProxyDeps deps,
        ProxyConfig config);
  ~Proxy();

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  const net::NodeId& id() const { return id_; }
  const zkedb::EdbCrsPtr& crs() const { return crs_; }
  net::Transport& transport() { return transport_; }

  // -- Distribution-phase state ------------------------------------------

  /// POC list submitted for a task, if any.
  const poc::PocList* task_list(const std::string& task_id) const;

  struct QueueEntry {
    std::string task_id;
    poc::Poc poc;  // the initial participant's POC for that task
  };
  /// POC-queue of an initial participant (§IV-D).
  std::vector<QueueEntry> poc_queue(const std::string& initial) const;

  // -- Query phase ---------------------------------------------------------

  /// Starts an asynchronous product path information query. If `task_hint`
  /// is set the proxy walks that task's POC list directly; otherwise it
  /// first identifies the right task by scanning initial participants'
  /// POC-queues (§IV-D).
  std::uint64_t begin_query(const supplychain::ProductId& product,
                            ProductQuality quality,
                            std::optional<std::string> task_hint = {});

  /// Drives the transport until every in-flight query resolves
  /// (retransmissions and no-response aborts happen via session timers).
  void pump();

  /// Synchronous convenience: begin + pump + fetch.
  QueryOutcome run_query(const supplychain::ProductId& product,
                         ProductQuality quality,
                         std::optional<std::string> task_hint = {});

  /// One entry of a `run_queries` batch.
  struct QuerySpec {
    supplychain::ProductId product;
    ProductQuality quality = ProductQuality::kGood;
    std::optional<std::string> task_hint;
  };

  /// Synchronous batch convenience: begins every query (the scheduler
  /// admits up to `max_concurrent_queries` at a time, queueing the rest),
  /// pumps until all resolve, and returns the outcomes in input order.
  std::vector<QueryOutcome> run_queries(const std::vector<QuerySpec>& specs);
  std::vector<QueryOutcome> run_queries(
      const std::vector<supplychain::ProductId>& products,
      ProductQuality quality, std::optional<std::string> task_hint = {});

  /// The crypto executor (null when `worker_threads == 0`). Scenarios hand
  /// this to participants so one worker pool serves the whole deployment.
  const std::shared_ptr<Executor>& executor() const { return executor_; }

  /// The hop memo in use (null when caching is disabled).
  const zkedb::VerifyCache* verify_cache() const { return verify_cache_.get(); }

  /// Outcome of a finished query (nullptr while in flight / unknown).
  const QueryOutcome* outcome(std::uint64_t query_id) const;

  /// Query sessions begun but not yet finished (queued ones included).
  /// O(1): a count kept by begin_query and finish, not a session scan.
  std::size_t active_sessions() const { return active_sessions_; }

  /// Invoked (synchronously, from transport context) whenever a query
  /// session finishes — the hook a server wrapper uses to answer remote
  /// clients.
  void set_completion_callback(std::function<void(const QueryOutcome&)> cb) {
    completion_cb_ = std::move(cb);
  }

  /// Receives envelopes whose type the proxy itself does not understand
  /// (admin/client extensions layered on top of the core protocol).
  void set_fallback_handler(net::Handler handler) {
    fallback_ = std::move(handler);
  }

  /// One audit-log entry per protocol message of a query session.
  struct TranscriptEntry {
    std::uint64_t at = 0;  // transport time
    bool outgoing = false;  // proxy -> participant?
    net::NodeId peer;
    std::string type;
    std::size_t bytes = 0;
  };

  /// Full message transcript of a query (nullptr if unknown). Useful for
  /// audits and for attributing wire costs (Table II end-to-end).
  const std::vector<TranscriptEntry>* transcript(std::uint64_t query_id) const;

  /// Per-query observability trace: one timestamped span per protocol step
  /// (request sent, response received, verify outcome, retransmit,
  /// violation, finish). nullptr if the query id is unknown. Export one
  /// trace as a JSON line via `obs::QueryTrace::to_json_line()`.
  const obs::QueryTrace* query_trace(std::uint64_t query_id) const;

  /// Observability snapshot: process-wide metrics registry, current
  /// reputation scores, and every query trace. This is what `desword
  /// stats` and the `--stats-json` flags surface.
  std::string export_stats_json() const;

  // -- Reputation -----------------------------------------------------------

  double reputation(const std::string& participant) const;
  std::map<std::string, double> reputation_snapshot() const;
  const ReputationLedger& ledger() const { return ledger_; }

  /// Machine-readable audit report: public reputation board, per-event
  /// ledger history, and a summary of every finished query (path,
  /// violations, completeness). This is the artifact a regulator
  /// publishes; customers "publicly access" the scores through it (§II-C).
  std::string export_report_json() const;

 private:
  enum class Phase : std::uint8_t { kInitialScan, kWalk, kReveal, kNextHop,
                                    kDone };

  struct Candidate {
    std::string participant;
    std::string task_id;
    poc::Poc poc;
  };

  /// How a session ends: the violation to book, if any, then finish.
  struct SessionEnd {
    std::optional<Violation> blame;
    bool complete = false;
  };

  struct Session;
  /// Continuation of a hop verdict; always runs on the loop thread.
  using HopDone = std::function<void(Session&, const zkedb::VerifyOutcome&)>;

  /// One step of a session the walk has dispatched but not yet committed
  /// (DESIGN.md §9, pipelined walk): a hop verdict, or a violation found
  /// on the walk's leading edge. Entries commit strictly in `seq` order.
  struct OwedVerdict {
    std::uint64_t seq = 0;
    HopDone done;
    /// Set once the verdict is known; the entry commits when it reaches
    /// the front of the session's FIFO.
    std::optional<zkedb::VerifyOutcome> outcome;
  };

  struct Session {
    QueryOutcome outcome;
    Phase phase = Phase::kInitialScan;
    // Initial-task identification.
    std::vector<Candidate> candidates;
    std::size_t candidate_idx = 0;
    // Walk state. The list is held by shared_ptr so an in-flight session
    // keeps walking the list it started under even if a fresh POC-list
    // submission replaces the task's list mid-query.
    std::shared_ptr<const poc::PocList> list;
    std::string current;
    poc::Poc current_poc;
    std::string previous;  // referrer of `current` (for misdirection blame)
    std::vector<std::string> visited;
    std::vector<TranscriptEntry> transcript;
    obs::QueryTrace trace;
    // Retransmission bookkeeping.
    net::NodeId last_to;
    std::string last_type;
    Bytes last_payload;
    int retries = 0;
    bool awaiting = false;
    net::Transport::TimerId retrans_timer = 0;
    /// Delay the armed `retrans_timer` used (decorrelated-jitter state:
    /// the next backed-off delay is drawn relative to this one).
    std::uint64_t backoff = 0;
    /// Absolute transport time the query budget runs out (0 = none).
    std::uint64_t deadline_at = 0;
    /// Dispatched steps not yet committed, in dispatch order. Verdicts
    /// may resolve in any order; only the front ever commits.
    std::deque<OwedVerdict> owed;
    std::uint64_t next_seq = 0;
    /// A terminal decision the walk reached while verdicts were owed;
    /// applied once `owed` drains, dropped if one of them rejects.
    std::optional<SessionEnd> deferred;
  };

  void handle(const net::Envelope& env);
  void on_ps_request(const net::Envelope& env, const PsRequest& m);
  void on_poc_list_submit(const net::Envelope& env, const PocListSubmit& m);
  void on_query_response(const net::Envelope& env, const QueryResponse& m);
  void on_reveal_response(const net::Envelope& env, const RevealResponse& m);
  void on_next_hop_response(const net::Envelope& env, const NextHopResponse& m);
  /// A walk-phase query response, already settled and recorded.
  void on_walk_response(Session& s, const QueryResponse& m);

  void send_tracked(Session& s, const net::NodeId& to, const std::string& type,
                    Bytes payload);
  /// Response accepted: stop awaiting and disarm the session's timer.
  void settle(Session& s);
  void arm_retransmit(Session& s);
  void on_retransmit_timeout(std::uint64_t query_id);
  /// True when the session ran out of its `query_deadline` budget; the
  /// session is then force-finished (violation + penalty recorded) and the
  /// caller must stop touching it.
  bool deadline_expired(Session& s);
  void record_incoming(Session& s, const net::Envelope& env);
  void advance_candidate(Session& s);
  void start_walk(Session& s, const Candidate& candidate,
                  const std::optional<zkedb::VerifyOutcome>& pre_verified);
  void query_current(Session& s);
  void request_reveal(Session& s);
  void request_next_hop(Session& s);
  /// Sends the first candidate request of a scheduler-admitted session.
  void launch_query(std::uint64_t query_id);

  /// The only `scheme().verify` call site (handlers stay crypto-free so
  /// they never block the loop — enforced by tools/desword_lint.py).
  /// Worker-safe: const, touching only its arguments and the shared
  /// read-only scheme. An accepted ownership proof carries the recovered
  /// trace da as the outcome's value. Adversarial input (malformed proof
  /// bytes, wrong flavour) yields a rejection, never an exception.
  zkedb::VerifyOutcome check_hop(const poc::Poc& poc,
                                 const supplychain::ProductId& product,
                                 const Bytes& proof_bytes,
                                 bool ownership) const;

  /// The one hop-verification route (loop thread only). Appends an entry
  /// for `done` to the session's owed FIFO; `done` runs when the entry
  /// reaches the front with its verdict (drain_owed). A memo hit (caching
  /// on) appends the entry already resolved. Otherwise the session
  /// registers `(query_id, seq)` under the hop key in `hop_in_flight_`:
  /// an identical in-flight hop just joins as a waiter, the first arrival
  /// dispatches check_hop — synchronously when there is no executor (the
  /// entry resolves in this call, so serial event order stays
  /// byte-identical), else straight onto the executor under the transport
  /// work-accounting bracket — and finish_hop_verify resolves every
  /// waiter's entry.
  void verify_hop(Session& s, const std::string& task_id, poc::Poc poc,
                  Bytes proof_bytes, bool ownership, HopDone done);
  /// A dispatched check's result: the verdict, or the internal failure
  /// that escaped check_hop (rethrown on the loop thread).
  struct HopResult {
    std::optional<zkedb::VerifyOutcome> outcome;
    std::exception_ptr error;
  };
  /// Loop-thread completion of a dispatched check: unregisters `key`
  /// (before anything can throw), stores an accepted verdict when caching
  /// is on, fills each live waiter's entry by `seq` and drains its FIFO
  /// under handle()'s policy — `Error` drops the continuation,
  /// `CheckError` rethrows.
  void finish_hop_verify(const Bytes& key, HopResult result);
  /// Commits the resolved entries at the front of the session's FIFO, in
  /// dispatch order, then applies the deferred decision once none is owed.
  void drain_owed(Session& s);
  /// Books a violation the walk found on its leading edge behind every
  /// verdict still owed, so it lands in hop order and is dropped with the
  /// rest of the walk if one of them rejects.
  void book_in_order(Session& s, const std::string& participant,
                     ViolationType type);

  /// Verifies `s.current`'s ownership proof (a good walk response or a
  /// reveal) and moves the walk on at once: the next-hop claim is checked
  /// against the POC-list edge, not against the proof, so the
  /// next_hop_request goes out while the verdict is still owed.
  void verify_walk_hop(Session& s, Bytes proof, ViolationType on_invalid);
  /// Verdict continuation of verify_walk_hop for the hop it verified (not
  /// `s.current`, which the walk may have advanced): commits the hop, or
  /// books `on_invalid` against it and drops every step past it.
  void commit_walk_hop(Session& s, const std::string& hop,
                       const zkedb::VerifyOutcome& o, ViolationType on_invalid);
  /// Ends the session per `end`; while verdicts are owed, settles it and
  /// defers `end` until they all commit instead.
  void conclude(Session& s, SessionEnd end);

  /// Records the ownership verify span for `hop` and, when accepted, the
  /// recovered trace; returns `check.ok`.
  bool absorb_ownership_result(Session& s, const std::string& hop,
                               const zkedb::VerifyOutcome& check);
  /// Records a verify-outcome span (`kind` = "ownership"/"non_ownership").
  void record_verify(Session& s, const std::string& peer, bool ok,
                     const char* kind);
  void record_violation(Session& s, const std::string& participant,
                        ViolationType type);
  void finish(Session& s, bool complete);
  void apply_scores(Session& s);
  /// Per-session diagnosis for the pump non-convergence error.
  std::string pump_stall_report() const;
  static const char* phase_name(Phase phase);
  static std::string deferred_state(const Session& s);

  poc::PocScheme& scheme() { return *scheme_; }
  const poc::PocScheme& scheme() const { return *scheme_; }

  net::NodeId id_;
  net::Transport& transport_;
  CrsCachePtr crs_cache_;
  ProxyConfig config_;
  zkedb::EdbCrsPtr crs_;
  Bytes ps_bytes_;
  std::unique_ptr<poc::PocScheme> scheme_;
  std::function<void(const QueryOutcome&)> completion_cb_;
  net::Handler fallback_;

  /// task id -> current POC list (shared with in-flight sessions so a
  /// replacement never dangles a walking query).
  std::map<std::string, std::shared_ptr<const poc::PocList>> lists_;
  std::map<std::string, std::vector<QueueEntry>> queues_;  // initial -> queue
  /// task id -> sha256 of the accepted serialized list, for idempotent
  /// resubmission detection (a retransmitted identical submit is a no-op;
  /// different bytes replace the list).
  std::map<std::string, Bytes> list_digests_;

  std::uint64_t next_query_id_ = 1;
  std::map<std::uint64_t, Session> sessions_;
  std::size_t active_sessions_ = 0;  // sessions_ entries not yet kDone
  ReputationLedger ledger_;
  /// Jitter DRBG for backed-off retransmission delays (loop-thread-only,
  /// seeded from `ProxyConfig::backoff_seed` for reproducible runs).
  SimRng backoff_rng_;

  std::shared_ptr<Executor> executor_;  // null = inline verification
  std::unique_ptr<QueryScheduler> scheduler_;
  /// The hop memo (loop-thread only: looked up in verify_hop, stored in
  /// finish_hop_verify). Null = caching off.
  std::unique_ptr<zkedb::VerifyCache> verify_cache_;
  /// Single-flight registry for hop verifications (loop-thread only):
  /// hop key -> sessions awaiting that verdict. The first arrival runs
  /// the check; identical concurrent hops join and are all resolved by
  /// finish_hop_verify (zkedb.cache.joined counts the joiners).
  struct HopWaiter {
    std::uint64_t query_id = 0;
    std::uint64_t seq = 0;  // the session's owed entry for this verdict
  };
  std::map<Bytes, std::vector<HopWaiter>> hop_in_flight_;
  /// Aliveness token for posted verdict completions: one that outlives the
  /// proxy (weak_ptr expired) becomes a no-op instead of a use-after-free.
  /// The destructor drains the executor first, so check tasks never
  /// outlive the object either.
  std::shared_ptr<void> alive_ = std::make_shared<int>(0);
};

}  // namespace desword::protocol
