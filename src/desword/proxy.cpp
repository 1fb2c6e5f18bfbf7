#include "desword/proxy.h"

#include <algorithm>
#include <iterator>

#include "common/error.h"
#include "common/json.h"
#include "crypto/hash.h"
#include "obs/metrics.h"

namespace desword::protocol {

namespace {

obs::Counter& queries_started() {
  static obs::Counter& c = obs::metric("protocol.query.started");
  return c;
}

obs::Counter& queries_completed() {
  static obs::Counter& c = obs::metric("protocol.query.completed");
  return c;
}

obs::Counter& violations_detected() {
  static obs::Counter& c = obs::metric("protocol.violation.detected");
  return c;
}

obs::Counter& retransmits_fired() {
  static obs::Counter& c = obs::metric("net.retransmit.fired");
  return c;
}

obs::Gauge& sessions_active() {
  static obs::Gauge& g = obs::gauge_metric("protocol.sessions.active");
  return g;
}

obs::Counter& pump_stalled() {
  static obs::Counter& c = obs::metric("protocol.pump.stalled");
  return c;
}

obs::Counter& retransmits_refused() {
  static obs::Counter& c = obs::metric("net.retransmit.refused");
  return c;
}

obs::Counter& deadlines_exceeded() {
  static obs::Counter& c = obs::metric("protocol.query.deadline_exceeded");
  return c;
}

obs::Counter& hops_joined() {
  static obs::Counter& c = obs::metric("zkedb.cache.joined");
  return c;
}

obs::Counter& walk_overlapped() {
  static obs::Counter& c = obs::metric("protocol.walk.overlapped");
  return c;
}

obs::Counter& walk_discarded() {
  static obs::Counter& c = obs::metric("protocol.walk.discarded");
  return c;
}

}  // namespace

Proxy::Proxy(net::NodeId id, net::Transport& transport, ProxyDeps deps,
             ProxyConfig config)
    : id_(std::move(id)),
      transport_(transport),
      crs_cache_(std::move(deps.crs_cache)),
      config_(std::move(config)),
      // config_ is initialized before crs_ (declaration order), so the CRS
      // can be derived from it.
      crs_(zkedb::generate_crs(config_.edb)),
      backoff_rng_(config_.backoff_seed) {
  ps_bytes_ = crs_->params().serialize();
  // Adopt the cache's canonical instance: if another in-process node
  // already derived a CRS for the same parameters, share it (and its
  // precomputed power tables) instead of keeping a duplicate alive.
  crs_ = crs_cache_->put(crs_);
  ledger_.set_history_cap(config_.reputation_history_cap);
  const VerifyPolicy& policy = config_.verify;
  if (policy.cache) {
    verify_cache_ =
        std::make_unique<zkedb::VerifyCache>(policy.cache_capacity);
  }
  scheme_ = std::make_unique<poc::PocScheme>(crs_);
  if (policy.worker_threads > 0) {
    obs::install_executor_metrics();
    executor_ = std::make_shared<Executor>(policy.worker_threads);
  }
  scheduler_ = std::make_unique<QueryScheduler>(
      config_.max_concurrent_queries,
      [this](std::uint64_t qid) { launch_query(qid); });
  transport_.register_node(id_,
                           [this](const net::Envelope& env) { handle(env); });
}

Proxy::~Proxy() {
  // Drain before teardown: once the executor's pending count hits zero no
  // check task still runs, so no worker touches `this` or the transport.
  // Verdict completions already posted but never polled expire against the
  // aliveness token.
  if (executor_) executor_->drain();
  for (auto& [qid, s] : sessions_) {
    if (s.retrans_timer != 0) transport_.cancel_timer(s.retrans_timer);
  }
  if (transport_.has_node(id_)) transport_.unregister_node(id_);
}

const poc::PocList* Proxy::task_list(const std::string& task_id) const {
  const auto it = lists_.find(task_id);
  return it == lists_.end() ? nullptr : it->second.get();
}

std::vector<Proxy::QueueEntry> Proxy::poc_queue(
    const std::string& initial) const {
  const auto it = queues_.find(initial);
  return it == queues_.end() ? std::vector<QueueEntry>{} : it->second;
}

void Proxy::handle(const net::Envelope& env) {
  DESWORD_DCHECK_ON_LOOP(transport_);
  try {
    switch (message_type_of(env.type)) {
      case MessageType::kPsRequest:
        on_ps_request(env, PsRequest::deserialize(env.payload));
        break;
      case MessageType::kPocListSubmit:
        on_poc_list_submit(env, PocListSubmit::deserialize(env.payload));
        break;
      case MessageType::kQueryResponse:
        on_query_response(env, QueryResponse::deserialize(env.payload));
        break;
      case MessageType::kRevealResponse:
        on_reveal_response(env, RevealResponse::deserialize(env.payload));
        break;
      case MessageType::kNextHopResponse:
        on_next_hop_response(env, NextHopResponse::deserialize(env.payload));
        break;
      case MessageType::kPsResponse:
      case MessageType::kPsBroadcast:
      case MessageType::kPocToParent:
      case MessageType::kPocPairsToInitial:
      case MessageType::kQueryRequest:
      case MessageType::kRevealRequest:
      case MessageType::kNextHopRequest:
      case MessageType::kClientQueryRequest:
      case MessageType::kClientQueryResponse:
      case MessageType::kStatusRequest:
      case MessageType::kStatusResponse:
      case MessageType::kClientReportRequest:
      case MessageType::kAdminShutdown:
      case MessageType::kStatsRequest:
      case MessageType::kUnknown:
        // Not a proxy-bound core message: let the embedding server (CLI
        // daemon) interpret client/admin extensions; otherwise drop.
        if (fallback_) fallback_(env);
        break;
    }
  } catch (const CheckError&) {
    // Internal invariant violation: a DE-Sword bug, never input-dependent.
    // Fail loudly instead of limping on with corrupt state.
    throw;
  } catch (const Error&) {
    // Any other failure while decoding or absorbing the message means the
    // bytes were adversarial or corrupt (malformed framing, conflicting
    // POCs, unknown groups, ...): drop it. Retransmission or the
    // no-response path will deal with the sender.
  }
}

void Proxy::on_ps_request(const net::Envelope& env, const PsRequest& m) {
  transport_.send(id_, env.from, msg::kPsResponse,
                  PsResponse{m.task_id, ps_bytes_}.serialize());
}

void Proxy::on_poc_list_submit(const net::Envelope& env,
                               const PocListSubmit& m) {
  (void)env;
  const Bytes digest = sha256(m.poc_list);
  const auto prev_digest = list_digests_.find(m.task_id);
  if (prev_digest != list_digests_.end() && prev_digest->second == digest) {
    return;  // retransmitted identical submission: idempotent no-op
  }
  poc::PocList list = poc::PocList::deserialize(m.poc_list);
  if (list.ps() != ps_bytes_) {
    // POCs under an unknown CRS are unverifiable; reject the task.
    return;
  }
  if (prev_digest != list_digests_.end()) {
    // Replacement: a new distribution round for this task. Retire the old
    // list (in-flight sessions keep their shared_ptr and finish under the
    // list they started with) and flush its queue entries. The hop memo
    // needs no flush: its key binds each hop's POC commitment, so a
    // re-committed participant's hops get new keys, and an unchanged
    // commitment keeps its verdict (DESIGN.md §12).
    lists_.erase(m.task_id);
    for (auto it = queues_.begin(); it != queues_.end();) {
      auto& queue = it->second;
      std::erase_if(queue, [&](const QueueEntry& e) {
        return e.task_id == m.task_id;
      });
      it = queue.empty() ? queues_.erase(it) : std::next(it);
    }
  }
  const auto [it, inserted] = lists_.emplace(
      m.task_id, std::make_shared<const poc::PocList>(std::move(list)));
  list_digests_[m.task_id] = digest;
  for (const std::string& initial : it->second->initial_participants()) {
    const poc::Poc* poc = it->second->find(initial);
    queues_[initial].push_back(QueueEntry{m.task_id, *poc});
  }
}

// ---------------------------------------------------------------------------
// Query driving
// ---------------------------------------------------------------------------

std::uint64_t Proxy::begin_query(const supplychain::ProductId& product,
                                 ProductQuality quality,
                                 std::optional<std::string> task_hint) {
  DESWORD_DCHECK_ON_LOOP(transport_);
  // Reject an unknown hint before any session exists: one that can never
  // finish would keep the active count, and so pump(), up forever.
  const poc::PocList* hinted = nullptr;
  if (task_hint.has_value()) {
    hinted = task_list(*task_hint);
    if (hinted == nullptr) {
      throw ProtocolError("unknown task: " + *task_hint);
    }
  }
  const std::uint64_t query_id = next_query_id_++;
  Session& s = sessions_[query_id];
  s.outcome.query_id = query_id;
  s.outcome.product = product;
  s.outcome.quality = quality;
  s.trace.set_query_id(query_id);
  if (config_.query_deadline > 0) {
    // The budget covers the whole query — scheduler queue time included:
    // a verdict owed to a customer is late no matter where the time went.
    s.deadline_at = transport_.now() + config_.query_deadline;
  }
  queries_started().add();
  sessions_active().add(1);
  ++active_sessions_;

  if (hinted != nullptr) {
    for (const std::string& initial : hinted->initial_participants()) {
      s.candidates.push_back(
          Candidate{initial, *task_hint, *hinted->find(initial)});
    }
  } else {
    for (const auto& [initial, queue] : queues_) {
      for (const QueueEntry& entry : queue) {
        s.candidates.push_back(Candidate{initial, entry.task_id, entry.poc});
      }
    }
  }

  if (s.candidates.empty()) {
    finish(s, /*complete=*/false);
    return query_id;
  }
  if (!scheduler_->submit(query_id)) {
    s.trace.record(transport_.now(), id_, obs::span::kQueued,
                   "concurrency_limit");
  }
  return query_id;
}

void Proxy::launch_query(std::uint64_t query_id) {
  DESWORD_DCHECK_ON_LOOP(transport_);
  const auto it = sessions_.find(query_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  if (s.phase == Phase::kDone) return;
  if (deadline_expired(s)) return;  // budget burned while queued
  s.trace.record(transport_.now(), id_, obs::span::kAdmitted, "");
  const Candidate& cand = s.candidates[s.candidate_idx];
  send_tracked(s, cand.participant, msg::kQueryRequest,
               QueryRequest{query_id, s.outcome.product, s.outcome.quality,
                            cand.poc.serialize()}
                   .serialize());
}

void Proxy::send_tracked(Session& s, const net::NodeId& to,
                         const std::string& type, Bytes payload) {
  s.last_to = to;
  s.last_type = type;
  s.last_payload = payload;
  s.retries = 0;
  s.backoff = 0;  // fresh request: backoff restarts from the base delay
  s.awaiting = true;
  s.transcript.push_back(
      TranscriptEntry{transport_.now(), true, to, type, payload.size()});
  s.trace.record(transport_.now(), to, obs::span::kRequestSent, type);
  transport_.send(id_, to, type, std::move(payload));
  arm_retransmit(s);
}

void Proxy::settle(Session& s) {
  s.awaiting = false;
  if (s.retrans_timer != 0) {
    transport_.cancel_timer(s.retrans_timer);
    s.retrans_timer = 0;
  }
}

void Proxy::arm_retransmit(Session& s) {
  if (s.retrans_timer != 0) transport_.cancel_timer(s.retrans_timer);
  // Decorrelated-jitter exponential backoff: the first wait is exactly the
  // base; each retry then draws uniformly from [base, min(cap, previous *
  // backoff_factor)], so repeated stalls spread out instead of
  // retransmitting in lockstep. Values are irrelevant under SimTransport
  // (timers fire at quiescence), so simulated verdicts never depend on the
  // backoff schedule.
  const std::uint64_t base = config_.retransmit_base;
  const std::uint64_t cap = std::max(base, config_.retransmit_cap);
  std::uint64_t delay = base;
  if (s.backoff > 0 && config_.backoff_factor > 1.0) {
    const double grown =
        static_cast<double>(s.backoff) * config_.backoff_factor;
    const std::uint64_t hi =
        grown >= static_cast<double>(cap) ? cap
                                          : static_cast<std::uint64_t>(grown);
    if (hi > base) delay = base + backoff_rng_.below(hi - base + 1);
  }
  s.backoff = delay;
  const std::uint64_t query_id = s.outcome.query_id;
  s.retrans_timer = transport_.set_timer(
      delay, [this, query_id] { on_retransmit_timeout(query_id); });
}

bool Proxy::deadline_expired(Session& s) {
  if (s.deadline_at == 0 || transport_.now() < s.deadline_at) return false;
  deadlines_exceeded().add();
  s.trace.record(transport_.now(), s.last_to.empty() ? id_ : s.last_to,
                 obs::span::kDeadlineExceeded, "query_deadline");
  // Graceful degradation: the budget is gone, so the verdict is "the
  // pending peer never answered in time" — violation booked, reputation
  // penalized via the normal finish path — rather than an open session.
  SessionEnd end;
  if (s.awaiting && !s.last_to.empty()) {
    end.blame = Violation{s.last_to, ViolationType::kNoResponse};
  }
  conclude(s, std::move(end));
  return true;
}

void Proxy::on_retransmit_timeout(std::uint64_t query_id) {
  DESWORD_DCHECK_ON_LOOP(transport_);
  const auto it = sessions_.find(query_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  s.retrans_timer = 0;
  if (s.phase == Phase::kDone || !s.awaiting) return;
  if (deadline_expired(s)) return;
  while (s.retries < config_.max_retries) {
    ++s.retries;
    // Retransmissions do not get transcript entries: the transcript audits
    // the logical exchange, LinkStats count the physical bytes. The query
    // trace records them — it audits what the session actually did.
    retransmits_fired().add();
    s.trace.record(transport_.now(), s.last_to, obs::span::kRetransmit,
                   s.last_type);
    if (transport_.send(id_, s.last_to, s.last_type, s.last_payload)) {
      arm_retransmit(s);
      return;
    }
    // The transport KNOWS the peer is unreachable (deregistered node,
    // refused redial after a POLLERR/HUP close): burning a full timeout
    // per attempt would stretch a dead peer's detection to max_retries
    // timeouts. Charge the retry immediately and try again now.
    retransmits_refused().add();
  }
  if (s.phase == Phase::kInitialScan) {
    record_violation(s, s.last_to, ViolationType::kNoResponse);
    advance_candidate(s);
  } else {
    conclude(s, SessionEnd{.blame = Violation{s.last_to,
                                              ViolationType::kNoResponse}});
  }
}

void Proxy::record_incoming(Session& s, const net::Envelope& env) {
  s.transcript.push_back(TranscriptEntry{transport_.now(), false, env.from,
                                         env.type, env.payload.size()});
  s.trace.record(transport_.now(), env.from, obs::span::kResponseReceived,
                 env.type);
}

const std::vector<Proxy::TranscriptEntry>* Proxy::transcript(
    std::uint64_t query_id) const {
  const auto it = sessions_.find(query_id);
  return it == sessions_.end() ? nullptr : &it->second.transcript;
}

const obs::QueryTrace* Proxy::query_trace(std::uint64_t query_id) const {
  const auto it = sessions_.find(query_id);
  return it == sessions_.end() ? nullptr : &it->second.trace;
}

void Proxy::advance_candidate(Session& s) {
  ++s.candidate_idx;
  if (s.candidate_idx >= s.candidates.size()) {
    finish(s, /*complete=*/false);
    return;
  }
  const Candidate& cand = s.candidates[s.candidate_idx];
  send_tracked(s, cand.participant, msg::kQueryRequest,
               QueryRequest{s.outcome.query_id, s.outcome.product,
                            s.outcome.quality, cand.poc.serialize()}
                   .serialize());
}

void Proxy::start_walk(
    Session& s, const Candidate& candidate,
    const std::optional<zkedb::VerifyOutcome>& pre_verified) {
  const auto it = lists_.find(candidate.task_id);
  if (it == lists_.end()) {
    finish(s, false);
    return;
  }
  s.list = it->second;
  s.outcome.task_id = candidate.task_id;
  s.current = candidate.participant;
  s.current_poc = candidate.poc;
  s.previous.clear();
  s.visited.push_back(s.current);

  if (pre_verified.has_value()) {
    // The initial scan already verified this hop's ownership proof once;
    // absorbing the cached verdict records the hop's single verify span.
    if (!absorb_ownership_result(s, s.current, *pre_verified)) {
      // Should not happen: the caller checked validity before identifying.
      finish(s, false);
      return;
    }
    request_next_hop(s);
  } else {
    request_reveal(s);
  }
}

void Proxy::query_current(Session& s) {
  s.phase = Phase::kWalk;
  send_tracked(s, s.current, msg::kQueryRequest,
               QueryRequest{s.outcome.query_id, s.outcome.product,
                            s.outcome.quality, s.current_poc.serialize()}
                   .serialize());
}

void Proxy::request_reveal(Session& s) {
  s.phase = Phase::kReveal;
  send_tracked(s, s.current, msg::kRevealRequest,
               RevealRequest{s.outcome.query_id, s.outcome.product,
                             s.current_poc.serialize()}
                   .serialize());
}

void Proxy::request_next_hop(Session& s) {
  s.phase = Phase::kNextHop;
  send_tracked(s, s.current, msg::kNextHopRequest,
               NextHopRequest{s.outcome.query_id, s.outcome.product}
                   .serialize());
}

void Proxy::record_verify(Session& s, const std::string& peer, bool ok,
                          const char* kind) {
  s.trace.record(transport_.now(), peer,
                 ok ? obs::span::kVerifyOk : obs::span::kVerifyFail, kind);
}

zkedb::VerifyOutcome Proxy::check_hop(const poc::Poc& poc,
                                      const supplychain::ProductId& product,
                                      const Bytes& proof_bytes,
                                      bool ownership) const {
  try {
    const poc::PocProof proof = poc::PocProof::deserialize(proof_bytes);
    if (proof.ownership != ownership) return zkedb::VerifyOutcome::reject();
    poc::PocVerifyResult result = scheme().verify(poc, product, proof);
    if (ownership && result.verdict == poc::PocVerdict::kTrace) {
      return zkedb::VerifyOutcome::accept_value(std::move(*result.trace_info));
    }
    if (!ownership && result.verdict == poc::PocVerdict::kValid) {
      return zkedb::VerifyOutcome::accept();
    }
  } catch (const Error&) {
    // Malformed proof bytes: a rejection like any other invalid proof.
  }
  return zkedb::VerifyOutcome::reject();
}

bool Proxy::absorb_ownership_result(Session& s, const std::string& hop,
                                    const zkedb::VerifyOutcome& check) {
  record_verify(s, hop, check.ok, "ownership");
  if (!check.ok) return false;
  RecoveredTrace trace;
  trace.da = *check;
  try {
    trace.info = supplychain::TraceInfo::deserialize(trace.da);
  } catch (const Error&) {
    // Verifiably committed, but not a decodable TraceInfo.
  }
  s.outcome.path.push_back(hop);
  s.outcome.traces[hop] = std::move(trace);
  return true;
}

void Proxy::verify_hop(Session& s, const std::string& task_id, poc::Poc poc,
                       Bytes proof_bytes, bool ownership, HopDone done) {
  DESWORD_DCHECK_ON_LOOP(transport_);
  const supplychain::ProductId product = s.outcome.product;
  const std::uint64_t seq = s.next_seq++;
  s.owed.push_back(OwedVerdict{seq, std::move(done), std::nullopt});
  // The key binds every input of check_hop — the POC commitment, product,
  // FULL proof bytes and flavour — so a tampered proof or a re-committed
  // POC can never alias a cached acceptance.
  Bytes key = zkedb::VerifyCache::hop_key(
      task_id, poc.participant, product, poc.commitment, proof_bytes,
      ownership ? "ownership" : "non_ownership");
  if (verify_cache_) {
    if (const auto hit = verify_cache_->lookup(key)) {
      // Handler context: handle()'s exception policy covers the drain.
      s.owed.back().outcome = *hit;
      drain_owed(s);
      return;
    }
  }

  // Single-flight: the first arrival for this key dispatches the check;
  // identical concurrent hops (other sessions racing the same proof bytes)
  // just enqueue a waiter — one multi-exp, N verdict deliveries, mirroring
  // the participant's reply-cache join.
  const auto [it, inserted] = hop_in_flight_.try_emplace(key);
  it->second.push_back(HopWaiter{s.outcome.query_id, seq});
  if (!inserted) {
    hops_joined().add();
    return;
  }
  // Worker-safe: by-value captures plus the shared read-only scheme.
  // check_hop swallows adversarial Errors itself; anything escaping is an
  // internal invariant failure, carried to the loop thread and rethrown.
  auto check = [this, poc = std::move(poc), product,
                proof_bytes = std::move(proof_bytes), ownership] {
    HopResult result;
    try {
      result.outcome = check_hop(poc, product, proof_bytes, ownership);
    } catch (...) {
      result.error = std::current_exception();
    }
    return result;
  };

  if (!executor_) {
    // Inline: complete in this call stack, so the serial event order is
    // byte-identical to a synchronous verify.
    finish_hop_verify(key, check());
    return;
  }
  // Work-accounting bracket: add_work() here on the loop thread; the
  // worker posts the verdict completion BEFORE remove_work(), so the loop
  // never observes "no work pending" while a verdict is owed (SimTransport
  // would otherwise fire stall-scan retransmission timers against a
  // verifier that is merely busy, not silent). check_hop is pure, so a
  // session's checks run concurrently; drain_owed restores hop order.
  transport_.add_work();
  std::weak_ptr<void> token = alive_;
  executor_->post([this, token, key = std::move(key),
                   check = std::move(check)]() mutable {
    // Worker context: everything loop-owned (sessions_, the single-flight
    // registry, timers, sends) stays out of this body — the verdict
    // travels back through transport_.post below.
    HopResult result = check();
    transport_.post([this, token, key = std::move(key),
                     result = std::move(result)]() mutable {
      if (token.expired()) return;
      finish_hop_verify(key, std::move(result));
    });
    transport_.remove_work();
  });
}

void Proxy::finish_hop_verify(const Bytes& key, HopResult result) {
  DESWORD_DCHECK_ON_LOOP(transport_);
  // Unregister before anything can throw: a stale key would make later
  // identical hops join a verdict that never comes.
  auto node = hop_in_flight_.extract(key);
  if (result.error) std::rethrow_exception(result.error);
  const zkedb::VerifyOutcome& o = *result.outcome;
  if (verify_cache_) verify_cache_->store(key, o);
  if (node.empty()) return;
  for (const HopWaiter& w : node.mapped()) {
    const auto it = sessions_.find(w.query_id);
    if (it == sessions_.end()) continue;
    Session& ws = it->second;
    // The entry is gone when an earlier verdict rejected and dropped it.
    const auto entry =
        std::find_if(ws.owed.begin(), ws.owed.end(),
                     [&](const OwedVerdict& v) { return v.seq == w.seq; });
    if (ws.phase == Phase::kDone || entry == ws.owed.end()) continue;
    entry->outcome = o;
    try {
      drain_owed(ws);
    } catch (const CheckError&) {
      throw;  // internal bug: fail loudly, exactly like handle()
    } catch (const Error&) {
      // Same policy as handle(): adversarial input aborts this
      // continuation; the session's timers recover.
    }
  }
}

void Proxy::drain_owed(Session& s) {
  while (!s.owed.empty() && s.owed.front().outcome) {
    OwedVerdict v = std::move(s.owed.front());
    s.owed.pop_front();
    v.done(s, *v.outcome);
    if (s.phase == Phase::kDone) return;
  }
  if (s.owed.empty() && s.deferred) {
    SessionEnd end = std::move(*s.deferred);
    s.deferred.reset();
    conclude(s, std::move(end));
  }
}

void Proxy::book_in_order(Session& s, const std::string& participant,
                          ViolationType type) {
  s.owed.push_back(OwedVerdict{
      s.next_seq++,
      [this, participant, type](Session& s, const zkedb::VerifyOutcome&) {
        record_violation(s, participant, type);
      },
      zkedb::VerifyOutcome::accept()});
  drain_owed(s);
}

void Proxy::verify_walk_hop(Session& s, Bytes proof,
                            ViolationType on_invalid) {
  verify_hop(s, s.outcome.task_id, s.current_poc, std::move(proof),
             /*ownership=*/true,
             [this, hop = s.current, on_invalid](
                 Session& s, const zkedb::VerifyOutcome& o) {
               commit_walk_hop(s, hop, o, on_invalid);
             });
  if (s.phase == Phase::kDone) return;  // rejected within this call
  if (!s.owed.empty()) walk_overlapped().add();
  request_next_hop(s);
}

void Proxy::commit_walk_hop(Session& s, const std::string& hop,
                            const zkedb::VerifyOutcome& o,
                            ViolationType on_invalid) {
  if (absorb_ownership_result(s, hop, o)) return;
  // Every step past this hop is one the serial walk never reaches: the
  // verdicts behind it, the request in flight, a deferred decision.
  const std::size_t ahead =
      s.owed.size() + (s.awaiting ? 1 : 0) + (s.deferred ? 1 : 0);
  if (ahead > 0) walk_discarded().add(ahead);
  record_violation(s, hop, on_invalid);
  finish(s, false);  // drops them
}

void Proxy::record_violation(Session& s, const std::string& participant,
                             ViolationType type) {
  s.outcome.violations.push_back(Violation{participant, type});
  violations_detected().add();
  s.trace.record(transport_.now(), participant, obs::span::kViolation,
                 to_string(type));
}

void Proxy::conclude(Session& s, SessionEnd end) {
  if (!s.owed.empty()) {
    // Reached ahead of owed verdicts: the serial walk gets here only if
    // they all accept, so hold the decision until they commit.
    settle(s);
    s.deferred = std::move(end);
    return;
  }
  if (end.blame) record_violation(s, end.blame->participant, end.blame->type);
  finish(s, end.complete);
}

void Proxy::finish(Session& s, bool complete) {
  if (s.phase == Phase::kDone) return;
  s.phase = Phase::kDone;
  settle(s);
  s.owed.clear();
  s.deferred.reset();
  s.outcome.complete = complete;
  s.trace.record(transport_.now(), id_, obs::span::kFinished,
                 complete ? "complete" : "incomplete");
  queries_completed().add();
  sessions_active().add(-1);
  --active_sessions_;
  apply_scores(s);
  if (completion_cb_) completion_cb_(s.outcome);
  // Free the concurrency slot last: this may synchronously launch (and
  // even resolve) the next queued query.
  if (scheduler_) scheduler_->finished(s.outcome.query_id);
}

void Proxy::apply_scores(Session& s) {
  const std::uint64_t qid = s.outcome.query_id;
  if (s.outcome.quality == ProductQuality::kGood) {
    for (const std::string& p : s.outcome.path) {
      ledger_.apply(p, config_.scores.positive, "good-product-query", qid);
    }
  } else {
    for (std::size_t i = 0; i < s.outcome.path.size(); ++i) {
      double delta = -config_.scores.negative;
      if (config_.scores.weight_by_responsibility && i == 0) {
        delta *= config_.scores.source_multiplier;
      }
      ledger_.apply(s.outcome.path[i], delta, "bad-product-query", qid);
    }
  }
  for (const Violation& v : s.outcome.violations) {
    ledger_.apply(v.participant, -config_.scores.violation_penalty,
                  "violation:" + to_string(v.type), qid);
  }
}

void Proxy::on_query_response(const net::Envelope& env,
                              const QueryResponse& m) {
  const auto it = sessions_.find(m.query_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  if (s.phase == Phase::kDone || !s.awaiting) return;

  if (s.phase == Phase::kInitialScan) {
    if (s.candidate_idx >= s.candidates.size()) return;
    const Candidate cand = s.candidates[s.candidate_idx];
    if (env.from != cand.participant) return;  // stray
    settle(s);
    record_incoming(s, env);
    s.current_poc = cand.poc;  // verification target during the scan

    if (s.outcome.quality == ProductQuality::kGood) {
      if (m.claims_processing && m.proof.has_value()) {
        // One verify identifies the hop AND yields its recovered trace:
        // start_walk absorbs the cached verdict, recording the single
        // verify_ok span for this hop.
        verify_hop(s, cand.task_id, cand.poc, *m.proof, /*ownership=*/true,
                   [this, cand](Session& s, const zkedb::VerifyOutcome& o) {
                     if (o.ok) {
                       start_walk(s, cand, o);
                     } else {
                       record_verify(s, cand.participant, false, "ownership");
                       record_violation(
                           s, cand.participant,
                           ViolationType::kClaimProcessingInvalidProof);
                       advance_candidate(s);
                     }
                   });
      } else if (m.claims_processing) {
        record_violation(s, cand.participant,
                         ViolationType::kClaimProcessingInvalidProof);
        advance_candidate(s);
      } else {
        advance_candidate(s);
      }
      return;
    }

    // Bad product scan: demand a valid non-ownership proof per queue entry.
    if (!m.claims_processing && m.proof.has_value()) {
      verify_hop(s, cand.task_id, cand.poc, *m.proof, /*ownership=*/false,
                 [this, cand](Session& s, const zkedb::VerifyOutcome& o) {
                   record_verify(s, cand.participant, o.ok, "non_ownership");
                   if (o.ok) {
                     advance_candidate(s);
                   } else {
                     record_violation(
                         s, cand.participant,
                         ViolationType::kClaimNonProcessingInvalidProof);
                     start_walk(s, cand, std::nullopt);
                   }
                 });
    } else if (!m.claims_processing) {
      record_violation(s, cand.participant,
                       ViolationType::kClaimNonProcessingInvalidProof);
      start_walk(s, cand, std::nullopt);
    } else {
      // Admits processing: identified; proceed to the reveal round.
      start_walk(s, cand, std::nullopt);
    }
    return;
  }

  if (s.phase != Phase::kWalk || env.from != s.current) return;
  settle(s);
  record_incoming(s, env);
  on_walk_response(s, m);
}

void Proxy::on_walk_response(Session& s, const QueryResponse& m) {
  if (s.outcome.quality == ProductQuality::kGood) {
    if (m.claims_processing && m.proof.has_value()) {
      verify_walk_hop(s, *m.proof,
                      ViolationType::kClaimProcessingInvalidProof);
      return;
    }
    if (m.claims_processing) {
      conclude(s, SessionEnd{.blame = Violation{
                                 s.current,
                                 ViolationType::kClaimProcessingInvalidProof}});
      return;
    }
    // Denied in the good case: with a correct POC list this means the
    // previous hop misdirected us.
    SessionEnd end;
    if (!s.previous.empty()) {
      end.blame =
          Violation{s.previous, ViolationType::kWrongNextHopNotProcessed};
    }
    conclude(s, std::move(end));
    return;
  }

  // Bad product walk. A denial's next step depends on its verdict, so the
  // walk waits for it (and `current` is still the denying hop when it
  // commits).
  if (!m.claims_processing && m.proof.has_value()) {
    verify_hop(s, s.outcome.task_id, s.current_poc, *m.proof,
               /*ownership=*/false,
               [this](Session& s, const zkedb::VerifyOutcome& o) {
                 record_verify(s, s.current, o.ok, "non_ownership");
                 if (o.ok) {
                   // Really did not process the product: the referrer lied.
                   SessionEnd end;
                   if (!s.previous.empty()) {
                     end.blame = Violation{
                         s.previous, ViolationType::kWrongNextHopNotProcessed};
                   }
                   conclude(s, std::move(end));
                   return;
                 }
                 record_violation(
                     s, s.current,
                     ViolationType::kClaimNonProcessingInvalidProof);
                 request_reveal(s);
               });
    return;
  }
  if (!m.claims_processing) {
    book_in_order(s, s.current,
                  ViolationType::kClaimNonProcessingInvalidProof);
  }
  request_reveal(s);
}

void Proxy::on_reveal_response(const net::Envelope& env,
                               const RevealResponse& m) {
  const auto it = sessions_.find(m.query_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  if (s.phase != Phase::kReveal || env.from != s.current || !s.awaiting) {
    return;
  }
  settle(s);
  record_incoming(s, env);

  if (!m.proof.has_value()) {
    conclude(s, SessionEnd{.blame = Violation{s.current,
                                              ViolationType::kRefusedReveal}});
    return;
  }
  verify_walk_hop(s, *m.proof, ViolationType::kInvalidReveal);
}

void Proxy::on_next_hop_response(const net::Envelope& env,
                                 const NextHopResponse& m) {
  const auto it = sessions_.find(m.query_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  if (s.phase != Phase::kNextHop || env.from != s.current || !s.awaiting) {
    return;
  }
  settle(s);
  record_incoming(s, env);

  if (!m.next.has_value()) {
    if (s.list->children_of(s.current).empty()) {
      conclude(s, SessionEnd{.blame = std::nullopt, .complete = true});
    } else {
      conclude(s, SessionEnd{.blame = Violation{
                                 s.current, ViolationType::kFalseTermination}});
    }
    return;
  }
  const std::string& next = *m.next;
  const bool revisits =
      std::find(s.visited.begin(), s.visited.end(), next) != s.visited.end();
  if (revisits || !s.list->has_edge(s.current, next)) {
    conclude(s, SessionEnd{.blame = Violation{
                               s.current,
                               ViolationType::kWrongNextHopNotChild}});
    return;
  }
  s.previous = s.current;
  s.current = next;
  s.current_poc = *s.list->find(next);
  s.visited.push_back(next);
  query_current(s);
}

void Proxy::pump() {
  // Every in-flight session owns a retransmission timer, so progress is
  // timer-driven: each poll() either delivers messages or fires due timers
  // (SimTransport fires them at quiescence; SocketTransport after real
  // timeouts). A session always resolves after at most
  // max_retries * timeout of silence per request.
  constexpr int kMaxRounds = 1000000;
  for (int round = 0; round < kMaxRounds; ++round) {
    transport_.poll(/*timeout_ms=*/10);
    if (active_sessions_ == 0) return;
  }
  pump_stalled().add();
  throw ProtocolError(pump_stall_report());
}

const char* Proxy::phase_name(Phase phase) {
  switch (phase) {
    case Phase::kInitialScan: return "initial_scan";
    case Phase::kWalk: return "walk";
    case Phase::kReveal: return "reveal";
    case Phase::kNextHop: return "next_hop";
    case Phase::kDone: return "done";
  }
  return "?";
}

std::string Proxy::deferred_state(const Session& s) {
  if (!s.deferred) return "none";
  if (s.deferred->blame) return to_string(s.deferred->blame->type);
  return s.deferred->complete ? "complete" : "incomplete";
}

std::string Proxy::pump_stall_report() const {
  // Reads session phase/candidate state, which is loop-owned: a stall
  // report assembled from a worker thread would race the very state it is
  // describing.
  DESWORD_DCHECK_ON_LOOP(transport_);
  std::string msg = "proxy pump did not converge:";
  std::size_t active = 0;
  for (const auto& [qid, s] : sessions_) {
    if (s.phase == Phase::kDone) continue;
    ++active;
    msg += " [qid " + std::to_string(qid) + " phase=" + phase_name(s.phase);
    if (scheduler_ && scheduler_->is_queued(qid)) msg += " queued";
    msg += " hop=" + (s.current.empty() ? std::string("-") : s.current) +
           " candidate=" + std::to_string(s.candidate_idx + 1) + "/" +
           std::to_string(s.candidates.size()) +
           " awaiting=" + (s.awaiting ? "1" : "0") +
           " owed=" + std::to_string(s.owed.size()) +
           " deferred=" + deferred_state(s) +
           " retries=" + std::to_string(s.retries) + "]";
  }
  msg += " (" + std::to_string(active) + " active sessions, " +
         std::to_string(transport_.pending_timers()) + " pending timers)";
  return msg;
}

QueryOutcome Proxy::run_query(const supplychain::ProductId& product,
                              ProductQuality quality,
                              std::optional<std::string> task_hint) {
  const std::uint64_t qid = begin_query(product, quality, task_hint);
  pump();
  const QueryOutcome* out = outcome(qid);
  if (out == nullptr) throw ProtocolError("query did not resolve");
  return *out;
}

std::vector<QueryOutcome> Proxy::run_queries(
    const std::vector<QuerySpec>& specs) {
  std::vector<std::uint64_t> ids;
  ids.reserve(specs.size());
  for (const QuerySpec& spec : specs) {
    ids.push_back(begin_query(spec.product, spec.quality, spec.task_hint));
  }
  pump();
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(ids.size());
  for (const std::uint64_t qid : ids) {
    const QueryOutcome* out = outcome(qid);
    if (out == nullptr) throw ProtocolError("query did not resolve");
    outcomes.push_back(*out);
  }
  return outcomes;
}

std::vector<QueryOutcome> Proxy::run_queries(
    const std::vector<supplychain::ProductId>& products, ProductQuality quality,
    std::optional<std::string> task_hint) {
  std::vector<QuerySpec> specs;
  specs.reserve(products.size());
  for (const supplychain::ProductId& product : products) {
    specs.push_back(QuerySpec{product, quality, task_hint});
  }
  return run_queries(specs);
}

const QueryOutcome* Proxy::outcome(std::uint64_t query_id) const {
  const auto it = sessions_.find(query_id);
  if (it == sessions_.end() || it->second.phase != Phase::kDone) {
    return nullptr;
  }
  return &it->second.outcome;
}

double Proxy::reputation(const std::string& participant) const {
  return ledger_.score(participant);
}

std::map<std::string, double> Proxy::reputation_snapshot() const {
  return ledger_.snapshot();
}

std::string Proxy::export_stats_json() const {
  json::Object stats;
  stats["metrics"] = obs::MetricsRegistry::global().snapshot_value();

  json::Object scores;
  for (const auto& [participant, score] : ledger_.scores()) {
    scores[participant] = json::Value(score);
  }
  stats["reputation"] = json::Value(std::move(scores));

  json::Array traces;
  for (const auto& [qid, session] : sessions_) {
    traces.push_back(session.trace.to_json());
  }
  stats["traces"] = json::Value(std::move(traces));

  return json::Value(std::move(stats)).dump_pretty();
}

std::string Proxy::export_report_json() const {
  json::Object report;

  json::Object scores;
  for (const auto& [participant, score] : ledger_.scores()) {
    scores[participant] = json::Value(score);
  }
  report["reputation"] = json::Value(std::move(scores));

  json::Array events;
  for (const ReputationEvent& event : ledger_.history()) {
    json::Object e;
    e["participant"] = json::Value(event.participant);
    e["delta"] = json::Value(event.delta);
    e["reason"] = json::Value(event.reason);
    e["query_id"] = json::Value(static_cast<std::int64_t>(event.query_id));
    events.push_back(json::Value(std::move(e)));
  }
  report["events"] = json::Value(std::move(events));

  json::Array queries;
  for (const auto& [qid, session] : sessions_) {
    if (session.phase != Phase::kDone) continue;
    const QueryOutcome& outcome = session.outcome;
    json::Object q;
    q["query_id"] = json::Value(static_cast<std::int64_t>(qid));
    q["product"] = json::Value(to_hex(outcome.product));
    q["quality"] = json::Value(to_string(outcome.quality));
    q["task"] = json::Value(outcome.task_id);
    q["complete"] = json::Value(outcome.complete);
    json::Array path;
    for (const auto& hop : outcome.path) path.push_back(json::Value(hop));
    q["path"] = json::Value(std::move(path));
    json::Array violations;
    for (const Violation& v : outcome.violations) {
      json::Object vo;
      vo["participant"] = json::Value(v.participant);
      vo["type"] = json::Value(to_string(v.type));
      violations.push_back(json::Value(std::move(vo)));
    }
    q["violations"] = json::Value(std::move(violations));
    queries.push_back(json::Value(std::move(q)));
  }
  report["queries"] = json::Value(std::move(queries));

  return json::Value(std::move(report)).dump_pretty();
}

}  // namespace desword::protocol
