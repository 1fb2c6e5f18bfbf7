#include "desword/participant.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "crypto/hash.h"
#include "obs/metrics.h"
#include "zkedb/proof.h"

namespace desword::protocol {

namespace {

/// Interval between ps re-requests by the initial participant and report
/// re-sends by the others (transport clock units; see
/// ProxyConfig::retransmit_base for semantics).
constexpr std::uint64_t kPsRetryInterval = 500;

obs::Counter& reply_cache_hits() {
  static obs::Counter& c = obs::metric("net.reply_cache.hits");
  return c;
}

obs::Counter& reply_cache_misses() {
  static obs::Counter& c = obs::metric("net.reply_cache.misses");
  return c;
}

obs::Counter& reply_cache_evictions() {
  static obs::Counter& c = obs::metric("net.reply_cache.evictions");
  return c;
}

obs::Counter& reply_cache_joined() {
  static obs::Counter& c = obs::metric("net.reply_cache.joined");
  return c;
}

obs::Counter& ownership_proofs() {
  static obs::Counter& c = obs::metric("protocol.proof.ownership");
  return c;
}

obs::Counter& non_ownership_proofs() {
  static obs::Counter& c = obs::metric("protocol.proof.non_ownership");
  return c;
}

obs::Counter& distribution_orphaned() {
  static obs::Counter& c = obs::metric("net.distribution.orphaned");
  return c;
}

obs::Counter& distribution_gaveup() {
  static obs::Counter& c = obs::metric("protocol.distribution.gaveup");
  return c;
}

}  // namespace

Participant::Participant(ParticipantId id, net::Transport& transport,
                         net::NodeId proxy, ParticipantDeps deps)
    : id_(std::move(id)),
      transport_(transport),
      proxy_(std::move(proxy)),
      crs_cache_(std::move(deps.crs_cache)) {
  transport_.register_node(id_,
                           [this](const net::Envelope& env) { handle(env); });
}

Participant::~Participant() {
  // Finish in-flight proof builds first: after the drain no worker touches
  // this object again. Completions already posted to the loop guard
  // themselves with the aliveness token.
  if (executor_) executor_->drain();
  for (auto& [task_id, task] : tasks_) {
    if (task.ps_retry_timer != 0) transport_.cancel_timer(task.ps_retry_timer);
    if (task.report_retry_timer != 0) {
      transport_.cancel_timer(task.report_retry_timer);
    }
  }
  if (transport_.has_node(id_)) transport_.unregister_node(id_);
}

void Participant::set_executor(std::shared_ptr<Executor> executor) {
  if (executor_) executor_->drain();
  executor_ = std::move(executor);
}

void Participant::load_database(supplychain::TraceDatabase db) {
  db_ = std::move(db);
}

void Participant::set_distribution_behavior(DistributionBehavior behavior) {
  dist_behavior_ = std::move(behavior);
}

void Participant::set_query_behavior(QueryBehavior behavior) {
  query_behavior_ = std::move(behavior);
}

void Participant::begin_task(const TaskSetup& setup) {
  if (setup.task_id.empty()) throw ProtocolError("task id must be non-empty");
  TaskState state;
  state.setup = setup;
  tasks_[setup.task_id] = std::move(state);
  for (const auto& [product, next] : setup.shipments) {
    shipments_[product] = next;
  }
}

void Participant::initiate_task(const std::string& task_id) {
  TaskState& task = tasks_.at(task_id);
  if (task.setup.initial != id_) {
    throw ProtocolError("only the initial participant initiates a task");
  }
  // An explicit (re-)kick restarts the give-up budget and clears a prior
  // task-level failure.
  task.ps_retries = 0;
  task.error.clear();
  transport_.send(id_, proxy_, msg::kPsRequest,
                  PsRequest{task_id}.serialize());
  if (task.ps_retry_timer != 0) transport_.cancel_timer(task.ps_retry_timer);
  task.ps_retry_timer = transport_.set_timer(
      kPsRetryInterval, [this, task_id] { on_ps_retry(task_id); });
}

std::string Participant::missing_reports(const TaskState& task) {
  std::string missing;
  for (const ParticipantId& p : task.setup.involved) {
    if (task.reports_received.count(p) > 0) continue;
    if (!missing.empty()) missing += ", ";
    missing += p;
  }
  return missing;
}

void Participant::on_ps_retry(const std::string& task_id) {
  DESWORD_DCHECK_ON_LOOP(transport_);
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return;
  TaskState& task = it->second;
  task.ps_retry_timer = 0;
  if (task.list_submitted) {
    // The submit itself has no ack, so a lost one is invisible here:
    // re-send it (the proxy dedups) until the retry budget runs out. A
    // delivered submit makes these re-sends no-ops; a lost one no longer
    // wedges the whole task.
    if (++task.ps_retries < max_distribution_retries_) {
      transport_.send(
          id_, proxy_, msg::kPocListSubmit,
          PocListSubmit{task_id, task.list.serialize()}.serialize());
      task.ps_retry_timer = transport_.set_timer(
          kPsRetryInterval, [this, task_id] { on_ps_retry(task_id); });
    }
    return;
  }
  if (++task.ps_retries >= max_distribution_retries_) {
    // Bounded wait on "every report arrived": give the task up with an
    // error naming exactly who never reported, instead of re-requesting ps
    // forever. One permanently-dark participant must not wedge the task.
    task.error = "distribution gave up after " +
                 std::to_string(task.ps_retries) +
                 " retries; missing reports from: " + missing_reports(task);
    distribution_gaveup().add();
    return;
  }
  // Re-request ps. A duplicate ps response triggers the full re-broadcast /
  // re-report recovery chain, healing any message lost anywhere in the
  // distribution phase.
  transport_.send(id_, proxy_, msg::kPsRequest,
                  PsRequest{task_id}.serialize());
  task.ps_retry_timer = transport_.set_timer(
      kPsRetryInterval, [this, task_id] { on_ps_retry(task_id); });
}

void Participant::arm_report_retry(TaskState& task) {
  if (task.report_retry_timer != 0 ||
      task.report_retries >= max_distribution_retries_) {
    return;
  }
  const std::string task_id = task.setup.task_id;
  task.report_retry_timer = transport_.set_timer(
      kPsRetryInterval, [this, task_id] { on_report_retry(task_id); });
}

void Participant::on_report_retry(const std::string& task_id) {
  DESWORD_DCHECK_ON_LOOP(transport_);
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return;
  TaskState& task = it->second;
  task.report_retry_timer = 0;
  if (task.setup.initial == id_ || !task.own_poc.has_value()) return;
  ++task.report_retries;
  // PocToParent / PocPairsToInitial carry no acks, so losses are invisible
  // to the sender: re-send both, bounded, and rely on receiver-side dedup.
  for (const ParticipantId& parent : task.setup.parents) {
    transport_.send(id_, parent, msg::kPocToParent,
                    PocToParent{task_id, task.own_poc->serialize()}
                        .serialize());
  }
  if (task.pairs_sent) {
    PocPairsToInitial report;
    report.task_id = task.setup.task_id;
    report.own_poc = task.own_poc->serialize();
    report.pairs = task.pairs;
    transport_.send(id_, task.setup.initial, msg::kPocPairsToInitial,
                    report.serialize());
  }
  arm_report_retry(task);
}

std::string Participant::task_error(const std::string& task_id) const {
  const auto it = tasks_.find(task_id);
  return it == tasks_.end() ? std::string() : it->second.error;
}

void Participant::set_max_distribution_retries(int retries) {
  if (retries < 1) throw ProtocolError("distribution retries must be >= 1");
  max_distribution_retries_ = retries;
}

bool Participant::task_complete(const std::string& task_id) const {
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return false;
  const TaskState& task = it->second;
  if (task.setup.initial == id_) return task.list_submitted;
  return task.pairs_sent;
}

const poc::Poc* Participant::poc_for_task(const std::string& task_id) const {
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end() || !it->second.own_poc.has_value()) return nullptr;
  return &*it->second.own_poc;
}

void Participant::handle(const net::Envelope& env) {
  DESWORD_DCHECK_ON_LOOP(transport_);
  try {
    dispatch(env);
  } catch (const CheckError&) {
    // Internal invariant violation: a DE-Sword bug, never input-dependent.
    throw;
  } catch (const Error&) {
    // Malformed or adversarial message from the network: drop it
    // (retransmission and the proxy's no-response handling recover the
    // protocol). This covers decode failures and deeper rejections alike —
    // e.g. a hostile peer shipping conflicting POCs or an unparseable ps.
  }
}

void Participant::dispatch(const net::Envelope& env) {
  switch (message_type_of(env.type)) {
    case MessageType::kPsResponse:
      on_ps_response(PsResponse::deserialize(env.payload));
      break;
    case MessageType::kPsBroadcast:
      on_ps_broadcast(PsBroadcast::deserialize(env.payload));
      break;
    case MessageType::kPocToParent:
      on_poc_to_parent(env, PocToParent::deserialize(env.payload));
      break;
    case MessageType::kPocPairsToInitial:
      on_poc_pairs_to_initial(env,
                              PocPairsToInitial::deserialize(env.payload));
      break;
    case MessageType::kQueryRequest:
      on_query_request(env, QueryRequest::deserialize(env.payload));
      break;
    case MessageType::kRevealRequest:
      on_reveal_request(env, RevealRequest::deserialize(env.payload));
      break;
    case MessageType::kNextHopRequest:
      on_next_hop_request(env, NextHopRequest::deserialize(env.payload));
      break;
    case MessageType::kPsRequest:
    case MessageType::kPocListSubmit:
    case MessageType::kQueryResponse:
    case MessageType::kRevealResponse:
    case MessageType::kNextHopResponse:
    case MessageType::kClientQueryRequest:
    case MessageType::kClientQueryResponse:
    case MessageType::kStatusRequest:
    case MessageType::kStatusResponse:
    case MessageType::kClientReportRequest:
    case MessageType::kAdminShutdown:
    case MessageType::kStatsRequest:
    case MessageType::kUnknown:
      // Admin extensions (daemon shutdown etc.); unknown types are
      // otherwise ignored (forward compatibility).
      if (fallback_) fallback_(env);
      break;
  }
}

// ---------------------------------------------------------------------------
// Distribution phase
// ---------------------------------------------------------------------------

void Participant::on_ps_response(const PsResponse& m) {
  const auto it = tasks_.find(m.task_id);
  if (it == tasks_.end() || it->second.setup.initial != id_) {
    // ps for a task this node never began (or mis-routed to a non-initial
    // node): dropping it silently made distribution wedges undiagnosable,
    // so count the orphan where `desword stats` can see it.
    distribution_orphaned().add();
    return;
  }
  TaskState& task = it->second;
  if (!task.ps.empty()) {
    // Duplicate (re-kick or ps-retry after message loss): re-broadcast ps
    // so participants that missed it can recover.
    for (const ParticipantId& other : task.setup.involved) {
      if (other == id_) continue;
      transport_.send(id_, other, msg::kPsBroadcast,
                      PsBroadcast{m.task_id, task.ps}.serialize());
    }
    if (task.list_submitted) {
      // The submission itself may have been the lost message.
      transport_.send(id_, proxy_, msg::kPocListSubmit,
                      PocListSubmit{task.setup.task_id, task.list.serialize()}
                          .serialize());
    } else {
      maybe_submit_list(task);
    }
    return;
  }
  task.ps = m.ps;
  task.list = poc::PocList(task.ps);
  // Broadcast ps to every other involved participant (§IV-B: "the initial
  // participant v1 requests ps from the proxy and broadcasts it").
  for (const ParticipantId& other : task.setup.involved) {
    if (other == id_) continue;
    transport_.send(id_, other, msg::kPsBroadcast,
                    PsBroadcast{m.task_id, task.ps}.serialize());
  }
  aggregate_poc(task);
  maybe_send_pairs(task);
  maybe_submit_list(task);
}

void Participant::on_ps_broadcast(const PsBroadcast& m) {
  const auto it = tasks_.find(m.task_id);
  if (it == tasks_.end()) {
    distribution_orphaned().add();
    return;
  }
  TaskState& task = it->second;
  if (!task.ps.empty()) {
    // Duplicate: re-announce our POC (receivers dedup) and re-report any
    // pairs in case the originals were lost.
    for (const ParticipantId& parent : task.setup.parents) {
      transport_.send(id_, parent, msg::kPocToParent,
                      PocToParent{m.task_id, task.own_poc->serialize()}
                          .serialize());
    }
    if (task.pairs_sent && task.setup.initial != id_) {
      PocPairsToInitial report;
      report.task_id = task.setup.task_id;
      report.own_poc = task.own_poc->serialize();
      report.pairs = task.pairs;
      transport_.send(id_, task.setup.initial, msg::kPocPairsToInitial,
                      report.serialize());
    }
    return;
  }
  task.ps = m.ps;
  aggregate_poc(task);
  // Announce our POC to every task parent so they can build POC pairs.
  for (const ParticipantId& parent : task.setup.parents) {
    transport_.send(id_, parent, msg::kPocToParent,
                    PocToParent{m.task_id, task.own_poc->serialize()}
                        .serialize());
  }
  // Buffered child POCs may have arrived before ps did.
  for (const Bytes& child : task.buffered_child_pocs) {
    absorb_child_poc(task, child);
  }
  task.buffered_child_pocs.clear();
  maybe_send_pairs(task);
  // The announcements above have no acks: retry them on a bounded timer in
  // case they were lost (on a never-polled per-node sim transport the
  // timer simply never fires and the duplicate-ps chain heals instead).
  if (task.setup.initial != id_) arm_report_retry(task);
}

void Participant::aggregate_poc(TaskState& task) {
  task.crs = crs_cache_->get(task.ps);
  task.scheme = std::make_unique<poc::PocScheme>(task.crs);

  // Start from the honest trace database, then apply the configured
  // distribution-phase deviations (§III-A).
  std::map<Bytes, Bytes> traces = db_.as_poc_input();
  for (const auto& id : dist_behavior_.delete_ids) traces.erase(id);
  for (const auto& [id, fake_da] : dist_behavior_.add_fake) {
    traces[id] = fake_da;
  }
  for (const auto& [id, new_da] : dist_behavior_.modify) {
    const auto it = traces.find(id);
    if (it != traces.end()) it->second = new_da;
  }

  auto [poc, dpoc] = task.scheme->aggregate(id_, traces);
  task.own_poc = poc;
  task.dpoc = std::shared_ptr<poc::PocDecommitment>(std::move(dpoc));
  contexts_[poc.commitment] = ProofContext{
      task.crs, task.dpoc, std::make_shared<poc::PocScheme>(task.crs)};
}

void Participant::on_poc_to_parent(const net::Envelope& env,
                                   const PocToParent& m) {
  (void)env;
  const auto it = tasks_.find(m.task_id);
  if (it == tasks_.end()) {
    distribution_orphaned().add();
    return;
  }
  TaskState& task = it->second;
  if (!task.own_poc.has_value()) {
    // Dedup the buffer: with duplicated links the same child POC can show
    // up several times before ps arrives.
    const auto& buf = task.buffered_child_pocs;
    if (std::find(buf.begin(), buf.end(), m.poc) == buf.end()) {
      task.buffered_child_pocs.push_back(m.poc);
    }
    return;
  }
  absorb_child_poc(task, m.poc);
  maybe_send_pairs(task);
  maybe_submit_list(task);
}

void Participant::absorb_child_poc(TaskState& task, const Bytes& child_poc) {
  const poc::Poc child = poc::Poc::deserialize(child_poc);
  // Only accept POCs from our task children; duplicates are idempotent.
  const auto& children = task.setup.children;
  if (std::find(children.begin(), children.end(), child.participant) ==
      children.end()) {
    return;
  }
  if (task.children_reported.insert(child.participant).second) {
    task.pairs.emplace_back(task.own_poc->serialize(), child_poc);
  }
}

void Participant::maybe_send_pairs(TaskState& task) {
  if (task.pairs_sent || !task.own_poc.has_value()) return;
  if (task.children_reported.size() < task.setup.children.size()) return;
  task.pairs_sent = true;
  PocPairsToInitial report;
  report.task_id = task.setup.task_id;
  report.own_poc = task.own_poc->serialize();
  report.pairs = task.pairs;
  if (task.setup.initial == id_) {
    // The initial participant absorbs its own report locally.
    absorb_report_at_initial(task, id_, report);
    maybe_submit_list(task);
  } else {
    transport_.send(id_, task.setup.initial, msg::kPocPairsToInitial,
                    report.serialize());
    arm_report_retry(task);  // the report has no ack either
  }
}

void Participant::on_poc_pairs_to_initial(const net::Envelope& env,
                                          const PocPairsToInitial& m) {
  const auto it = tasks_.find(m.task_id);
  if (it == tasks_.end() || it->second.setup.initial != id_) {
    distribution_orphaned().add();
    return;
  }
  TaskState& task = it->second;
  absorb_report_at_initial(task, env.from, m);
  maybe_submit_list(task);
}

void Participant::absorb_report_at_initial(TaskState& task,
                                           const ParticipantId& from,
                                           const PocPairsToInitial& m) {
  if (!task.reports_received.insert(from).second) return;  // duplicate
  task.list.add_poc(poc::Poc::deserialize(m.own_poc));
  for (const auto& [parent_bytes, child_bytes] : m.pairs) {
    const poc::Poc parent = poc::Poc::deserialize(parent_bytes);
    const poc::Poc child = poc::Poc::deserialize(child_bytes);
    task.list.add_poc(parent);
    task.list.add_poc(child);
    task.list.add_edge(parent.participant, child.participant);
  }
}

void Participant::maybe_submit_list(TaskState& task) {
  if (task.setup.initial != id_ || task.list_submitted) return;
  if (task.reports_received.size() < task.setup.involved.size()) return;
  task.list_submitted = true;
  transport_.send(
      id_, proxy_, msg::kPocListSubmit,
      PocListSubmit{task.setup.task_id, task.list.serialize()}.serialize());
  // Deliberately keep the ps-retry timer ticking: its list_submitted
  // branch re-sends the submit (bounded by the retry budget), because the
  // proxy never acks it. Arm one if none is pending (a late report can
  // complete the set after the timer already fired).
  if (task.ps_retry_timer == 0 &&
      task.ps_retries < max_distribution_retries_) {
    const std::string task_id = task.setup.task_id;
    task.ps_retry_timer = transport_.set_timer(
        kPsRetryInterval, [this, task_id] { on_ps_retry(task_id); });
  }
}

// ---------------------------------------------------------------------------
// Query phase
// ---------------------------------------------------------------------------

const Participant::ProofContext* Participant::context_for(
    const Bytes& poc_bytes) const {
  try {
    const poc::Poc poc = poc::Poc::deserialize(poc_bytes);
    const auto it = contexts_.find(poc.commitment);
    return it == contexts_.end() ? nullptr : &it->second;
  } catch (const Error&) {
    return nullptr;
  }
}

poc::PocProof Participant::prove_poc(const ProofContext& ctx,
                                     const supplychain::ProductId& product) {
  stats_.proofs_generated += 1;
  return ctx.scheme->prove(*ctx.dpoc, product);
}

Bytes Participant::make_ownership_proof(const ProofContext& ctx,
                                        const supplychain::ProductId& product) {
  ownership_proofs().add();
  poc::PocProof proof = prove_poc(ctx, product);
  if (query_behavior_.wrong_trace.count(product) > 0) {
    // "Return wrong RFID-trace": tamper with the revealed value. The
    // ZK-EDB value binding makes this detectable (Claim 2).
    auto zk = zkedb::EdbMembershipProof::deserialize(*ctx.crs, proof.zk_proof);
    zk.value = bytes_of("tampered-trace");
    proof.zk_proof = zk.serialize(*ctx.crs);
  }
  return maybe_corrupt_proof(product, proof.serialize());
}

Bytes Participant::maybe_corrupt_proof(const supplychain::ProductId& product,
                                       Bytes proof) const {
  if (query_behavior_.corrupt_proof.count(product) == 0 || proof.empty()) {
    return proof;
  }
  // Deterministic single bit-flip in the middle of the buffer: enough to
  // break either the serialization framing or the cryptographic check,
  // depending on what the flipped byte encoded.
  proof[proof.size() / 2] ^= 0x10;
  return proof;
}

void Participant::set_reply_cache_capacity(std::size_t cap) {
  reply_cache_capacity_ = cap;
  evict_replies(cap);
}

void Participant::evict_replies(std::size_t limit) {
  if (reply_cache_capacity_ == 0) return;
  while (reply_cache_.size() > limit) {
    reply_cache_.erase(reply_cache_lru_.back());
    reply_cache_lru_.pop_back();
    reply_cache_evictions().add();
  }
}

void Participant::respond_cached(const net::Envelope& env,
                                 const std::string& resp_type,
                                 std::function<Bytes()> compute) {
  const Bytes key = TaggedHasher("desword.reply-cache")
                        .add_str(env.type)
                        .add(env.payload)
                        .digest();
  const auto it = reply_cache_.find(key);
  if (it != reply_cache_.end()) {
    stats_.duplicate_requests_served += 1;
    reply_cache_hits().add();
    reply_cache_lru_.splice(reply_cache_lru_.begin(), reply_cache_lru_,
                            it->second.pos);
    transport_.send(id_, env.from, it->second.type, it->second.payload);
    return;
  }
  const auto inflight = in_flight_.find(key);
  if (inflight != in_flight_.end()) {
    // The original request's proof is still being generated on a worker:
    // attach to that job instead of re-running it. Each arrival still gets
    // its own response delivery when the build lands.
    stats_.duplicate_requests_served += 1;
    reply_cache_joined().add();
    inflight->second.waiters.push_back(env.from);
    return;
  }
  reply_cache_misses().add();
  in_flight_.emplace(key, InFlight{resp_type, {env.from}});
  if (!executor_) {
    // Inline: build and complete in the handler. A throwing build clears
    // its entry before the handler drops the request, so a retransmission
    // recomputes instead of joining a build that will never land.
    Bytes payload;
    try {
      payload = compute();
    } catch (...) {
      finish_in_flight(key, false, {});
      throw;
    }
    finish_in_flight(key, true, std::move(payload));
    return;
  }
  transport_.add_work();
  std::weak_ptr<void> token = alive_;
  // `this` is safe: the destructor (and rebind) drain the executor first.
  executor_->post([this, token, key, compute = std::move(compute)] {
    // Worker context: reply_cache_/in_flight_ are loop-owned and must not
    // be touched here — results travel back through transport_.post.
    Bytes payload;
    bool ok = true;
    try {
      payload = compute();
    } catch (...) {
      // Any failure clears the in-flight entry on the loop; a retransmitted
      // request then recomputes from scratch.
      ok = false;
    }
    // Post the completion BEFORE releasing the work bracket: the loop must
    // never observe "no work pending" while a completion is still owed, or
    // the simulator would declare quiescence and fire a stall-scan round.
    transport_.post([this, token, key, ok, payload = std::move(payload)]() mutable {
      if (token.expired()) return;
      finish_in_flight(key, ok, std::move(payload));
    });
    transport_.remove_work();
  });
}

void Participant::finish_in_flight(const Bytes& key, bool ok, Bytes payload) {
  DESWORD_DCHECK_ON_LOOP(transport_);
  const auto it = in_flight_.find(key);
  if (it == in_flight_.end()) return;
  InFlight entry = std::move(it->second);
  in_flight_.erase(it);
  if (!ok) return;
  evict_replies(reply_cache_capacity_ - 1);  // room for the new entry
  reply_cache_lru_.push_front(key);
  reply_cache_[key] = CachedReply{entry.resp_type, payload,
                                  reply_cache_lru_.begin()};
  for (const net::NodeId& waiter : entry.waiters) {
    transport_.send(id_, waiter, entry.resp_type, payload);
  }
}

void Participant::on_query_request(const net::Envelope& env,
                                   const QueryRequest& m) {
  if (query_behavior_.unresponsive) return;
  // Resolve the proving context here (contexts_ is loop-thread state) and
  // hand the builder a copy: the worker job must not touch the map.
  std::optional<ProofContext> ctx;
  if (const ProofContext* found = context_for(m.poc)) ctx = *found;
  respond_cached(env, msg::kQueryResponse, [this, m, ctx]() -> Bytes {
    return build_query_response(m, ctx);
  });
}

Bytes Participant::build_query_response(const QueryRequest& m,
                                        const std::optional<ProofContext>& ctx) {
  QueryResponse resp;
  resp.query_id = m.query_id;

  if (!ctx.has_value()) {
    // We never built this POC: answer "not processing", no proof. The
    // proxy treats the missing proof according to the product quality.
    resp.claims_processing = false;
    return resp.serialize();
  }

  const bool committed = ctx->dpoc->owns(m.product);
  if (m.quality == ProductQuality::kGood) {
    if (committed && query_behavior_.claim_non_processing.count(m.product) ==
                         0) {
      // Honest: claim processing with an ownership proof (tampered if the
      // wrong-trace deviation is configured).
      resp.claims_processing = true;
      resp.proof = make_ownership_proof(*ctx, m.product);
    } else if (!committed &&
               query_behavior_.claim_processing.count(m.product) > 0) {
      // "Claim processing": the best a cheater can do is send something
      // shaped like a proof — here its (valid) non-ownership proof dressed
      // up as an ownership proof. Verification must reject it.
      ownership_proofs().add();
      poc::PocProof forged = prove_poc(*ctx, m.product);
      forged.ownership = true;
      resp.claims_processing = true;
      resp.proof = forged.serialize();
    } else {
      resp.claims_processing = false;  // forfeit the positive score
    }
  } else {  // bad product
    if (!committed) {
      // Honest denial with a non-ownership proof.
      non_ownership_proofs().add();
      resp.claims_processing = false;
      resp.proof = maybe_corrupt_proof(
          m.product, prove_poc(*ctx, m.product).serialize());
    } else if (query_behavior_.claim_non_processing.count(m.product) > 0) {
      // "Claim non-processing": forge a denial. A valid non-ownership
      // proof cannot exist (Claim 1), so the cheater sends its ownership
      // proof relabelled — or garbage; either way verification rejects.
      non_ownership_proofs().add();
      poc::PocProof forged = prove_poc(*ctx, m.product);
      forged.ownership = false;
      forged.zk_proof = random_bytes(64);
      resp.claims_processing = false;
      resp.proof = forged.serialize();
    } else {
      // Honest: cannot deny; admit processing and await the reveal round.
      resp.claims_processing = true;
    }
  }
  return resp.serialize();
}

void Participant::on_reveal_request(const net::Envelope& env,
                                    const RevealRequest& m) {
  if (query_behavior_.unresponsive) return;
  std::optional<ProofContext> ctx;
  if (const ProofContext* found = context_for(m.poc)) ctx = *found;
  respond_cached(env, msg::kRevealResponse, [this, m, ctx]() -> Bytes {
    return build_reveal_response(m, ctx);
  });
}

Bytes Participant::build_reveal_response(
    const RevealRequest& m, const std::optional<ProofContext>& ctx) {
  RevealResponse resp;
  resp.query_id = m.query_id;
  if (ctx.has_value() && ctx->dpoc->owns(m.product) &&
      !query_behavior_.refuse_reveal) {
    resp.proof = make_ownership_proof(*ctx, m.product);
  }
  return resp.serialize();
}

void Participant::on_next_hop_request(const net::Envelope& env,
                                      const NextHopRequest& m) {
  if (query_behavior_.unresponsive) return;
  respond_cached(env, msg::kNextHopResponse, [this, m]() -> Bytes {
    return build_next_hop_response(m);
  });
}

Bytes Participant::build_next_hop_response(const NextHopRequest& m) const {
  NextHopResponse resp;
  resp.query_id = m.query_id;
  const auto wrong = query_behavior_.wrong_next.find(m.product);
  if (query_behavior_.false_termination.count(m.product) > 0) {
    // Pretend the product's journey ended here.
  } else if (wrong != query_behavior_.wrong_next.end()) {
    resp.next = wrong->second;
  } else {
    const auto it = shipments_.find(m.product);
    if (it != shipments_.end()) resp.next = it->second;
  }
  return resp.serialize();
}

}  // namespace desword::protocol
