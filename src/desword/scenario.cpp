#include "desword/scenario.h"

#include "common/error.h"

namespace desword::protocol {

namespace {
constexpr const char* kProxyId = "proxy";
}  // namespace

Scenario::Scenario(supplychain::SupplyChainGraph graph, ScenarioConfig config)
    : graph_(std::move(graph)),
      config_(std::move(config)),
      crs_cache_(std::make_shared<CrsCache>()),
      sim_(network_),
      fault_(sim_, config_.fault_plan) {
  proxy_ = std::make_unique<Proxy>(kProxyId, fault_,
                                   ProxyDeps{.crs_cache = crs_cache_},
                                   config_.proxy);
  for (const ParticipantId& id : graph_.participants()) {
    auto p = std::make_unique<Participant>(
        id, fault_, kProxyId,
        ParticipantDeps{.crs_cache = crs_cache_});
    if (config_.max_distribution_retries > 0) {
      p->set_max_distribution_retries(config_.max_distribution_retries);
    }
    // One worker pool serves the whole deployment: proxy verifies and
    // participant proofs share the executor.
    if (proxy_->executor()) p->set_executor(proxy_->executor());
    participants_.emplace(id, std::move(p));
  }
}

Participant& Scenario::participant(const ParticipantId& id) {
  const auto it = participants_.find(id);
  if (it == participants_.end()) {
    throw ProtocolError("unknown participant: " + id);
  }
  return *it->second;
}

const supplychain::DistributionResult& Scenario::run_task(
    const std::string& task_id, const supplychain::DistributionConfig& dist) {
  if (truths_.find(task_id) != truths_.end()) {
    throw ProtocolError("task already ran: " + task_id);
  }
  supplychain::DistributionResult result = run_distribution(graph_, dist);

  // Wire the physical outcome into the protocol endpoints.
  for (const ParticipantId& id : result.involved) {
    Participant& p = participant(id);
    p.load_database(result.databases.at(id));

    TaskSetup setup;
    setup.task_id = task_id;
    setup.initial = dist.initial;
    setup.involved = result.involved;
    // Task-local topology from the edges the task actually used.
    for (const auto& [parent, children] : result.used_edges) {
      if (parent == id) {
        setup.children.assign(children.begin(), children.end());
      }
      if (children.count(id) > 0) setup.parents.push_back(parent);
    }
    // Ground-truth next hops for this participant's products.
    for (const auto& [product, path] : result.paths) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (path[i] == id) setup.shipments[product] = path[i + 1];
      }
    }
    p.begin_task(setup);
  }

  Participant& initial = participant(dist.initial);
  initial.initiate_task(task_id);
  // The endpoints share one transport, so driving it fires their own
  // distribution retry timers: the protocol heals itself, the harness only
  // polls. A bounded wait that runs out surfaces the initial participant's
  // task-level error instead of spinning forever.
  std::size_t idle_rounds = 0;
  while (idle_rounds < 3) {
    if (proxy_->task_list(task_id) != nullptr) break;
    const std::string error = initial.task_error(task_id);
    if (!error.empty()) {
      throw ProtocolError("distribution failed for " + task_id + ": " +
                          error);
    }
    idle_rounds = fault_.poll() == 0 ? idle_rounds + 1 : 0;
  }
  if (proxy_->task_list(task_id) == nullptr) {
    throw ProtocolError("distribution phase did not complete for " + task_id);
  }

  const auto [it, inserted] = truths_.emplace(task_id, std::move(result));
  return it->second;
}

const supplychain::DistributionResult& Scenario::truth(
    const std::string& task_id) const {
  const auto it = truths_.find(task_id);
  if (it == truths_.end()) throw ProtocolError("unknown task: " + task_id);
  return it->second;
}

const std::vector<ParticipantId>* Scenario::path_of(
    const supplychain::ProductId& product) const {
  for (const auto& [task, truth] : truths_) {
    const auto it = truth.paths.find(product);
    if (it != truth.paths.end()) return &it->second;
  }
  return nullptr;
}

}  // namespace desword::protocol
