#include "deployment.h"

#include <stdexcept>

namespace perfbench {

namespace protocol = desword::protocol;
namespace supplychain = desword::supplychain;

namespace {
constexpr const char* kProxyId = "proxy";
}  // namespace

Deployment::Deployment(const DeploymentConfig& config, Tracer& tracer,
                       bool traced)
    : graph_(supplychain::SupplyChainGraph::layered(
          config.depth, config.width, config.fanout)),
      initial_("L0-0"),
      tracer_(tracer),
      sim_(network_),
      crs_cache_(std::make_shared<protocol::CrsCache>()) {
  if (traced) {
    tracing_ = std::make_unique<TracingTransport>(
        sim_, tracer_, kProxyId, /*probe_crypto=*/config.workers == 0);
  }
  protocol::ProxyConfig pc;
  pc.edb = config.edb;
  pc.verify.worker_threads = config.workers;
  pc.max_concurrent_queries = config.max_in_flight;
  protocol::ProxyDeps deps;
  deps.crs_cache = crs_cache_;
  proxy_ = std::make_unique<protocol::Proxy>(kProxyId, transport(),
                                             std::move(deps), std::move(pc));
  // Set-up warm-up: the per-position qTMC tables are otherwise built lazily
  // by the first verification inside the timed region.
  proxy_->crs()->qtmc().precompute_fixed_bases(/*position_bases=*/true);
  for (const std::string& id : graph_.participants()) {
    auto p = std::make_unique<protocol::Participant>(
        id, transport(), kProxyId,
        protocol::ParticipantDeps{.crs_cache = crs_cache_});
    if (proxy_->executor()) p->set_executor(proxy_->executor());
    participants_.emplace(id, std::move(p));
  }
}

Deployment::~Deployment() = default;

desword::net::Transport& Deployment::transport() {
  return tracing_ ? static_cast<desword::net::Transport&>(*tracing_)
                  : static_cast<desword::net::Transport&>(sim_);
}

protocol::Participant& Deployment::participant(const std::string& id) {
  const auto it = participants_.find(id);
  if (it == participants_.end()) {
    throw std::runtime_error("unknown participant: " + id);
  }
  return *it->second;
}

const supplychain::DistributionResult& Deployment::distribute(
    const std::string& task_id,
    const std::vector<supplychain::ProductId>& products,
    std::uint64_t routing_seed) {
  Scope task_scope(tracer_, spans::kDistribute);
  const std::uint64_t task_start = now_ns();
  supplychain::DistributionConfig dist;
  dist.initial = initial_;
  dist.products = products;
  dist.seed = routing_seed;
  supplychain::DistributionResult result;
  {
    Scope scope(tracer_, spans::kDistribution);
    const std::uint64_t t0 = now_ns();
    result = supplychain::run_distribution(graph_, dist);
    distribution_ns_ += now_ns() - t0;
  }

  // Wire the physical outcome into the endpoints, as a deployment's
  // operators would before the protocol's distribution phase.
  for (const std::string& id : result.involved) {
    protocol::Participant& p = participant(id);
    p.load_database(result.databases.at(id));
    protocol::TaskSetup setup;
    setup.task_id = task_id;
    setup.initial = initial_;
    setup.involved = result.involved;
    for (const auto& [parent, children] : result.used_edges) {
      if (parent == id) setup.children.assign(children.begin(), children.end());
      if (children.count(id) > 0) setup.parents.push_back(parent);
    }
    for (const auto& [product, path] : result.paths) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (path[i] == id) setup.shipments[product] = path[i + 1];
      }
    }
    p.begin_task(setup);
  }

  protocol::Participant& initial = participant(initial_);
  initial.initiate_task(task_id);
  std::size_t idle_rounds = 0;
  while (proxy_->task_list(task_id) == nullptr && idle_rounds < 3) {
    const std::string error = initial.task_error(task_id);
    if (!error.empty()) {
      throw std::runtime_error("distribution failed for " + task_id + ": " +
                               error);
    }
    idle_rounds = transport().poll(/*timeout_ms=*/10) == 0 ? idle_rounds + 1 : 0;
  }
  if (proxy_->task_list(task_id) == nullptr) {
    throw std::runtime_error("distribution did not complete for " + task_id);
  }
  for (const auto& [product, path] : result.paths) {
    task_of_[product] = task_id;
  }
  task_wall_ms_.push_back(static_cast<double>(now_ns() - task_start) / 1e6);
  return truths_.emplace(task_id, std::move(result)).first->second;
}

const std::vector<std::string>& Deployment::path_of(
    const supplychain::ProductId& product) const {
  return truths_.at(task_of(product)).paths.at(product);
}

const std::string& Deployment::task_of(
    const supplychain::ProductId& product) const {
  return task_of_.at(product);
}

std::uint64_t Deployment::bytes_sent() const {
  return sim_.total_stats().bytes_sent;
}

std::uint64_t Deployment::proofs_generated() const {
  std::uint64_t total = 0;
  for (const auto& [id, p] : participants_) {
    total += p->stats().proofs_generated.load();
  }
  return total;
}

}  // namespace perfbench
