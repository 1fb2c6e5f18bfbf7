// Scenario harness: glue between the supply-chain simulation and the
// DE-Sword protocol stack.
//
// Builds a complete in-process deployment — proxy, participant nodes,
// network — runs distribution tasks through the physical simulator, wires
// the resulting trace databases and task topologies into the participants,
// and drives the distribution phase to completion. Tests, examples and
// benchmarks all start from here.
//
// Like `serve-*` and `perfbench`, the deployment runs over ONE transport:
// a SimTransport over the scenario's lossless Network, wrapped in a
// FaultInjector. Every endpoint's timers fire from the same poll loop, and
// every frame crosses the injector's plan (which injects nothing unless a
// test configures it).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "desword/participant.h"
#include "desword/proxy.h"
#include "net/fault_injector.h"
#include "supplychain/distribution.h"

namespace desword::protocol {

struct ScenarioConfig {
  /// The proxy's configuration, passed through unchanged. Its
  /// `verify.worker_threads` also sizes the one crypto executor the proxy
  /// shares with every participant (0 = inline crypto). The default EDB
  /// parameters are small enough for tests.
  ProxyConfig proxy{.edb = {4, 6, 512, "p256"}};
  /// The plan of the FaultInjector every frame crosses. The default plan
  /// injects nothing. Losses during the distribution phase are healed by
  /// the participants' own retry timers; a distribution give-up surfaces
  /// as a ProtocolError naming the missing participants.
  net::FaultPlan fault_plan;
  /// Distribution-phase retry budget per participant (0 = library default).
  int max_distribution_retries = 0;
};

class Scenario {
 public:
  Scenario(supplychain::SupplyChainGraph graph, ScenarioConfig config);

  net::Network& network() { return network_; }
  /// The one transport every endpoint runs over (the fault injector).
  net::Transport& transport() { return fault_; }
  /// The fault injector; tests re-plan it between phases.
  net::FaultInjector& fault_injector() { return fault_; }
  Proxy& proxy() { return *proxy_; }
  Participant& participant(const ParticipantId& id);
  const CrsCachePtr& crs_cache() const { return crs_cache_; }
  const supplychain::SupplyChainGraph& graph() const { return graph_; }

  /// Runs one physical distribution task and the full distribution phase
  /// of the protocol (ps fetch/broadcast, POC aggregation, pair exchange,
  /// list submission). Returns the ground-truth result.
  ///
  /// Dishonest distribution behaviours must be configured on the
  /// participants *before* calling this.
  const supplychain::DistributionResult& run_task(
      const std::string& task_id, const supplychain::DistributionConfig& dist);

  /// Ground truth for a finished task.
  const supplychain::DistributionResult& truth(const std::string& task_id) const;

  /// Ground-truth path of a product (searched across tasks).
  const std::vector<ParticipantId>* path_of(
      const supplychain::ProductId& product) const;

 private:
  supplychain::SupplyChainGraph graph_;
  ScenarioConfig config_;
  net::Network network_;
  CrsCachePtr crs_cache_;
  // Declared before the endpoints: proxy/participant destructors cancel
  // their timers through these, so they must outlive them.
  net::SimTransport sim_;
  net::FaultInjector fault_;
  std::unique_ptr<Proxy> proxy_;
  std::map<ParticipantId, std::unique_ptr<Participant>> participants_;
  std::map<std::string, supplychain::DistributionResult> truths_;
};

}  // namespace desword::protocol
