// Quickstart — the DE-Sword API in one file.
//
// Builds a three-stage supply chain (manufacturer -> distributor ->
// pharmacy), ships a batch of tagged products through it, runs the
// DE-Sword distribution phase (POC construction + POC list submission),
// and then asks the proxy for the verifiable path of one product.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "desword/scenario.h"

using namespace desword;
using namespace desword::protocol;

int main() {
  // 1. The supply chain digraph. Edges are "products may flow this way".
  supplychain::SupplyChainGraph graph;
  graph.add_edge("acme-pharma", "metro-distributor");
  graph.add_edge("metro-distributor", "corner-pharmacy");
  graph.add_edge("metro-distributor", "city-hospital");

  // 2. A scenario wires up the proxy, one protocol endpoint per
  //    participant, and a simulated network. The EdbConfig picks the
  //    ZK-EDB shape: q-ary tree of the given height over an RSA modulus.
  ScenarioConfig config;
  config.proxy.edb = zkedb::EdbConfig{4, 8, 512, "p256"};
  Scenario scenario(graph, config);

  // 3. One distribution task: 6 tagged products leave the manufacturer.
  supplychain::DistributionConfig dist;
  dist.initial = "acme-pharma";
  dist.products = supplychain::make_products(/*manager=*/42,
                                             /*first_serial=*/1, /*count=*/6);
  const auto& truth = scenario.run_task("lot-2026-07", dist);
  std::printf("distribution phase done: %zu participants committed POCs\n",
              truth.involved.size());

  // 4. Query the path of the first product (good-product flavour: every
  //    identified participant earns a positive reputation score).
  const supplychain::ProductId product = dist.products[0];
  const QueryOutcome outcome =
      scenario.proxy().run_query(product, ProductQuality::kGood);

  std::printf("\nquery for %s (%s product): %s\n",
              supplychain::epc_to_string(product).c_str(),
              to_string(outcome.quality).c_str(),
              outcome.complete ? "complete" : "incomplete");
  std::printf("verified path:");
  for (const auto& hop : outcome.path) std::printf(" -> %s", hop.c_str());
  std::printf("\n");
  for (const auto& [participant, trace] : outcome.traces) {
    if (trace.info.has_value()) {
      std::printf("  %-18s op=%-12s t=%llu\n", participant.c_str(),
                  trace.info->operation.c_str(),
                  static_cast<unsigned long long>(trace.info->timestamp));
    }
  }

  // 5. Reputation is public.
  std::printf("\nreputation scores after the query:\n");
  for (const auto& [participant, score] :
       scenario.proxy().reputation_snapshot()) {
    std::printf("  %-18s %+5.1f\n", participant.c_str(), score);
  }
  return outcome.complete ? 0 : 1;
}
