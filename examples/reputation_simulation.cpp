// Reputation trajectories — the double-edged incentive, protocol in the
// loop.
//
// Runs several "market periods". In each period a lot is distributed and
// the proxy samples a few products for path queries; sampled products are
// bad with a small probability (the paper's "overwhelmingly good"
// regime). One mid-chain participant plays a deletion strategy, hiding a
// fraction of its traces every period. Period by period, the honest
// sibling participant accumulates reputation while the deleter stagnates —
// exactly Figure 3(a)'s trade-off realised through the actual protocol.
//
//   $ ./examples/reputation_simulation
#include <cstdio>

#include "common/rng.h"
#include "desword/scenario.h"

using namespace desword;
using namespace desword::protocol;

int main() {
  constexpr int kPeriods = 6;
  constexpr int kProductsPerLot = 6;
  constexpr double kBadProbability = 0.1;
  constexpr double kSampleRate = 0.7;

  // A diamond chain with two competing distributors: the honest one and
  // the deleter sit in parallel between the manufacturer and retailers.
  supplychain::SupplyChainGraph graph;
  graph.add_edge("factory", "honest-dist");
  graph.add_edge("factory", "shady-dist");
  graph.add_edge("honest-dist", "retail-1");
  graph.add_edge("shady-dist", "retail-2");

  ScenarioConfig config;
  config.proxy.edb = zkedb::EdbConfig{4, 8, 512, "p256"};
  Scenario scenario(graph, config);
  SimRng rng(20260707);

  std::printf("period | honest-dist | shady-dist | factory\n");
  std::printf("-------+-------------+------------+--------\n");

  for (int period = 0; period < kPeriods; ++period) {
    supplychain::DistributionConfig dist;
    dist.initial = "factory";
    dist.products = supplychain::make_products(
        9, static_cast<std::uint64_t>(period) * 100, kProductsPerLot);
    dist.seed = static_cast<std::uint64_t>(period) + 1;

    // The shady distributor deletes the traces of half the products it
    // expects to handle this period (it cannot know which will be
    // queried, or whether they will test good or bad — the double edge).
    const auto preview =
        supplychain::run_distribution(graph, dist);
    DistributionBehavior deletion;
    for (const auto& [product, path] : preview.paths) {
      if (path.size() > 1 && path[1] == "shady-dist" && rng.chance(0.5)) {
        deletion.delete_ids.insert(product);
      }
    }
    scenario.participant("shady-dist").set_distribution_behavior(deletion);

    const std::string task = "period-" + std::to_string(period);
    scenario.run_task(task, dist);

    // Market sampling: the proxy queries a subset of the lot.
    for (const auto& product : dist.products) {
      if (!rng.chance(kSampleRate)) continue;
      const ProductQuality quality = rng.chance(kBadProbability)
                                         ? ProductQuality::kBad
                                         : ProductQuality::kGood;
      (void)scenario.proxy().run_query(product, quality, task);
    }

    std::printf("%6d | %+11.1f | %+10.1f | %+6.1f\n", period,
                scenario.proxy().reputation("honest-dist"),
                scenario.proxy().reputation("shady-dist"),
                scenario.proxy().reputation("factory"));
  }

  const double honest = scenario.proxy().reputation("honest-dist");
  const double shady = scenario.proxy().reputation("shady-dist");
  std::printf("\nhonest distributor ends at %+0.1f, deleter at %+0.1f — "
              "hiding traces forfeits the good-product scores that make "
              "up a trustworthy reputation.\n",
              honest, shady);
  return honest > shady ? 0 : 1;
}
