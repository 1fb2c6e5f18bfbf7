// Contamination localization & targeted recall — the paper's motivating
// application (§I).
//
// A product quality administration discovers one bad product in the
// market. DE-Sword lets it (a) recover the product's verifiable path,
// (b) locate the contamination source (the path's first hop carries the
// heaviest responsibility weight), and (c) run good-product queries for
// the sibling products of the same lot to find everything else the source
// touched — the targeted recall set.
//
//   $ ./examples/contamination_recall
#include <algorithm>
#include <cstdio>

#include "desword/scenario.h"

using namespace desword;
using namespace desword::protocol;

int main() {
  // The paper's Figure 1 topology: v0/v1 initial, v5/v7/v8/v9 leaves.
  ScenarioConfig config;
  config.proxy.edb = zkedb::EdbConfig{4, 8, 512, "p256"};
  config.proxy.scores.weight_by_responsibility = true;  // source pays double
  Scenario scenario(supplychain::SupplyChainGraph::paper_example(), config);

  supplychain::DistributionConfig dist;
  dist.initial = "v0";
  dist.products = supplychain::make_products(7, 100, 8);  // one lot
  dist.seed = 2026;
  scenario.run_task("lot-7", dist);
  std::printf("lot-7 distributed: 8 products, POC list filed with proxy\n");

  // A quality check flags product #3 as contaminated.
  const supplychain::ProductId bad_product = dist.products[3];
  std::printf("\n!! contamination detected in %s — issuing bad product "
              "path query\n",
              supplychain::epc_to_string(bad_product).c_str());
  const QueryOutcome bad =
      scenario.proxy().run_query(bad_product, ProductQuality::kBad);
  if (!bad.complete) {
    std::printf("query aborted — violations: %zu\n", bad.violations.size());
    return 1;
  }
  std::printf("verified path:");
  for (const auto& hop : bad.path) std::printf(" -> %s", hop.c_str());
  const std::string source = bad.path.front();
  std::printf("\ncontamination source: %s (responsibility-weighted score "
              "%+0.1f)\n",
              source.c_str(), scenario.proxy().reputation(source));

  // Targeted recall: which other lot-7 products passed through the source?
  // (For a same-lot recall every product shares the initial participant;
  // the interesting set is everything sharing the *second* hop, where the
  // contamination was introduced in this scenario.)
  const std::string& suspect_stage = bad.path.size() > 1 ? bad.path[1] : source;
  std::printf("\nchecking the rest of the lot against suspect stage %s:\n",
              suspect_stage.c_str());
  int recalled = 0;
  for (const auto& product : dist.products) {
    if (product == bad_product) continue;
    const QueryOutcome sibling =
        scenario.proxy().run_query(product, ProductQuality::kGood);
    const bool affected =
        sibling.complete &&
        std::find(sibling.path.begin(), sibling.path.end(), suspect_stage) !=
            sibling.path.end();
    std::printf("  %s path verified (%zu hops) -> %s\n",
                supplychain::epc_to_string(product).c_str(),
                sibling.path.size(), affected ? "RECALL" : "clear");
    if (affected) ++recalled;
  }
  std::printf("\nrecall set: %d of %zu sibling products\n", recalled,
              dist.products.size() - 1);

  std::printf("\nfinal public reputation board:\n");
  for (const auto& [participant, score] :
       scenario.proxy().reputation_snapshot()) {
    std::printf("  %-4s %+6.1f\n", participant.c_str(), score);
  }
  return 0;
}
