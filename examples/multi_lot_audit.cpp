// Multi-lot regulatory audit — the applications layer end to end.
//
// Three lots from two manufacturers flow through the paper's Figure 1
// chain (multi-distribution tasks, §IV-D). The regulator then:
//
//   1. market-samples products across all lots (MarketSampler) with a lab
//      oracle that flags one contaminated product,
//   2. investigates the contamination (ContaminationInvestigator): source
//      localization + targeted recall set,
//   3. screens a gray-market product of unknown origin and a product from
//      an unlicensed source (CounterfeitDetector).
//
//   $ ./examples/multi_lot_audit
#include <cstdio>

#include "desword/applications.h"
#include "desword/scenario.h"

using namespace desword;
using namespace desword::protocol;

int main() {
  ScenarioConfig config;
  config.proxy.edb = zkedb::EdbConfig{4, 8, 512, "p256"};
  config.proxy.scores.weight_by_responsibility = true;
  Scenario scenario(supplychain::SupplyChainGraph::paper_example(), config);

  // Three lots: two from v0, one from v1 (multi-task POC queues).
  supplychain::DistributionConfig lot;
  lot.initial = "v0";
  lot.products = supplychain::make_products(1, 0, 5);
  scenario.run_task("lot-alpha", lot);
  const auto alpha = lot.products;

  lot.products = supplychain::make_products(1, 100, 5);
  lot.seed = 5;
  scenario.run_task("lot-beta", lot);
  const auto beta = lot.products;

  lot.initial = "v1";
  lot.products = supplychain::make_products(2, 200, 5);
  lot.seed = 9;
  scenario.run_task("lot-gamma", lot);
  const auto gamma = lot.products;

  std::printf("3 lots distributed (15 products, 2 manufacturers)\n");
  std::printf("POC queues: v0=%zu tasks, v1=%zu tasks\n\n",
              scenario.proxy().poc_queue("v0").size(),
              scenario.proxy().poc_queue("v1").size());

  // --- 1. Market sampling with a lab oracle -----------------------------
  const supplychain::ProductId contaminated = beta[2];
  std::vector<supplychain::ProductId> market;
  market.insert(market.end(), alpha.begin(), alpha.end());
  market.insert(market.end(), beta.begin(), beta.end());
  market.insert(market.end(), gamma.begin(), gamma.end());

  MarketSampler sampler(scenario.proxy(), /*seed=*/2026);
  const auto sampled = sampler.sweep(
      market, /*rate=*/0.5, [&](const supplychain::ProductId& p) {
        return p == contaminated ? ProductQuality::kBad
                                 : ProductQuality::kGood;
      });
  std::printf("market sweep: sampled %llu of %zu products\n",
              static_cast<unsigned long long>(sampler.sampled_count()),
              market.size());

  // --- 2. Contamination investigation -----------------------------------
  std::printf("\ninvestigating contaminated product %s (lot-beta)\n",
              supplychain::epc_to_string(contaminated).c_str());
  ContaminationInvestigator investigator(scenario.proxy());
  const InvestigationReport report =
      investigator.investigate(contaminated, beta, /*suspect_hop=*/1);
  if (report.located()) {
    std::printf("  source: %s, suspect stage: %s\n", report.source.c_str(),
                report.suspect_stage.c_str());
    std::printf("  recall set (%zu of %zu siblings):", report.recall_set.size(),
                beta.size() - 1);
    for (const auto& p : report.recall_set) {
      std::printf(" %s", supplychain::epc_to_string(p).c_str());
    }
    std::printf("\n");
  } else {
    std::printf("  investigation failed to locate the path\n");
  }

  // --- 3. Counterfeit screening ------------------------------------------
  CounterfeitDetector licensed_only_v0(scenario.proxy(), {"v0"});
  std::printf("\ncounterfeit screening (licensed manufacturers: v0):\n");
  const ProvenanceReport unknown =
      licensed_only_v0.check(supplychain::make_epc(9, 9, 99999));
  std::printf("  gray-market product : %-14s (%s)\n",
              to_string(unknown.verdict).c_str(), unknown.reason.c_str());
  const ProvenanceReport unlicensed = licensed_only_v0.check(gamma[0]);
  std::printf("  lot-gamma product   : %-14s (%s)\n",
              to_string(unlicensed.verdict).c_str(),
              unlicensed.reason.c_str());
  const ProvenanceReport genuine = licensed_only_v0.check(alpha[0]);
  std::printf("  lot-alpha product   : %-14s (%s)\n",
              to_string(genuine.verdict).c_str(), genuine.reason.c_str());

  std::printf("\nreputation board (responsibility-weighted):\n");
  for (const auto& [id, score] : scenario.proxy().reputation_snapshot()) {
    std::printf("  %-4s %+7.1f\n", id.c_str(), score);
  }

  const bool ok = report.located() &&
                  unknown.verdict == ProvenanceVerdict::kUnknownOrigin &&
                  unlicensed.verdict == ProvenanceVerdict::kSuspect &&
                  genuine.verdict == ProvenanceVerdict::kAuthentic;
  std::printf("\naudit checks passed: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
