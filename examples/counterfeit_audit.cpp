// Counterfeit detection audit — dishonest participants against the
// verifiable query (§III).
//
// Two frauds are staged and both are exposed by the proxy:
//
//   1. "claim processing": a participant that never handled a premium
//      product tries to free-ride on its good reputation during a good
//      product query. Its forged ownership proof cannot verify.
//   2. "claim non-processing": a participant that DID handle a product
//      later found bad tries to deny involvement. It cannot produce a
//      valid non-ownership proof, is identified anyway, and is penalized.
//
//   $ ./examples/counterfeit_audit
#include <cstdio>

#include "desword/scenario.h"

using namespace desword;
using namespace desword::protocol;

namespace {

void print_outcome(const char* label, const QueryOutcome& outcome) {
  std::printf("%s: %s, path:", label,
              outcome.complete ? "complete" : "incomplete");
  for (const auto& hop : outcome.path) std::printf(" -> %s", hop.c_str());
  std::printf("\n");
  for (const auto& violation : outcome.violations) {
    std::printf("  !! violation detected: %s by %s\n",
                to_string(violation.type).c_str(),
                violation.participant.c_str());
  }
}

}  // namespace

int main() {
  ScenarioConfig config;
  config.proxy.edb = zkedb::EdbConfig{4, 8, 512, "p256"};
  Scenario scenario(supplychain::SupplyChainGraph::paper_example(), config);

  // Two independent lots from the two initial participants.
  supplychain::DistributionConfig lot_a;
  lot_a.initial = "v0";
  lot_a.products = supplychain::make_products(1, 0, 4);
  scenario.run_task("lot-a", lot_a);

  supplychain::DistributionConfig lot_b;
  lot_b.initial = "v1";
  lot_b.products = supplychain::make_products(2, 50, 4);
  scenario.run_task("lot-b", lot_b);

  // Fraud 1: v0 claims it processed a premium product from v1's lot.
  const supplychain::ProductId premium = lot_b.products[0];
  QueryBehavior freerider;
  freerider.claim_processing.insert(premium);
  scenario.participant("v0").set_query_behavior(freerider);

  std::printf("audit 1: good product query for %s (v0 will lie)\n",
              supplychain::epc_to_string(premium).c_str());
  const QueryOutcome audit1 =
      scenario.proxy().run_query(premium, ProductQuality::kGood);
  print_outcome("audit 1", audit1);
  std::printf("  query recovered the true path despite the lie "
              "(starts at %s)\n\n",
              audit1.path.empty() ? "?" : audit1.path.front().c_str());
  scenario.participant("v0").set_query_behavior({});

  // Fraud 2: a participant on a bad product's path denies processing.
  const supplychain::ProductId flagged = lot_a.products[2];
  const auto* path = scenario.path_of(flagged);
  const std::string denier = (*path)[1];
  QueryBehavior denial;
  denial.claim_non_processing.insert(flagged);
  scenario.participant(denier).set_query_behavior(denial);

  std::printf("audit 2: bad product query for %s (%s will deny)\n",
              supplychain::epc_to_string(flagged).c_str(), denier.c_str());
  const QueryOutcome audit2 =
      scenario.proxy().run_query(flagged, ProductQuality::kBad);
  print_outcome("audit 2", audit2);

  std::printf("\nreputation board after the audits:\n");
  for (const auto& [participant, score] :
       scenario.proxy().reputation_snapshot()) {
    std::printf("  %-4s %+6.1f%s\n", participant.c_str(), score,
                score < -2.5 ? "   <- penalized cheater" : "");
  }
  const bool both_detected =
      audit1.has_violation("v0",
                           ViolationType::kClaimProcessingInvalidProof) &&
      audit2.has_violation(denier,
                           ViolationType::kClaimNonProcessingInvalidProof);
  std::printf("\nboth frauds detected: %s\n", both_detected ? "yes" : "NO");
  return both_detected ? 0 : 1;
}
