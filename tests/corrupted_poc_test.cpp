// End-to-end corrupted-proof hardening (ISSUE satellite): a participant
// whose serialized POC proof arrives bit-flipped (wire corruption or crude
// tampering) must yield a clean verification failure at the proxy — a
// recorded violation plus a reputation penalty — and never an exception
// escaping the session loop.

#include <gtest/gtest.h>

#include <memory>

#include "desword/scenario.h"

namespace desword::protocol {
namespace {

using supplychain::DistributionConfig;
using supplychain::make_products;
using supplychain::ProductId;
using supplychain::SupplyChainGraph;

ScenarioConfig fast_config() {
  ScenarioConfig cfg;
  cfg.proxy.edb = zkedb::EdbConfig{4, 8, 512, "p256"};
  return cfg;
}

class CorruptedPocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = std::make_unique<Scenario>(SupplyChainGraph::paper_example(),
                                           fast_config());
    products_ = make_products(1, 1000, 8);
    DistributionConfig dist;
    dist.initial = "v0";
    dist.products = products_;
    dist.seed = 42;
    scenario_->run_task("task-1", dist);
  }

  ProductId product_with_path_length(std::size_t min_hops) const {
    for (const ProductId& p : products_) {
      const auto* path = scenario_->path_of(p);
      if (path != nullptr && path->size() >= min_hops) return p;
    }
    throw std::runtime_error("no product with long enough path");
  }

  /// Configures `participant` to bit-flip its serialized proofs for
  /// `product` before sending them.
  void corrupt(const std::string& participant, const ProductId& product) {
    QueryBehavior behavior;
    behavior.corrupt_proof.insert(product);
    scenario_->participant(participant).set_query_behavior(behavior);
  }

  std::unique_ptr<Scenario> scenario_;
  std::vector<ProductId> products_;
};

TEST_F(CorruptedPocTest, GoodQueryCorruptProofPenalizedCleanly) {
  const ProductId product = product_with_path_length(3);
  const auto& path = *scenario_->path_of(product);
  const std::string& cheater = path[1];
  corrupt(cheater, product);

  QueryOutcome outcome;
  // The corrupted proof must be classified inside the protocol: no
  // exception may escape the proxy's session loop into the caller.
  ASSERT_NO_THROW(outcome = scenario_->proxy().run_query(
                      product, ProductQuality::kGood));
  // The proxy records the invalid proof against the corrupting hop...
  EXPECT_TRUE(outcome.has_violation(
      cheater, ViolationType::kClaimProcessingInvalidProof));
  // ...and the double-edged award goes to the penalty edge.
  EXPECT_LT(scenario_->proxy().reputation(cheater), 0.0);
}

TEST_F(CorruptedPocTest, BadQueryCorruptProofPenalizedCleanly) {
  const ProductId product = product_with_path_length(3);
  const auto& path = *scenario_->path_of(product);
  const std::string& cheater = path[1];
  corrupt(cheater, product);

  QueryOutcome outcome;
  ASSERT_NO_THROW(outcome = scenario_->proxy().run_query(
                      product, ProductQuality::kBad));
  // Bad-case scan: the corrupt proof fails verification whichever shape
  // it arrives in (claimed ownership or denial), so the hop is flagged.
  ASSERT_FALSE(outcome.violations.empty());
  bool cheater_flagged = false;
  for (const Violation& v : outcome.violations) {
    if (v.participant == cheater) cheater_flagged = true;
  }
  EXPECT_TRUE(cheater_flagged);
  EXPECT_LT(scenario_->proxy().reputation(cheater), 0.0);
}

TEST_F(CorruptedPocTest, OtherProductsUnaffected) {
  const ProductId corrupted = product_with_path_length(3);
  const std::string& cheater = (*scenario_->path_of(corrupted))[1];
  corrupt(cheater, corrupted);

  // Queries for other products run clean: the deviation is scoped.
  for (const ProductId& p : products_) {
    if (p == corrupted) continue;
    const QueryOutcome outcome =
        scenario_->proxy().run_query(p, ProductQuality::kGood);
    EXPECT_TRUE(outcome.complete);
    EXPECT_TRUE(outcome.violations.empty());
  }
}

}  // namespace
}  // namespace desword::protocol
