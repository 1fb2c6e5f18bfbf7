#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "desword/applications.h"
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

class ApplicationsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = std::make_unique<Scenario>(SupplyChainGraph::paper_example(),
                                           fast_config());
    products_ = make_products(1, 500, 8);
    DistributionConfig dist;
    dist.initial = "v0";
    dist.products = products_;
    dist.seed = 11;
    scenario_->run_task("lot", dist);
  }

  std::unique_ptr<Scenario> scenario_;
  std::vector<ProductId> products_;
};

TEST_F(ApplicationsTest, InvestigationLocatesSourceAndRecallSet) {
  ContaminationInvestigator investigator(scenario_->proxy());
  const ProductId bad = products_[0];
  const InvestigationReport report =
      investigator.investigate(bad, products_, /*suspect_hop=*/1);

  ASSERT_TRUE(report.located());
  EXPECT_EQ(report.source, "v0");
  EXPECT_EQ(report.suspect_stage, (*scenario_->path_of(bad))[1]);
  EXPECT_EQ(report.sibling_queries.size(), products_.size() - 1);

  // The recall set is exactly the siblings whose ground-truth paths pass
  // through the suspect stage.
  std::vector<ProductId> expected;
  for (const ProductId& p : products_) {
    if (p == bad) continue;
    const auto& path = *scenario_->path_of(p);
    if (std::find(path.begin(), path.end(), report.suspect_stage) !=
        path.end()) {
      expected.push_back(p);
    }
  }
  EXPECT_EQ(report.recall_set, expected);
}

TEST_F(ApplicationsTest, InvestigationOfUnknownProductReportsNotLocated) {
  ContaminationInvestigator investigator(scenario_->proxy());
  const InvestigationReport report = investigator.investigate(
      supplychain::make_epc(9, 9, 9), products_, 1);
  EXPECT_FALSE(report.located());
  EXPECT_TRUE(report.recall_set.empty());
}

TEST_F(ApplicationsTest, CounterfeitDetectorAuthenticatesRealProducts) {
  CounterfeitDetector detector(scenario_->proxy(), {"v0", "v1"});
  const ProvenanceReport report = detector.check(products_[1]);
  EXPECT_EQ(report.verdict, ProvenanceVerdict::kAuthentic);
}

TEST_F(ApplicationsTest, CounterfeitDetectorFlagsUnknownProducts) {
  CounterfeitDetector detector(scenario_->proxy(), {"v0", "v1"});
  const ProvenanceReport report =
      detector.check(supplychain::make_epc(7, 7, 7777));
  EXPECT_EQ(report.verdict, ProvenanceVerdict::kUnknownOrigin);
  EXPECT_EQ(to_string(report.verdict), "unknown-origin");
}

TEST_F(ApplicationsTest, CounterfeitDetectorFlagsUnlicensedOrigin) {
  // License only v1; products from v0's task become suspect.
  CounterfeitDetector detector(scenario_->proxy(), {"v1"});
  const ProvenanceReport report = detector.check(products_[0]);
  EXPECT_EQ(report.verdict, ProvenanceVerdict::kSuspect);
  EXPECT_NE(report.reason.find("unlicensed"), std::string::npos);
}

TEST_F(ApplicationsTest, CounterfeitDetectorFlagsBrokenChain) {
  // A mid-path participant goes dark: chain breaks, product is suspect.
  const ProductId product = products_[2];
  const auto& path = *scenario_->path_of(product);
  QueryBehavior dark;
  dark.unresponsive = true;
  scenario_->participant(path[1]).set_query_behavior(dark);

  CounterfeitDetector detector(scenario_->proxy(), {"v0", "v1"});
  const ProvenanceReport report = detector.check(product);
  EXPECT_EQ(report.verdict, ProvenanceVerdict::kSuspect);
}

TEST_F(ApplicationsTest, MarketSamplerRespectsRateAndScores) {
  MarketSampler sampler(scenario_->proxy(), /*seed=*/5);
  const auto outcomes = sampler.sweep(
      products_, /*rate=*/1.0,
      [](const ProductId&) { return ProductQuality::kGood; });
  EXPECT_EQ(outcomes.size(), products_.size());
  EXPECT_EQ(sampler.sampled_count(), products_.size());
  // Every participant on any path earned positive reputation.
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.complete);
    for (const auto& hop : outcome.path) {
      EXPECT_GT(scenario_->proxy().reputation(hop), 0.0);
    }
  }

  MarketSampler never(scenario_->proxy(), 6);
  EXPECT_TRUE(never
                  .sweep(products_, 0.0,
                         [](const ProductId&) { return ProductQuality::kGood; })
                  .empty());
}

TEST_F(ApplicationsTest, MarketSamplerUsesOracleQuality) {
  MarketSampler sampler(scenario_->proxy(), 7);
  const ProductId bad_one = products_[3];
  const auto outcomes = sampler.sweep(
      products_, 1.0, [&](const ProductId& p) {
        return p == bad_one ? ProductQuality::kBad : ProductQuality::kGood;
      });
  bool saw_bad = false;
  for (const auto& outcome : outcomes) {
    if (outcome.product == bad_one) {
      EXPECT_EQ(outcome.quality, ProductQuality::kBad);
      saw_bad = true;
    }
  }
  EXPECT_TRUE(saw_bad);
}

}  // namespace
}  // namespace desword::protocol
