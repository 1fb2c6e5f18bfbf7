#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "desword/scenario.h"
#include "obs/metrics.h"

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

/// Paper-example scenario with one task of 8 products from v0.
class ProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = std::make_unique<Scenario>(SupplyChainGraph::paper_example(),
                                           fast_config());
    products_ = make_products(1, 1000, 8);
  }

  /// Runs the task (call after configuring distribution behaviours).
  void run_task() {
    DistributionConfig dist;
    dist.initial = "v0";
    dist.products = products_;
    dist.seed = 42;
    scenario_->run_task("task-1", dist);
  }

  /// A product whose ground-truth path has at least `min_hops` hops.
  ProductId product_with_path_length(std::size_t min_hops) const {
    for (const ProductId& p : products_) {
      const auto* path = scenario_->path_of(p);
      if (path != nullptr && path->size() >= min_hops) return p;
    }
    throw std::runtime_error("no product with long enough path");
  }

  std::unique_ptr<Scenario> scenario_;
  std::vector<ProductId> products_;
};

TEST_F(ProtocolTest, DistributionPhaseBuildsPocList) {
  run_task();
  const poc::PocList* list = scenario_->proxy().task_list("task-1");
  ASSERT_NE(list, nullptr);
  const auto& truth = scenario_->truth("task-1");
  EXPECT_EQ(list->poc_count(), truth.involved.size());
  // Every used edge appears as a POC pair.
  for (const auto& [parent, children] : truth.used_edges) {
    for (const auto& child : children) {
      EXPECT_TRUE(list->has_edge(parent, child)) << parent << "->" << child;
    }
  }
  EXPECT_EQ(list->initial_participants(),
            (std::vector<std::string>{"v0"}));
  // The proxy's POC queue for v0 has one entry.
  EXPECT_EQ(scenario_->proxy().poc_queue("v0").size(), 1u);
}

TEST_F(ProtocolTest, EveryEndpointSharesOneTransport) {
  // One transport per deployment, like serve-* and perfbench: every
  // endpoint's frames cross the same fault injector and every endpoint's
  // timers fire from the same poll loop.
  const net::Transport* shared = &scenario_->transport();
  EXPECT_EQ(&scenario_->proxy().transport(), shared);
  for (const auto& id : scenario_->graph().participants()) {
    EXPECT_EQ(&scenario_->participant(id).transport(), shared) << id;
  }
}

TEST_F(ProtocolTest, HonestGoodQueryRecoversFullPath) {
  run_task();
  const ProductId product = product_with_path_length(3);
  const QueryOutcome outcome =
      scenario_->proxy().run_query(product, ProductQuality::kGood);
  EXPECT_TRUE(outcome.complete);
  EXPECT_TRUE(outcome.violations.empty());
  EXPECT_EQ(outcome.path, *scenario_->path_of(product));
  // Every recovered trace decodes and names its participant.
  for (const auto& hop : outcome.path) {
    const auto it = outcome.traces.find(hop);
    ASSERT_NE(it, outcome.traces.end());
    ASSERT_TRUE(it->second.info.has_value());
    EXPECT_EQ(it->second.info->participant, hop);
  }
}

TEST_F(ProtocolTest, HonestBadQueryRecoversFullPath) {
  run_task();
  const ProductId product = product_with_path_length(3);
  const QueryOutcome outcome =
      scenario_->proxy().run_query(product, ProductQuality::kBad);
  EXPECT_TRUE(outcome.complete);
  EXPECT_TRUE(outcome.violations.empty());
  EXPECT_EQ(outcome.path, *scenario_->path_of(product));
}

TEST_F(ProtocolTest, DoubleEdgedReputationAwards) {
  run_task();
  const ProductId good = product_with_path_length(2);
  const QueryOutcome good_outcome =
      scenario_->proxy().run_query(good, ProductQuality::kGood);
  ASSERT_TRUE(good_outcome.complete);
  for (const auto& hop : good_outcome.path) {
    EXPECT_DOUBLE_EQ(scenario_->proxy().reputation(hop), 1.0) << hop;
  }
  // A second, bad query for another product subtracts 2.0 from its path.
  ProductId bad;
  for (const ProductId& p : products_) {
    if (p != good) {
      bad = p;
      break;
    }
  }
  const QueryOutcome bad_outcome =
      scenario_->proxy().run_query(bad, ProductQuality::kBad);
  ASSERT_TRUE(bad_outcome.complete);
  for (const auto& hop : bad_outcome.path) {
    const bool also_in_good =
        std::find(good_outcome.path.begin(), good_outcome.path.end(), hop) !=
        good_outcome.path.end();
    EXPECT_DOUBLE_EQ(scenario_->proxy().reputation(hop),
                     also_in_good ? -1.0 : -2.0)
        << hop;
  }
}

TEST_F(ProtocolTest, QueryForUnknownProductFindsNothing) {
  run_task();
  const ProductId unknown = supplychain::make_epc(9, 9, 9999);
  const QueryOutcome outcome =
      scenario_->proxy().run_query(unknown, ProductQuality::kGood);
  EXPECT_FALSE(outcome.complete);
  EXPECT_TRUE(outcome.path.empty());
  EXPECT_TRUE(outcome.violations.empty());
}

TEST_F(ProtocolTest, TaskHintSkipsScan) {
  run_task();
  const ProductId product = product_with_path_length(2);
  const QueryOutcome outcome = scenario_->proxy().run_query(
      product, ProductQuality::kGood, std::string("task-1"));
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.task_id, "task-1");
  EXPECT_THROW(scenario_->proxy().run_query(product, ProductQuality::kGood,
                                            std::string("no-such-task")),
               ProtocolError);
}

// ---------------------------------------------------------------------------
// Distribution-phase dishonesty (§III-A): the double-edged incentive cases.
// ---------------------------------------------------------------------------

TEST_F(ProtocolTest, DeletionEscapesBothQueriesUnidentified) {
  // Fig. 3(a): a deleting participant is never identified — it avoids the
  // negative score of a bad query but forfeits the positive score of a
  // good query.
  const ProductId product = supplychain::make_epc(1, 1, 1000);  // in batch
  // Find its path first via a dry-run of the routing (same seed).
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = products_;
  dist.seed = 42;
  const auto preview = supplychain::run_distribution(
      SupplyChainGraph::paper_example(), dist);
  const auto& path = preview.paths.at(product);
  ASSERT_GE(path.size(), 2u);
  const std::string deleter = path[1];  // a mid-path participant

  DistributionBehavior behavior;
  behavior.delete_ids.insert(product);
  scenario_->participant(deleter).set_distribution_behavior(behavior);
  run_task();

  const QueryOutcome good =
      scenario_->proxy().run_query(product, ProductQuality::kGood);
  EXPECT_FALSE(good.complete);  // the walk dead-ends at the deleter
  EXPECT_EQ(std::count(good.path.begin(), good.path.end(), deleter), 0);
  EXPECT_DOUBLE_EQ(scenario_->proxy().reputation(deleter), 0.0);

  const QueryOutcome bad =
      scenario_->proxy().run_query(product, ProductQuality::kBad);
  EXPECT_EQ(std::count(bad.path.begin(), bad.path.end(), deleter), 0);
  EXPECT_DOUBLE_EQ(scenario_->proxy().reputation(deleter), 0.0);
}

TEST_F(ProtocolTest, AdditionFacesBothEdges) {
  // Fig. 3(b): an adding participant IS identified whenever the faked
  // product is queried — positive score if good, negative if bad. The
  // faker here is initial participant v0 of its own task; the faked
  // product belongs to a task initiated by v1 (so the scan hits v0 first:
  // queue order is lexicographic).
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  const auto own_products = make_products(1, 0, 4);
  const auto victim_products = make_products(2, 100, 4);
  const ProductId faked = victim_products[0];

  DistributionBehavior behavior;
  behavior.add_fake[faked] = bytes_of("fabricated-da");
  scenario.participant("v0").set_distribution_behavior(behavior);

  DistributionConfig dist_a;
  dist_a.initial = "v0";
  dist_a.products = own_products;
  scenario.run_task("task-a", dist_a);

  scenario.participant("v0").set_distribution_behavior({});
  DistributionConfig dist_b;
  dist_b.initial = "v1";
  dist_b.products = victim_products;
  scenario.run_task("task-b", dist_b);

  // Bad query: v0 cannot deny the faked product under its task-a POC.
  const QueryOutcome bad =
      scenario.proxy().run_query(faked, ProductQuality::kBad);
  ASSERT_FALSE(bad.path.empty());
  EXPECT_EQ(bad.path.front(), "v0");
  EXPECT_LT(scenario.proxy().reputation("v0"), 0.0);

  // Good query (fresh scenario to reset scores): v0 earns the positive
  // score with a valid ownership proof for the faked product.
  Scenario scenario2(SupplyChainGraph::paper_example(), fast_config());
  scenario2.participant("v0").set_distribution_behavior(behavior);
  DistributionConfig dist_a2 = dist_a;
  scenario2.run_task("task-a", dist_a2);
  scenario2.participant("v0").set_distribution_behavior({});
  scenario2.run_task("task-b", dist_b);

  const QueryOutcome good =
      scenario2.proxy().run_query(faked, ProductQuality::kGood);
  ASSERT_FALSE(good.path.empty());
  EXPECT_EQ(good.path.front(), "v0");
  EXPECT_GE(scenario2.proxy().reputation("v0"), 1.0 - 5.0);  // may also be
  // penalized for the inconsistent walk that follows — the positive award
  // itself must be present in the ledger:
  bool positive_awarded = false;
  for (const auto& event : scenario2.proxy().ledger().history()) {
    if (event.participant == "v0" && event.delta > 0) positive_awarded = true;
  }
  EXPECT_TRUE(positive_awarded);
}

TEST_F(ProtocolTest, ModificationReturnsCommittedValue) {
  // Modification hides the original da; the query verifiably returns the
  // *committed* (modified) value — the ZK-EDB binds v to what it chose to
  // commit.
  const ProductId product = supplychain::make_epc(1, 1, 1001);
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = products_;
  dist.seed = 42;
  const auto preview = supplychain::run_distribution(
      SupplyChainGraph::paper_example(), dist);
  const std::string modifier = preview.paths.at(product)[0];

  DistributionBehavior behavior;
  behavior.modify[product] = bytes_of("redacted");
  scenario_->participant(modifier).set_distribution_behavior(behavior);
  run_task();

  const QueryOutcome outcome =
      scenario_->proxy().run_query(product, ProductQuality::kGood);
  ASSERT_TRUE(outcome.traces.find(modifier) != outcome.traces.end());
  EXPECT_EQ(outcome.traces.at(modifier).da, bytes_of("redacted"));
  EXPECT_FALSE(outcome.traces.at(modifier).info.has_value());
}

// ---------------------------------------------------------------------------
// Query-phase dishonesty (§III-B): every behaviour must be detected.
// ---------------------------------------------------------------------------

class QueryAdversaryTest : public ProtocolTest {
 protected:
  /// Runs the task honestly, then configures a query-phase deviation on
  /// the participant at `hop_index` of some product's path.
  struct Setup {
    ProductId product;
    std::string cheater;
  };

  Setup prepare(std::size_t hop_index, std::size_t min_hops = 3) {
    run_task();
    const ProductId product = product_with_path_length(min_hops);
    const auto& path = *scenario_->path_of(product);
    return Setup{product, path[hop_index]};
  }
};

TEST_F(QueryAdversaryTest, ClaimNonProcessingDetected) {
  const Setup setup = prepare(1);
  QueryBehavior behavior;
  behavior.claim_non_processing.insert(setup.product);
  scenario_->participant(setup.cheater).set_query_behavior(behavior);

  const QueryOutcome outcome =
      scenario_->proxy().run_query(setup.product, ProductQuality::kBad);
  EXPECT_TRUE(outcome.has_violation(
      setup.cheater, ViolationType::kClaimNonProcessingInvalidProof));
  // The cheater is identified anyway (honest reveal follows) and the walk
  // continues to completion.
  EXPECT_TRUE(outcome.complete);
  EXPECT_NE(std::find(outcome.path.begin(), outcome.path.end(), setup.cheater),
            outcome.path.end());
  EXPECT_LT(scenario_->proxy().reputation(setup.cheater), -2.0);
}

TEST_F(QueryAdversaryTest, ClaimProcessingDetectedAndQueryRecovers) {
  // v1 (an initial participant of no task... it runs no task here, so use
  // a two-initial setup): distribute from v0; v1 runs its own empty-ish
  // task and fakes a processing claim for v0's product at scan time.
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  const auto products_a = make_products(1, 0, 4);
  const auto products_b = make_products(2, 50, 4);

  DistributionConfig dist_a;  // task from v0 — "task-a" sorts first
  dist_a.initial = "v0";
  dist_a.products = products_a;
  scenario.run_task("task-a", dist_a);
  DistributionConfig dist_b;
  dist_b.initial = "v1";
  dist_b.products = products_b;
  scenario.run_task("task-b", dist_b);

  const ProductId target = products_b[0];  // belongs to v1's task
  QueryBehavior behavior;
  behavior.claim_processing.insert(target);
  scenario.participant("v0").set_query_behavior(behavior);

  const QueryOutcome outcome =
      scenario.proxy().run_query(target, ProductQuality::kGood);
  EXPECT_TRUE(outcome.has_violation(
      "v0", ViolationType::kClaimProcessingInvalidProof));
  // The scan advanced past the liar and completed via the true task.
  EXPECT_TRUE(outcome.complete);
  ASSERT_FALSE(outcome.path.empty());
  EXPECT_EQ(outcome.path.front(), "v1");
  EXPECT_LT(scenario.proxy().reputation("v0"), 0.0);
}

TEST_F(QueryAdversaryTest, WrongTraceDetectedOnReveal) {
  const Setup setup = prepare(1);
  QueryBehavior behavior;
  behavior.wrong_trace.insert(setup.product);
  scenario_->participant(setup.cheater).set_query_behavior(behavior);

  const QueryOutcome outcome =
      scenario_->proxy().run_query(setup.product, ProductQuality::kBad);
  EXPECT_TRUE(
      outcome.has_violation(setup.cheater, ViolationType::kInvalidReveal));
  EXPECT_FALSE(outcome.complete);
}

TEST_F(QueryAdversaryTest, WrongTraceDetectedInGoodQuery) {
  const Setup setup = prepare(1);
  QueryBehavior behavior;
  behavior.wrong_trace.insert(setup.product);
  scenario_->participant(setup.cheater).set_query_behavior(behavior);

  const QueryOutcome outcome =
      scenario_->proxy().run_query(setup.product, ProductQuality::kGood);
  EXPECT_TRUE(outcome.has_violation(
      setup.cheater, ViolationType::kClaimProcessingInvalidProof));
  EXPECT_FALSE(outcome.complete);
}

TEST_F(QueryAdversaryTest, RefusedRevealDetected) {
  const Setup setup = prepare(1);
  QueryBehavior behavior;
  behavior.refuse_reveal = true;
  scenario_->participant(setup.cheater).set_query_behavior(behavior);

  const QueryOutcome outcome =
      scenario_->proxy().run_query(setup.product, ProductQuality::kBad);
  EXPECT_TRUE(
      outcome.has_violation(setup.cheater, ViolationType::kRefusedReveal));
}

TEST_F(QueryAdversaryTest, WrongNextHopNotChildDetected) {
  const Setup setup = prepare(0);
  QueryBehavior behavior;
  behavior.wrong_next[setup.product] = "v9";  // not a child of v0 in the list
  scenario_->participant(setup.cheater).set_query_behavior(behavior);

  const QueryOutcome outcome =
      scenario_->proxy().run_query(setup.product, ProductQuality::kGood);
  EXPECT_TRUE(outcome.has_violation(setup.cheater,
                                    ViolationType::kWrongNextHopNotChild));
  EXPECT_FALSE(outcome.complete);
}

TEST_F(QueryAdversaryTest, MisdirectionToSiblingDetected) {
  // The referrer names a participant that IS its child in the POC list but
  // did not process this product; the child's valid non-ownership proof
  // exposes the referrer.
  run_task();
  const auto& truth = scenario_->truth("task-1");
  // Find a hop with >= 2 used children and a product routed through one.
  ProductId product;
  std::string referrer;
  std::string sibling;
  for (const auto& [id, path] : truth.paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto it = truth.used_edges.find(path[i]);
      if (it == truth.used_edges.end() || it->second.size() < 2) continue;
      for (const auto& child : it->second) {
        if (child != path[i + 1] &&
            !truth.databases.at(child).has(id)) {
          product = id;
          referrer = path[i];
          sibling = child;
          break;
        }
      }
      if (!referrer.empty()) break;
    }
    if (!referrer.empty()) break;
  }
  ASSERT_FALSE(referrer.empty()) << "workload lacks a suitable fork";

  QueryBehavior behavior;
  behavior.wrong_next[product] = sibling;
  scenario_->participant(referrer).set_query_behavior(behavior);

  const QueryOutcome outcome =
      scenario_->proxy().run_query(product, ProductQuality::kBad);
  EXPECT_TRUE(outcome.has_violation(
      referrer, ViolationType::kWrongNextHopNotProcessed));
  EXPECT_FALSE(outcome.complete);
}

TEST_F(QueryAdversaryTest, SelfNextHopDetected) {
  // Naming yourself as the next hop is a revisit — caught by the loop
  // guard, not just the edge check.
  const Setup setup = prepare(0);
  QueryBehavior behavior;
  behavior.wrong_next[setup.product] = setup.cheater;
  scenario_->participant(setup.cheater).set_query_behavior(behavior);

  const QueryOutcome outcome =
      scenario_->proxy().run_query(setup.product, ProductQuality::kGood);
  EXPECT_TRUE(outcome.has_violation(setup.cheater,
                                    ViolationType::kWrongNextHopNotChild));
  EXPECT_FALSE(outcome.complete);
}

TEST_F(QueryAdversaryTest, FalseTerminationDetected) {
  const Setup setup = prepare(0);
  QueryBehavior behavior;
  behavior.false_termination.insert(setup.product);
  scenario_->participant(setup.cheater).set_query_behavior(behavior);

  const QueryOutcome outcome =
      scenario_->proxy().run_query(setup.product, ProductQuality::kGood);
  EXPECT_TRUE(outcome.has_violation(setup.cheater,
                                    ViolationType::kFalseTermination));
  EXPECT_FALSE(outcome.complete);
}

TEST_F(QueryAdversaryTest, UnresponsiveParticipantDetected) {
  const Setup setup = prepare(1);
  QueryBehavior behavior;
  behavior.unresponsive = true;
  scenario_->participant(setup.cheater).set_query_behavior(behavior);

  const QueryOutcome outcome =
      scenario_->proxy().run_query(setup.product, ProductQuality::kGood);
  EXPECT_TRUE(
      outcome.has_violation(setup.cheater, ViolationType::kNoResponse));
  EXPECT_FALSE(outcome.complete);
}

TEST_F(QueryAdversaryTest, ColludingWrongTracesAllDetected) {
  // §III-B collusion example: "all the participants on a path may return
  // wrong RFID-traces to let the proxy collect wrong while seemingly
  // correct path information". With a correct POC list the very first
  // tampered proof fails verification — the proxy never accepts a wrong
  // trace, it aborts with a violation.
  run_task();
  const ProductId product = product_with_path_length(3);
  const auto& path = *scenario_->path_of(product);
  for (const auto& hop : path) {
    QueryBehavior behavior;
    behavior.wrong_trace.insert(product);
    scenario_->participant(hop).set_query_behavior(behavior);
  }
  const QueryOutcome outcome =
      scenario_->proxy().run_query(product, ProductQuality::kGood);
  EXPECT_FALSE(outcome.complete);
  EXPECT_TRUE(outcome.traces.empty());  // no wrong trace was accepted
  EXPECT_TRUE(outcome.has_violation(
      path[0], ViolationType::kClaimProcessingInvalidProof));
}

TEST_F(QueryAdversaryTest, ColludingPathDeletionEscapesDetection) {
  // §III-A collusion: every participant on a path deletes the product's
  // trace. The query finds nothing and nobody is identified — exactly the
  // residual risk the double-edged incentive (not cryptography) addresses.
  const ProductId product = supplychain::make_epc(1, 1, 1002);
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = products_;
  dist.seed = 42;
  const auto preview = supplychain::run_distribution(
      SupplyChainGraph::paper_example(), dist);
  const auto& path = preview.paths.at(product);
  for (const auto& hop : path) {
    DistributionBehavior behavior;
    behavior.delete_ids.insert(product);
    scenario_->participant(hop).set_distribution_behavior(behavior);
  }
  run_task();

  const QueryOutcome outcome =
      scenario_->proxy().run_query(product, ProductQuality::kBad);
  EXPECT_FALSE(outcome.complete);
  EXPECT_TRUE(outcome.path.empty());
  for (const auto& hop : path) {
    EXPECT_DOUBLE_EQ(scenario_->proxy().reputation(hop), 0.0) << hop;
  }
}

// ---------------------------------------------------------------------------
// Multi-task (§IV-D) and fault injection.
// ---------------------------------------------------------------------------

TEST_F(ProtocolTest, MultiTaskQueuesAndQueries) {
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  const auto products_a = make_products(1, 0, 4);
  const auto products_b = make_products(2, 50, 4);
  const auto products_c = make_products(3, 90, 4);

  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = products_a;
  scenario.run_task("task-a", dist);
  dist.products = products_c;
  dist.seed = 7;
  scenario.run_task("task-c", dist);
  dist.initial = "v1";
  dist.products = products_b;
  scenario.run_task("task-b", dist);

  // v0 initiated two tasks, v1 one — queue sizes reflect that (§IV-D).
  EXPECT_EQ(scenario.proxy().poc_queue("v0").size(), 2u);
  EXPECT_EQ(scenario.proxy().poc_queue("v1").size(), 1u);

  // Queries without a task hint resolve to the right task.
  const QueryOutcome a =
      scenario.proxy().run_query(products_a[0], ProductQuality::kGood);
  EXPECT_TRUE(a.complete);
  EXPECT_EQ(a.task_id, "task-a");
  const QueryOutcome b =
      scenario.proxy().run_query(products_b[1], ProductQuality::kBad);
  EXPECT_TRUE(b.complete);
  EXPECT_EQ(b.task_id, "task-b");
  const QueryOutcome c =
      scenario.proxy().run_query(products_c[2], ProductQuality::kGood);
  EXPECT_TRUE(c.complete);
  EXPECT_EQ(c.task_id, "task-c");
}

/// Retry budget of the lossy cells. With 30% loss each way a round trip
/// fails with p = 1 - 0.7^2 = 0.51, so a hop that gets 1 + 10 attempts
/// fails with p = 0.51^11 < 1e-3. The default budget of 3 completes a
/// 3-hop good walk in only 11 of 20 plan seeds.
constexpr int kLossyRetries = 10;

/// A plan applying `faults` to every frame to or from the proxy.
net::FaultPlan proxy_link_plan(const net::LinkFaults& faults) {
  net::FaultPlan plan;
  plan.rules.push_back(net::FaultRule{"proxy", "", faults});
  plan.rules.push_back(net::FaultRule{"", "proxy", faults});
  return plan;
}

TEST_F(ProtocolTest, QuerySurvivesLossyLinks) {
  ScenarioConfig cfg = fast_config();
  cfg.proxy.max_retries = kLossyRetries;
  scenario_ = std::make_unique<Scenario>(SupplyChainGraph::paper_example(),
                                         cfg);
  run_task();
  const ProductId product = product_with_path_length(3);
  // Make every link to/from the proxy lossy AFTER the distribution phase.
  scenario_->fault_injector().set_plan(proxy_link_plan({.drop_rate = 0.3}));
  const QueryOutcome outcome =
      scenario_->proxy().run_query(product, ProductQuality::kGood);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.path, *scenario_->path_of(product));
}

TEST_F(ProtocolTest, QuerySurvivesChaos) {
  // Drops + duplicates + delays on every proxy link at once: the protocol
  // must stay correct (idempotent handlers, phase-gated sessions,
  // retransmission), not merely available. At 20% loss a round trip fails
  // with p = 0.36, well inside the lossy cells' budget.
  ScenarioConfig cfg = fast_config();
  cfg.proxy.max_retries = kLossyRetries;
  scenario_ = std::make_unique<Scenario>(SupplyChainGraph::paper_example(),
                                         cfg);
  run_task();
  const ProductId product = product_with_path_length(3);
  const net::LinkFaults chaos = {.drop_rate = 0.2, .delay_rate = 0.3,
                                 .delay = 7, .duplicate_rate = 0.3};
  scenario_->fault_injector().set_plan(proxy_link_plan(chaos));
  for (int i = 0; i < 3; ++i) {
    const QueryOutcome outcome =
        scenario_->proxy().run_query(product, ProductQuality::kGood);
    ASSERT_TRUE(outcome.complete) << "round " << i;
    EXPECT_EQ(outcome.path, *scenario_->path_of(product));
  }
}

TEST_F(ProtocolTest, GarbageMessagesDoNotCrashEndpoints) {
  run_task();
  SimRng rng(99);
  auto& net = scenario_->network();
  const std::vector<std::string> types = {
      msg::kPsResponse,    msg::kPsBroadcast,     msg::kPocToParent,
      msg::kPocPairsToInitial, msg::kQueryRequest, msg::kRevealRequest,
      msg::kNextHopRequest, msg::kQueryResponse,  msg::kRevealResponse,
      msg::kNextHopResponse, msg::kPocListSubmit, "unknown_type"};
  for (int i = 0; i < 300; ++i) {
    const std::string& type = types[rng.below(types.size())];
    const net::NodeId to = rng.chance(0.5)
                               ? net::NodeId("proxy")
                               : net::NodeId("v" + std::to_string(
                                                 rng.below(10)));
    net.send("proxy", to, type, rng.bytes(rng.below(64)));
  }
  net.run();  // must not throw or crash
  // The system still works afterwards.
  const ProductId product = product_with_path_length(2);
  EXPECT_TRUE(
      scenario_->proxy().run_query(product, ProductQuality::kGood).complete);
}

TEST_F(ProtocolTest, DistributionSurvivesDuplicatesAndDelays) {
  // Duplicate + reorder every message during the DISTRIBUTION phase (the
  // chaos tests above only stress the query phase). Duplicated ps
  // responses, POCs and pair reports must all be absorbed idempotently,
  // and the resulting deployment must behave exactly like a clean one.
  net::FaultPlan noisy;
  noisy.default_faults = {.delay_rate = 0.3, .delay = 9,
                          .duplicate_rate = 0.3};
  scenario_->fault_injector().set_plan(noisy);
  const std::uint64_t duplicated_before =
      obs::metric("net.fault.duplicated").value();
  run_task();

  ASSERT_NE(scenario_->proxy().task_list("task-1"), nullptr);
  const ProductId product = product_with_path_length(3);
  const QueryOutcome outcome =
      scenario_->proxy().run_query(product, ProductQuality::kGood);
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.path, *scenario_->path_of(product));
  EXPECT_TRUE(outcome.violations.empty());
  // Reputation is pinned to the clean-run values: duplicates must not
  // double-apply scores anywhere.
  for (const auto& hop : outcome.path) {
    EXPECT_DOUBLE_EQ(scenario_->proxy().reputation(hop), 1.0) << hop;
  }
  EXPECT_GT(obs::metric("net.fault.duplicated").value(), duplicated_before);
}

TEST_F(ProtocolTest, DuplicatedRequestsServedFromReplyCache) {
  run_task();
  const ProductId product = product_with_path_length(3);
  // Deliver every proxy->participant request twice: participants answer
  // the copy from their reply cache instead of regenerating proofs.
  net::FaultPlan duplicate_all;
  duplicate_all.rules.push_back(
      net::FaultRule{"proxy", "", {.duplicate_rate = 1.0}});
  scenario_->fault_injector().set_plan(duplicate_all);
  std::map<std::string, std::uint64_t> proofs_before;
  for (const auto& id : scenario_->graph().participants()) {
    proofs_before[id] = scenario_->participant(id).stats().proofs_generated;
  }

  const QueryOutcome outcome =
      scenario_->proxy().run_query(product, ProductQuality::kGood);
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.path, *scenario_->path_of(product));

  std::uint64_t cached_replies = 0;
  std::uint64_t proofs_during = 0;
  for (const auto& id : scenario_->graph().participants()) {
    const auto& stats = scenario_->participant(id).stats();
    cached_replies += stats.duplicate_requests_served;
    proofs_during += stats.proofs_generated - proofs_before[id];
  }
  EXPECT_GT(cached_replies, 0u);

  // Pin against a clean twin deployment (same graph, seeds and query):
  // every duplicated request must cost zero EXTRA proofs.
  Scenario clean(SupplyChainGraph::paper_example(), fast_config());
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = products_;
  dist.seed = 42;
  clean.run_task("task-1", dist);
  std::uint64_t proofs_clean = 0;
  for (const auto& id : clean.graph().participants()) {
    proofs_clean += clean.participant(id).stats().proofs_generated;
  }
  const QueryOutcome clean_outcome =
      clean.proxy().run_query(product, ProductQuality::kGood);
  ASSERT_TRUE(clean_outcome.complete);
  std::uint64_t proofs_clean_during = 0;
  for (const auto& id : clean.graph().participants()) {
    proofs_clean_during += clean.participant(id).stats().proofs_generated;
  }
  proofs_clean_during -= proofs_clean;
  EXPECT_EQ(proofs_during, proofs_clean_during);

  // And scores applied exactly once per hop despite doubled traffic.
  for (const auto& hop : outcome.path) {
    EXPECT_DOUBLE_EQ(scenario_->proxy().reputation(hop), 1.0) << hop;
  }
}

TEST_F(ProtocolTest, ResponsibilityWeightedScores) {
  ScenarioConfig cfg = fast_config();
  cfg.proxy.scores.weight_by_responsibility = true;
  cfg.proxy.scores.source_multiplier = 3.0;
  Scenario scenario(SupplyChainGraph::paper_example(), cfg);
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 4);
  scenario.run_task("task-1", dist);

  const ProductId product = dist.products[0];
  const QueryOutcome outcome =
      scenario.proxy().run_query(product, ProductQuality::kBad);
  ASSERT_TRUE(outcome.complete);
  ASSERT_GE(outcome.path.size(), 2u);
  EXPECT_DOUBLE_EQ(scenario.proxy().reputation(outcome.path.front()), -6.0);
  EXPECT_DOUBLE_EQ(scenario.proxy().reputation(outcome.path.back()), -2.0);
}

}  // namespace
}  // namespace desword::protocol
