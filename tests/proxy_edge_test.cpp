// Proxy / scenario edge cases and state-machine corners not covered by
// the main protocol suite.
#include <gtest/gtest.h>

#include <memory>

#include "common/json.h"
#include "desword/scenario.h"
#include "obs/metrics.h"

namespace desword::protocol {
namespace {

using supplychain::DistributionConfig;
using supplychain::make_products;
using supplychain::SupplyChainGraph;

ScenarioConfig fast_config() {
  ScenarioConfig cfg;
  cfg.proxy.edb = zkedb::EdbConfig{4, 8, 512, "p256"};
  return cfg;
}

TEST(ProxyEdgeTest, QueryWithNoTasksResolvesEmpty) {
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  const QueryOutcome outcome = scenario.proxy().run_query(
      supplychain::make_epc(1, 1, 1), ProductQuality::kGood);
  EXPECT_FALSE(outcome.complete);
  EXPECT_TRUE(outcome.path.empty());
  EXPECT_TRUE(outcome.violations.empty());
}

TEST(ProxyEdgeTest, DuplicateTaskIdRejected) {
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 2);
  scenario.run_task("task-1", dist);
  DistributionConfig dist2;
  dist2.initial = "v1";
  dist2.products = make_products(2, 0, 2);
  EXPECT_THROW(scenario.run_task("task-1", dist2), ProtocolError);
}

TEST(ProxyEdgeTest, UnknownParticipantLookupThrows) {
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  EXPECT_THROW(scenario.participant("nobody"), ProtocolError);
  EXPECT_THROW(scenario.truth("no-task"), ProtocolError);
  EXPECT_EQ(scenario.path_of(supplychain::make_epc(1, 1, 1)), nullptr);
}

TEST(ProxyEdgeTest, OutcomePointerLifecycle) {
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 2);
  scenario.run_task("task-1", dist);

  EXPECT_EQ(scenario.proxy().outcome(999), nullptr);  // unknown query id
  const std::uint64_t qid = scenario.proxy().begin_query(
      dist.products[0], ProductQuality::kGood);
  scenario.proxy().pump();
  const QueryOutcome* outcome = scenario.proxy().outcome(qid);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->query_id, qid);
  EXPECT_TRUE(outcome->complete);
}

TEST(ProxyEdgeTest, ConcurrentQueriesResolveIndependently) {
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 6);
  scenario.run_task("task-1", dist);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(scenario.proxy().begin_query(
        dist.products[static_cast<std::size_t>(i)],
        i % 2 == 0 ? ProductQuality::kGood : ProductQuality::kBad));
  }
  scenario.proxy().pump();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const QueryOutcome* outcome = scenario.proxy().outcome(ids[i]);
    ASSERT_NE(outcome, nullptr) << i;
    EXPECT_TRUE(outcome->complete) << i;
    EXPECT_EQ(outcome->path, *scenario.path_of(dist.products[i])) << i;
  }
}

TEST(ProxyEdgeTest, ReputationEventsLogged) {
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 2);
  scenario.run_task("task-1", dist);
  const QueryOutcome outcome =
      scenario.proxy().run_query(dist.products[0], ProductQuality::kGood);
  ASSERT_TRUE(outcome.complete);
  const auto& history = scenario.proxy().ledger().history();
  ASSERT_EQ(history.size(), outcome.path.size());
  for (const auto& event : history) {
    EXPECT_EQ(event.reason, "good-product-query");
    EXPECT_EQ(event.query_id, outcome.query_id);
    EXPECT_DOUBLE_EQ(event.delta, 1.0);
  }
}

TEST(ProxyEdgeTest, RepeatedQueriesAccumulateScores) {
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 2);
  scenario.run_task("task-1", dist);
  const auto product = dist.products[0];
  const QueryOutcome o1 =
      scenario.proxy().run_query(product, ProductQuality::kGood);
  const QueryOutcome o2 =
      scenario.proxy().run_query(product, ProductQuality::kGood);
  ASSERT_TRUE(o1.complete);
  ASSERT_TRUE(o2.complete);
  EXPECT_EQ(o1.path, o2.path);
  EXPECT_DOUBLE_EQ(scenario.proxy().reputation(o1.path.front()), 2.0);
}

TEST(ProxyEdgeTest, SingleParticipantTask) {
  // A chain where the initial participant is also the leaf for one branch:
  // build a graph with an isolated initial->leaf pair to exercise the
  // one-hop walk.
  SupplyChainGraph graph;
  graph.add_edge("solo-initial", "solo-leaf");
  Scenario scenario(graph, fast_config());
  DistributionConfig dist;
  dist.initial = "solo-initial";
  dist.products = make_products(1, 0, 1);
  scenario.run_task("t", dist);
  const QueryOutcome outcome =
      scenario.proxy().run_query(dist.products[0], ProductQuality::kBad);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.path,
            (std::vector<std::string>{"solo-initial", "solo-leaf"}));
}

TEST(ProxyEdgeTest, TranscriptRecordsFullExchange) {
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 2);
  scenario.run_task("task-1", dist);

  const std::uint64_t qid = scenario.proxy().begin_query(
      dist.products[0], ProductQuality::kGood);
  scenario.proxy().pump();
  const QueryOutcome* outcome = scenario.proxy().outcome(qid);
  ASSERT_NE(outcome, nullptr);
  ASSERT_TRUE(outcome->complete);

  const auto* transcript = scenario.proxy().transcript(qid);
  ASSERT_NE(transcript, nullptr);
  // Per hop: query_request/response + next_hop request/response = 4.
  EXPECT_EQ(transcript->size(), outcome->path.size() * 4);
  // Alternating direction, starting with an outgoing request.
  for (std::size_t i = 0; i < transcript->size(); ++i) {
    EXPECT_EQ((*transcript)[i].outgoing, i % 2 == 0) << i;
    EXPECT_GT((*transcript)[i].bytes, 0u) << i;
  }
  EXPECT_EQ(transcript->front().type, msg::kQueryRequest);
  EXPECT_EQ(transcript->back().type, msg::kNextHopResponse);
  EXPECT_EQ(scenario.proxy().transcript(9999), nullptr);
}

TEST(ProxyEdgeTest, JsonReportExport) {
  Scenario scenario(SupplyChainGraph::paper_example(), fast_config());
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 2);
  scenario.run_task("task-1", dist);
  const QueryOutcome outcome =
      scenario.proxy().run_query(dist.products[0], ProductQuality::kGood);
  ASSERT_TRUE(outcome.complete);

  const std::string report_text = scenario.proxy().export_report_json();
  const json::Value report = json::parse(report_text);
  // Reputation board matches the ledger.
  for (const auto& [participant, score] :
       scenario.proxy().reputation_snapshot()) {
    EXPECT_DOUBLE_EQ(report.at("reputation").at(participant).as_double(),
                     score);
  }
  // The query appears with its path and completeness.
  const json::Array& queries = report.at("queries").as_array();
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_TRUE(queries[0].at("complete").as_bool());
  EXPECT_EQ(queries[0].at("quality").as_string(), "good");
  EXPECT_EQ(queries[0].at("path").as_array().size(), outcome.path.size());
  EXPECT_EQ(queries[0].at("product").as_string(), to_hex(outcome.product));
  // Events reference the query.
  const json::Array& events = report.at("events").as_array();
  ASSERT_EQ(events.size(), outcome.path.size());
  for (const json::Value& e : events) {
    EXPECT_EQ(e.at("query_id").as_int(),
              static_cast<std::int64_t>(outcome.query_id));
  }
}

TEST(ProxyEdgeTest, ActiveSessionCountTracksBeginFinishAndDeadline) {
  ScenarioConfig cfg = fast_config();
  // Expires at the first retransmission; queries that never retransmit
  // are never checked against it.
  cfg.proxy.query_deadline = 1;
  Scenario scenario(SupplyChainGraph::paper_example(), cfg);
  Proxy& proxy = scenario.proxy();

  // No task yet: begin_query finishes the session before it returns.
  proxy.begin_query(supplychain::make_epc(1, 1, 1), ProductQuality::kGood);
  EXPECT_EQ(proxy.active_sessions(), 0u);

  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 3);
  scenario.run_task("task-1", dist);
  // An unknown task hint is refused before a session exists.
  EXPECT_THROW(proxy.begin_query(dist.products[0], ProductQuality::kGood,
                                 std::string("no-such-task")),
               ProtocolError);
  EXPECT_EQ(proxy.active_sessions(), 0u);

  proxy.begin_query(dist.products[0], ProductQuality::kGood);
  proxy.begin_query(dist.products[1], ProductQuality::kBad);
  EXPECT_EQ(proxy.active_sessions(), 2u);
  proxy.pump();
  EXPECT_EQ(proxy.active_sessions(), 0u);

  // Deadline path: the silent initial participant holds the session until
  // the first retransmission finds the budget spent.
  QueryBehavior silent;
  silent.unresponsive = true;
  scenario.participant("v0").set_query_behavior(silent);
  const std::uint64_t deadlines_before =
      obs::metric("protocol.query.deadline_exceeded").value();
  const std::uint64_t qid =
      proxy.begin_query(dist.products[2], ProductQuality::kGood);
  EXPECT_EQ(proxy.active_sessions(), 1u);
  proxy.pump();
  EXPECT_EQ(proxy.active_sessions(), 0u);
  EXPECT_EQ(obs::metric("protocol.query.deadline_exceeded").value(),
            deadlines_before + 1);
  const QueryOutcome* outcome = proxy.outcome(qid);
  ASSERT_NE(outcome, nullptr);
  EXPECT_TRUE(outcome->has_violation("v0", ViolationType::kNoResponse));
}

TEST(ProxyEdgeTest, LedgerDefaultsToZero) {
  ReputationLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.score("anyone"), 0.0);
  ledger.apply("a", 2.5, "test", 1);
  ledger.apply("a", -1.0, "test", 2);
  EXPECT_DOUBLE_EQ(ledger.score("a"), 1.5);
  EXPECT_EQ(ledger.history().size(), 2u);
  EXPECT_EQ(ledger.snapshot().size(), 1u);
}

}  // namespace
}  // namespace desword::protocol
