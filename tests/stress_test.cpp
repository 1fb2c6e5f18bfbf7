// Larger-scale soak: a 20-participant chain, several tasks, dozens of
// queries with mixed qualities and a sprinkle of adversaries — checks that
// nothing degrades across many sequential protocol runs (DPOC state
// growth, session bookkeeping, reputation accumulation).
#include <gtest/gtest.h>

#include <memory>

#include "desword/applications.h"
#include "desword/scenario.h"
#include "obs/metrics.h"

namespace desword::protocol {
namespace {

using supplychain::DistributionConfig;
using supplychain::make_products;
using supplychain::SupplyChainGraph;

TEST(StressTest, MultiTaskMultiQuerySoak) {
  ScenarioConfig cfg;
  cfg.proxy.edb = zkedb::EdbConfig{4, 8, 512, "p256"};
  Scenario scenario(SupplyChainGraph::layered(5, 4, 2), cfg);

  // Three tasks from different initial participants.
  std::vector<std::vector<supplychain::ProductId>> lots;
  for (int t = 0; t < 3; ++t) {
    DistributionConfig dist;
    dist.initial = "L0-" + std::to_string(t);
    dist.products = make_products(static_cast<std::uint32_t>(t + 1),
                                  static_cast<std::uint64_t>(t) * 1000, 6);
    dist.seed = static_cast<std::uint64_t>(t) + 17;
    scenario.run_task("task-" + std::to_string(t), dist);
    lots.push_back(dist.products);
  }

  // One adversary per behaviour class, scattered over the chain.
  QueryBehavior wrong_next;
  wrong_next.wrong_next[lots[0][0]] = "L4-0";
  scenario.participant("L0-0").set_query_behavior(wrong_next);

  QueryBehavior denial;
  denial.claim_non_processing.insert(lots[1][1]);
  const auto& denial_path = *scenario.path_of(lots[1][1]);
  scenario.participant(denial_path[1]).set_query_behavior(denial);

  // Sweep every product of every lot with alternating qualities.
  int complete = 0;
  int detected = 0;
  SimRng rng(4242);
  for (std::size_t lot = 0; lot < lots.size(); ++lot) {
    for (std::size_t i = 0; i < lots[lot].size(); ++i) {
      const ProductQuality quality = (i % 3 == 0) ? ProductQuality::kBad
                                                  : ProductQuality::kGood;
      const QueryOutcome outcome =
          scenario.proxy().run_query(lots[lot][i], quality);
      if (outcome.complete) {
        ++complete;
        EXPECT_EQ(outcome.path, *scenario.path_of(lots[lot][i]));
      }
      detected += static_cast<int>(outcome.violations.size());
    }
  }

  // All but the two sabotaged products complete with exact paths.
  EXPECT_EQ(complete, 18 - 2);
  EXPECT_GE(detected, 2);
  // Ledger bookkeeping stayed consistent: every event references a real
  // query and participant.
  for (const auto& event : scenario.proxy().ledger().history()) {
    EXPECT_FALSE(event.participant.empty());
    EXPECT_GT(event.query_id, 0u);
  }
}

TEST(StressTest, RepeatedNonMembershipQueriesBoundedGrowth) {
  // Repeatedly querying the same absent product re-derives the same
  // proof, byte for byte, and never grows the DPOC.
  zkedb::EdbConfig cfg{4, 8, 512, "p256"};
  const zkedb::EdbCrsPtr crs = zkedb::generate_crs(cfg);
  poc::PocScheme scheme(crs);
  std::map<Bytes, Bytes> traces;
  traces[supplychain::make_epc(1, 1, 1)] = bytes_of("da");
  auto [p, dpoc] = scheme.aggregate("v1", traces);

  const supplychain::ProductId ghost = supplychain::make_epc(2, 2, 2);
  const Bytes first = scheme.prove(*dpoc, ghost).serialize();
  const std::size_t state_after_first = dpoc->serialize().size();
  for (int i = 0; i < 20; ++i) {
    const poc::PocProof proof = scheme.prove(*dpoc, ghost);
    EXPECT_EQ(proof.serialize(), first);
    EXPECT_EQ(scheme.verify(p, ghost, proof).verdict,
              poc::PocVerdict::kValid);
  }
  EXPECT_EQ(dpoc->serialize().size(), state_after_first)
      << "repeated queries for the same key must not grow the DPOC";
}

TEST(StressTest, ReplyCacheEvictsLeastRecentlyUsed) {
  // Direct participant, no proxy: unknown-POC query requests get cheap
  // "not processing" replies, each caching one entry. 20 distinct requests
  // against a capacity of 8 must evict the 12 oldest; a resend of a
  // surviving (recent) request is served from the cache.
  net::Network network;
  net::SimTransport transport(network);
  Participant participant(
      "p1", transport, "proxy",
      ParticipantDeps{.crs_cache = std::make_shared<CrsCache>()});
  network.register_node("client", [](const net::Envelope&) {});

  obs::MetricsRegistry::global().reset_for_test();
  participant.set_reply_cache_capacity(8);

  const auto request_for = [](std::uint64_t i) {
    QueryRequest req;
    req.query_id = i;
    req.product = supplychain::make_epc(1, 1, i);
    req.quality = ProductQuality::kGood;
    req.poc = Bytes{0xde, 0xad};  // never built: cheap cached denial
    return req.serialize();
  };

  for (std::uint64_t i = 1; i <= 20; ++i) {
    network.send("client", "p1", msg::kQueryRequest, request_for(i));
    network.run();
  }
  EXPECT_EQ(participant.reply_cache_size(), 8u);
  EXPECT_EQ(obs::metric("net.reply_cache.misses").value(), 20u);
  EXPECT_EQ(obs::metric("net.reply_cache.evictions").value(), 12u);
  EXPECT_EQ(participant.stats().duplicate_requests_served, 0u);

  // Most recent request survived the evictions: cache hit, no recompute.
  network.send("client", "p1", msg::kQueryRequest, request_for(20));
  network.run();
  EXPECT_EQ(obs::metric("net.reply_cache.hits").value(), 1u);
  EXPECT_EQ(participant.stats().duplicate_requests_served, 1u);
  EXPECT_EQ(participant.reply_cache_size(), 8u);

  // The oldest request was evicted: answering it again is a fresh miss
  // that evicts the then-LRU entry to stay at capacity.
  network.send("client", "p1", msg::kQueryRequest, request_for(1));
  network.run();
  EXPECT_EQ(obs::metric("net.reply_cache.misses").value(), 21u);
  EXPECT_EQ(obs::metric("net.reply_cache.evictions").value(), 13u);
  EXPECT_EQ(participant.reply_cache_size(), 8u);

  obs::MetricsRegistry::global().reset_for_test();
}

TEST(StressTest, ReputationHistoryIsBounded) {
  obs::MetricsRegistry::global().reset_for_test();
  ReputationLedger ledger;
  EXPECT_EQ(ledger.history_cap(), ReputationLedger::kDefaultHistoryCap);
  ledger.set_history_cap(100);

  for (std::uint64_t i = 1; i <= 250; ++i) {
    ledger.apply("v" + std::to_string(i % 7), 1.0, "good_query", i);
  }
  EXPECT_EQ(ledger.history().size(), 100u);
  EXPECT_EQ(ledger.events_applied(), 250u);
  EXPECT_EQ(ledger.events_dropped(), 150u);
  EXPECT_EQ(obs::metric("protocol.reputation.events").value(), 250u);
  EXPECT_EQ(obs::metric("protocol.reputation.dropped").value(), 150u);
  // Oldest retained event is #151; scores kept every fold regardless.
  EXPECT_EQ(ledger.history().front().query_id, 151u);
  EXPECT_EQ(ledger.history().back().query_id, 250u);
  EXPECT_DOUBLE_EQ(ledger.score("v1"), 36.0);  // 36 of 250 hit v1

  // Lowering the cap shrinks eagerly; raising it never resurrects.
  ledger.set_history_cap(10);
  EXPECT_EQ(ledger.history().size(), 10u);
  EXPECT_EQ(ledger.events_dropped(), 240u);
  ledger.set_history_cap(1000);
  EXPECT_EQ(ledger.history().size(), 10u);

  obs::MetricsRegistry::global().reset_for_test();
}

TEST(StressTest, ScenarioNodesShareOneCrsInstance) {
  // CrsCache::put() keep-first semantics: the proxy generates the CRS, all
  // participants derive theirs through the shared cache, so the whole
  // in-process deployment holds exactly one EdbCrs (one set of qTMC power
  // tables).
  ScenarioConfig cfg;
  Scenario scenario(SupplyChainGraph::paper_example(), cfg);
  EXPECT_EQ(scenario.crs_cache()->size(), 1u);

  const zkedb::EdbCrsPtr& proxy_crs = scenario.proxy().crs();
  ASSERT_NE(proxy_crs, nullptr);
  // The cache's canonical instance for these parameters IS the proxy's.
  EXPECT_EQ(scenario.crs_cache()->get(proxy_crs->params().serialize()).get(),
            proxy_crs.get());
  // Re-putting a fresh duplicate keeps the first instance (no silent swap).
  const zkedb::EdbCrsPtr dup = std::make_shared<zkedb::EdbCrs>(
      zkedb::EdbPublicParams::deserialize(proxy_crs->params().serialize()));
  EXPECT_EQ(scenario.crs_cache()->put(dup).get(), proxy_crs.get());
  EXPECT_EQ(scenario.crs_cache()->size(), 1u);
}

}  // namespace
}  // namespace desword::protocol
