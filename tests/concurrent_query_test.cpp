// Concurrency semantics of the executor-backed protocol stack:
//
//   * a retransmitted request racing a slow in-flight proof generation
//     joins the existing computation (one proof, two deliveries);
//   * the query scheduler bounds in-flight sessions and admits queued ones
//     as slots free;
//   * ≥32 interleaved good/bad queries over a lossy, reordering transport
//     with 4 crypto workers produce verdicts and reputation identical to
//     the single-threaded serial run.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "desword/messages.h"
#include "desword/scenario.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace desword::protocol {
namespace {

using supplychain::DistributionConfig;
using supplychain::make_products;
using supplychain::SupplyChainGraph;

ScenarioConfig fast_config() {
  ScenarioConfig cfg;
  return cfg;
}

TEST(ConcurrentQueryTest, RetransmitJoinsInFlightProofGeneration) {
  ScenarioConfig cfg = fast_config();
  // Participants build proofs on the executor's workers.
  cfg.proxy.verify.worker_threads = 2;
  Scenario scenario(SupplyChainGraph::paper_example(), cfg);

  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 2);
  dist.seed = 7;
  const auto& truth = scenario.run_task("t0", dist);

  const supplychain::ProductId product = dist.products[0];
  const auto& path = truth.paths.at(product);
  const std::string& first_hop = path[0];
  const poc::Poc* poc = scenario.proxy().task_list("t0")->find(first_hop);
  ASSERT_NE(poc, nullptr);

  // A fake query client standing in for a proxy whose retransmission timer
  // fired while the participant was still proving.
  std::vector<Bytes> responses;
  net::Transport& transport = scenario.transport();
  transport.register_node("probe", [&](const net::Envelope& env) {
    if (env.type == msg::kQueryResponse) responses.push_back(env.payload);
  });

  Participant& prover = scenario.participant(first_hop);
  const std::uint64_t proofs_before = prover.stats().proofs_generated;
  const std::uint64_t joined_before = prover.stats().duplicate_requests_served;

  const Bytes request =
      QueryRequest{99, product, ProductQuality::kGood, poc->serialize()}
          .serialize();
  // Back-to-back identical requests: both deliver in the same poll round,
  // so the second necessarily arrives while the first's proof generation
  // is still in flight on a worker — the deterministic join race.
  transport.send("probe", first_hop, msg::kQueryRequest, request);
  transport.send("probe", first_hop, msg::kQueryRequest, request);

  for (int round = 0; round < 200 && responses.size() < 2; ++round) {
    transport.poll(50);
  }

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0], responses[1]) << "joined waiters must receive the "
                                           "byte-identical response";
  EXPECT_EQ(prover.stats().proofs_generated - proofs_before, 1u)
      << "the duplicate must not trigger a second proof generation";
  EXPECT_EQ(prover.stats().duplicate_requests_served - joined_before, 1u);
}

TEST(ConcurrentQueryTest, SchedulerQueuesBeyondConcurrencyLimit) {
  ScenarioConfig cfg = fast_config();
  cfg.proxy.max_concurrent_queries = 2;
  Scenario scenario(SupplyChainGraph::paper_example(), cfg);

  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 6);
  dist.seed = 11;
  scenario.run_task("t0", dist);

  std::vector<std::uint64_t> ids;
  for (const auto& product : dist.products) {
    ids.push_back(scenario.proxy().begin_query(product, ProductQuality::kGood));
  }
  scenario.proxy().pump();

  std::size_t queued_spans = 0;
  for (const std::uint64_t qid : ids) {
    const obs::QueryTrace* trace = scenario.proxy().query_trace(qid);
    ASSERT_NE(trace, nullptr);
    // Every session is eventually admitted exactly once...
    EXPECT_EQ(trace->count(obs::span::kAdmitted), 1u);
    queued_spans += trace->count(obs::span::kQueued);
    const QueryOutcome* outcome = scenario.proxy().outcome(qid);
    ASSERT_NE(outcome, nullptr);
    EXPECT_TRUE(outcome->complete);
  }
  // ...but only the first two slots were free at begin time: the other
  // four queries all waited in the scheduler.
  EXPECT_EQ(queued_spans, ids.size() - cfg.proxy.max_concurrent_queries);
}

/// Compact comparable digest of a query outcome.
struct OutcomeDigest {
  bool complete = false;
  std::vector<std::string> path;
  std::vector<std::pair<std::string, std::string>> violations;

  bool operator==(const OutcomeDigest& other) const {
    return complete == other.complete && path == other.path &&
           violations == other.violations;
  }
};

OutcomeDigest digest_of(const QueryOutcome& outcome) {
  OutcomeDigest d;
  d.complete = outcome.complete;
  d.path = outcome.path;
  for (const Violation& v : outcome.violations) {
    d.violations.emplace_back(v.participant, to_string(v.type));
  }
  return d;
}

struct SweepResult {
  std::vector<OutcomeDigest> outcomes;
  std::map<std::string, double> reputation;
};

/// Builds a 3-task lossy deployment with three adversaries and runs the same
/// 33-query mixed-quality sweep, either serially (one run_query at a time)
/// or as one concurrent batch.
SweepResult run_sweep(unsigned worker_threads,
                      std::size_t max_concurrent_queries, bool batch) {
  ScenarioConfig cfg = fast_config();
  cfg.proxy.verify.worker_threads = worker_threads;
  cfg.proxy.max_concurrent_queries = max_concurrent_queries;
  Scenario scenario(SupplyChainGraph::layered(5, 4, 2), cfg);

  std::vector<std::vector<supplychain::ProductId>> lots;
  for (int t = 0; t < 3; ++t) {
    DistributionConfig dist;
    dist.initial = "L0-" + std::to_string(t);
    dist.products = make_products(static_cast<std::uint32_t>(t + 1),
                                  static_cast<std::uint64_t>(t) * 1000, 11);
    dist.seed = static_cast<std::uint64_t>(t) + 23;
    scenario.run_task("task-" + std::to_string(t), dist);
    lots.push_back(dist.products);
  }

  // Drops and delays on every link from here on: the query sweep sees
  // retransmissions and reordered deliveries (distribution ran clean so
  // the deployment itself is identical across runs).
  net::FaultPlan lossy;
  lossy.default_faults = {.drop_rate = 0.02, .delay_rate = 0.2, .delay = 2};
  scenario.fault_injector().set_plan(lossy);

  QueryBehavior wrong_next;
  wrong_next.wrong_next[lots[0][0]] = "L4-0";
  scenario.participant("L0-0").set_query_behavior(wrong_next);

  QueryBehavior denial;
  denial.claim_non_processing.insert(lots[1][1]);
  const auto& denial_path = *scenario.path_of(lots[1][1]);
  scenario.participant(denial_path[1]).set_query_behavior(denial);

  // A mid-path hop whose ownership proof arrives corrupted: with workers
  // the walk has already asked for its next hop when the verdict fails, so
  // the lookahead is discarded, under retransmits and reordering.
  QueryBehavior corrupt;
  corrupt.corrupt_proof.insert(lots[2][1]);
  const auto& corrupt_path = *scenario.path_of(lots[2][1]);
  scenario.participant(corrupt_path[2]).set_query_behavior(corrupt);

  std::vector<Proxy::QuerySpec> specs;
  for (std::size_t lot = 0; lot < lots.size(); ++lot) {
    for (std::size_t i = 0; i < lots[lot].size(); ++i) {
      const ProductQuality quality = (i % 3 == 0) ? ProductQuality::kBad
                                                  : ProductQuality::kGood;
      specs.push_back(Proxy::QuerySpec{lots[lot][i], quality, {}});
    }
  }

  SweepResult result;
  if (batch) {
    for (const QueryOutcome& outcome : scenario.proxy().run_queries(specs)) {
      result.outcomes.push_back(digest_of(outcome));
    }
  } else {
    for (const Proxy::QuerySpec& spec : specs) {
      result.outcomes.push_back(digest_of(
          scenario.proxy().run_query(spec.product, spec.quality)));
    }
  }
  result.reputation = scenario.proxy().reputation_snapshot();
  return result;
}

TEST(ConcurrentQueryTest, ConcurrentSweepMatchesSerialVerdicts) {
  const SweepResult serial =
      run_sweep(/*worker_threads=*/0, /*max_concurrent_queries=*/1,
                /*batch=*/false);
  const SweepResult concurrent =
      run_sweep(/*worker_threads=*/4, /*max_concurrent_queries=*/16,
                /*batch=*/true);

  ASSERT_GE(serial.outcomes.size(), 32u);
  ASSERT_EQ(serial.outcomes.size(), concurrent.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    EXPECT_EQ(serial.outcomes[i] == concurrent.outcomes[i], true)
        << "query " << i << " diverged between serial and concurrent runs";
  }

  ASSERT_EQ(serial.reputation.size(), concurrent.reputation.size());
  for (const auto& [participant, score] : serial.reputation) {
    const auto it = concurrent.reputation.find(participant);
    ASSERT_NE(it, concurrent.reputation.end()) << participant;
    EXPECT_DOUBLE_EQ(score, it->second) << participant;
  }
}

}  // namespace
}  // namespace desword::protocol
