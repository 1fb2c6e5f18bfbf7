// Pipelined hop walk (DESIGN.md §9): with crypto workers the proxy sends
// hop k's next_hop_request — and, when the POC-list edge checks out, hop
// k+1's query_request — while hop k's ownership proof still verifies.
//
// Every cell runs one query on two identical deployments: inline (no
// executor, the serial walk) and with 2 workers (the pipelined walk). The
// lookahead must be invisible in the verdict: equal outcome, violations
// and reputation. Honest walks also produce the same transcript entry for
// entry; the adversarial cells check that only the violation the serial
// walk reaches is booked.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "desword/scenario.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace desword::protocol {
namespace {

using supplychain::DistributionConfig;
using supplychain::make_products;
using supplychain::ProductId;
using supplychain::SupplyChainGraph;

/// Installs query-phase deviations once the task is distributed; `path` is
/// the queried product's ground-truth path.
using Adversary = std::function<void(Scenario&, const ProductId&,
                                     const std::vector<std::string>& path)>;

struct WalkRun {
  QueryOutcome outcome;
  std::map<std::string, double> reputation;
  std::vector<Proxy::TranscriptEntry> transcript;
  std::vector<obs::TraceSpan> spans;
  std::vector<std::string> truth;  // ground-truth path
  std::uint64_t overlapped = 0;
  std::uint64_t discarded = 0;
};

WalkRun run_walk(unsigned workers, ProductQuality quality,
                 const Adversary& adversary) {
  ScenarioConfig cfg;
  cfg.proxy.verify.worker_threads = workers;
  Scenario scenario(SupplyChainGraph::layered(5, 2, 2), cfg);

  DistributionConfig dist;
  dist.initial = "L0-0";
  dist.products = make_products(1, 0, 2);
  dist.seed = 3;
  const auto& result = scenario.run_task("t0", dist);
  const ProductId product = dist.products[0];
  WalkRun run;
  run.truth = result.paths.at(product);
  if (adversary) adversary(scenario, product, run.truth);

  obs::Counter& overlapped = obs::metric("protocol.walk.overlapped");
  obs::Counter& discarded = obs::metric("protocol.walk.discarded");
  const std::uint64_t overlapped_before = overlapped.value();
  const std::uint64_t discarded_before = discarded.value();

  run.outcome = scenario.proxy().run_query(product, quality);
  run.overlapped = overlapped.value() - overlapped_before;
  run.discarded = discarded.value() - discarded_before;
  run.reputation = scenario.proxy().reputation_snapshot();
  run.transcript = *scenario.proxy().transcript(run.outcome.query_id);
  run.spans = scenario.proxy().query_trace(run.outcome.query_id)->spans();
  return run;
}

/// Runs the cell serially and pipelined, asserts equal verdict and
/// reputation, and returns {serial, pipelined}.
std::pair<WalkRun, WalkRun> run_both(ProductQuality quality,
                                     const Adversary& adversary = {}) {
  WalkRun serial = run_walk(/*workers=*/0, quality, adversary);
  WalkRun pipelined = run_walk(/*workers=*/2, quality, adversary);
  EXPECT_EQ(serial.outcome.complete, pipelined.outcome.complete);
  EXPECT_EQ(serial.outcome.path, pipelined.outcome.path);
  EXPECT_TRUE(serial.outcome.violations == pipelined.outcome.violations);
  EXPECT_EQ(serial.reputation, pipelined.reputation);
  EXPECT_EQ(serial.overlapped, 0u) << "inline verdicts never owe a lookahead";
  EXPECT_EQ(serial.discarded, 0u);
  return {std::move(serial), std::move(pipelined)};
}

void expect_same_transcript(const WalkRun& a, const WalkRun& b) {
  ASSERT_EQ(a.transcript.size(), b.transcript.size());
  for (std::size_t i = 0; i < a.transcript.size(); ++i) {
    SCOPED_TRACE("transcript entry " + std::to_string(i));
    EXPECT_EQ(a.transcript[i].outgoing, b.transcript[i].outgoing);
    EXPECT_EQ(a.transcript[i].peer, b.transcript[i].peer);
    EXPECT_EQ(a.transcript[i].type, b.transcript[i].type);
    EXPECT_EQ(a.transcript[i].bytes, b.transcript[i].bytes);
  }
}

/// Index of the first span with `event` on `peer` (spans.size() if none).
std::size_t span_index(const WalkRun& run, const std::string& peer,
                       const char* event) {
  for (std::size_t i = 0; i < run.spans.size(); ++i) {
    if (run.spans[i].peer == peer && run.spans[i].event == event) return i;
  }
  return run.spans.size();
}

/// One deviation, configured on the participant at `hop` of the path.
Adversary at_hop(std::size_t hop,
                 std::function<void(QueryBehavior&, const ProductId&)> set) {
  return [hop, set = std::move(set)](Scenario& scenario,
                                     const ProductId& product,
                                     const std::vector<std::string>& path) {
    ASSERT_LT(hop, path.size());
    QueryBehavior behavior;
    set(behavior, product);
    scenario.participant(path[hop]).set_query_behavior(behavior);
  };
}

std::vector<std::string> prefix(const std::vector<std::string>& path,
                                std::size_t n) {
  return {path.begin(), path.begin() + static_cast<std::ptrdiff_t>(n)};
}

TEST(PipelinedWalkTest, HonestGoodWalkOverlapsEveryHopAfterTheScan) {
  const auto [serial, pipelined] = run_both(ProductQuality::kGood);
  ASSERT_GE(serial.truth.size(), 4u);
  EXPECT_TRUE(serial.outcome.complete);
  EXPECT_EQ(serial.outcome.path, serial.truth);
  EXPECT_TRUE(serial.outcome.violations.empty());
  expect_same_transcript(serial, pipelined);
  // The first hop's verify is the scan's identifying one, which stays
  // serial; every later hop's next-hop exchange overlaps its verify.
  EXPECT_EQ(pipelined.overlapped, serial.truth.size() - 1);
  EXPECT_EQ(pipelined.discarded, 0u);
}

TEST(PipelinedWalkTest, HonestBadWalkOverlapsEveryReveal) {
  const auto [serial, pipelined] = run_both(ProductQuality::kBad);
  ASSERT_GE(serial.truth.size(), 4u);
  EXPECT_TRUE(serial.outcome.complete);
  EXPECT_EQ(serial.outcome.path, serial.truth);
  EXPECT_TRUE(serial.outcome.violations.empty());
  expect_same_transcript(serial, pipelined);
  // The scan only identifies the first hop (it admits processing without a
  // proof): its ownership proof comes in a reveal like every later hop's.
  EXPECT_EQ(pipelined.overlapped, serial.truth.size());
  EXPECT_EQ(pipelined.discarded, 0u);
}

TEST(PipelinedWalkTest, CorruptProofMidPathDiscardsTheLookahead) {
  const auto [serial, pipelined] = run_both(
      ProductQuality::kGood,
      at_hop(2, [](QueryBehavior& b, const ProductId& product) {
        b.corrupt_proof.insert(product);
      }));
  EXPECT_FALSE(serial.outcome.complete);
  EXPECT_EQ(serial.outcome.path, prefix(serial.truth, 2));
  ASSERT_EQ(serial.outcome.violations.size(), 1u);
  EXPECT_TRUE(serial.outcome.has_violation(
      serial.truth[2], ViolationType::kClaimProcessingInvalidProof));
  EXPECT_EQ(pipelined.overlapped, 2u);
  EXPECT_EQ(pipelined.discarded, 1u);
}

TEST(PipelinedWalkTest, CorruptProofAndWrongNextBookOnlyTheProof) {
  // The lookahead may see the bogus next hop (a revisit, so not a child)
  // before the proof's verdict; the serial walk never gets that far.
  const auto [serial, pipelined] = run_both(
      ProductQuality::kGood,
      [](Scenario& scenario, const ProductId& product,
         const std::vector<std::string>& path) {
        ASSERT_GT(path.size(), 2u);
        QueryBehavior behavior;
        behavior.corrupt_proof.insert(product);
        behavior.wrong_next[product] = path[0];
        scenario.participant(path[2]).set_query_behavior(behavior);
      });
  ASSERT_EQ(serial.outcome.violations.size(), 1u);
  EXPECT_TRUE(serial.outcome.has_violation(
      serial.truth[2], ViolationType::kClaimProcessingInvalidProof));
  EXPECT_EQ(pipelined.overlapped, 2u);
  EXPECT_EQ(pipelined.discarded, 1u);
}

TEST(PipelinedWalkTest, FalseTerminationIsBookedAfterTheVerdict) {
  const auto [serial, pipelined] = run_both(
      ProductQuality::kGood,
      at_hop(2, [](QueryBehavior& b, const ProductId& product) {
        b.false_termination.insert(product);
      }));
  const std::string& liar = serial.truth[2];
  EXPECT_FALSE(serial.outcome.complete);
  EXPECT_EQ(serial.outcome.path, prefix(serial.truth, 3));
  ASSERT_EQ(serial.outcome.violations.size(), 1u);
  EXPECT_TRUE(
      serial.outcome.has_violation(liar, ViolationType::kFalseTermination));
  // The next-hop answer may beat the verdict, but the decision it carries
  // waits until the hop commits.
  const std::size_t verified =
      span_index(pipelined, liar, obs::span::kVerifyOk);
  const std::size_t booked =
      span_index(pipelined, liar, obs::span::kViolation);
  ASSERT_LT(verified, pipelined.spans.size());
  ASSERT_LT(booked, pipelined.spans.size());
  EXPECT_LT(verified, booked);
  EXPECT_EQ(pipelined.discarded, 0u);
}

TEST(PipelinedWalkTest, FailedVerdictNeverChargesTheSilentNextHop) {
  // Hop 1 returns a tampered trace and hop 2 never answers. The serial
  // walk stops at hop 1's invalid proof; the lookahead may already have
  // queried hop 2, whose silence must not become a no-response violation.
  const auto [serial, pipelined] = run_both(
      ProductQuality::kGood,
      [](Scenario& scenario, const ProductId& product,
         const std::vector<std::string>& path) {
        ASSERT_GT(path.size(), 2u);
        QueryBehavior tamper;
        tamper.wrong_trace.insert(product);
        scenario.participant(path[1]).set_query_behavior(tamper);
        QueryBehavior silent;
        silent.unresponsive = true;
        scenario.participant(path[2]).set_query_behavior(silent);
      });
  ASSERT_EQ(serial.outcome.violations.size(), 1u);
  EXPECT_TRUE(serial.outcome.has_violation(
      serial.truth[1], ViolationType::kClaimProcessingInvalidProof));
  EXPECT_FALSE(pipelined.outcome.has_violation(pipelined.truth[2],
                                               ViolationType::kNoResponse));
  EXPECT_EQ(pipelined.discarded, 1u);
}

}  // namespace
}  // namespace desword::protocol
