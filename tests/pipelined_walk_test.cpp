// Pipelined hop walk (DESIGN.md §9): with crypto workers the proxy handles
// each walk response on arrival — it dispatches a hop's verify and moves on
// to the next hop while earlier verdicts are still owed — and commits the
// verdicts in hop order.
//
// Every cell runs one query on two identical deployments: inline (no
// executor, the serial walk) and with 2 workers (the pipelined walk). Running
// ahead must be invisible in the verdict: equal outcome, violations and
// reputation, and verify spans in hop order. Honest walks also produce the
// same transcript entry for entry; the adversarial cells check that only the
// violation the serial walk reaches is booked. How far the walk runs ahead
// of a failing verdict depends on timing, so those cells bound the
// protocol.walk.{overlapped,discarded} counts instead of fixing them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "desword/messages.h"
#include "desword/scenario.h"
#include "net/network.h"
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

/// Position of `peer` on the ground-truth path (truth.size() if absent).
std::size_t hop_of(const WalkRun& run, const std::string& peer) {
  const auto it = std::find(run.truth.begin(), run.truth.end(), peer);
  return static_cast<std::size_t>(it - run.truth.begin());
}

/// Verdicts commit in hop order, however they resolved.
void expect_verify_spans_in_hop_order(const WalkRun& run) {
  std::size_t last = 0;
  for (const obs::TraceSpan& span : run.spans) {
    if (span.event != obs::span::kVerifyOk &&
        span.event != obs::span::kVerifyFail) {
      continue;
    }
    const std::size_t hop = hop_of(run, span.peer);
    EXPECT_GE(hop, last) << span.event << " on " << span.peer;
    last = hop;
  }
}

/// Runs the cell serially and pipelined, asserts equal verdict and
/// reputation and hop-ordered verify spans, and returns {serial, pipelined}.
std::pair<WalkRun, WalkRun> run_both(ProductQuality quality,
                                     const Adversary& adversary = {}) {
  WalkRun serial = run_walk(/*workers=*/0, quality, adversary);
  WalkRun pipelined = run_walk(/*workers=*/2, quality, adversary);
  EXPECT_EQ(serial.outcome.complete, pipelined.outcome.complete);
  EXPECT_EQ(serial.outcome.path, pipelined.outcome.path);
  EXPECT_TRUE(serial.outcome.violations == pipelined.outcome.violations);
  EXPECT_EQ(serial.reputation, pipelined.reputation);
  EXPECT_EQ(serial.overlapped, 0u) << "inline verdicts are never owed";
  EXPECT_EQ(serial.discarded, 0u);
  expect_verify_spans_in_hop_order(serial);
  expect_verify_spans_in_hop_order(pipelined);
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

/// A good walk whose `rejected`-th overlapped hop (1-based) fails: every
/// hop dispatched past it is an owed verdict the rejection drops, plus the
/// one request in flight or deferred decision the walk always holds.
void expect_cut_at(const WalkRun& pipelined, std::uint64_t rejected,
                   std::uint64_t max_overlapped) {
  EXPECT_GE(pipelined.overlapped, rejected);
  EXPECT_LE(pipelined.overlapped, max_overlapped);
  EXPECT_EQ(pipelined.discarded, pipelined.overlapped - rejected + 1);
}

TEST(PipelinedWalkTest, CorruptProofMidPathCutsTheWalkAtItsHop) {
  // Hop 1 verifies in full while hop 2's malformed proof rejects at once:
  // hop 2's verdict may resolve first, but it commits second.
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
  expect_cut_at(pipelined, /*rejected=*/2, serial.truth.size() - 1);
}

TEST(PipelinedWalkTest, MalformedProofBooksOnlyItsHopBeforeALaterDenial) {
  // Hop 1's proof is malformed and hop 3 denies processing. The walk may
  // reach the denial before hop 1's rejection commits; the serial walk
  // never does, so hop 2 is not charged for misdirecting it.
  const auto [serial, pipelined] = run_both(
      ProductQuality::kGood,
      [](Scenario& scenario, const ProductId& product,
         const std::vector<std::string>& path) {
        ASSERT_GT(path.size(), 3u);
        QueryBehavior corrupt;
        corrupt.corrupt_proof.insert(product);
        scenario.participant(path[1]).set_query_behavior(corrupt);
        QueryBehavior deny;
        deny.claim_non_processing.insert(product);
        scenario.participant(path[3]).set_query_behavior(deny);
      });
  EXPECT_FALSE(serial.outcome.complete);
  EXPECT_EQ(serial.outcome.path, prefix(serial.truth, 1));
  ASSERT_EQ(serial.outcome.violations.size(), 1u);
  EXPECT_TRUE(serial.outcome.has_violation(
      serial.truth[1], ViolationType::kClaimProcessingInvalidProof));
  expect_cut_at(pipelined, /*rejected=*/1, /*max_overlapped=*/2);
}

TEST(PipelinedWalkTest, DenialWhileVerdictsAreOwedBlamesTheReferrerAfterThem) {
  const auto [serial, pipelined] = run_both(
      ProductQuality::kGood,
      at_hop(3, [](QueryBehavior& b, const ProductId& product) {
        b.claim_non_processing.insert(product);
      }));
  const std::string& referrer = serial.truth[2];
  EXPECT_FALSE(serial.outcome.complete);
  EXPECT_EQ(serial.outcome.path, prefix(serial.truth, 3));
  ASSERT_EQ(serial.outcome.violations.size(), 1u);
  EXPECT_TRUE(serial.outcome.has_violation(
      referrer, ViolationType::kWrongNextHopNotProcessed));
  // Hops 1 and 2 are owed when the denial arrives; the blame waits for
  // both verdicts to accept.
  EXPECT_EQ(pipelined.overlapped, 2u);
  EXPECT_EQ(pipelined.discarded, 0u);
  const std::size_t booked =
      span_index(pipelined, referrer, obs::span::kViolation);
  ASSERT_LT(booked, pipelined.spans.size());
  for (const std::size_t hop : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_LT(span_index(pipelined, serial.truth[hop], obs::span::kVerifyOk),
              booked);
  }
}

TEST(PipelinedWalkTest, BadWalkDenialWaitsBehindAnOwedReveal) {
  // Hop 2 forges a denial while hop 1's reveal still verifies. The forgery
  // rejects at once, but its violation and the reveal it triggers follow
  // hop 1's commit.
  const auto [serial, pipelined] = run_both(
      ProductQuality::kBad,
      at_hop(2, [](QueryBehavior& b, const ProductId& product) {
        b.claim_non_processing.insert(product);
      }));
  const std::string& liar = serial.truth[2];
  EXPECT_TRUE(serial.outcome.complete);
  EXPECT_EQ(serial.outcome.path, serial.truth);
  ASSERT_EQ(serial.outcome.violations.size(), 1u);
  EXPECT_TRUE(serial.outcome.has_violation(
      liar, ViolationType::kClaimNonProcessingInvalidProof));
  expect_same_transcript(serial, pipelined);
  EXPECT_EQ(pipelined.overlapped, serial.truth.size());
  EXPECT_EQ(pipelined.discarded, 0u);
  const std::size_t hop1 =
      span_index(pipelined, serial.truth[1], obs::span::kVerifyOk);
  const std::size_t denied =
      span_index(pipelined, liar, obs::span::kVerifyFail);
  const std::size_t booked =
      span_index(pipelined, liar, obs::span::kViolation);
  const std::size_t revealed =
      span_index(pipelined, liar, obs::span::kVerifyOk);
  ASSERT_LT(revealed, pipelined.spans.size());
  EXPECT_LT(hop1, denied);
  EXPECT_LT(denied, booked);
  EXPECT_LT(booked, revealed);
}

/// Replaces participant `node` with a scripted endpoint that denies
/// processing without any proof — a response no honest or configured
/// participant sends — and ignores every other request.
void deny_without_proof(Scenario& scenario, const std::string& node) {
  net::Transport& transport = scenario.transport();
  transport.unregister_node(node);
  transport.register_node(node, [&transport, node](const net::Envelope& env) {
    if (env.type != msg::kQueryRequest) return;
    QueryResponse denial;
    denial.query_id = QueryRequest::deserialize(env.payload).query_id;
    denial.claims_processing = false;
    transport.send(node, env.from, msg::kQueryResponse, denial.serialize());
  });
}

TEST(PipelinedWalkTest, ProoflessDenialIsBookedBehindTheOwedReveal) {
  // The denial books its violation through the verdict queue: after hop
  // 1's reveal commits, before hop 2's silence on the reveal it demands.
  const auto [serial, pipelined] = run_both(
      ProductQuality::kBad,
      [](Scenario& scenario, const ProductId&,
         const std::vector<std::string>& path) {
        ASSERT_GT(path.size(), 2u);
        deny_without_proof(scenario, path[2]);
      });
  const std::string& liar = serial.truth[2];
  EXPECT_FALSE(serial.outcome.complete);
  EXPECT_EQ(serial.outcome.path, prefix(serial.truth, 2));
  ASSERT_EQ(serial.outcome.violations.size(), 2u);
  EXPECT_TRUE(serial.outcome.has_violation(
      liar, ViolationType::kClaimNonProcessingInvalidProof));
  EXPECT_TRUE(serial.outcome.has_violation(liar, ViolationType::kNoResponse));
  const std::size_t hop1 =
      span_index(pipelined, serial.truth[1], obs::span::kVerifyOk);
  ASSERT_LT(hop1, pipelined.spans.size());
  EXPECT_LT(hop1, span_index(pipelined, liar, obs::span::kViolation));
}

TEST(PipelinedWalkTest, ProoflessDenialBehindARejectedRevealIsDropped) {
  // Hop 1's reveal carries a tampered trace; the walk may reach hop 2's
  // denial first, but the serial walk never does.
  const auto [serial, pipelined] = run_both(
      ProductQuality::kBad,
      [](Scenario& scenario, const ProductId& product,
         const std::vector<std::string>& path) {
        ASSERT_GT(path.size(), 2u);
        QueryBehavior tamper;
        tamper.wrong_trace.insert(product);
        scenario.participant(path[1]).set_query_behavior(tamper);
        deny_without_proof(scenario, path[2]);
      });
  EXPECT_FALSE(serial.outcome.complete);
  EXPECT_EQ(serial.outcome.path, prefix(serial.truth, 1));
  ASSERT_EQ(serial.outcome.violations.size(), 1u);
  EXPECT_TRUE(serial.outcome.has_violation(serial.truth[1],
                                           ViolationType::kInvalidReveal));
  EXPECT_GE(pipelined.discarded, 1u);
}

TEST(PipelinedWalkTest, CorruptProofAndWrongNextBookOnlyTheProof) {
  // The walk may see the bogus next hop (a revisit, so not a child) before
  // the proof's verdict; the serial walk never gets that far. The walk
  // stops there, so the counts are exact.
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
  // walk stops at hop 1's invalid proof; the pipelined walk may already
  // have queried hop 2, whose silence must not become a no-response
  // violation.
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
