// Chaos soak: the DE-Sword incentive argument (§V) needs every query to
// terminate in a verdict no matter what the network does. This suite
// drives full deployments through deterministic fault plans — loss,
// resets, duplication, delays, partitions, crash windows — and asserts:
//
//   * serial and concurrent query schedulers reach identical verdicts
//     under identical plans (the FaultInjector's order-independent fates);
//   * every query resolves within its `query_deadline` budget and the
//     pump never reports a stalled session;
//   * a participant dark for the whole distribution phase produces a
//     bounded give-up naming it — never a wedged `run_task`.
//
// Plus unit coverage of the FaultInjector decorator itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "desword/messages.h"
#include "desword/scenario.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace desword::protocol {
namespace {

using net::CrashWindow;
using net::FaultInjector;
using net::FaultPlan;
using net::FaultWindow;
using net::Partition;
using supplychain::DistributionConfig;
using supplychain::make_products;
using supplychain::SupplyChainGraph;

// ---------------------------------------------------------------------------
// FaultInjector unit coverage
// ---------------------------------------------------------------------------

/// Two-node harness over a raw SimTransport recording deliveries at "b".
struct InjectorRig {
  explicit InjectorRig(FaultPlan plan)
      : sim(network), fault(sim, std::move(plan)) {
    fault.register_node("a", [](const net::Envelope&) {});
    fault.register_node("b", [this](const net::Envelope& env) {
      deliveries.push_back({env.type, env.payload});
    });
  }

  void pump() {
    while (fault.poll() > 0) {
    }
  }

  net::Network network;
  net::SimTransport sim;
  FaultInjector fault;
  std::vector<std::pair<std::string, Bytes>> deliveries;
};

TEST(FaultInjectorTest, CertainDropIsSilentAndCounted) {
  FaultPlan plan;
  plan.default_faults.drop_rate = 1.0;
  InjectorRig rig(plan);
  const std::uint64_t before = obs::metric("net.fault.dropped").value();
  EXPECT_TRUE(rig.fault.send("a", "b", "t", Bytes{1}))
      << "silent loss must look like success to the sender";
  rig.pump();
  EXPECT_TRUE(rig.deliveries.empty());
  EXPECT_EQ(obs::metric("net.fault.dropped").value() - before, 1u);
}

TEST(FaultInjectorTest, ResetReportsFailureToSender) {
  FaultPlan plan;
  plan.default_faults.reset_rate = 1.0;
  InjectorRig rig(plan);
  const std::uint64_t before = obs::metric("net.fault.reset").value();
  EXPECT_FALSE(rig.fault.send("a", "b", "t", Bytes{1}))
      << "a reset is a failure the transport KNOWS about";
  rig.pump();
  EXPECT_TRUE(rig.deliveries.empty());
  EXPECT_EQ(obs::metric("net.fault.reset").value() - before, 1u);
}

TEST(FaultInjectorTest, CrashWindowFatesDependOnSide) {
  FaultPlan plan;
  plan.crashes.push_back(CrashWindow{"b", FaultWindow{0, 0}});  // b dark
  InjectorRig rig(plan);
  // Send TO the crashed node: the refused connect is visible.
  EXPECT_FALSE(rig.fault.send("a", "b", "t", Bytes{1}));
  // Send FROM the crashed node: a zombie never learns it is dead.
  EXPECT_TRUE(rig.fault.send("b", "a", "t", Bytes{2}));
  rig.pump();
  EXPECT_TRUE(rig.deliveries.empty());
}

TEST(FaultInjectorTest, PartitionDropsBothDirectionsThenHeals) {
  FaultPlan plan;
  plan.partitions.push_back(
      Partition{{"a"}, {"b"}, FaultWindow{0, 4}});  // heals at t=4
  InjectorRig rig(plan);
  rig.fault.register_node("c", [](const net::Envelope&) {});
  rig.fault.register_node("d", [](const net::Envelope&) {});

  EXPECT_TRUE(rig.fault.send("a", "b", "t", Bytes{1}));  // silent drop
  EXPECT_TRUE(rig.fault.send("b", "a", "t", Bytes{2}));  // both directions
  rig.pump();
  EXPECT_TRUE(rig.deliveries.empty());

  // Unrelated traffic advances the simulated clock past the heal time
  // (latency 1 per delivery).
  for (int i = 0; i < 5; ++i) {
    rig.fault.send("c", "d", "filler", Bytes{});
    rig.pump();
  }
  ASSERT_GE(rig.fault.now(), 4u);
  EXPECT_TRUE(rig.fault.send("a", "b", "t", Bytes{3}));
  rig.pump();
  ASSERT_EQ(rig.deliveries.size(), 1u) << "the partition must heal";
  EXPECT_EQ(rig.deliveries[0].second, Bytes{3});
}

TEST(FaultInjectorTest, DuplicateDeliversTwice) {
  FaultPlan plan;
  plan.default_faults.duplicate_rate = 1.0;
  InjectorRig rig(plan);
  EXPECT_TRUE(rig.fault.send("a", "b", "t", Bytes{7}));
  rig.pump();
  ASSERT_EQ(rig.deliveries.size(), 2u);
  EXPECT_EQ(rig.deliveries[0].second, rig.deliveries[1].second);
}

TEST(FaultInjectorTest, DelayedFrameArrivesViaTimer) {
  FaultPlan plan;
  plan.default_faults.delay_rate = 1.0;
  plan.default_faults.delay = 10;
  InjectorRig rig(plan);
  EXPECT_TRUE(rig.fault.send("a", "b", "t", Bytes{9}));
  EXPECT_EQ(rig.fault.pending_timers(), 1u) << "the frame is held on a timer";
  rig.pump();  // quiescence fires the delay timer, then delivers
  ASSERT_EQ(rig.deliveries.size(), 1u);
  EXPECT_EQ(rig.deliveries[0].second, Bytes{9});
}

TEST(FaultInjectorTest, DelayReordersFrames) {
  // The network itself is FIFO; a delay is the injector's only way to
  // reorder. The held "slow" frame lands after the later "fast" one.
  FaultPlan plan;
  plan.rules.push_back(net::FaultRule{"a", "b", {.delay_rate = 1.0}});
  InjectorRig rig(plan);
  rig.fault.register_node("c", [](const net::Envelope&) {});
  EXPECT_TRUE(rig.fault.send("a", "b", "slow", Bytes{1}));
  EXPECT_TRUE(rig.fault.send("c", "b", "fast", Bytes{2}));
  rig.pump();
  ASSERT_EQ(rig.deliveries.size(), 2u);
  EXPECT_EQ(rig.deliveries[0].first, "fast");
  EXPECT_EQ(rig.deliveries[1].first, "slow");
}

TEST(FaultInjectorTest, TeardownCancelsHeldFrames) {
  net::Network network;
  net::SimTransport sim(network);
  std::size_t delivered = 0;
  sim.register_node("a", [](const net::Envelope&) {});
  sim.register_node("b", [&](const net::Envelope&) { ++delivered; });
  {
    FaultPlan plan;
    plan.default_faults.delay_rate = 1.0;
    FaultInjector fault(sim, plan);
    fault.send("a", "b", "t", Bytes{1});
    EXPECT_EQ(sim.pending_timers(), 1u);
  }
  // The injector died with the frame still held: the timer must be gone,
  // and polling the surviving inner transport must not deliver (or crash).
  EXPECT_EQ(sim.pending_timers(), 0u);
  while (sim.poll() > 0) {
  }
  EXPECT_EQ(delivered, 0u);
}

TEST(FaultInjectorTest, RetransmissionsDrawFreshFates) {
  FaultPlan plan;
  plan.seed = 3;
  plan.default_faults.drop_rate = 0.5;
  InjectorRig rig(plan);
  const Bytes frame{42};  // identical payload, 32 attempts
  for (int i = 0; i < 32; ++i) {
    rig.fault.send("a", "b", "t", frame);
    rig.pump();
  }
  // The attempt counter decorrelates retransmissions: at 50% loss some
  // attempts must die and some must land (all-or-nothing would mean one
  // fate is reused for every attempt).
  EXPECT_GT(rig.deliveries.size(), 0u);
  EXPECT_LT(rig.deliveries.size(), 32u);
}

TEST(FaultInjectorTest, EqualSeedsGiveEqualFates) {
  const auto run = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.default_faults.drop_rate = 0.4;
    plan.default_faults.duplicate_rate = 0.2;
    InjectorRig rig(plan);
    for (int i = 0; i < 24; ++i) {
      rig.fault.send("a", "b", "t" + std::to_string(i % 3),
                     Bytes{static_cast<std::uint8_t>(i)});
      rig.pump();
    }
    return rig.deliveries;
  };
  EXPECT_EQ(run(11), run(11)) << "same plan, same fates — replayable chaos";
}

// ---------------------------------------------------------------------------
// Chaos sweep: seeds x fault plans x schedulers
// ---------------------------------------------------------------------------

/// Comparable digest of a query outcome (order-sensitive; violations are
/// recorded in walk order, which the sweep asserts is scheduler-invariant).
struct OutcomeDigest {
  bool complete = false;
  std::vector<std::string> path;
  std::vector<std::pair<std::string, std::string>> violations;

  bool operator==(const OutcomeDigest&) const = default;
};

enum class Cell { kLoss10, kLoss30, kPartition, kCrash };

const char* cell_name(Cell cell) {
  switch (cell) {
    case Cell::kLoss10: return "loss10";
    case Cell::kLoss30: return "loss30";
    case Cell::kPartition: return "partition";
    case Cell::kCrash: return "crash";
  }
  return "?";
}

constexpr std::uint64_t kQueryDeadline = 200000;

struct SweepRun {
  std::vector<OutcomeDigest> outcomes;
  std::map<std::string, double> reputation;
};

/// One full deployment under one fault plan and one scheduler. The
/// distribution phase runs under background loss only; partition/crash
/// windows are swapped in afterwards as open-ended windows, which makes
/// them schedule-independent on the simulated clock (a timed window would
/// cover different message sets in serial vs concurrent runs).
SweepRun run_cell(Cell cell, std::uint64_t seed, bool concurrent,
                  bool verify_cache = true, unsigned workers = 0) {
  FaultPlan plan;
  plan.seed = seed;
  plan.default_faults.drop_rate = cell == Cell::kLoss30 ? 0.30 : 0.10;

  ScenarioConfig cfg;
  cfg.fault_plan = plan;
  cfg.proxy.query_deadline = kQueryDeadline;
  cfg.proxy.max_concurrent_queries = concurrent ? 8 : 1;
  cfg.proxy.verify.cache = verify_cache;
  cfg.proxy.verify.worker_threads = workers;
  Scenario scenario(SupplyChainGraph::paper_example(), cfg);

  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 3);
  dist.seed = 7;
  const auto& truth = scenario.run_task("t0", dist);

  const auto& victim_path = truth.paths.at(dist.products[0]);
  const std::string victim =
      victim_path.size() > 1 ? victim_path[1] : victim_path[0];
  if (cell == Cell::kPartition) {
    FaultPlan query_plan = plan;
    query_plan.partitions.push_back(
        Partition{{"proxy"}, {victim}, FaultWindow{0, 0}});
    scenario.fault_injector().set_plan(query_plan);
  } else if (cell == Cell::kCrash) {
    FaultPlan query_plan = plan;
    query_plan.crashes.push_back(CrashWindow{victim, FaultWindow{0, 0}});
    scenario.fault_injector().set_plan(query_plan);
  }

  std::vector<Proxy::QuerySpec> specs;
  for (std::size_t i = 0; i < dist.products.size(); ++i) {
    specs.push_back(Proxy::QuerySpec{
        dist.products[i],
        i % 2 == 0 ? ProductQuality::kGood : ProductQuality::kBad,
        {}});
  }

  SweepRun run;
  std::vector<std::uint64_t> ids;
  for (const QueryOutcome& outcome : scenario.proxy().run_queries(specs)) {
    OutcomeDigest d;
    d.complete = outcome.complete;
    d.path = outcome.path;
    for (const Violation& v : outcome.violations) {
      d.violations.emplace_back(v.participant, to_string(v.type));
    }
    run.outcomes.push_back(std::move(d));
    ids.push_back(outcome.query_id);
  }
  run.reputation = scenario.proxy().reputation_snapshot();

  // Every query must have resolved within its deadline budget.
  for (const std::uint64_t qid : ids) {
    const obs::QueryTrace* trace = scenario.proxy().query_trace(qid);
    EXPECT_TRUE(trace != nullptr);
    if (trace == nullptr || trace->spans().empty()) continue;
    EXPECT_EQ(trace->count(obs::span::kFinished), 1u);
    const std::uint64_t begun = trace->spans().front().at;
    const std::uint64_t finished = trace->spans().back().at;
    EXPECT_LE(finished - begun, kQueryDeadline)
        << cell_name(cell) << " seed " << seed << " query " << qid;
  }
  return run;
}

TEST(ChaosSweepTest, SerialAndConcurrentSchedulersAgreeUnderFaults) {
  const std::uint64_t stalled_before =
      obs::metric("protocol.pump.stalled").value();
  const std::vector<std::uint64_t> seeds{1, 2, 3, 5, 8, 13, 21, 34};
  const std::vector<Cell> cells{Cell::kLoss10, Cell::kLoss30,
                                Cell::kPartition, Cell::kCrash};
  for (const Cell cell : cells) {
    for (const std::uint64_t seed : seeds) {
      SCOPED_TRACE(std::string(cell_name(cell)) + " seed " +
                   std::to_string(seed));
      const SweepRun serial = run_cell(cell, seed, /*concurrent=*/false);
      const SweepRun concurrent = run_cell(cell, seed, /*concurrent=*/true);
      ASSERT_EQ(serial.outcomes.size(), concurrent.outcomes.size());
      for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
        EXPECT_TRUE(serial.outcomes[i] == concurrent.outcomes[i])
            << "query " << i << " diverged between schedulers";
      }
      ASSERT_EQ(serial.reputation.size(), concurrent.reputation.size());
      for (const auto& [participant, score] : serial.reputation) {
        const auto it = concurrent.reputation.find(participant);
        ASSERT_TRUE(it != concurrent.reputation.end()) << participant;
        EXPECT_DOUBLE_EQ(score, it->second) << participant;
      }
    }
  }
  EXPECT_EQ(obs::metric("protocol.pump.stalled").value(), stalled_before)
      << "no pump round may ever report a stalled session";
}

TEST(ChaosSweepTest, VerifyCacheOnAndOffAgreeUnderFaults) {
  // The epoch-versioned verification cache must be outcome-invisible even
  // when the network mangles the walk, whichever way the hop verifies are
  // dispatched: identical verdict digests AND identical reputation, per
  // seed, across {inline, 2 workers} x {cache on, off}.
  const std::vector<std::uint64_t> seeds{1, 2, 3, 5, 8, 13, 21, 34};
  for (const std::uint64_t seed : seeds) {
    const SweepRun reference =
        run_cell(Cell::kLoss10, seed, /*concurrent=*/true, /*cache=*/true);
    for (const unsigned workers : {0u, 2u}) {
      for (const bool cache : {true, false}) {
        if (workers == 0 && cache) continue;  // the reference itself
        SCOPED_TRACE("loss10 seed " + std::to_string(seed) + " workers " +
                     std::to_string(workers) + " cache " +
                     (cache ? "on" : "off"));
        const SweepRun run = run_cell(Cell::kLoss10, seed,
                                      /*concurrent=*/true, cache, workers);
        ASSERT_EQ(reference.outcomes.size(), run.outcomes.size());
        for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
          EXPECT_TRUE(reference.outcomes[i] == run.outcomes[i])
              << "query " << i << " diverged from inline cache-on";
        }
        ASSERT_EQ(reference.reputation.size(), run.reputation.size());
        for (const auto& [participant, score] : reference.reputation) {
          const auto it = run.reputation.find(participant);
          ASSERT_TRUE(it != run.reputation.end()) << participant;
          EXPECT_DOUBLE_EQ(score, it->second) << participant;
        }
      }
    }
  }
}

TEST(ChaosSweepTest, FaultedWalksRecordNoResponseAgainstTheVictim) {
  // Sanity-check the crash cell actually bites: the victim sits on the
  // first product's path, so that query must abort on a kNoResponse.
  const SweepRun run = run_cell(Cell::kCrash, 1, /*concurrent=*/false);
  bool saw_no_response = false;
  for (const OutcomeDigest& d : run.outcomes) {
    for (const auto& [participant, type] : d.violations) {
      if (type == to_string(ViolationType::kNoResponse)) {
        saw_no_response = true;
      }
    }
  }
  EXPECT_TRUE(saw_no_response);
}

// ---------------------------------------------------------------------------
// Distribution-phase robustness
// ---------------------------------------------------------------------------

TEST(ChaosDistributionTest, DarkParticipantProducesBoundedGiveUpNamingIt) {
  // The wedge this PR fixes: a participant dark for the WHOLE distribution
  // phase used to stall `run_task` forever (the initial re-requested ps
  // with no bound and the harness kept waiting). Now the initial gives up
  // after its retry budget and the error names exactly who never reported.
  FaultPlan plan;
  plan.seed = 5;
  ScenarioConfig cfg;
  cfg.fault_plan = plan;
  cfg.max_distribution_retries = 4;
  Scenario scenario(SupplyChainGraph::paper_example(), cfg);

  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 3);
  dist.seed = 7;

  // Routing is a pure function of the config, so the ground truth tells us
  // who will be involved before the protocol runs: black out a non-initial
  // participant on the first product's path for the whole phase.
  const auto preview =
      supplychain::run_distribution(SupplyChainGraph::paper_example(), dist);
  const auto& victim_path = preview.paths.at(dist.products[0]);
  ASSERT_GT(victim_path.size(), 1u);
  const std::string victim = victim_path[1];
  FaultPlan dark = plan;
  dark.crashes.push_back(CrashWindow{victim, FaultWindow{0, 0}});
  scenario.fault_injector().set_plan(dark);

  const std::uint64_t gaveup_before =
      obs::metric("protocol.distribution.gaveup").value();
  try {
    scenario.run_task("t0", dist);
    FAIL() << "a dark participant must surface a distribution error";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("missing reports from"), std::string::npos) << what;
    EXPECT_NE(what.find(victim), std::string::npos)
        << "the give-up must name the dark participant: " << what;
  }
  EXPECT_EQ(obs::metric("protocol.distribution.gaveup").value(),
            gaveup_before + 1);
}

TEST(ChaosDistributionTest, LostListSubmitIsResentUntilTheProxyHasIt) {
  // Regression for the subtler wedge: everything delivered EXCEPT the
  // final PocListSubmit. The initial used to latch list_submitted and stop
  // retrying, leaving the proxy permanently listless.
  FaultPlan plan;
  plan.seed = 9;
  plan.rules.push_back(net::FaultRule{"v0", "proxy", {}});
  plan.rules.back().faults.drop_rate = 0.6;  // ps requests + list submits
  ScenarioConfig cfg;
  cfg.fault_plan = plan;
  Scenario scenario(SupplyChainGraph::paper_example(), cfg);

  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 2);
  dist.seed = 7;
  scenario.run_task("t0", dist);  // throws if distribution wedges
  EXPECT_TRUE(scenario.proxy().task_list("t0") != nullptr);
}

TEST(ChaosDistributionTest, OrphanedDistributionMessagesAreCounted) {
  // A ps/report for a task the receiver never began must not vanish
  // silently — `net.distribution.orphaned` feeds `desword stats`.
  net::Network network;
  net::SimTransport sim(network);
  Participant participant(
      "p0", sim, "proxy",
      ParticipantDeps{.crs_cache = std::make_shared<CrsCache>()});
  sim.register_node("proxy", [](const net::Envelope&) {});

  const std::uint64_t before =
      obs::metric("net.distribution.orphaned").value();
  sim.send("proxy", "p0", msg::kPocToParent,
           PocToParent{"no-such-task", Bytes{1, 2, 3}}.serialize());
  while (sim.poll() > 0) {
  }
  EXPECT_EQ(obs::metric("net.distribution.orphaned").value(), before + 1);
}

}  // namespace
}  // namespace desword::protocol
