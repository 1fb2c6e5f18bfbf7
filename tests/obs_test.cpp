// Observability-layer tests (ISSUE 4 tentpole):
//   * metrics registry primitives — concurrent counter/histogram recording
//     with exact totals, deterministic snapshots, bucket boundaries;
//   * protocol integration — a good-product query over an 8-participant
//     chain produces the expected span sequence and metric deltas, a lossy
//     rerun fires retransmissions, and `export_stats_json()` round-trips.
//
// Runs under the TSan CI preset: the concurrency tests double as the data
// race gate for the zero-alloc recording hot path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/thread_pool.h"
#include "desword/scenario.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace desword::obs {
namespace {

// ---------------------------------------------------------------------------
// Registry primitives
// ---------------------------------------------------------------------------

TEST(MetricsTest, NamedLookupReturnsStableAddress) {
  Counter& a = metric("net.frame.sent");
  Counter& b = metric("net.frame.sent");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&a,
            &MetricsRegistry::global().counter(CounterId::net_frame_sent));
}

TEST(MetricsTest, UnregisteredNameThrows) {
  EXPECT_ANY_THROW(MetricsRegistry::global().counter("no.such.metric"));
  EXPECT_ANY_THROW(MetricsRegistry::global().gauge("no.such.metric"));
  EXPECT_ANY_THROW(MetricsRegistry::global().histogram("no.such.metric"));
}

TEST(MetricsTest, ResetZeroesInPlace) {
  Counter& c = metric("protocol.query.started");
  c.add(7);
  Histogram& h = histogram_metric("zkedb.verify.wall_ms");
  h.observe_us(123);
  MetricsRegistry::global().reset_for_test();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_us(), 0u);
  EXPECT_EQ(h.max_us(), 0u);
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(h.bucket(i), 0u);
  }
}

TEST(MetricsTest, ConcurrentCounterAddsAreExact) {
  MetricsRegistry::global().reset_for_test();
  Counter& c = metric("net.frame.sent");
  Gauge& g = gauge_metric("protocol.sessions.active");
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kAddsPerTask = 5000;
  ThreadPool pool(8);
  pool.for_each(kTasks, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kAddsPerTask; ++i) {
      c.add();
      g.add(1);
      g.add(-1);
    }
  });
  EXPECT_EQ(c.value(), kTasks * kAddsPerTask);
  EXPECT_EQ(g.value(), 0);
  MetricsRegistry::global().reset_for_test();
}

TEST(MetricsTest, ConcurrentHistogramObservationsAreExact) {
  MetricsRegistry::global().reset_for_test();
  Histogram& h = histogram_metric("zkedb.prove.wall_ms");
  constexpr std::size_t kTasks = 32;
  constexpr std::uint64_t kObsPerTask = 2000;
  ThreadPool pool(8);
  pool.for_each(kTasks, [&](std::size_t task) {
    for (std::uint64_t i = 0; i < kObsPerTask; ++i) {
      // Deterministic spread across buckets, including the max candidate.
      h.observe_us((task * kObsPerTask + i) % 4096);
    }
  });
  EXPECT_EQ(h.count(), kTasks * kObsPerTask);
  EXPECT_EQ(h.max_us(), 4095u);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    bucket_total += h.bucket(i);
  }
  EXPECT_EQ(bucket_total, h.count());
  MetricsRegistry::global().reset_for_test();
}

TEST(MetricsTest, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  // Everything past the covered range lands in the unbounded last bucket.
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
}

TEST(MetricsTest, SnapshotsAreDeterministic) {
  MetricsRegistry::global().reset_for_test();
  metric("net.frame.sent").add(3);
  histogram_metric("zkedb.commit.wall_ms").observe_us(1500);
  const std::string a = MetricsRegistry::global().snapshot_json();
  const std::string b = MetricsRegistry::global().snapshot_json();
  EXPECT_EQ(a, b);

  // Snapshot parses and surfaces the recorded values.
  const json::Value v = json::parse(a);
  EXPECT_EQ(v.at("net.frame.sent").as_int(), 3);
  EXPECT_EQ(v.at("zkedb.commit.wall_ms").at("count").as_int(), 1);
  MetricsRegistry::global().reset_for_test();
}

TEST(MetricsTest, CompactJsonOmitsIdleInstruments) {
  MetricsRegistry::global().reset_for_test();
  EXPECT_EQ(MetricsRegistry::global().compact_json(), "{}");
  metric("net.reply_cache.hits").add(2);
  const std::string compact = MetricsRegistry::global().compact_json();
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  const json::Value v = json::parse(compact);
  EXPECT_EQ(v.at("net.reply_cache.hits").as_int(), 2);
  EXPECT_FALSE(v.has("net.frame.dropped"));
  MetricsRegistry::global().reset_for_test();
}

// ---------------------------------------------------------------------------
// QueryTrace
// ---------------------------------------------------------------------------

TEST(QueryTraceTest, RecordsAndExports) {
  QueryTrace trace;
  trace.set_query_id(42);
  trace.record(10, "v1", span::kRequestSent, "query_request");
  trace.record(12, "v1", span::kResponseReceived, "query_response");
  trace.record(13, "v1", span::kVerifyOk, "ownership");
  trace.record(20, "", span::kFinished, "complete");
  EXPECT_EQ(trace.spans().size(), 4u);
  EXPECT_EQ(trace.count(span::kRequestSent), 1u);
  EXPECT_EQ(trace.count(span::kRetransmit), 0u);

  const json::Value v = trace.to_json();
  EXPECT_EQ(v.at("query_id").as_int(), 42);
  const auto& spans = v.at("spans").as_array();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].at("event").as_string(), span::kRequestSent);
  EXPECT_EQ(spans[0].at("peer").as_string(), "v1");
  EXPECT_EQ(spans[3].at("detail").as_string(), "complete");

  // The single-line export parses to the same value.
  const std::string line = trace.to_json_line();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(json::parse(line).at("query_id").as_int(), 42);
}

}  // namespace
}  // namespace desword::obs

// ---------------------------------------------------------------------------
// Protocol integration: spans + metric deltas over a real query
// ---------------------------------------------------------------------------

namespace desword::protocol {
namespace {

using supplychain::DistributionConfig;
using supplychain::make_products;
using supplychain::ProductId;
using supplychain::SupplyChainGraph;

/// v0 -> v1 -> ... -> v7: every product walks the full 8-hop chain, so the
/// expected span counts are exact.
SupplyChainGraph chain_graph(std::size_t hops) {
  SupplyChainGraph graph;
  for (std::size_t i = 0; i + 1 < hops; ++i) {
    graph.add_edge("v" + std::to_string(i), "v" + std::to_string(i + 1));
  }
  return graph;
}

class ObsProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ScenarioConfig cfg;
    cfg.proxy.edb = zkedb::EdbConfig{4, 8, 512, "p256"};
    scenario_ = std::make_unique<Scenario>(chain_graph(8), cfg);
    products_ = make_products(1, 1, 2);
    DistributionConfig dist;
    dist.initial = "v0";
    dist.products = products_;
    dist.seed = 7;
    scenario_->run_task("task-1", dist);
  }

  std::unique_ptr<Scenario> scenario_;
  std::vector<ProductId> products_;
};

TEST_F(ObsProtocolTest, GoodQueryProducesSpansAndMetricDeltas) {
  const ProductId product = products_[0];
  const auto* path = scenario_->path_of(product);
  ASSERT_NE(path, nullptr);
  ASSERT_EQ(path->size(), 8u);

  auto& registry = obs::MetricsRegistry::global();
  registry.reset_for_test();

  const std::uint64_t query_id =
      scenario_->proxy().begin_query(product, ProductQuality::kGood);
  scenario_->proxy().pump();
  const QueryOutcome* outcome = scenario_->proxy().outcome(query_id);
  ASSERT_NE(outcome, nullptr);
  ASSERT_TRUE(outcome->complete);
  EXPECT_EQ(outcome->path, *path);

  // Metric deltas: the verify histogram saw every ownership proof, the
  // lossless run never retransmitted, the session is accounted closed.
  EXPECT_GT(obs::histogram_metric("zkedb.verify.wall_ms").count(), 0u);
  EXPECT_EQ(obs::metric("protocol.query.started").value(), 1u);
  EXPECT_EQ(obs::metric("protocol.query.completed").value(), 1u);
  EXPECT_EQ(obs::metric("net.retransmit.fired").value(), 0u);
  EXPECT_EQ(obs::metric("protocol.violation.detected").value(), 0u);
  EXPECT_EQ(obs::gauge_metric("protocol.sessions.active").value(), 0);
  EXPECT_GT(obs::metric("net.frame.sent").value(), 0u);

  // Span sequence: a request went to (at least) every hop, exactly one
  // ownership proof verified per hop, nothing failed, and the trace closed
  // with a single kFinished span.
  const obs::QueryTrace* trace = scenario_->proxy().query_trace(query_id);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->query_id(), query_id);
  for (const auto& hop : *path) {
    bool requested = false;
    for (const auto& span : trace->spans()) {
      if (span.event == obs::span::kRequestSent && span.peer == hop) {
        requested = true;
        break;
      }
    }
    EXPECT_TRUE(requested) << "no request_sent span for hop " << hop;
  }
  EXPECT_EQ(trace->count(obs::span::kVerifyOk), path->size());
  EXPECT_EQ(trace->count(obs::span::kVerifyFail), 0u);
  EXPECT_EQ(trace->count(obs::span::kRetransmit), 0u);
  EXPECT_EQ(trace->count(obs::span::kFinished), 1u);
  ASSERT_FALSE(trace->spans().empty());
  EXPECT_EQ(trace->spans().back().event, obs::span::kFinished);
  EXPECT_EQ(trace->spans().back().detail, "complete");

  registry.reset_for_test();
}

TEST_F(ObsProtocolTest, LossyLinksFireRetransmitMetricAndSpans) {
  const ProductId product = products_[0];
  net::FaultPlan lossy;
  lossy.rules.push_back(net::FaultRule{"proxy", "", {.drop_rate = 0.3}});
  lossy.rules.push_back(net::FaultRule{"", "proxy", {.drop_rate = 0.3}});
  scenario_->fault_injector().set_plan(lossy);

  auto& registry = obs::MetricsRegistry::global();
  registry.reset_for_test();

  const std::uint64_t query_id =
      scenario_->proxy().begin_query(product, ProductQuality::kGood);
  scenario_->proxy().pump();
  const QueryOutcome* outcome = scenario_->proxy().outcome(query_id);
  ASSERT_NE(outcome, nullptr);
  // Whether the walk completes depends on the (seeded, deterministic) loss
  // pattern vs the retry budget; the observability contract is only that
  // every firing is counted AND traced, and the session still closes.

  // 30% loss each way over 8 hops: retransmission fired, was counted, and
  // each firing landed in the trace.
  const std::uint64_t retransmits = obs::metric("net.retransmit.fired").value();
  EXPECT_GT(retransmits, 0u);
  // Injected losses count under the injector's counter; net.frame.dropped
  // only counts sends the network itself could not deliver.
  EXPECT_GT(obs::metric("net.fault.dropped").value(), 0u);
  const obs::QueryTrace* trace = scenario_->proxy().query_trace(query_id);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->count(obs::span::kRetransmit), retransmits);
  EXPECT_EQ(trace->count(obs::span::kFinished), 1u);

  registry.reset_for_test();
}

TEST_F(ObsProtocolTest, ExportStatsJsonRoundTrips) {
  obs::MetricsRegistry::global().reset_for_test();
  const QueryOutcome outcome =
      scenario_->proxy().run_query(products_[0], ProductQuality::kGood);
  ASSERT_TRUE(outcome.complete);

  const std::string stats = scenario_->proxy().export_stats_json();
  const json::Value v = json::parse(stats);
  EXPECT_GT(v.at("metrics").at("zkedb.verify.wall_ms").at("count").as_int(),
            0);
  EXPECT_FALSE(v.at("reputation").as_object().empty());
  const auto& traces = v.at("traces").as_array();
  ASSERT_FALSE(traces.empty());
  EXPECT_FALSE(traces[0].at("spans").as_array().empty());

  obs::MetricsRegistry::global().reset_for_test();
}

}  // namespace
}  // namespace desword::protocol
