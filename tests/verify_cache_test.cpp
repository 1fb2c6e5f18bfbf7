// Verification-cache coverage: the proxy's hop memo must be a pure
// accelerator — never a way to smuggle a bad proof past the verifier,
// never a way to keep a verdict that a replacement POC list changed.
//
//   * unit: LRU eviction under a small cap, rejected verdicts never
//     stored, bit-flipped proof bytes never alias a key;
//   * protocol level: a repeated product query hits the hop memo with an
//     identical outcome; a tampered proof after a genuine hit is booked;
//     replacement POC lists give the same path, violations and reputation
//     as a cache-off run; the memo holds at most `cache_capacity` hops;
//   * concurrency: identical in-flight hops join one check and a repeat
//     wave hits, with no lock in the memo (this suite runs under TSan).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/thread_pool.h"
#include "crypto/hash.h"
#include "desword/messages.h"
#include "desword/scenario.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "poc/poc_list.h"
#include "zkedb/verify_cache.h"

namespace desword {
namespace {

namespace zk = zkedb;
namespace proto = protocol;
using supplychain::DistributionConfig;
using supplychain::make_products;
using supplychain::ProductId;
using supplychain::SupplyChainGraph;
using zk::VerifyCache;
using zk::VerifyOutcome;

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

Bytes key_of(int i) {
  return TaggedHasher("test/cache-key").add_str(std::to_string(i)).digest();
}

std::uint64_t hits() { return obs::metric("zkedb.cache.hit").value(); }
std::uint64_t misses() { return obs::metric("zkedb.cache.miss").value(); }
std::uint64_t evictions() { return obs::metric("zkedb.cache.evict").value(); }
std::uint64_t joined() { return obs::metric("zkedb.cache.joined").value(); }

// ---------------------------------------------------------------------------
// VerifyCache unit coverage
// ---------------------------------------------------------------------------

TEST(VerifyCacheTest, HitReturnsStoredOutcome) {
  VerifyCache cache(16);
  const Bytes key = key_of(1);
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.store(key, VerifyOutcome::accept_value(bytes_of("v")));
  const std::uint64_t h0 = hits();
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->ok);
  EXPECT_EQ(**hit, bytes_of("v"));
  EXPECT_EQ(hits(), h0 + 1);
}

TEST(VerifyCacheTest, RejectionsAreNeverStored) {
  // Negative caching would let a flooder evict the legitimate working set
  // with free garbage proofs; rejections must stay uncached.
  VerifyCache cache(16);
  cache.store(key_of(1), VerifyOutcome::reject());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
}

TEST(VerifyCacheTest, LruEvictsOldestUnderSmallCap) {
  VerifyCache cache(4);
  const std::uint64_t e0 = evictions();
  for (int i = 0; i < 4; ++i) {
    cache.store(key_of(i), VerifyOutcome::accept());
  }
  EXPECT_EQ(cache.size(), 4u);
  // Touch key 0 so key 1 becomes the LRU victim.
  ASSERT_TRUE(cache.lookup(key_of(0)).has_value());
  cache.store(key_of(4), VerifyOutcome::accept());
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(evictions(), e0 + 1);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(key_of(0)).has_value());   // kept (recently used)
  EXPECT_TRUE(cache.lookup(key_of(4)).has_value());
}

TEST(VerifyCacheTest, BitFlippedProofBytesNeverAliasAKey) {
  // Cache poisoning via key collision: a proof that shares every other
  // key component but differs in ONE bit of the proof bytes must map to a
  // different slot.
  const Bytes commitment = bytes_of("commitment");
  const Bytes product = bytes_of("product");
  Bytes proof = bytes_of("proof-bytes");
  const Bytes hop = VerifyCache::hop_key("t0", "p1", product, commitment,
                                         proof, "ownership");
  proof[0] ^= 0x01;
  EXPECT_NE(hop, VerifyCache::hop_key("t0", "p1", product, commitment, proof,
                                      "ownership"));
  // The flavour is bound too: a non-ownership verdict can never answer an
  // ownership lookup for the same bytes.
  proof[0] ^= 0x01;
  EXPECT_NE(hop, VerifyCache::hop_key("t0", "p1", product, commitment, proof,
                                      "non_ownership"));
}

// ---------------------------------------------------------------------------
// Protocol integration (proxy hop memo)
// ---------------------------------------------------------------------------

class VerifyCacheProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::ScenarioConfig cfg;
    scenario_ = std::make_unique<proto::Scenario>(
        SupplyChainGraph::paper_example(), cfg);
    dist_.initial = "v0";
    dist_.products = make_products(1, 0, 3);
    dist_.seed = 7;
    scenario_->run_task("t0", dist_);
  }

  proto::QueryOutcome query(const ProductId& product) {
    return scenario_->proxy().run_query(product, proto::ProductQuality::kGood);
  }

  static std::pair<std::vector<std::string>, bool> digest(
      const proto::QueryOutcome& o) {
    return {o.path, o.complete};
  }

  /// Proofs generated so far, summed over every participant.
  std::uint64_t generated() const {
    std::uint64_t total = 0;
    for (const auto& id : scenario_->graph().participants()) {
      total += scenario_->participant(id).stats().proofs_generated;
    }
    return total;
  }

  std::unique_ptr<proto::Scenario> scenario_;
  DistributionConfig dist_;
};

TEST_F(VerifyCacheProtocolTest, RepeatedQueryHitsTheHopMemo) {
  const ProductId& product = dist_.products[0];
  const auto first = query(product);
  EXPECT_TRUE(first.complete);

  const std::uint64_t h0 = hits();
  const auto second = query(product);
  EXPECT_GT(hits(), h0) << "repeat query must reuse cached hop verdicts";
  EXPECT_EQ(digest(first), digest(second));
  EXPECT_TRUE(second.violations.empty());
}

TEST_F(VerifyCacheProtocolTest, RepeatedQueryRegeneratesIdenticalProofs) {
  const ProductId& product = dist_.products[0];
  const std::uint64_t g0 = generated();
  const auto first = query(product);
  ASSERT_TRUE(first.complete);

  // Participants keep no proof memo: a repeat re-runs proof generation,
  // and because an ownership proof only reveals committed randomness the
  // regenerated bytes are identical — every hop hits the proxy's memo,
  // which is keyed by the full proof bytes.
  const std::uint64_t g1 = generated();
  const std::uint64_t h0 = hits();
  const auto second = query(product);
  EXPECT_EQ(generated() - g1, g1 - g0) << "a repeat proves every hop again";
  EXPECT_GE(hits() - h0, first.path.size())
      << "regenerated proofs must be byte-identical";
  EXPECT_EQ(digest(first), digest(second));
  EXPECT_TRUE(second.violations.empty());
}

// A bad-product query without a task hint scans the POC lists of earlier
// tasks, whose participants deny with non-ownership proofs. A repeat
// recomputes them — from the prover's memoized fabrication, into the
// identical bytes — so the proxy's hop memo (keyed by the full proof
// bytes) still hits.
class ProofRegenerationTest : public VerifyCacheProtocolTest {
 protected:
  void SetUp() override {
    VerifyCacheProtocolTest::SetUp();
    later_.initial = "v0";
    later_.products = make_products(1, 100, 2);
    later_.seed = 8;
    scenario_->run_task("t1", later_);
  }

  static std::uint64_t denials() {
    return obs::metric("protocol.proof.non_ownership").value();
  }

  proto::QueryOutcome bad_query(const ProductId& product) {
    return scenario_->proxy().run_query(product, proto::ProductQuality::kBad);
  }

  DistributionConfig later_;
};

TEST_F(ProofRegenerationTest, RepeatedBadQueryRecomputesIdenticalDenials) {
  const ProductId& product = later_.products[0];
  const std::uint64_t d0 = denials();
  const std::uint64_t g0 = generated();
  const auto first = bad_query(product);
  ASSERT_TRUE(first.complete);
  ASSERT_GT(denials(), d0) << "the scan must draw non-ownership proofs";

  const std::uint64_t d1 = denials();
  const std::uint64_t g1 = generated();
  const std::uint64_t h0 = hits();
  const auto second = bad_query(product);
  ASSERT_EQ(denials() - d1, d1 - d0);
  EXPECT_EQ(generated() - g1, g1 - g0) << "every proof is recomputed";
  EXPECT_GT(hits(), h0) << "recomputed denials must be byte-identical";
  EXPECT_EQ(digest(first), digest(second));
  EXPECT_EQ(first.violations.size(), second.violations.size());
}

/// Sum of the reputation deltas `participant` received for query `qid`.
double delta_for(const proto::Proxy& proxy, std::uint64_t qid,
                 const std::string& participant) {
  double total = 0.0;
  for (const proto::ReputationEvent& e : proxy.ledger().history()) {
    if (e.query_id == qid && e.participant == participant) total += e.delta;
  }
  return total;
}

TEST_F(VerifyCacheProtocolTest, TamperedProofAfterGenuineHitIsBooked) {
  const ProductId& product = dist_.products[0];
  const auto& path = scenario_->truth("t0").paths.at(product);
  ASSERT_GE(path.size(), 2u);
  const auto first = query(product);
  ASSERT_TRUE(first.complete);  // every genuine hop is memoized now

  // path[1] tampers with the proof it already had accepted once: the
  // memo keys the full bytes, so the tampered proof misses, is verified
  // and rejected, while path[0]'s untouched proof still hits.
  for (const bool corrupt : {true, false}) {
    SCOPED_TRACE(corrupt ? "corrupt_proof" : "wrong_trace");
    proto::QueryBehavior behavior;
    (corrupt ? behavior.corrupt_proof : behavior.wrong_trace).insert(product);
    scenario_->participant(path[1]).set_query_behavior(behavior);
    const std::uint64_t h0 = hits();
    const auto tampered = query(product);
    EXPECT_EQ(hits() - h0, 1u) << "only the honest first hop may hit";
    EXPECT_FALSE(tampered.complete);
    EXPECT_EQ(tampered.path, std::vector<std::string>{path[0]});
    EXPECT_TRUE(tampered.has_violation(
        path[1], proto::ViolationType::kClaimProcessingInvalidProof));
    EXPECT_LT(delta_for(scenario_->proxy(), tampered.query_id, path[1]), 0.0);
  }

  // The genuine entries were neither poisoned nor displaced.
  scenario_->participant(path[1]).set_query_behavior({});
  const std::uint64_t h0 = hits();
  const auto honest = query(product);
  EXPECT_EQ(hits() - h0, path.size());
  EXPECT_EQ(digest(honest), digest(first));
  EXPECT_TRUE(honest.violations.empty());
}

/// Observable result of one query: what a cache must never change.
struct QueryDigest {
  std::vector<std::string> path;
  bool complete = false;
  std::vector<proto::Violation> violations;
  std::map<std::string, double> reputation;  // board right after the query

  bool operator==(const QueryDigest&) const = default;
};

/// One deployment driven through the list-replacement steps, cache on or
/// off. Task t1 redistributes t0's products, so every participant holds a
/// second commitment to the same traces under fresh randomness — the POC
/// a re-committing participant would submit.
class ListReplacementRun {
 public:
  explicit ListReplacementRun(bool cache) {
    proto::ScenarioConfig cfg;
    cfg.proxy.verify.cache = cache;
    scenario_ = std::make_unique<proto::Scenario>(
        SupplyChainGraph::paper_example(), cfg);
    DistributionConfig dist;
    dist.initial = "v0";
    dist.products = make_products(1, 0, 3);
    dist.seed = 7;
    scenario_->run_task("t0", dist);
    scenario_->run_task("t1", dist);
    product_ = dist.products[0];
    path_ = scenario_->truth("t0").paths.at(product_);
  }

  const std::vector<std::string>& path() const { return path_; }

  QueryDigest query() {
    const auto o = scenario_->proxy().run_query(
        product_, proto::ProductQuality::kGood, std::string("t0"));
    return {o.path, o.complete, o.violations,
            scenario_->proxy().reputation_snapshot()};
  }

  /// (a) t0's POCs minus one edge the product's path never crosses.
  void replace_dropping_an_edge() {
    const poc::PocList& orig = list("t0");
    const auto on_path = [&](const std::string& a, const std::string& b) {
      for (std::size_t i = 0; i + 1 < path_.size(); ++i) {
        if (path_[i] == a && path_[i + 1] == b) return true;
      }
      return false;
    };
    poc::PocList fresh(orig.ps());
    for (const std::string& p : orig.participants()) {
      fresh.add_poc(*orig.find(p));
    }
    bool dropped = false;
    for (const std::string& parent : orig.participants()) {
      for (const std::string& child : orig.children_of(parent)) {
        if (!dropped && !on_path(parent, child)) {
          dropped = true;  // omit exactly this edge
          continue;
        }
        fresh.add_edge(parent, child);
      }
    }
    ASSERT_TRUE(dropped) << "no off-path edge to drop; pick another product";
    submit(fresh);
  }

  /// (b) the current t0 list with path[1]'s POC swapped for its t1
  /// re-commitment.
  void replace_recommitting_path_hop() {
    const poc::PocList& orig = list("t0");
    const poc::Poc& recommitted = *list("t1").find(path_[1]);
    ASSERT_NE(recommitted.commitment, orig.find(path_[1])->commitment);
    poc::PocList fresh(orig.ps());
    for (const std::string& p : orig.participants()) {
      fresh.add_poc(p == path_[1] ? recommitted : *orig.find(p));
    }
    for (const std::string& parent : orig.participants()) {
      for (const std::string& child : orig.children_of(parent)) {
        fresh.add_edge(parent, child);
      }
    }
    submit(fresh);
  }

 private:
  const poc::PocList& list(const std::string& task_id) const {
    const poc::PocList* l = scenario_->proxy().task_list(task_id);
    EXPECT_NE(l, nullptr);
    return *l;
  }

  void submit(const poc::PocList& fresh) {
    const Bytes before = list("t0").serialize();
    net::Transport& transport = scenario_->transport();
    transport.send("v0", "proxy", proto::msg::kPocListSubmit,
                   proto::PocListSubmit{"t0", fresh.serialize()}.serialize());
    // One round delivers the queued submit. Draining to idle would also
    // fire v0's list-submit retry timer, which re-sends the original list.
    ASSERT_GT(transport.poll(), 0u);
    ASSERT_NE(list("t0").serialize(), before) << "replacement not adopted";
  }

  std::unique_ptr<proto::Scenario> scenario_;
  ProductId product_;
  std::vector<std::string> path_;
};

TEST(VerifyCacheReplacementTest, ListReplacementMatchesCacheOffRun) {
  ListReplacementRun on(/*cache=*/true);
  ListReplacementRun off(/*cache=*/false);
  const QueryDigest first = on.query();
  ASSERT_TRUE(first.complete);
  ASSERT_GE(on.path().size(), 2u);
  EXPECT_EQ(first, off.query());

  // (a) Every hop keeps its commitment, so every memoized verdict still
  // answers its question and the re-query hits on every hop.
  on.replace_dropping_an_edge();
  off.replace_dropping_an_edge();
  std::uint64_t h0 = hits();
  const QueryDigest dropped = on.query();
  EXPECT_EQ(hits() - h0, on.path().size());
  EXPECT_EQ(dropped, off.query());

  // (b) path[1] re-committed: its key changes with the commitment, so its
  // proof is verified afresh; the other hops still hit.
  on.replace_recommitting_path_hop();
  off.replace_recommitting_path_hop();
  h0 = hits();
  const std::uint64_t m0 = misses();
  const QueryDigest recommitted = on.query();
  EXPECT_EQ(hits() - h0, on.path().size() - 1);
  EXPECT_EQ(misses() - m0, 1u);
  EXPECT_EQ(recommitted, off.query());
  EXPECT_EQ(recommitted.path, first.path);
}

TEST(VerifyCacheCapacityTest, ProxyMemoHoldsAtMostCacheCapacityHops) {
  proto::ScenarioConfig cfg;
  cfg.proxy.verify.cache_capacity = 2;
  proto::Scenario scenario(SupplyChainGraph::paper_example(), cfg);
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 0, 3);
  dist.seed = 7;
  scenario.run_task("t0", dist);

  std::size_t accepted_hops = 0;
  for (const ProductId& p : dist.products) {
    const auto outcome =
        scenario.proxy().run_query(p, proto::ProductQuality::kGood);
    ASSERT_TRUE(outcome.complete);
    accepted_hops += outcome.path.size();  // distinct: the product is keyed
    EXPECT_LE(scenario.proxy().verify_cache()->size(), 2u);
  }
  ASSERT_GT(accepted_hops, 2u);
  EXPECT_EQ(scenario.proxy().verify_cache()->size(), 2u);
}

// ---------------------------------------------------------------------------
// Concurrency: the memo is loop-thread-only and takes no lock. Under TSan
// any worker touching it would be reported.
// ---------------------------------------------------------------------------

/// Posts one task per worker of `executor` that returns once `ready()`
/// holds, so every task posted behind them waits until then. A minute's
/// deadline turns a premise that never comes true into failed assertions
/// instead of a hang.
void hold_workers(Executor& executor, unsigned workers,
                  const std::function<bool()>& ready) {
  for (unsigned i = 0; i < workers; ++i) {
    executor.post([ready] {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::minutes(1);
      while (!ready() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
}

TEST(VerifyCacheConcurrencyTest, JoinedAndMemoizedHopsMatchAnInlineRun) {
  struct Run {
    std::vector<QueryDigest> outcomes;  // reputation: the board at the end
    std::uint64_t wave1_joined = 0;
    std::uint64_t wave2_hits = 0;
  };
  const auto run = [](unsigned workers) {
    proto::ScenarioConfig cfg;
    cfg.proxy.verify.worker_threads = workers;
    cfg.proxy.max_concurrent_queries = 4;
    // Participants prove on a pool of their own, so holding the proxy's
    // verify workers below never holds up a proof.
    ThreadPool prover_pool(3);
    proto::Scenario scenario(SupplyChainGraph::paper_example(), cfg);
    const std::shared_ptr<Executor> verifier = scenario.proxy().executor();
    if (verifier) {
      const auto provers = std::make_shared<Executor>(prover_pool);
      for (const std::string& id : scenario.graph().participants()) {
        scenario.participant(id).set_executor(provers);
      }
    }
    DistributionConfig dist;
    dist.initial = "v0";
    dist.products = make_products(1, 0, 3);
    dist.seed = 7;
    scenario.run_task("t0", dist);

    // The same product in flight four times: identical proof bytes per hop.
    const std::vector<ProductId> wave(4, dist.products[0]);
    Run r;
    for (int round = 0; round < 2; ++round) {
      const std::uint64_t j0 = joined();
      const std::uint64_t h0 = hits();
      if (round == 0 && verifier) {
        // The first of the four first-hop responses dispatches the hop's
        // check, which cannot finish before the other three joined it.
        hold_workers(*verifier, workers, [j0] { return joined() - j0 >= 3; });
      }
      for (const auto& o : scenario.proxy().run_queries(
               wave, proto::ProductQuality::kGood)) {
        r.outcomes.push_back({o.path, o.complete, o.violations, {}});
      }
      if (round == 0) r.wave1_joined = joined() - j0;
      if (round == 1) r.wave2_hits = hits() - h0;
    }
    r.outcomes.back().reputation = scenario.proxy().reputation_snapshot();
    return r;
  };
  const Run inline_run = run(/*workers=*/0);
  const Run pooled = run(/*workers=*/2);
  EXPECT_GT(pooled.wave1_joined, 0u) << "identical in-flight hops must join";
  EXPECT_GT(pooled.wave2_hits, 0u) << "the repeat wave must hit the memo";
  EXPECT_EQ(pooled.outcomes, inline_run.outcomes);
}

// ---------------------------------------------------------------------------
// Cache-on / cache-off equivalence (no faults; the chaos suite covers the
// faulted cells)
// ---------------------------------------------------------------------------

TEST(VerifyCacheEquivalenceTest, CacheOffReachesIdenticalOutcome) {
  const auto run = [](bool cache) {
    proto::ScenarioConfig cfg;
    cfg.proxy.verify.cache = cache;
    proto::Scenario scenario(SupplyChainGraph::paper_example(), cfg);
    DistributionConfig dist;
    dist.initial = "v0";
    dist.products = make_products(1, 0, 2);
    dist.seed = 11;
    scenario.run_task("t0", dist);
    std::vector<std::string> paths;
    for (int round = 0; round < 2; ++round) {
      for (const ProductId& p : dist.products) {
        const auto outcome =
            scenario.proxy().run_query(p, proto::ProductQuality::kGood);
        EXPECT_TRUE(outcome.complete);
        for (const std::string& hop : outcome.path) paths.push_back(hop);
      }
    }
    return std::make_pair(paths, scenario.proxy().reputation_snapshot());
  };
  const auto on = run(true);
  const auto off = run(false);
  EXPECT_EQ(on.first, off.first);
  EXPECT_EQ(on.second, off.second);
}

}  // namespace
}  // namespace desword
