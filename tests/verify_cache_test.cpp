// Verification-cache coverage (ISSUE 10): the epoch-versioned verdict
// cache must be a pure accelerator — never a way to smuggle a bad proof
// past the verifier, never a way to resurrect a verdict from a retired
// POC-list epoch.
//
//   * unit: LRU eviction under a small cap, epoch invalidation, rejected
//     verdicts never stored, bit-flipped proof bytes never alias a key;
//   * verifier level: a warm cache returns the identical outcome and a
//     tampered proof after a genuine hit is still rejected;
//   * protocol level: a repeated product query hits the proxy's hop memo
//     with an identical outcome, and a replacement POC-list submission
//     bumps the task epoch so stale entries are erased on next touch.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "crypto/hash.h"
#include "desword/messages.h"
#include "desword/scenario.h"
#include "net/network.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "poc/poc_list.h"
#include "zkedb/prover.h"
#include "zkedb/verifier.h"
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
std::uint64_t evictions() { return obs::metric("zkedb.cache.evict").value(); }
std::uint64_t stales() { return obs::metric("zkedb.cache.stale").value(); }

// ---------------------------------------------------------------------------
// VerifyCache unit coverage
// ---------------------------------------------------------------------------

TEST(VerifyCacheTest, HitReturnsStoredOutcome) {
  VerifyCache cache;
  const Bytes key = key_of(1);
  EXPECT_FALSE(cache.lookup(key, 0).has_value());
  cache.store(key, VerifyOutcome::accept_value(bytes_of("v")), 0);
  const std::uint64_t h0 = hits();
  const auto hit = cache.lookup(key, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->ok);
  EXPECT_EQ(**hit, bytes_of("v"));
  EXPECT_EQ(hits(), h0 + 1);
}

TEST(VerifyCacheTest, RejectionsAreNeverStored) {
  // Negative caching would let a flooder evict the legitimate working set
  // with free garbage proofs; rejections must stay uncached.
  VerifyCache cache;
  cache.store(key_of(1), VerifyOutcome::reject(), 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_of(1), 0).has_value());
}

TEST(VerifyCacheTest, LruEvictsOldestUnderSmallCap) {
  VerifyCache cache(VerifyCache::Config{/*capacity=*/4, /*shards=*/1});
  const std::uint64_t e0 = evictions();
  for (int i = 0; i < 4; ++i) {
    cache.store(key_of(i), VerifyOutcome::accept(), 0);
  }
  EXPECT_EQ(cache.size(), 4u);
  // Touch key 0 so key 1 becomes the LRU victim.
  ASSERT_TRUE(cache.lookup(key_of(0), 0).has_value());
  cache.store(key_of(4), VerifyOutcome::accept(), 0);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(evictions(), e0 + 1);
  EXPECT_FALSE(cache.lookup(key_of(1), 0).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(key_of(0), 0).has_value());   // kept (recently used)
  EXPECT_TRUE(cache.lookup(key_of(4), 0).has_value());
}

TEST(VerifyCacheTest, EpochMismatchErasesStaleEntry) {
  VerifyCache cache;
  const Bytes key = key_of(7);
  cache.store(key, VerifyOutcome::accept(), /*epoch=*/1);
  const std::uint64_t s0 = stales();
  EXPECT_FALSE(cache.lookup(key, /*epoch=*/2).has_value());
  EXPECT_EQ(stales(), s0 + 1);
  // The stale entry was erased, not just skipped: even its own epoch
  // misses now.
  EXPECT_FALSE(cache.lookup(key, /*epoch=*/1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerifyCacheTest, BitFlippedProofBytesNeverAliasAKey) {
  // Cache poisoning via key collision: a proof that shares every other
  // key component but differs in ONE bit of the proof bytes must map to a
  // different slot.
  const Bytes crs_digest = key_of(1);
  const Bytes commitment = bytes_of("commitment");
  const Bytes position = bytes_of("position");
  Bytes proof = bytes_of("proof-bytes");
  const Bytes genuine = VerifyCache::proof_key(crs_digest, commitment,
                                               position, proof, "membership");
  proof[0] ^= 0x01;
  const Bytes flipped = VerifyCache::proof_key(crs_digest, commitment,
                                               position, proof, "membership");
  EXPECT_NE(genuine, flipped);
  // The flavour is bound too: a non-membership verdict can never answer a
  // membership lookup for the same bytes.
  proof[0] ^= 0x01;
  EXPECT_NE(genuine, VerifyCache::proof_key(crs_digest, commitment, position,
                                            proof, "non_membership"));

  const Bytes hop = VerifyCache::hop_key("t0", "p1", position, commitment,
                                         proof, "ownership");
  proof[0] ^= 0x01;
  EXPECT_NE(hop, VerifyCache::hop_key("t0", "p1", position, commitment, proof,
                                      "ownership"));
}

// ---------------------------------------------------------------------------
// Verifier integration
// ---------------------------------------------------------------------------

class VerifyCacheEdbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    zk::EdbConfig cfg{4, 4, 512, "p256", zk::SoftMode::kShared};
    crs_ = zk::generate_crs(cfg);
    std::map<Bytes, Bytes> entries;
    for (int i = 0; i < 4; ++i) {
      entries[zk::key_for_identifier(*crs_, bytes_of("k" + std::to_string(i)))] =
          bytes_of("value-" + std::to_string(i));
    }
    prover_ = std::make_unique<zk::EdbProver>(crs_, entries);
  }

  zk::EdbCrsPtr crs_;
  std::unique_ptr<zk::EdbProver> prover_;
};

TEST_F(VerifyCacheEdbTest, WarmHitReturnsIdenticalOutcome) {
  const zk::EdbKey key = zk::key_for_identifier(*crs_, bytes_of("k0"));
  const auto proof = prover_->prove_membership(key);
  zk::EdbVerifyOptions opts;
  opts.cache = std::make_shared<VerifyCache>();

  const auto cold =
      zk::edb_verify_membership(*crs_, prover_->commitment(), key, proof, opts);
  ASSERT_TRUE(cold.has_value());
  const std::uint64_t h0 = hits();
  const auto warm =
      zk::edb_verify_membership(*crs_, prover_->commitment(), key, proof, opts);
  EXPECT_EQ(hits(), h0 + 1);
  EXPECT_TRUE(cold == warm);
  EXPECT_EQ(*warm, bytes_of("value-0"));
}

TEST_F(VerifyCacheEdbTest, TamperedProofAfterGenuineHitIsRejected) {
  const zk::EdbKey key = zk::key_for_identifier(*crs_, bytes_of("k0"));
  const auto proof = prover_->prove_membership(key);
  zk::EdbVerifyOptions opts;
  opts.cache = std::make_shared<VerifyCache>();
  ASSERT_TRUE(zk::edb_verify_membership(*crs_, prover_->commitment(), key,
                                        proof, opts)
                  .has_value());

  // The genuine proof is cached. A tampered variant must neither hit the
  // cached acceptance nor verify.
  auto bad = proof;
  bad.value = bytes_of("forged");
  const std::uint64_t h0 = hits();
  EXPECT_FALSE(zk::edb_verify_membership(*crs_, prover_->commitment(), key,
                                         bad, opts)
                   .ok);
  EXPECT_EQ(hits(), h0);  // different proof bytes -> different key -> miss

  auto bad_opening = proof;
  bad_opening.openings[1].tau += Bignum(1);
  EXPECT_FALSE(zk::edb_verify_membership(*crs_, prover_->commitment(), key,
                                         bad_opening, opts)
                   .ok);
  EXPECT_EQ(hits(), h0);
}

TEST_F(VerifyCacheEdbTest, NonMembershipVerdictIsCachedToo) {
  const zk::EdbKey ghost = zk::key_for_identifier(*crs_, bytes_of("ghost"));
  const auto proof = prover_->prove_non_membership(ghost);
  zk::EdbVerifyOptions opts;
  opts.cache = std::make_shared<VerifyCache>();
  ASSERT_TRUE(zk::edb_verify_non_membership(*crs_, prover_->commitment(),
                                            ghost, proof, opts)
                  .ok);
  const std::uint64_t h0 = hits();
  const auto warm = zk::edb_verify_non_membership(*crs_, prover_->commitment(),
                                                  ghost, proof, opts);
  EXPECT_EQ(hits(), h0 + 1);
  EXPECT_TRUE(warm.ok);
  EXPECT_FALSE(warm.has_value());  // non-membership proves no value
}

// ---------------------------------------------------------------------------
// Protocol integration (proxy hop memo + epochs)
// ---------------------------------------------------------------------------

class VerifyCacheProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::ScenarioConfig cfg;
    cfg.edb = zk::EdbConfig{4, 6, 512, "p256", zk::SoftMode::kShared};
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

TEST_F(VerifyCacheProtocolTest, ListReplacementBumpsEpochAndStalesEntries) {
  const ProductId& product = dist_.products[0];
  const auto first = query(product);
  ASSERT_TRUE(first.complete);

  // Build a replacement POC list for t0: same POCs, minus one edge that
  // the queried product's path never crosses. Different bytes -> the
  // proxy treats it as a NEW distribution epoch for the task.
  const poc::PocList* orig = scenario_->proxy().task_list("t0");
  ASSERT_NE(orig, nullptr);
  const auto& path = scenario_->truth("t0").paths.at(product);
  const auto on_path = [&](const std::string& a, const std::string& b) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (path[i] == a && path[i + 1] == b) return true;
    }
    return false;
  };
  poc::PocList fresh(orig->ps());
  for (const std::string& p : orig->participants()) {
    fresh.add_poc(*orig->find(p));
  }
  bool dropped = false;
  for (const std::string& parent : orig->participants()) {
    for (const std::string& child : orig->children_of(parent)) {
      if (!dropped && !on_path(parent, child)) {
        dropped = true;  // omit exactly this edge
        continue;
      }
      fresh.add_edge(parent, child);
    }
  }
  ASSERT_TRUE(dropped) << "no off-path edge to drop; pick another product";

  net::Transport& transport = scenario_->transport();
  transport.send("v0", "proxy", proto::msg::kPocListSubmit,
                 proto::PocListSubmit{"t0", fresh.serialize()}.serialize());
  // One round delivers the queued submit. Draining to idle would also fire
  // v0's list-submit retry timer, which re-sends the original list.
  ASSERT_GT(transport.poll(), 0u);
  ASSERT_NE(scenario_->proxy().task_list("t0"), nullptr);

  // The re-query re-walks the same hops; every memoized verdict carries
  // the retired epoch, so each touch is a stale erase, never a hit.
  const std::uint64_t s0 = stales();
  const auto second = query(product);
  EXPECT_GT(stales(), s0)
      << "old-epoch entries must be erased on first touch";
  EXPECT_EQ(digest(first), digest(second));
}

// ---------------------------------------------------------------------------
// Cache-on / cache-off equivalence (no faults; the chaos suite covers the
// faulted cells)
// ---------------------------------------------------------------------------

TEST(VerifyCacheEquivalenceTest, CacheOffReachesIdenticalOutcome) {
  const auto run = [](bool cache) {
    proto::ScenarioConfig cfg;
    cfg.edb = zk::EdbConfig{4, 6, 512, "p256", zk::SoftMode::kShared};
    cfg.verify_cache = cache;
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
