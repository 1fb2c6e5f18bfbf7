// DPOC persistence: a reloaded prover must keep producing proofs that
// verify under the ORIGINAL commitment, byte for byte the original's, and
// the state must not grow with the proofs made.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/serial.h"
#include "crypto/hash.h"
#include "poc/poc.h"
#include "supplychain/rfid.h"
#include "zkedb/prover.h"
#include "zkedb/verifier.h"

namespace desword::zkedb {
namespace {

EdbConfig test_config() {
  EdbConfig cfg;
  cfg.q = 4;
  cfg.height = 8;
  cfg.rsa_bits = 512;
  cfg.group_name = "p256";
  return cfg;
}

class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    crs_ = generate_crs(test_config());
    std::map<Bytes, Bytes> entries;
    for (int i = 0; i < 4; ++i) {
      entries[key("prod-" + std::to_string(i))] =
          bytes_of("value-" + std::to_string(i));
    }
    prover_ = std::make_unique<EdbProver>(crs_, entries);
  }

  EdbKey key(const std::string& id) const {
    return key_for_identifier(*crs_, bytes_of(id));
  }

  EdbCrsPtr crs_;
  std::unique_ptr<EdbProver> prover_;
};

// A CRS fixed down to its last byte (RSA-512 modulus, bases, prime seed,
// TMC base) and a seeded prover over two entries: the prover state is a
// constant, which blobs older builds wrote for it were recorded from.
EdbCrsPtr fixture_crs() {
  EdbPublicParams params;
  params.q = 4;
  params.height = 4;
  params.group_name = "p256";
  const GroupPtr group = group_by_name(params.group_name);
  params.tmc_pk = mercurial::TmcPublicKey{
      group->generator(), group->exp_g(Bignum::from_hex("5eed7a3c"))};
  mercurial::QtmcPublicKey& pk = params.qtmc_pk;
  pk.n = Bignum::from_hex(
      "c84ae20622ca0d76f095eae3dc6cb408f2044a6e8b19f39dce2c1164abd2dce6"
      "3a88b4eb5bcc5ddd9d8495e8300ee2ed963de7eedcb4a07510c62f85b9224355");
  pk.g = Bignum::mod_exp(Bignum::from_hex("9e3779b97f4a7c15"), Bignum(2),
                         pk.n);
  pk.h = Bignum::mod_exp(pk.g, Bignum::from_hex("c0ffee0123456789"), pk.n);
  pk.prime_seed = bytes_of("golden-prime-seed");
  pk.q = params.q;
  return std::make_shared<EdbCrs>(std::move(params));
}

std::map<Bytes, Bytes> fixture_entries(const EdbCrs& crs) {
  std::map<Bytes, Bytes> entries;
  for (int i = 0; i < 2; ++i) {
    entries[key_for_identifier(crs, bytes_of("prod-" + std::to_string(i)))] =
        bytes_of("value-" + std::to_string(i));
  }
  return entries;
}

EdbProverOptions fixture_options() {
  EdbProverOptions opts;
  opts.threads = 1;
  opts.seed = bytes_of("dpoc-v1-fixture");
  return opts;
}

Bytes read_hex_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::string hex;
  for (std::string line; std::getline(in, line);) hex += line;
  return from_hex(hex);
}

TEST_F(PersistTest, ReloadedProverKeepsCommitment) {
  const Bytes state = prover_->serialize_state();
  EdbProver reloaded = EdbProver::load(crs_, state);
  EXPECT_EQ(reloaded.commitment(), prover_->commitment());
  EXPECT_EQ(reloaded.size(), prover_->size());
}

TEST_F(PersistTest, ReloadedMembershipProofsVerifyUnderOriginalRoot) {
  const Bytes state = prover_->serialize_state();
  EdbProver reloaded = EdbProver::load(crs_, state);
  for (int i = 0; i < 4; ++i) {
    const EdbKey k = key("prod-" + std::to_string(i));
    const auto proof = reloaded.prove_membership(k);
    const auto value =
        edb_verify_membership(*crs_, prover_->commitment(), k, proof);
    ASSERT_TRUE(value.has_value()) << i;
    EXPECT_EQ(*value, bytes_of("value-" + std::to_string(i)));
  }
}

// A reloaded prover's membership proof ships C0 alone for every inner
// child, at the modulus width, round-trips its wire form and verifies
// under the original root; the same proof with any one child's C1
// re-inserted next to its C0 does not decode.
TEST_F(PersistTest, ReloadedMembershipProofShipsOnlyC0) {
  EdbProver reloaded = EdbProver::load(crs_, prover_->serialize_state());
  const EdbKey k = key("prod-2");
  const EdbMembershipProof proof = reloaded.prove_membership(k);
  const std::uint32_t h = crs_->height();
  ASSERT_EQ(proof.child_commitments.size(), h);
  for (std::uint32_t d = 0; d + 1 < h; ++d) {
    EXPECT_EQ(proof.child_commitments[d].size(), crs_->qtmc().element_len())
        << d;
  }
  const Bytes wire = proof.serialize(*crs_);
  const EdbMembershipProof decoded = EdbMembershipProof::deserialize(*crs_, wire);
  EXPECT_EQ(decoded.serialize(*crs_), wire);
  EXPECT_TRUE(edb_verify_membership(*crs_, prover_->commitment(), k, decoded)
                  .has_value());
  for (const std::uint32_t d : {0u, h / 2, h - 2}) {
    EdbMembershipProof with_c1 = proof;
    with_c1.child_commitments[d] =
        mercurial::QtmcCommitment{
            Bignum::from_bytes(proof.child_commitments[d]),
            crs_->qtmc().hard_c1(proof.openings[d + 1].r1)}
            .serialize(crs_->params().qtmc_pk.n);
    EXPECT_THROW(
        (void)EdbMembershipProof::deserialize(*crs_, with_c1.serialize(*crs_)),
        SerializationError)
        << d;
  }
}

TEST_F(PersistTest, NonMembershipProofsSurviveReload) {
  // A non-membership proof is a function of the key and the committed
  // trie, so a reloaded prover presents the SAME proof for a key proven
  // before the save (consistency of the simulated view across restarts).
  const EdbKey ghost = key("ghost");
  const auto before = prover_->prove_non_membership(ghost);
  EdbProver reloaded = EdbProver::load(crs_, prover_->serialize_state());
  const auto after = reloaded.prove_non_membership(ghost);
  EXPECT_EQ(after.serialize(*crs_), before.serialize(*crs_));
  EXPECT_TRUE(edb_verify_non_membership(*crs_, prover_->commitment(), ghost,
                                        after));
}

TEST_F(PersistTest, FreshNonMembershipAfterReloadWorks) {
  const Bytes state = prover_->serialize_state();
  EdbProver reloaded = EdbProver::load(crs_, state);
  const EdbKey ghost = key("never-queried-before");
  const auto proof = reloaded.prove_non_membership(ghost);
  EXPECT_TRUE(edb_verify_non_membership(*crs_, prover_->commitment(), ghost,
                                        proof));
}

TEST_F(PersistTest, CorruptedStateRejected) {
  Bytes state = prover_->serialize_state();
  // Wrong magic.
  Bytes bad_magic = state;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(EdbProver::load(crs_, bad_magic), SerializationError);
  // Truncations never crash.
  for (std::size_t len : {0ul, 4ul, 5ul, state.size() / 2, state.size() - 1}) {
    const Bytes prefix(state.begin(), state.begin() + static_cast<long>(len));
    EXPECT_THROW(EdbProver::load(crs_, prefix), SerializationError) << len;
  }
}

TEST_F(PersistTest, StateDoesNotGrowWithNonMembershipProofs) {
  // The state holds the key, the entries and the trie nodes' epochs:
  // proofs store nothing, so 50 of them leave it byte for byte as it was,
  // and no fabricated commitment appears in it.
  const Bytes state = prover_->serialize_state();
  EdbNonMembershipProof last;
  for (int i = 0; i < 50; ++i) {
    const EdbKey ghost = key("ghost-" + std::to_string(i));
    if (!prover_->contains(ghost)) last = prover_->prove_non_membership(ghost);
  }
  EXPECT_EQ(prover_->serialize_state(), state);
  const auto stored = [&state](const Bytes& needle) {
    return std::search(state.begin(), state.end(), needle.begin(),
                       needle.end()) != state.end();
  };
  EXPECT_TRUE(stored(prover_->commitment_bytes()));
  for (const Bytes& com : last.child_commitments) EXPECT_FALSE(stored(com));
}

// Proving only reads the prover, so serialize_state may run while
// non-membership proofs do (TSan covers the overlap), and each proof is
// the one a sequential run makes.
TEST_F(PersistTest, SerializeWhileProvingNonMembership) {
  std::vector<EdbKey> ghosts;
  std::vector<Bytes> expected;
  for (int i = 0; i < 4; ++i) {
    const EdbKey ghost = key("overlap-ghost-" + std::to_string(i));
    if (prover_->contains(ghost)) continue;
    ghosts.push_back(ghost);
    expected.push_back(
        prover_->prove_non_membership(ghosts.back()).serialize(*crs_));
  }
  const Bytes state = prover_->serialize_state();
  std::vector<Bytes> got(ghosts.size());
  std::vector<Bytes> states(ghosts.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < ghosts.size(); ++i) {
    threads.emplace_back([&, i] {
      got[i] = prover_->prove_non_membership(ghosts[i]).serialize(*crs_);
    });
    threads.emplace_back([&, i] { states[i] = prover_->serialize_state(); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(got, expected);
  for (const Bytes& s : states) EXPECT_EQ(s, state);
}

TEST_F(PersistTest, OlderStateVersionsRejected) {
  // tests/data holds the fixture prover's state as older builds wrote it:
  // version 1 (every node's commitment and drawn randomizers), version 2
  // (the same without inner soft commitments; once as the shared-backing
  // layout after one non-membership proof for "ghost", once as the
  // per-child backing layout), and version 3 (the key and node epochs,
  // plus the fabrications of one non-membership proof for "ghost", named
  // by a counter). No key re-derives their randomizers or fabrications, so
  // each is refused by version before anything else is read.
  const EdbCrsPtr crs = fixture_crs();
  for (const char* name : {"dpoc_state_v1", "dpoc_state_v2",
                           "dpoc_state_per_child", "dpoc_state_v3"}) {
    const Bytes state = read_hex_file(std::string(DESWORD_TEST_DATA_DIR) +
                                      "/" + name + ".hex");
    ASSERT_GT(state.size(), 5u) << name;
    ASSERT_GE(state[4], 1) << name;
    ASSERT_LE(state[4], 3) << name;
    try {
      (void)EdbProver::load(crs, state);
      ADD_FAILURE() << name << " loaded";
    } catch (const SerializationError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported DPOC state version"),
                std::string::npos)
          << name << ": " << e.what();
    }
  }
  // Nor does today's layout load under any other version byte.
  const EdbProver prover(crs, fixture_entries(*crs), fixture_options());
  Bytes state = prover.serialize_state();
  ASSERT_EQ(state[4], 4);
  EXPECT_EQ(EdbProver::load(crs, state).commitment(), prover.commitment());
  for (const std::uint8_t other : {0, 1, 2, 3, 5}) {
    state[4] = other;
    EXPECT_THROW(EdbProver::load(crs, state), SerializationError) << +other;
  }
}

TEST_F(PersistTest, KeyOrEpochFlipRejected) {
  // The state stores the key and each node's epochs, from which the load
  // re-derives every node: flipping a byte of either yields other
  // randomizers, hence another root than the stored one.
  const EdbCrsPtr crs = fixture_crs();
  EdbProver prover(crs, fixture_entries(*crs), fixture_options());
  prover.insert(key_for_identifier(*crs, bytes_of("late")), bytes_of("v"));
  const Bytes state = prover.serialize_state();
  BinaryReader r(state);
  (void)r.u32();  // magic
  ASSERT_EQ(r.u8(), 4);
  const std::size_t key_at = state.size() - r.remaining() + 1;
  ASSERT_EQ(r.bytes(), fixture_options().seed);
  ASSERT_EQ(r.varint(), 1u);  // epoch: one insert
  for (std::uint64_t n = r.varint(); n > 0; --n) {
    (void)r.bytes();  // key
    (void)r.bytes();  // value
  }
  (void)r.bytes();            // root commitment
  ASSERT_GT(r.varint(), 0u);  // inner nodes
  ASSERT_EQ(r.str(), "");     // the root
  const std::size_t root_epoch_at = state.size() - r.remaining();
  ASSERT_EQ(r.varint(), 1u);  // recommitted by the insert
  ASSERT_EQ(r.varint(), 1u);  // backing drawn at commit, epoch 0
  for (const std::size_t at : {key_at, root_epoch_at, root_epoch_at + 1}) {
    Bytes bad = state;
    bad[at] ^= 0x01;
    EXPECT_THROW(EdbProver::load(crs, bad), SerializationError) << at;
  }
  EXPECT_EQ(EdbProver::load(crs, state).commitment(), prover.commitment());
}

TEST_F(PersistTest, PocDecommitmentRoundTrip) {
  poc::PocScheme scheme(crs_);
  std::map<Bytes, Bytes> traces;
  for (std::uint64_t i = 0; i < 3; ++i) {
    traces[supplychain::make_epc(1, 1, i)] = bytes_of("da");
  }
  auto [p, dpoc] = scheme.aggregate("v1", traces);
  const Bytes blob = dpoc->serialize();
  const auto reloaded = poc::PocDecommitment::load(crs_, blob);
  EXPECT_EQ(reloaded->trace_count(), 3u);
  EXPECT_TRUE(reloaded->owns(supplychain::make_epc(1, 1, 0)));

  // Proofs from the reloaded DPOC verify under the original POC.
  const poc::PocProof own = scheme.prove(*reloaded,
                                         supplychain::make_epc(1, 1, 1));
  EXPECT_EQ(scheme.verify(p, supplychain::make_epc(1, 1, 1), own).verdict,
            poc::PocVerdict::kTrace);
  const poc::PocProof nown = scheme.prove(*reloaded,
                                          supplychain::make_epc(9, 9, 9));
  EXPECT_EQ(scheme.verify(p, supplychain::make_epc(9, 9, 9), nown).verdict,
            poc::PocVerdict::kValid);
}

}  // namespace
}  // namespace desword::zkedb
