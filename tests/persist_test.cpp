// DPOC persistence: a reloaded prover must keep producing proofs that
// verify under the ORIGINAL commitment, including previously memoized
// non-membership fabrications.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>

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
// constant, so a blob an older build wrote for it must load in this one.
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

TEST_F(PersistTest, MemoizedFabricationsSurviveReload) {
  // Fabricate a soft path before saving; afterwards the reloaded prover
  // must present the SAME digest chain for that key (consistency of the
  // simulated view across restarts).
  const EdbKey ghost = key("ghost");
  const auto before = prover_->prove_non_membership(ghost);
  const Bytes state = prover_->serialize_state();
  EdbProver reloaded = EdbProver::load(crs_, state);
  const auto after = reloaded.prove_non_membership(ghost);
  ASSERT_EQ(before.child_commitments.size(), after.child_commitments.size());
  for (std::size_t i = 0; i < before.child_commitments.size(); ++i) {
    EXPECT_EQ(before.child_commitments[i], after.child_commitments[i]) << i;
  }
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

TEST_F(PersistTest, InnerNodeMessageOfWrongWidthRejected) {
  // A version 2 blob stores each inner node's q messages at 16 bytes
  // each, so a stored message of any other width must fail the load, not
  // shift the packing. Walk the layout to the root node's first message
  // and cut it to 15 bytes.
  const Bytes state = read_hex_file(std::string(DESWORD_TEST_DATA_DIR) +
                                    "/dpoc_state_v2.hex");
  BinaryReader r(state);
  (void)r.u32();  // magic
  ASSERT_EQ(r.u8(), 2);
  for (std::uint64_t n = r.varint(); n > 0; --n) {
    (void)r.bytes();  // key
    (void)r.bytes();  // value
  }
  ASSERT_GT(r.varint(), 0u);  // inner nodes
  (void)r.str();              // prefix
  (void)r.bytes();            // commitment
  ASSERT_EQ(r.varint(), test_config().q);
  const std::size_t at = state.size() - r.remaining();
  ASSERT_EQ(state[at], 16);  // length prefix of the first message
  Bytes bad(state.begin(), state.begin() + static_cast<long>(at));
  bad.push_back(15);
  bad.insert(bad.end(), state.begin() + static_cast<long>(at) + 1,
             state.begin() + static_cast<long>(at) + 16);
  bad.insert(bad.end(), state.begin() + static_cast<long>(at) + 17,
             state.end());
  EXPECT_THROW(EdbProver::load(fixture_crs(), bad), SerializationError);
}

TEST_F(PersistTest, InnerNodeInconsistentWithTheTrieRejected) {
  // A version 2 blob stores each inner node's commitment and messages,
  // which the loaded prover re-derives from the trie and the stored
  // randomizers instead, so a blob whose stored ones disagree must fail
  // the load. Walk to the root node's commitment and to its first
  // message, and flip one byte of each.
  const EdbCrsPtr crs = fixture_crs();
  const Bytes state = read_hex_file(std::string(DESWORD_TEST_DATA_DIR) +
                                    "/dpoc_state_v2.hex");
  BinaryReader r(state);
  (void)r.u32();  // magic
  ASSERT_EQ(r.u8(), 2);
  for (std::uint64_t n = r.varint(); n > 0; --n) {
    (void)r.bytes();  // key
    (void)r.bytes();  // value
  }
  ASSERT_GT(r.varint(), 0u);  // inner nodes
  (void)r.str();              // prefix
  const std::size_t com_end = state.size() - r.remaining();
  (void)r.bytes();  // commitment
  const std::size_t com_last = state.size() - r.remaining() - 1;
  ASSERT_GT(com_last, com_end);
  ASSERT_EQ(r.varint(), test_config().q);
  const std::size_t message_at = state.size() - r.remaining() + 1;
  for (const std::size_t at : {com_last, message_at}) {
    Bytes bad = state;
    bad[at] ^= 0x01;
    EXPECT_THROW(EdbProver::load(crs, bad), SerializationError) << at;
  }
  const EdbProver fresh(crs, fixture_entries(*crs), fixture_options());
  EXPECT_EQ(EdbProver::load(crs, state).commitment(), fresh.commitment());
}

TEST_F(PersistTest, FabricatedNodesStoredWithoutTheirCommitments) {
  // Version 3 stores no node's commitment but the root's: trie nodes and
  // backings are re-derived from the key, and a fabricated inner soft node
  // is stored as its decommitment. A replay after reload is byte-identical.
  const EdbKey ghost = key("ghost");
  const auto proof = prover_->prove_non_membership(ghost);
  const Bytes state = prover_->serialize_state();
  const auto stored = [&state](const Bytes& needle) {
    return std::search(state.begin(), state.end(), needle.begin(),
                       needle.end()) != state.end();
  };
  // The ghost's path leaves the root through a trie node; with 4 entries
  // the walk falls off the trie long before the last inner level, whose
  // node was fabricated.
  const std::size_t h = test_config().height;
  EXPECT_TRUE(stored(prover_->commitment_bytes()));
  EXPECT_FALSE(stored(proof.child_commitments[0]));
  EXPECT_FALSE(stored(proof.child_commitments[h - 2]));
  EdbProver reloaded = EdbProver::load(crs_, state);
  EXPECT_EQ(reloaded.prove_non_membership(ghost).serialize(*crs_),
            proof.serialize(*crs_));
}

TEST_F(PersistTest, VersionOneStateStillLoads) {
  // tests/data/dpoc_state_v1.hex is the fixture prover's state in the
  // version 1 layout, recorded by an earlier build whose writer still
  // stored soft commitments: every soft node a backing node, inner ones
  // with their commitment (tag 0), version byte 1.
  const EdbCrsPtr crs = fixture_crs();
  const Bytes v1 =
      read_hex_file(std::string(DESWORD_TEST_DATA_DIR) + "/dpoc_state_v1.hex");
  ASSERT_GT(v1.size(), 5u);
  ASSERT_EQ(v1[4], 1);
  const EdbProver fresh(crs, fixture_entries(*crs), fixture_options());
  EdbProver reloaded = EdbProver::load(crs, v1);
  EXPECT_EQ(reloaded.commitment(), fresh.commitment());
  for (const auto& [key, value] : fixture_entries(*crs)) {
    const auto got = edb_verify_membership(*crs, fresh.commitment(), key,
                                           reloaded.prove_membership(key));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
  }
  const EdbKey ghost = key_for_identifier(*crs, bytes_of("ghost"));
  EXPECT_TRUE(edb_verify_non_membership(*crs, fresh.commitment(), ghost,
                                        reloaded.prove_non_membership(ghost)));
  // Written back as version 3, the nodes keep the randomizers they were
  // loaded with but no commitment or message, and an older version byte
  // cannot carry that layout.
  Bytes rewritten = reloaded.serialize_state();
  ASSERT_EQ(rewritten[4], 3);
  EXPECT_LT(rewritten.size(), v1.size());
  EXPECT_EQ(EdbProver::load(crs, rewritten).commitment(), fresh.commitment());
  for (const std::uint8_t older : {1, 2}) {
    rewritten[4] = older;
    EXPECT_THROW(EdbProver::load(crs, rewritten), SerializationError);
  }
}

TEST_F(PersistTest, VersionTwoStateStillLoads) {
  // tests/data/dpoc_state_v2.hex is the fixture prover's state after one
  // non-membership proof for "ghost", in the version 2 layout: every inner
  // node with its commitment, messages and randomizers, every backing a
  // soft node, the fabricated path memoized below one of them.
  const EdbCrsPtr crs = fixture_crs();
  const Bytes v2 =
      read_hex_file(std::string(DESWORD_TEST_DATA_DIR) + "/dpoc_state_v2.hex");
  ASSERT_GT(v2.size(), 5u);
  ASSERT_EQ(v2[4], 2);
  EdbProver fresh(crs, fixture_entries(*crs), fixture_options());
  const EdbKey ghost = key_for_identifier(*crs, bytes_of("ghost"));
  const EdbNonMembershipProof fresh_ghost = fresh.prove_non_membership(ghost);
  EdbProver reloaded = EdbProver::load(crs, v2);
  EXPECT_EQ(reloaded.commitment(), fresh.commitment());
  for (const auto& [key, value] : fixture_entries(*crs)) {
    EXPECT_EQ(reloaded.prove_membership(key).serialize(*crs),
              fresh.prove_membership(key).serialize(*crs));
  }
  // The stored fabrication replays: the chain the seeded prover derives,
  // with the memoized teases (a tease draws fresh lift randomness, so
  // only a replay repeats one).
  const EdbNonMembershipProof replay = reloaded.prove_non_membership(ghost);
  EXPECT_EQ(replay.child_commitments, fresh_ghost.child_commitments);
  EXPECT_TRUE(
      edb_verify_non_membership(*crs, fresh.commitment(), ghost, replay));
  EXPECT_EQ(reloaded.prove_non_membership(ghost).serialize(*crs),
            replay.serialize(*crs));
  const EdbKey other = key_for_identifier(*crs, bytes_of("other-ghost"));
  EXPECT_TRUE(edb_verify_non_membership(*crs, fresh.commitment(), other,
                                        reloaded.prove_non_membership(other)));
  // Updates after the load draw from the loaded prover's fresh key.
  const EdbKey late = key_for_identifier(*crs, bytes_of("late"));
  reloaded.insert(late, bytes_of("late-value"));
  const auto got = edb_verify_membership(*crs, reloaded.commitment(), late,
                                         reloaded.prove_membership(late));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of("late-value"));
  const Bytes rewritten = reloaded.serialize_state();
  ASSERT_EQ(rewritten[4], 3);
  EdbProver again = EdbProver::load(crs, rewritten);
  EXPECT_EQ(again.commitment(), reloaded.commitment());
  EXPECT_EQ(again.serialize_state(), rewritten);
}

TEST_F(PersistTest, VersionThreeKeyOrEpochFlipRejected) {
  // A version 3 blob stores the key and each node's epochs, from which the
  // load re-derives every node: flipping a byte of either yields other
  // randomizers, hence another root than the stored one.
  const EdbCrsPtr crs = fixture_crs();
  EdbProver prover(crs, fixture_entries(*crs), fixture_options());
  prover.insert(key_for_identifier(*crs, bytes_of("late")), bytes_of("v"));
  const Bytes state = prover.serialize_state();
  BinaryReader r(state);
  (void)r.u32();  // magic
  ASSERT_EQ(r.u8(), 3);
  const std::size_t key_at = state.size() - r.remaining() + 1;
  ASSERT_EQ(r.bytes(), fixture_options().seed);
  ASSERT_EQ(r.varint(), 1u);  // epoch: one insert
  (void)r.varint();           // fabrication counter
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

TEST_F(PersistTest, PerChildBackedStateRejected) {
  // tests/data/dpoc_state_per_child.hex is the fixture prover's state as an
  // earlier build wrote it when asked to back every absent child with a
  // soft node of its own, keyed by the child's prefix. Backing is now keyed
  // by the trie node's prefix, so the stored messages do not match what
  // the loaded trie derives: the load itself must fail, before any proof.
  const Bytes state = read_hex_file(std::string(DESWORD_TEST_DATA_DIR) +
                                    "/dpoc_state_per_child.hex");
  ASSERT_GT(state.size(), 5u);
  try {
    (void)EdbProver::load(fixture_crs(), state);
    ADD_FAILURE() << "a state with child-keyed backing loaded";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "inner node messages do not match the trie"),
              std::string::npos)
        << e.what();
  }
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
