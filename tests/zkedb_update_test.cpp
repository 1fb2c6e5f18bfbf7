// Incremental ZK-EDB updates: insert/erase recommit only the affected
// path, change the root commitment, and leave the database consistent.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/hash.h"
#include "zkedb/prover.h"
#include "zkedb/verifier.h"

namespace desword::zkedb {
namespace {

class ZkEdbUpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EdbConfig cfg;
    cfg.q = 4;
    cfg.height = 8;
    cfg.rsa_bits = 512;
    cfg.group_name = "p256";
    crs_ = generate_crs(cfg);
    std::map<Bytes, Bytes> entries;
    for (int i = 0; i < 3; ++i) {
      entries[key("base-" + std::to_string(i))] = bytes_of("base-value");
    }
    prover_ = std::make_unique<EdbProver>(crs_, entries);
  }

  EdbKey key(const std::string& id) const {
    return key_for_identifier(*crs_, bytes_of(id));
  }

  /// The key whose base-q digits (most significant first) are `digits`.
  EdbKey key_of_digits(const std::vector<std::uint32_t>& digits) const {
    Bignum v;
    for (const std::uint32_t d : digits) v = v * Bignum(crs_->q()) + Bignum(d);
    return v.to_bytes_padded(16);
  }

  void expect_member(const EdbKey& k, const Bytes& value) {
    const auto proof = prover_->prove_membership(k);
    const auto got =
        edb_verify_membership(*crs_, prover_->commitment(), k, proof);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
  }

  void expect_non_member(const EdbKey& k) {
    const auto proof = prover_->prove_non_membership(k);
    EXPECT_TRUE(
        edb_verify_non_membership(*crs_, prover_->commitment(), k, proof));
  }

  EdbCrsPtr crs_;
  std::unique_ptr<EdbProver> prover_;
};

TEST_F(ZkEdbUpdateTest, InsertMakesKeyProvable) {
  const EdbKey k = key("new-entry");
  expect_non_member(k);
  const auto old_root = prover_->commitment();

  prover_->insert(k, bytes_of("new-value"));
  EXPECT_NE(prover_->commitment(), old_root);  // commitment changed
  EXPECT_EQ(prover_->size(), 4u);
  expect_member(k, bytes_of("new-value"));
  // Existing entries still prove under the NEW root.
  expect_member(key("base-0"), bytes_of("base-value"));
  expect_non_member(key("still-absent"));
}

TEST_F(ZkEdbUpdateTest, OldProofsRejectedAfterUpdate) {
  const EdbKey base = key("base-0");
  const auto old_proof = prover_->prove_membership(base);
  prover_->insert(key("new-entry"), bytes_of("v"));
  // The old proof chains to the old root; it must fail under the new one.
  EXPECT_FALSE(
      edb_verify_membership(*crs_, prover_->commitment(), base, old_proof)
          .has_value());
}

TEST_F(ZkEdbUpdateTest, EraseMakesKeyDeniable) {
  const EdbKey k = key("base-1");
  const auto old_root = prover_->commitment();
  prover_->erase(k);
  EXPECT_NE(prover_->commitment(), old_root);
  EXPECT_EQ(prover_->size(), 2u);
  expect_non_member(k);
  expect_member(key("base-0"), bytes_of("base-value"));
  expect_member(key("base-2"), bytes_of("base-value"));
}

TEST_F(ZkEdbUpdateTest, EraseToEmptyAndRefill) {
  for (int i = 0; i < 3; ++i) prover_->erase(key("base-" + std::to_string(i)));
  EXPECT_EQ(prover_->size(), 0u);
  expect_non_member(key("base-0"));
  expect_non_member(key("anything"));

  prover_->insert(key("reborn"), bytes_of("v2"));
  expect_member(key("reborn"), bytes_of("v2"));
}

TEST_F(ZkEdbUpdateTest, InsertEraseGuards) {
  EXPECT_THROW(prover_->insert(key("base-0"), bytes_of("dup")),
               ProtocolError);
  EXPECT_THROW(prover_->erase(key("never-there")), ProtocolError);
}

TEST_F(ZkEdbUpdateTest, ManySequentialUpdatesStayConsistent) {
  // Interleaved inserts and erases; verify the final state exhaustively.
  for (int i = 0; i < 8; ++i) {
    prover_->insert(key("bulk-" + std::to_string(i)),
                    bytes_of("v" + std::to_string(i)));
  }
  for (int i = 0; i < 8; i += 2) {
    prover_->erase(key("bulk-" + std::to_string(i)));
  }
  for (int i = 0; i < 8; ++i) {
    const EdbKey k = key("bulk-" + std::to_string(i));
    if (i % 2 == 0) {
      expect_non_member(k);
    } else {
      expect_member(k, bytes_of("v" + std::to_string(i)));
    }
  }
}

TEST_F(ZkEdbUpdateTest, UpdatedProverSurvivesPersistence) {
  prover_->insert(key("added"), bytes_of("av"));
  prover_->erase(key("base-0"));
  const Bytes state = prover_->serialize_state();
  EdbProver reloaded = EdbProver::load(crs_, state);
  EXPECT_EQ(reloaded.commitment(), prover_->commitment());
  const auto proof = reloaded.prove_membership(key("added"));
  EXPECT_TRUE(edb_verify_membership(*crs_, prover_->commitment(),
                                    key("added"), proof)
                  .has_value());
}

TEST_F(ZkEdbUpdateTest, PrunedBranchesLeaveNoState) {
  // Three rounds of inserting 20 fresh keys, proving ghosts that fall off
  // four of the fresh branches two levels above the leaf (fabricating
  // below the branch's node), then erasing the fresh keys: proofs store
  // nothing and the pruned nodes leave nothing behind, so the state
  // returns to its starting size. Epochs stay below 128, one varint byte,
  // throughout.
  expect_non_member(key("ghost"));
  const std::size_t start = prover_->serialize_state().size();
  const std::uint32_t h = crs_->height();
  for (int round = 0; round < 3; ++round) {
    std::vector<EdbKey> fresh;
    for (int i = 0; i < 20; ++i) {
      fresh.push_back(
          key("round-" + std::to_string(round) + "-" + std::to_string(i)));
      prover_->insert(fresh.back(), bytes_of("v"));
    }
    for (int i = 0; i < 4; ++i) {
      std::vector<std::uint32_t> digits = crs_->digits_of(fresh[i]);
      digits[h - 3] = (digits[h - 3] + 1) % crs_->q();
      const EdbKey ghost = key_of_digits(digits);
      ASSERT_FALSE(prover_->contains(ghost));
      expect_non_member(ghost);
    }
    EXPECT_GT(prover_->serialize_state().size(), start);
    for (const EdbKey& k : fresh) prover_->erase(k);
    EXPECT_EQ(prover_->serialize_state().size(), start) << "round " << round;
  }
  expect_non_member(key("ghost"));
}

}  // namespace
}  // namespace desword::zkedb
