#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "crypto/hash.h"
#include "zkedb/batch.h"
#include "zkedb/prover.h"

namespace desword::zkedb {
namespace {

class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EdbConfig cfg;
    cfg.q = 4;
    cfg.height = 8;
    cfg.rsa_bits = 512;
    cfg.group_name = "p256";
    crs_ = generate_crs(cfg);
    // Keys with shared prefixes (small integers cluster in the low end of
    // the key space) — the realistic same-lot case batching targets.
    std::map<Bytes, Bytes> entries;
    for (int i = 0; i < 8; ++i) {
      EdbKey key(kKeyBytes, 0);
      key[15] = static_cast<std::uint8_t>(i);
      keys_.push_back(key);
      entries[keys_.back()] = bytes_of("value-" + std::to_string(i));
    }
    prover_ = std::make_unique<EdbProver>(crs_, entries);
  }

  EdbCrsPtr crs_;
  std::vector<EdbKey> keys_;
  std::unique_ptr<EdbProver> prover_;
};

TEST_F(BatchTest, BatchVerifiesAndRecoversAllValues) {
  const auto batch = edb_prove_membership_batch(*prover_, keys_);
  const auto values = edb_verify_membership_batch(
      *crs_, prover_->commitment(), keys_, batch);
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), keys_.size());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(values->at(keys_[static_cast<std::size_t>(i)]),
              bytes_of("value-" + std::to_string(i)));
  }
}

TEST_F(BatchTest, BatchIsSmallerThanIndividualProofs) {
  const auto batch = edb_prove_membership_batch(*prover_, keys_);
  std::size_t individual = 0;
  for (const EdbKey& key : keys_) {
    individual += prover_->prove_membership(key).serialize(*crs_).size();
  }
  const std::size_t batched = batch.serialize(*crs_).size();
  // The 8 clustered keys share their first six tree levels, so the batch
  // carries ~16 unique steps instead of 64.
  EXPECT_LT(batched, individual / 2)
      << "batched=" << batched << " individual=" << individual;
}

TEST_F(BatchTest, SingleKeyBatchMatchesIndividualProof) {
  const std::vector<EdbKey> one = {keys_[0]};
  const auto batch = edb_prove_membership_batch(*prover_, one);
  EXPECT_EQ(batch.steps.size(), crs_->height());
  EXPECT_EQ(batch.leaves.size(), 1u);
  EXPECT_TRUE(edb_verify_membership_batch(*crs_, prover_->commitment(), one,
                                          batch)
                  .has_value());
}

TEST_F(BatchTest, DuplicateRequestKeysHandled) {
  const std::vector<EdbKey> dup = {keys_[0], keys_[0], keys_[1]};
  const auto batch = edb_prove_membership_batch(*prover_, dup);
  EXPECT_EQ(batch.leaves.size(), 2u);
  const auto values = edb_verify_membership_batch(
      *crs_, prover_->commitment(), dup, batch);
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ(values->size(), 2u);
}

TEST_F(BatchTest, MissingKeyRejected) {
  const auto batch = edb_prove_membership_batch(
      *prover_, {keys_[0], keys_[1]});
  // Asking for a key the proof does not cover must fail all-or-nothing.
  EXPECT_FALSE(edb_verify_membership_batch(*crs_, prover_->commitment(),
                                           {keys_[0], keys_[2]}, batch)
                   .has_value());
}

TEST_F(BatchTest, TamperedValueRejectsWholeBatch) {
  auto batch = edb_prove_membership_batch(*prover_, {keys_[0], keys_[1]});
  batch.leaves[1].value = bytes_of("forged");
  EXPECT_FALSE(edb_verify_membership_batch(*crs_, prover_->commitment(),
                                           {keys_[0], keys_[1]}, batch)
                   .has_value());
}

TEST_F(BatchTest, WrongRootRejected) {
  std::map<Bytes, Bytes> other_entries;
  other_entries[keys_[0]] = bytes_of("other");
  EdbProver other(crs_, other_entries);
  const auto batch = edb_prove_membership_batch(*prover_, {keys_[0]});
  EXPECT_FALSE(edb_verify_membership_batch(*crs_, other.commitment(),
                                           {keys_[0]}, batch)
                   .has_value());
}

// A trie node's C1 is derived from the r1 its openings reveal, so every
// step that opens one node must reveal the same r1. A step at a shared
// node rewritten to r1' = r1·τ, τ' = 1 leaves E2' (Λ^e·S^m·h^{r1·τ} == C0)
// exactly as it was; only that rule rejects it.
TEST_F(BatchTest, StepsDisagreeingOnANodesR1Rejected) {
  auto batch = edb_prove_membership_batch(*prover_, keys_);
  ASSERT_TRUE(edb_verify_membership_batch(*crs_, prover_->commitment(), keys_,
                                          batch)
                  .has_value());
  // The verifier walks keys in order: a non-root node's r1 comes from the
  // first step that reaches it. Forge a later step at the same node.
  std::map<Bytes, std::uint32_t> first_position;
  EdbBatchStep* forged = nullptr;
  for (const EdbKey& key : keys_) {
    const std::vector<std::uint32_t> digits = crs_->digits_of(key);
    Bytes prefix;
    for (std::uint32_t d = 0; d < crs_->height() && forged == nullptr; ++d) {
      const auto [first, fresh] = first_position.emplace(prefix, digits[d]);
      if (!fresh && d > 0 && first->second != digits[d]) {
        for (EdbBatchStep& step : batch.steps) {
          if (step.prefix == prefix && step.opening.pos == digits[d]) {
            forged = &step;
          }
        }
      }
      prefix.push_back(static_cast<std::uint8_t>(digits[d]));
    }
    if (forged != nullptr) break;
  }
  ASSERT_NE(forged, nullptr);
  forged->opening.r1 = forged->opening.r1 * forged->opening.tau;
  forged->opening.tau = Bignum(1);
  for (const bool batched : {true, false}) {
    EdbVerifyOptions opts;
    opts.batched = batched;
    EXPECT_FALSE(edb_verify_membership_batch(*crs_, prover_->commitment(),
                                             keys_, batch, opts)
                     .has_value())
        << (batched ? "batched" : "scalar");
  }
}

TEST_F(BatchTest, SerializationRoundTrip) {
  const auto batch = edb_prove_membership_batch(*prover_, keys_);
  const auto back =
      EdbBatchMembershipProof::deserialize(*crs_, batch.serialize(*crs_));
  EXPECT_TRUE(edb_verify_membership_batch(*crs_, prover_->commitment(),
                                          keys_, back)
                  .has_value());
  // Truncations throw, never crash.
  const Bytes ser = batch.serialize(*crs_);
  for (std::size_t len : {0ul, 1ul, ser.size() / 3, ser.size() - 1}) {
    const Bytes prefix(ser.begin(), ser.begin() + static_cast<long>(len));
    EXPECT_THROW(EdbBatchMembershipProof::deserialize(*crs_, prefix),
                 SerializationError);
  }
}

TEST_F(BatchTest, AbsentKeyCannotBeProven) {
  const EdbKey ghost = key_for_identifier(*crs_, bytes_of("ghost"));
  EXPECT_THROW(edb_prove_membership_batch(*prover_, {keys_[0], ghost}),
               ProtocolError);
}

}  // namespace
}  // namespace desword::zkedb
