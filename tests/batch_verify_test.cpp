// Differential tests for the randomized batch-verification engine
// (mercurial/batch_verify.h): the batched strategy must agree with the
// scalar verifiers verdict-for-verdict — on valid proofs, on tampered
// proofs whose structure still parses, and on adversarial bit-flips — and
// the bisection must pinpoint exactly the corrupted unit inside a large
// batch. Also covers the fixed-base table registry shared across scheme
// instances, the protocol-level reputation outcome under both
// verification strategies, and the chunked fold: evaluating the fold on a
// thread pool must not move a verdict or a bisection step.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/hash.h"
#include "crypto/rsa.h"
#include "desword/scenario.h"
#include "mercurial/batch_verify.h"
#include "obs/metrics.h"
#include "zkedb/prover.h"
#include "zkedb/verifier.h"

namespace desword {
namespace {

using mercurial::BatchVerifier;
using mercurial::QtmcKeyPair;
using mercurial::QtmcOpening;
using mercurial::QtmcScheme;
using mercurial::QtmcTease;
using mercurial::TmcKeyPair;
using mercurial::TmcOpening;
using mercurial::TmcScheme;
using mercurial::TmcTease;

namespace zk = zkedb;
using zk::EdbKey;

constexpr int kTestRsaBits = 512;

Bytes msg16(int i) {
  return hash_to_128("batch-test-msg", {be64(static_cast<std::uint64_t>(i))});
}

std::vector<Bytes> make_messages(std::uint32_t count) {
  std::vector<Bytes> msgs;
  for (std::uint32_t i = 0; i < count; ++i) msgs.push_back(msg16(1000 + i));
  return msgs;
}

// ---------------------------------------------------------------------------
// qTMC: batch verdicts equal scalar verdicts, unit by unit.

class QtmcBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    keys_ = QtmcScheme::keygen(/*q=*/4, kTestRsaBits);
    scheme_ = std::make_unique<QtmcScheme>(keys_.pk);
  }

  QtmcKeyPair keys_{mercurial::QtmcPublicKey{}, Bignum()};
  std::unique_ptr<QtmcScheme> scheme_;
};

TEST_F(QtmcBatchTest, MixedValidAndTamperedUnitsMatchScalar) {
  const auto msgs = make_messages(4);
  const auto [com, dec] = scheme_->hard_commit(msgs);

  // Unit 0: valid opening. Unit 1: wrong message (parses, equation fails).
  // Unit 2: valid tease. Unit 3: tease with wrong message. Unit 4: opening
  // replayed at the wrong position (equation fails, not structure).
  QtmcOpening good_op = scheme_->hard_open(dec, 0);
  QtmcOpening bad_op = scheme_->hard_open(dec, 1);
  bad_op.message = msg16(999);
  QtmcTease good_tease = scheme_->tease_hard(dec, 2);
  QtmcTease bad_tease = scheme_->tease_hard(dec, 3);
  bad_tease.message = msg16(998);
  QtmcOpening moved_op = scheme_->hard_open(dec, 0);
  moved_op.pos = 1;

  BatchVerifier bv(*scheme_);
  bv.begin_unit();
  EXPECT_TRUE(bv.add_open(com, good_op));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_open(com, bad_op));  // structure ok, equation bad
  bv.begin_unit();
  EXPECT_TRUE(bv.add_tease(com, good_tease));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_tease(com, bad_tease));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_open(com, moved_op));

  const BatchVerifier::Result res = bv.verify();
  const std::vector<bool> scalar = {
      scheme_->verify_open(com, good_op), scheme_->verify_open(com, bad_op),
      scheme_->verify_tease(com, good_tease),
      scheme_->verify_tease(com, bad_tease),
      scheme_->verify_open(com, moved_op)};
  ASSERT_EQ(res.unit_ok.size(), scalar.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(res.unit_ok[i], scalar[i]) << "unit " << i;
  }
  EXPECT_FALSE(res.all_ok);
  EXPECT_TRUE(res.unit_ok[0]);
  EXPECT_FALSE(res.unit_ok[1]);
}

TEST_F(QtmcBatchTest, StructuralFailureMarksUnitWithoutPollutingFold) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(4));
  QtmcOpening oob = scheme_->hard_open(dec, 0);
  oob.pos = scheme_->arity();  // out of range: structural rejection

  BatchVerifier bv(*scheme_);
  bv.begin_unit();
  EXPECT_FALSE(bv.add_open(com, oob));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_open(com, scheme_->hard_open(dec, 1)));

  const auto res = bv.verify();
  EXPECT_FALSE(res.all_ok);
  EXPECT_FALSE(res.unit_ok[0]);
  EXPECT_TRUE(res.unit_ok[1]);  // the valid unit folds clean on its own
}

TEST_F(QtmcBatchTest, BisectionPinpointsSingleCorruptedUnitOf64) {
  constexpr std::size_t kUnits = 64;
  constexpr std::size_t kBad = 37;
  const auto [com, dec] = scheme_->hard_commit(make_messages(4));

  BatchVerifier bv(*scheme_);
  for (std::size_t i = 0; i < kUnits; ++i) {
    bv.begin_unit();
    QtmcOpening op = scheme_->hard_open(
        dec, static_cast<std::uint32_t>(i % scheme_->arity()));
    if (i == kBad) op.message = msg16(666);  // equation-level corruption
    ASSERT_TRUE(bv.add_open(com, op)) << "unit " << i;
  }
  ASSERT_EQ(bv.units(), kUnits);

  const auto res = bv.verify();
  EXPECT_FALSE(res.all_ok);
  ASSERT_EQ(res.unit_ok.size(), kUnits);
  for (std::size_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(res.unit_ok[i], i != kBad) << "unit " << i;
  }
}

// Units that open one commitment share its C0 and C1, so the fold merges
// those RHS values (and the repeated CRS bases) into one exponent each. The
// merged fold still accepts the honest pair, and a tampered third unit is
// pinpointed on the fixed schedule: the failing 3-unit fold splits into
// [0] and [1, 2], and [1, 2] into [1] and [2] — 5 folds, 2 bisections.
TEST_F(QtmcBatchTest, UnitsSharingACommitmentMergeAndStillPinpoint) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(4));
  const auto folds = [] {
    return obs::metric("crypto.batch_verify.folds").value();
  };
  const auto bisections = [] {
    return obs::metric("crypto.batch_verify.bisect_steps").value();
  };
  BatchVerifier bv(*scheme_);
  for (const std::uint32_t pos : {0u, 2u}) {
    bv.begin_unit();
    ASSERT_TRUE(bv.add_open(com, scheme_->hard_open(dec, pos)));
  }
  std::uint64_t folds_before = folds();
  std::uint64_t bisections_before = bisections();
  EXPECT_TRUE(bv.verify().all_ok);
  EXPECT_EQ(folds() - folds_before, 1u);
  EXPECT_EQ(bisections() - bisections_before, 0u);

  QtmcOpening bad = scheme_->hard_open(dec, 3);
  bad.message = msg16(777);
  bv.begin_unit();
  ASSERT_TRUE(bv.add_open(com, bad));
  folds_before = folds();
  bisections_before = bisections();
  const auto res = bv.verify();
  EXPECT_FALSE(res.all_ok);
  EXPECT_EQ(res.unit_ok, (std::vector<bool>{true, true, false}));
  EXPECT_EQ(folds() - folds_before, 5u);
  EXPECT_EQ(bisections() - bisections_before, 2u);
}

// Equations are compared in Z_N*/{±1} and proof elements must be the
// canonical representative min(x, N−x): replacing Λ by N−Λ (same quotient
// element, non-canonical encoding, coprimality-invisible since
// gcd(N−Λ, N) = gcd(Λ, N)) must be rejected by BOTH paths. In plain Z_N*
// this forgery's fold defect (−1)^{e_pos} cancels for every even batching
// multiplier, defeating small-exponent batching with probability 1/2.
TEST_F(QtmcBatchTest, SignFlippedElementsRejectedByBothPaths) {
  const Bignum& n = scheme_->public_key().n;
  const auto [com, dec] = scheme_->hard_commit(make_messages(4));

  QtmcOpening flipped_op = scheme_->hard_open(dec, 0);
  flipped_op.lambda = n - flipped_op.lambda;
  EXPECT_FALSE(scheme_->verify_open(com, flipped_op));

  QtmcTease flipped_tease = scheme_->tease_hard(dec, 1);
  flipped_tease.lambda = n - flipped_tease.lambda;
  EXPECT_FALSE(scheme_->verify_tease(com, flipped_tease));

  mercurial::QtmcCommitment flipped_com = com;
  flipped_com.c0 = n - flipped_com.c0;
  EXPECT_FALSE(scheme_->verify_open(flipped_com, scheme_->hard_open(dec, 2)));

  BatchVerifier bv(*scheme_);
  bv.begin_unit();
  EXPECT_FALSE(bv.add_open(com, flipped_op));
  bv.begin_unit();
  EXPECT_FALSE(bv.add_tease(com, flipped_tease));
  bv.begin_unit();
  EXPECT_FALSE(bv.add_open(flipped_com, scheme_->hard_open(dec, 2)));
  const auto res = bv.verify();
  EXPECT_FALSE(res.all_ok);
  for (std::size_t i = 0; i < res.unit_ok.size(); ++i) {
    EXPECT_FALSE(res.unit_ok[i]) << "unit " << i;
  }
}

// The deterministic Fiat–Shamir multipliers make acceptance offline-
// computable, so a 1/2-probability hole would be grindable to certainty;
// the rejection must therefore be unconditional — a sign-flipped unit in a
// large batch is rejected structurally, never reaching the fold, while the
// honest remainder still folds clean.
TEST_F(QtmcBatchTest, SignFlipInLargeBatchRejectedRegardlessOfMultipliers) {
  constexpr std::size_t kUnits = 32;
  constexpr std::size_t kBad = 11;
  const Bignum& n = scheme_->public_key().n;
  const auto [com, dec] = scheme_->hard_commit(make_messages(4));

  BatchVerifier bv(*scheme_);
  for (std::size_t i = 0; i < kUnits; ++i) {
    bv.begin_unit();
    QtmcOpening op = scheme_->hard_open(
        dec, static_cast<std::uint32_t>(i % scheme_->arity()));
    if (i == kBad) {
      op.lambda = n - op.lambda;
      EXPECT_FALSE(bv.add_open(com, op));
    } else {
      ASSERT_TRUE(bv.add_open(com, op)) << "unit " << i;
    }
  }
  const auto res = bv.verify();
  EXPECT_FALSE(res.all_ok);
  ASSERT_EQ(res.unit_ok.size(), kUnits);
  for (std::size_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(res.unit_ok[i], i != kBad) << "unit " << i;
  }
}

// A hard opening is checked as E1 (h^{r1} == C1) and E2'
// (Λ^e·S^m·h^{r1·τ} == C0); E2' says nothing about C1, so it stands in for
// the scheme's Λ^e·S^m·C1^τ == C0 only beside E1. An opening whose C1 is
// replaced while C0 stays canonical(Λ^e·S^m·h^{r1·τ}) keeps E2' true and
// breaks E1 alone: verify_open, a one-unit fold and bisection inside a pile
// of 64 must each reject it.
TEST_F(QtmcBatchTest, ReplacedC1RejectedThoughE2PrimeHolds) {
  constexpr std::size_t kUnits = 64;
  constexpr std::size_t kBad = 23;
  const auto [com, dec] = scheme_->hard_commit(make_messages(4));
  const auto [other, other_dec] = scheme_->hard_commit(make_messages(4));
  const QtmcOpening op = scheme_->hard_open(dec, 2);
  mercurial::QtmcCommitment forged = com;
  forged.c1 = other.c1;

  std::vector<mercurial::RsaEquation> eqs;
  ASSERT_TRUE(scheme_->open_equations(forged, op, eqs));
  ASSERT_EQ(eqs.size(), 2u);
  EXPECT_FALSE(scheme_->check_scalar(eqs[0]));  // E1: h^{r1} != C1
  EXPECT_TRUE(scheme_->check_scalar(eqs[1]));   // E2' still holds

  EXPECT_FALSE(scheme_->verify_open(forged, op));
  {
    BatchVerifier one(*scheme_);
    one.begin_unit();
    ASSERT_TRUE(one.add_open(forged, op));
    EXPECT_FALSE(one.verify().all_ok);
  }

  BatchVerifier pile(*scheme_);
  for (std::size_t i = 0; i < kUnits; ++i) {
    pile.begin_unit();
    const auto pos = static_cast<std::uint32_t>(i % scheme_->arity());
    if (i == kBad) {
      ASSERT_TRUE(pile.add_open(forged, op));
    } else {
      ASSERT_TRUE(pile.add_open(com, scheme_->hard_open(dec, pos)));
    }
  }
  const std::uint64_t bisects_before =
      obs::metric("crypto.batch_verify.bisect_steps").value();
  const auto res = pile.verify();
  EXPECT_GT(obs::metric("crypto.batch_verify.bisect_steps").value(),
            bisects_before);
  EXPECT_FALSE(res.all_ok);
  ASSERT_EQ(res.unit_ok.size(), kUnits);
  for (std::size_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(res.unit_ok[i], i != kBad) << "unit " << i;
  }
}

TEST_F(QtmcBatchTest, EmptyBatchAcceptsVacuously) {
  BatchVerifier bv(*scheme_);
  const auto res = bv.verify();
  EXPECT_TRUE(res.all_ok);
  EXPECT_TRUE(res.unit_ok.empty());
}

TEST_F(QtmcBatchTest, FixedBaseTablesSharedAcrossInstancesOfSameKey) {
  QtmcScheme other(keys_.pk);  // second instance, same CRS
  scheme_->precompute_fixed_bases(/*position_bases=*/false);
  other.precompute_fixed_bases(/*position_bases=*/false);
  ASSERT_NE(scheme_->fixed_base_tables_id(), nullptr);
  // One registry entry per public key: both instances adopt the same set.
  EXPECT_EQ(scheme_->fixed_base_tables_id(), other.fixed_base_tables_id());

  const auto fresh = QtmcScheme::keygen(/*q=*/2, kTestRsaBits);
  QtmcScheme unrelated(fresh.pk);
  unrelated.precompute_fixed_bases(/*position_bases=*/false);
  EXPECT_NE(unrelated.fixed_base_tables_id(), scheme_->fixed_base_tables_id());
}

// An element sharing a factor with N is rejected by the coprimality test
// alone. With N's factors known, a hard opening is forged whose Λ is the
// canonical form of k·p and whose C0 is recomputed from it, so every
// equation holds mod N and only the aggregated Jacobi test (scalar path
// and fold) can reject it.
TEST(QtmcCoprimalityTest, OpeningWithAFactorOfNRejectedByEveryPath) {
  const RsaModulus mod =
      generate_rsa_modulus(kTestRsaBits, /*keep_factors=*/true);
  mercurial::QtmcPublicKey pk;
  pk.n = mod.n;
  pk.g = random_quadratic_residue(pk.n);
  pk.h = Bignum::mod_exp(pk.g, Bignum::rand_bits(256), pk.n);
  pk.prime_seed = random_bytes(32);
  pk.q = 4;
  const QtmcScheme scheme(pk);
  const auto [com, dec] = scheme.hard_commit(make_messages(4));

  QtmcOpening forged_op = scheme.hard_open(dec, 1);
  forged_op.lambda = scheme.canonical(
      Bignum::mod_mul(Bignum(std::uint64_t{7}), *mod.p, pk.n));
  mercurial::QtmcCommitment forged{Bignum(1), com.c1};
  std::vector<mercurial::RsaEquation> eqs;
  ASSERT_TRUE(scheme.open_equations(forged, forged_op, eqs));
  ASSERT_EQ(eqs.size(), 2u);
  Bignum c0(1);
  for (const mercurial::RsaTerm& t : eqs[1].lhs) {
    c0 = Bignum::mod_mul(c0, scheme.eval_term(t), pk.n);
  }
  forged.c0 = scheme.canonical(c0);
  eqs.clear();
  ASSERT_TRUE(scheme.open_equations(forged, forged_op, eqs));
  for (const mercurial::RsaEquation& eq : eqs) {
    ASSERT_TRUE(scheme.check_scalar(eq));  // only coprimality fails
  }
  EXPECT_FALSE(scheme.elements_coprime(eqs, 0, eqs.size()));
  EXPECT_FALSE(scheme.verify_open(forged, forged_op));

  BatchVerifier one(scheme);
  one.begin_unit();
  ASSERT_TRUE(one.add_open(forged, forged_op));
  const auto one_res = one.verify();
  EXPECT_FALSE(one_res.all_ok);
  EXPECT_FALSE(one_res.unit_ok[0]);

  constexpr std::size_t kUnits = 16;
  constexpr std::size_t kBad = 9;
  BatchVerifier many(scheme);
  for (std::size_t i = 0; i < kUnits; ++i) {
    many.begin_unit();
    if (i == kBad) {
      ASSERT_TRUE(many.add_open(forged, forged_op));
    } else {
      ASSERT_TRUE(many.add_open(
          com, scheme.hard_open(dec, static_cast<std::uint32_t>(i % 4))));
    }
  }
  const auto res = many.verify();
  EXPECT_FALSE(res.all_ok);
  ASSERT_EQ(res.unit_ok.size(), kUnits);
  for (std::size_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(res.unit_ok[i], i != kBad) << "unit " << i;
  }
}

// ---------------------------------------------------------------------------
// TMC leaf equations fold into the same batch.

TEST(TmcBatchTest, LeafUnitsMatchScalar) {
  const GroupPtr group = make_p256_group();
  const TmcKeyPair keys = TmcScheme::keygen(group);
  const TmcScheme tmc(group, keys.pk);
  // BatchVerifier needs a qTMC scheme even for leaf-only batches.
  const QtmcKeyPair qkeys = QtmcScheme::keygen(/*q=*/2, kTestRsaBits);
  const QtmcScheme qtmc(qkeys.pk);

  const auto [com, dec] = tmc.hard_commit(msg16(1));
  TmcOpening good_op = tmc.hard_open(dec);
  TmcOpening bad_op = tmc.hard_open(dec);
  bad_op.message = msg16(2);
  TmcTease good_tease = tmc.tease_hard(dec);
  TmcTease bad_tease = tmc.tease_hard(dec);
  bad_tease.message = msg16(3);

  BatchVerifier bv(qtmc, &tmc);
  bv.begin_unit();
  EXPECT_TRUE(bv.add_leaf_open(com, good_op));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_leaf_open(com, bad_op));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_leaf_tease(com, good_tease));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_leaf_tease(com, bad_tease));

  const auto res = bv.verify();
  EXPECT_FALSE(res.all_ok);
  EXPECT_EQ(res.unit_ok[0], tmc.verify_open(com, good_op));
  EXPECT_EQ(res.unit_ok[1], tmc.verify_open(com, bad_op));
  EXPECT_EQ(res.unit_ok[2], tmc.verify_tease(com, good_tease));
  EXPECT_EQ(res.unit_ok[3], tmc.verify_tease(com, bad_tease));
  EXPECT_TRUE(res.unit_ok[0]);
  EXPECT_FALSE(res.unit_ok[1]);
  EXPECT_TRUE(res.unit_ok[2]);
  EXPECT_FALSE(res.unit_ok[3]);
}

// ---------------------------------------------------------------------------
// ZK-EDB proof chains: batched and scalar strategies decide identically.

class EdbDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    zk::EdbConfig cfg;
    cfg.q = 4;
    cfg.height = 6;
    cfg.rsa_bits = kTestRsaBits;
    cfg.group_name = "p256";
    crs_ = zk::generate_crs(cfg);
    std::map<Bytes, Bytes> entries;
    for (int i = 0; i < 8; ++i) {
      entries[key_of(i)] = bytes_of("value-" + std::to_string(i));
    }
    prover_ = std::make_unique<zk::EdbProver>(crs_, entries);
  }

  EdbKey key_of(int i) const {
    return zk::key_for_identifier(*crs_, bytes_of("k" + std::to_string(i)));
  }

  /// Both strategies must return the same verdict; returns it.
  zk::VerifyOutcome verify_both(const EdbKey& key,
                                const zk::EdbMembershipProof& proof) {
    zk::EdbVerifyOptions scalar;
    scalar.batched = false;
    const auto s = zk::edb_verify_membership(*crs_, prover_->commitment(),
                                             key, proof, scalar);
    const auto b =
        zk::edb_verify_membership(*crs_, prover_->commitment(), key, proof);
    EXPECT_EQ(s.has_value(), b.has_value());
    if (s.has_value() && b.has_value()) {
      EXPECT_EQ(*s, *b);
    }
    return b;
  }

  bool verify_both(const EdbKey& key, const zk::EdbNonMembershipProof& proof) {
    zk::EdbVerifyOptions scalar;
    scalar.batched = false;
    const bool s = zk::edb_verify_non_membership(*crs_, prover_->commitment(),
                                                 key, proof, scalar)
                       .ok;
    const bool b = zk::edb_verify_non_membership(*crs_, prover_->commitment(),
                                                 key, proof)
                       .ok;
    EXPECT_EQ(s, b);
    return b;
  }

  zk::EdbCrsPtr crs_;
  std::unique_ptr<zk::EdbProver> prover_;
};

TEST_F(EdbDifferentialTest, MembershipValidAndTamperedAgree) {
  const EdbKey key = key_of(0);
  auto proof = prover_->prove_membership(key);
  EXPECT_TRUE(verify_both(key, proof).has_value());

  // Equation-level tamper: τ of a mid-chain opening shifts by one. All
  // structural checks still pass; only the folded/scalar equations catch it.
  auto tau_tampered = proof;
  tau_tampered.openings[2].tau += Bignum(1);
  EXPECT_FALSE(verify_both(key, tau_tampered).has_value());

  auto value_tampered = proof;
  value_tampered.value = bytes_of("forged value");
  EXPECT_FALSE(verify_both(key, value_tampered).has_value());

  // Sign flip Λ → N−Λ: the same element of Z_N*/{±1} in non-canonical
  // encoding; must be structurally rejected by both strategies.
  auto sign_tampered = proof;
  sign_tampered.openings[1].lambda =
      crs_->params().qtmc_pk.n - sign_tampered.openings[1].lambda;
  EXPECT_FALSE(verify_both(key, sign_tampered).has_value());

  auto leaf_tampered = proof;
  leaf_tampered.leaf_opening.r0 += Bignum(1);
  EXPECT_FALSE(verify_both(key, leaf_tampered).has_value());
}

// Every qTMC level of a membership proof: the root commitment the verifier
// holds, and each inner child, whose C1 the verifier derives from the r1
// its opening reveals. A root C1 swapped for another h power, an inner
// r1 swapped for another value, and a child shipped in the old C0‖C1 form
// are each rejected by both strategies.
TEST_F(EdbDifferentialTest, ReplacedC1RejectedAtEveryLevel) {
  const EdbKey key = key_of(3);
  const auto proof = prover_->prove_membership(key);
  const Bignum& n = crs_->params().qtmc_pk.n;
  const QtmcScheme& qtmc = crs_->qtmc();
  const Bignum foreign_c1 = qtmc.canonical(
      Bignum::mod_exp(crs_->params().qtmc_pk.h, Bignum(12345), n));

  const auto rejected_by_both = [&](const mercurial::QtmcCommitment& root,
                                    const zk::EdbMembershipProof& p) {
    zk::EdbVerifyOptions scalar;
    scalar.batched = false;
    return !zk::edb_verify_membership(*crs_, root, key, p, scalar)
                .has_value() &&
           !zk::edb_verify_membership(*crs_, root, key, p).has_value();
  };

  mercurial::QtmcCommitment root = prover_->commitment();
  ASSERT_NE(root.c1, foreign_c1);
  root.c1 = foreign_c1;
  EXPECT_TRUE(rejected_by_both(root, proof)) << "root";

  // The last child commitment is the leaf's TMC commitment.
  for (std::size_t d = 0; d + 1 < proof.child_commitments.size(); ++d) {
    auto swapped = proof;
    ASSERT_NE(swapped.openings[d + 1].r1, Bignum(12345));
    swapped.openings[d + 1].r1 = Bignum(12345);
    EXPECT_TRUE(rejected_by_both(prover_->commitment(), swapped))
        << "r1 of child " << d;

    auto old_layout = proof;
    old_layout.child_commitments[d] =
        mercurial::QtmcCommitment{
            Bignum::from_bytes(proof.child_commitments[d]),
            qtmc.hard_c1(proof.openings[d + 1].r1)}
            .serialize(n);
    EXPECT_TRUE(rejected_by_both(prover_->commitment(), old_layout))
        << "C0 and C1 of child " << d;
  }
}

TEST_F(EdbDifferentialTest, NonMembershipValidAndTamperedAgree) {
  const EdbKey key = zk::key_for_identifier(*crs_, bytes_of("absent"));
  ASSERT_FALSE(prover_->contains(key));
  auto proof = prover_->prove_non_membership(key);
  EXPECT_TRUE(verify_both(key, proof));

  auto tampered = proof;
  tampered.teases[1].tau += Bignum(1);
  EXPECT_FALSE(verify_both(key, tampered));

  auto leaf_tampered = proof;
  leaf_tampered.leaf_tease.message = msg16(7);
  EXPECT_FALSE(verify_both(key, leaf_tampered));
}

TEST_F(EdbDifferentialTest, BitFlippedSerializedProofsAgree) {
  const EdbKey key = key_of(1);
  const Bytes wire = prover_->prove_membership(key).serialize(*crs_);
  // Sample flip positions across the whole proof; every one that still
  // deserializes must draw the same verdict from both strategies (the
  // EXPECT inside verify_both), and none may crash either path.
  for (std::size_t pos = 0; pos < wire.size(); pos += 97) {
    Bytes corrupted = wire;
    corrupted[pos] ^= 0x40;
    zk::EdbMembershipProof proof;
    try {
      proof = zk::EdbMembershipProof::deserialize(*crs_, corrupted);
    } catch (const Error&) {
      continue;  // parse-level rejection: identical for both strategies
    }
    verify_both(key, proof);
  }
}

TEST_F(EdbDifferentialTest, VerifyManyPinpointsTamperedProof) {
  constexpr std::size_t kProofs = 8;
  constexpr std::size_t kBad = 5;
  std::vector<zk::EdbMembershipProof> proofs;
  std::vector<zk::EdbMembershipQuery> queries;
  proofs.reserve(kProofs);
  queries.reserve(kProofs);
  for (std::size_t i = 0; i < kProofs; ++i) {
    const EdbKey key = key_of(static_cast<int>(i));
    proofs.push_back(prover_->prove_membership(key));
    queries.push_back({key, &proofs.back()});
  }
  proofs[kBad].openings[3].tau += Bignum(1);

  for (const bool batched : {true, false}) {
    zk::EdbVerifyOptions opts;
    opts.batched = batched;
    const auto results = zk::edb_verify_membership_many(
        *crs_, prover_->commitment(), queries, opts);
    ASSERT_EQ(results.size(), kProofs);
    for (std::size_t i = 0; i < kProofs; ++i) {
      EXPECT_EQ(results[i].has_value(), i != kBad)
          << "proof " << i << " batched=" << batched;
    }
  }
}

// ---------------------------------------------------------------------------
// Chunked fold: a pool splits each side of the RSA fold into concurrent
// multi-exponentiation chunks. Same residues, so the same verdicts and the
// same bisection, with no pool, a 1-wide pool and a 4-wide pool.

std::uint64_t counter(const char* name) { return obs::metric(name).value(); }

TEST(ChunkedMultiExpTest, ChunksMultiplyToTheSerialProduct) {
  const QtmcKeyPair keys = QtmcScheme::keygen(/*q=*/2, kTestRsaBits);
  const ModExpContext mexp(keys.pk.n);
  DrbgRandomSource rng(bytes_of("chunked-multi-exp"));
  std::vector<ModExpContext::ExpTerm> terms;
  for (int i = 0; i < 70; ++i) {
    // Mixed widths (and one zero exponent) exercise the width-sorted cuts.
    const int bits = i == 5 ? 0 : 64 + (i * 37) % 330;
    Bignum base = Bignum::from_bytes(rng.bytes(64)).mod(keys.pk.n);
    Bignum exp = bits == 0 ? Bignum(std::uint64_t{0}) : rng.rand_bits(bits);
    terms.push_back({std::move(base), std::move(exp)});
  }
  const Bignum serial = mexp.multi_exp(terms);
  ThreadPool four(4);
  const std::uint64_t calls = counter("crypto.multi_exp.calls");
  const std::uint64_t modexps = counter("crypto.modexp.calls");
  EXPECT_EQ(mexp.multi_exp(terms, &four), serial);
  // One logical multi-exp, however many chunks evaluated it.
  EXPECT_EQ(counter("crypto.multi_exp.calls"), calls + 1);
  EXPECT_EQ(counter("crypto.modexp.calls"), modexps);
  // Too few terms to split: the serial path, same answer.
  const std::vector<ModExpContext::ExpTerm> few(terms.begin(),
                                                terms.begin() + 9);
  EXPECT_EQ(mexp.multi_exp(few, &four), mexp.multi_exp(few));
}

class ChunkedFoldTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kHeight = 32;

  static void SetUpTestSuite() {
    zk::EdbConfig cfg;
    cfg.q = 4;
    cfg.height = kHeight;
    cfg.rsa_bits = kTestRsaBits;
    cfg.group_name = "p256";
    crs_ = new zk::EdbCrsPtr(zk::generate_crs(cfg));
    std::map<Bytes, Bytes> entries;
    for (int i = 0; i < 4; ++i) {
      entries[member(i)] = bytes_of("value-" + std::to_string(i));
    }
    zk::EdbProverOptions opts;
    opts.seed = bytes_of("chunked-fold");
    prover_ = new zk::EdbProver(crs(), entries, opts);
  }

  static void TearDownTestSuite() {
    delete prover_;
    delete crs_;
  }

  static const zk::EdbCrsPtr& crs() { return *crs_; }
  static const QtmcScheme& qtmc() { return crs()->qtmc(); }
  static const Bignum& modulus() { return crs()->params().qtmc_pk.n; }

  static EdbKey member(int i) {
    return zk::key_for_identifier(*crs(), bytes_of("m" + std::to_string(i)));
  }

  static mercurial::QtmcCommitment child(const std::vector<Bytes>& coms,
                                         std::uint32_t d) {
    return d == 0 ? prover_->commitment()
                  : mercurial::QtmcCommitment::deserialize(modulus(),
                                                           coms[d - 1]);
  }

  /// Adds a membership chain's equations as one unit, checking opening d
  /// exactly as the verifier's chain walk does: against the root for
  /// d = 0, else against the shipped C0 with C1 derived from its r1.
  static void add_chain(BatchVerifier& bv, const zk::EdbMembershipProof& p) {
    bv.begin_unit();
    for (std::uint32_t d = 0; d < kHeight; ++d) {
      const bool added =
          d == 0 ? bv.add_open(prover_->commitment(), p.openings[d])
                 : bv.add_open(
                       {Bignum::from_bytes(p.child_commitments[d - 1]),
                        qtmc().hard_c1(p.openings[d].r1)},
                       p.openings[d], mercurial::C1Origin::kDerived);
      if (!added) return;
    }
    bv.add_leaf_open(mercurial::TmcCommitment::deserialize(
                         crs()->group(), p.child_commitments[kHeight - 1]),
                     p.leaf_opening);
  }

  static void add_chain(BatchVerifier& bv,
                        const zk::EdbNonMembershipProof& p) {
    bv.begin_unit();
    for (std::uint32_t d = 0; d < kHeight; ++d) {
      if (!bv.add_tease(child(p.child_commitments, d), p.teases[d])) return;
    }
    bv.add_leaf_tease(mercurial::TmcCommitment::deserialize(
                          crs()->group(), p.child_commitments[kHeight - 1]),
                      p.leaf_tease);
  }

  struct Run {
    BatchVerifier::Result result;
    std::uint64_t bisect_steps = 0;
  };

  /// Verifies `bv` with no pool, a 1-wide and a 4-wide pool; asserts the
  /// three agree on every verdict and on the bisection step count.
  static Run verify_everywhere(const BatchVerifier& bv) {
    ThreadPool one(1);
    ThreadPool four(4);
    std::vector<Run> runs;
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
      const std::uint64_t before =
          counter("crypto.batch_verify.bisect_steps");
      Run run;
      run.result = bv.verify(pool);
      run.bisect_steps =
          counter("crypto.batch_verify.bisect_steps") - before;
      runs.push_back(run);
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].result.all_ok, runs[0].result.all_ok) << "pool " << i;
      EXPECT_EQ(runs[i].result.unit_ok, runs[0].result.unit_ok)
          << "pool " << i;
      EXPECT_EQ(runs[i].bisect_steps, runs[0].bisect_steps) << "pool " << i;
    }
    return runs[0];
  }

  /// Honest membership chain, `proof` (the case under test), honest
  /// non-membership chain — so a rejected case also exercises bisection.
  static Run verify_case(const zk::EdbMembershipProof& proof) {
    BatchVerifier bv(qtmc(), &crs()->tmc());
    add_chain(bv, prover_->prove_membership(member(1)));
    add_chain(bv, proof);
    add_chain(bv, prover_->prove_non_membership(absent()));
    return verify_everywhere(bv);
  }

  static EdbKey absent() {
    return zk::key_for_identifier(*crs(), bytes_of("absent"));
  }

  static void expect_only_case_rejected(const Run& run) {
    EXPECT_FALSE(run.result.all_ok);
    EXPECT_EQ(run.result.unit_ok, (std::vector<bool>{true, false, true}));
  }

  static zk::EdbCrsPtr* crs_;
  static zk::EdbProver* prover_;
};

zk::EdbCrsPtr* ChunkedFoldTest::crs_ = nullptr;
zk::EdbProver* ChunkedFoldTest::prover_ = nullptr;

TEST_F(ChunkedFoldTest, HonestChainsAccepted) {
  const Run run = verify_case(prover_->prove_membership(member(0)));
  EXPECT_TRUE(run.result.all_ok);
  EXPECT_EQ(run.bisect_steps, 0u);
}

TEST_F(ChunkedFoldTest, TamperedLambdaRejectedAtAnyLevel) {
  for (const std::uint32_t level : {0u, 16u, 31u}) {
    auto proof = prover_->prove_membership(member(0));
    auto& lambda = proof.openings[level].lambda;
    lambda = qtmc().canonical(Bignum::mod_mul(lambda, Bignum(4), modulus()));
    SCOPED_TRACE(level);
    expect_only_case_rejected(verify_case(proof));
  }
}

TEST_F(ChunkedFoldTest, TauOffByOneRejected) {
  auto proof = prover_->prove_membership(member(0));
  proof.openings[9].tau += Bignum(1);
  expect_only_case_rejected(verify_case(proof));
}

TEST_F(ChunkedFoldTest, WrongChildDigestRejected) {
  // Level 12's child is swapped for another member's node at that depth:
  // level 13's opening is then checked against the wrong commitment.
  auto proof = prover_->prove_membership(member(0));
  const auto other = prover_->prove_membership(member(2));
  ASSERT_NE(proof.child_commitments[12], other.child_commitments[12]);
  proof.child_commitments[12] = other.child_commitments[12];
  expect_only_case_rejected(verify_case(proof));
}

TEST_F(ChunkedFoldTest, SignFlipForgeryRejected) {
  auto proof = prover_->prove_membership(member(0));
  proof.openings[20].lambda = modulus() - proof.openings[20].lambda;
  expect_only_case_rejected(verify_case(proof));
}

TEST_F(ChunkedFoldTest, VerifyManyPileOf64) {
  constexpr std::size_t kProofs = 64;
  const std::vector<std::size_t> bad = {5, 40};
  BatchVerifier bv(qtmc(), &crs()->tmc());
  for (std::size_t i = 0; i < kProofs; ++i) {
    auto proof = prover_->prove_membership(member(static_cast<int>(i % 4)));
    if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
      proof.openings[i % kHeight].tau += Bignum(1);
    }
    add_chain(bv, proof);
  }
  const Run run = verify_everywhere(bv);
  EXPECT_FALSE(run.result.all_ok);
  EXPECT_GT(run.bisect_steps, 0u);
  for (std::size_t i = 0; i < kProofs; ++i) {
    const bool is_bad = std::find(bad.begin(), bad.end(), i) != bad.end();
    EXPECT_EQ(run.result.unit_ok[i], !is_bad) << "proof " << i;
  }
}

// ---------------------------------------------------------------------------
// Protocol level: a corrupted query proof that the proxy's batched verify
// rejects costs the corrupting hop its reputation.

TEST(BatchVerifyReputationTest, PenaltyLandsOnCorruptingHop) {
  using supplychain::DistributionConfig;
  using supplychain::ProductId;
  using supplychain::SupplyChainGraph;
  namespace proto = protocol;

  proto::ScenarioConfig cfg;
  cfg.proxy.edb = zk::EdbConfig{4, 8, kTestRsaBits, "p256"};
  proto::Scenario scenario(SupplyChainGraph::paper_example(), cfg);

  const auto products = supplychain::make_products(1, 2000, 8);
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = products;
  dist.seed = 42;
  scenario.run_task("task-bv", dist);

  const ProductId* product = nullptr;
  for (const ProductId& p : products) {
    const auto* path = scenario.path_of(p);
    if (path != nullptr && path->size() >= 3) {
      product = &p;
      break;
    }
  }
  ASSERT_NE(product, nullptr) << "no product with a long enough path";
  const std::string cheater = (*scenario.path_of(*product))[1];

  proto::QueryBehavior behavior;
  behavior.corrupt_proof.insert(*product);
  scenario.participant(cheater).set_query_behavior(behavior);

  proto::QueryOutcome outcome;
  ASSERT_NO_THROW(outcome = scenario.proxy().run_query(
                      *product, proto::ProductQuality::kGood));
  EXPECT_TRUE(outcome.has_violation(
      cheater, proto::ViolationType::kClaimProcessingInvalidProof));
  EXPECT_LT(scenario.proxy().reputation(cheater), 0.0);
}
}  // namespace
}  // namespace desword
