// Differential tests for the randomized batch-verification engine
// (mercurial/batch_verify.h): the batched strategy must agree with the
// scalar verifiers verdict-for-verdict — on valid proofs, on tampered
// proofs whose structure still parses, and on adversarial bit-flips — and
// the bisection must pinpoint exactly the corrupted unit inside a large
// batch. Also covers the fixed-base table registry shared across scheme
// instances, the protocol-level reputation outcome under both
// verification strategies, and the verification pass: running a fold's
// jobs on a thread pool must not move a verdict, a bisection step or a
// derived C1.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
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
// The verification pass: each fold runs its coprimality test, EC fold, h
// power, multi-exp parts and (in the first pass) the queued C1 derivations
// as one pass of jobs, on a pool when given one. The parts multiply to the
// same residues, so the verdicts, the bisection steps and the derived C1s
// are the same with no pool, a 1-wide pool and a 4-wide pool.

std::uint64_t counter(const char* name) { return obs::metric(name).value(); }

TEST(PassPlanTest, PartsMultiplyToTheWholeProduct) {
  const QtmcKeyPair keys = QtmcScheme::keygen(/*q=*/2, kTestRsaBits);
  const ModExpContext mexp(keys.pk.n);
  DrbgRandomSource rng(bytes_of("pass-plan"));
  std::vector<ModExpContext::ExpTerm> terms;
  for (int i = 0; i < 70; ++i) {
    // Mixed widths (and one zero exponent) exercise the width-sorted cuts.
    const int bits = i == 5 ? 0 : 64 + (i * 37) % 330;
    Bignum base = Bignum::from_bytes(rng.bytes(64)).mod(keys.pk.n);
    Bignum exp = bits == 0 ? Bignum(std::uint64_t{0}) : rng.rand_bits(bits);
    terms.push_back({std::move(base), std::move(exp)});
  }
  const Bignum whole = mexp.multi_exp(terms);
  const std::uint64_t calls = counter("crypto.multi_exp.calls");
  const std::uint64_t modexps = counter("crypto.modexp.calls");
  const std::vector<const ModExpContext::ExpTerm*> live =
      mexp.multi_exp_terms(terms);
  ASSERT_EQ(live.size(), terms.size() - 1);  // the zero exponent drops
  for (std::size_t i = 1; i < live.size(); ++i) {
    EXPECT_GE(live[i - 1]->exponent.bits(), live[i]->exponent.bits());
  }
  for (std::size_t parts = 1; parts <= 8; ++parts) {
    const std::vector<std::size_t> cut = mercurial::cut_multi_exp(live, parts);
    ASSERT_EQ(cut.size(), parts + 1);
    EXPECT_EQ(cut.front(), 0u);
    EXPECT_EQ(cut.back(), live.size());
    Bignum product(1);
    for (std::size_t p = 0; p < parts; ++p) {
      ASSERT_LT(cut[p], cut[p + 1]);
      product = Bignum::mod_mul(
          product,
          mexp.multi_exp_part({live.data() + cut[p], cut[p + 1] - cut[p]}),
          keys.pk.n);
    }
    EXPECT_EQ(product, whole) << parts << " parts";
  }
  // One logical multi-exp, however many parts evaluated it.
  EXPECT_EQ(counter("crypto.multi_exp.calls"), calls + 1);
  EXPECT_EQ(counter("crypto.modexp.calls"), modexps);
}

/// What one verify() of a pile decides: the per-unit verdicts, the
/// bisection steps it took and the C1s its first pass derived.
struct PassRun {
  BatchVerifier::Result result;
  std::uint64_t bisect_steps = 0;
  std::vector<Bignum> derived;
};

/// Verifies `bv` with no pool, a 1-wide and a 4-wide pool, clearing the
/// C1 slots it derives into (`derived`) before each run; asserts that the
/// three runs agree on every verdict, on the bisection step count and on
/// every derived C1. Returns the first.
PassRun verify_everywhere(const BatchVerifier& bv,
                          const std::vector<Bignum*>& derived = {}) {
  ThreadPool one(1);
  ThreadPool four(4);
  std::vector<PassRun> runs;
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    for (Bignum* c1 : derived) *c1 = Bignum();
    const std::uint64_t before = counter("crypto.batch_verify.bisect_steps");
    PassRun run;
    run.result = bv.verify(pool);
    run.bisect_steps = counter("crypto.batch_verify.bisect_steps") - before;
    for (const Bignum* c1 : derived) run.derived.push_back(*c1);
    runs.push_back(std::move(run));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].result.all_ok, runs[0].result.all_ok) << "pool " << i;
    EXPECT_EQ(runs[i].result.unit_ok, runs[0].result.unit_ok) << "pool " << i;
    EXPECT_EQ(runs[i].bisect_steps, runs[0].bisect_steps) << "pool " << i;
    EXPECT_EQ(runs[i].derived, runs[0].derived) << "pool " << i;
  }
  return runs[0];
}

class VerifyPassTest : public ::testing::Test {
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
    opts.seed = bytes_of("verify-pass");
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

  static EdbKey absent() {
    return zk::key_for_identifier(*crs(), bytes_of("absent"));
  }

  /// A pile of proof chains, each one unit, added as zkedb's verifier adds
  /// them: a membership chain opens its root as received and every inner
  /// child on its shipped C0 with C1Origin::kDerived, its C1 queued for
  /// the pass; its digests are checked after the pass (digests_ok).
  class Pile {
   public:
    void add(const zk::EdbMembershipProof& p) {
      bv_.begin_unit();
      Chain& chain = chains_.emplace_back();
      chain.proof = p;
      chain.inner.resize(kHeight);
      chain.inner[0] = prover_->commitment();
      for (std::uint32_t d = 0; d < kHeight; ++d) {
        if (d > 0) {
          chain.inner[d].c0 = Bignum::from_bytes(p.child_commitments[d - 1]);
        }
        if (!bv_.add_open(chain.inner[d], p.openings[d],
                          d == 0 ? mercurial::C1Origin::kReceived
                                 : mercurial::C1Origin::kDerived)) {
          return;
        }
      }
      if (!bv_.add_leaf_open(leaf_of(p.child_commitments), p.leaf_opening)) {
        return;
      }
      for (std::uint32_t d = 1; d < kHeight; ++d) {
        bv_.derive_c1(p.openings[d].r1, &chain.inner[d].c1);
        derived_.push_back(&chain.inner[d].c1);
      }
      chain.derived = true;
    }

    void add(const zk::EdbNonMembershipProof& p) {
      bv_.begin_unit();
      chains_.emplace_back();
      for (std::uint32_t d = 0; d < kHeight; ++d) {
        const mercurial::QtmcCommitment com =
            d == 0 ? prover_->commitment()
                   : mercurial::QtmcCommitment::deserialize(
                         modulus(), p.child_commitments[d - 1]);
        if (!bv_.add_tease(com, p.teases[d])) return;
      }
      bv_.add_leaf_tease(leaf_of(p.child_commitments), p.leaf_tease);
    }

    const BatchVerifier& verifier() const { return bv_; }

    /// verify_everywhere over the pile; then checks every derived C1
    /// against hard_c1 of its opening's r1.
    PassRun verify() const {
      PassRun run = verify_everywhere(bv_, derived_);
      std::size_t k = 0;
      for (const Chain& chain : chains_) {
        if (!chain.derived) continue;
        for (std::uint32_t d = 1; d < kHeight; ++d, ++k) {
          EXPECT_EQ(run.derived.at(k),
                    qtmc().hard_c1(chain.proof.openings[d].r1))
              << "level " << d;
        }
      }
      return run;
    }

    /// Whether unit u's opened messages are its children's digests (true
    /// for non-membership units, whose digests the harness leaves alone).
    bool digests_ok(std::size_t u) const {
      const Chain& chain = chains_.at(u);
      if (!chain.derived) return true;
      for (std::uint32_t d = 0; d + 1 < kHeight; ++d) {
        if (crs()->digest_inner(chain.inner[d + 1]) !=
            chain.proof.openings[d].message) {
          return false;
        }
      }
      return crs()->digest_leaf(leaf_of(chain.proof.child_commitments)) ==
             chain.proof.openings[kHeight - 1].message;
    }

   private:
    struct Chain {
      zk::EdbMembershipProof proof;
      std::vector<mercurial::QtmcCommitment> inner;
      bool derived = false;
    };

    static mercurial::TmcCommitment leaf_of(const std::vector<Bytes>& coms) {
      return mercurial::TmcCommitment::deserialize(crs()->group(),
                                                   coms[kHeight - 1]);
    }

    BatchVerifier bv_{qtmc(), &crs()->tmc()};
    std::deque<Chain> chains_;  // stable: bv_ derives into their C1s
    std::vector<Bignum*> derived_;
  };

  /// Honest membership chain, `proof` (the case under test), honest
  /// non-membership chain — so a rejected case also exercises bisection.
  /// Verdicts combine each unit's fold verdict with its digests.
  static std::vector<bool> verify_case(const zk::EdbMembershipProof& proof) {
    Pile pile;
    pile.add(prover_->prove_membership(member(1)));
    pile.add(proof);
    pile.add(prover_->prove_non_membership(absent()));
    const PassRun run = pile.verify();
    std::vector<bool> verdicts = run.result.unit_ok;
    for (std::size_t u = 0; u < verdicts.size(); ++u) {
      verdicts[u] = verdicts[u] && pile.digests_ok(u);
    }
    return verdicts;
  }

  /// The case end to end through zkedb's verifier, on one thread and on
  /// four: both must reject.
  static void expect_verifier_rejects(const zk::EdbMembershipProof& proof) {
    for (const unsigned threads : {1u, 4u}) {
      zk::EdbVerifyOptions opts;
      opts.threads = threads;
      EXPECT_FALSE(zk::edb_verify_membership(*crs(), prover_->commitment(),
                                             member(0), proof, opts)
                       .ok)
          << threads << " thread(s)";
    }
  }

  static void expect_only_case_rejected(const zk::EdbMembershipProof& proof) {
    EXPECT_EQ(verify_case(proof), (std::vector<bool>{true, false, true}));
    expect_verifier_rejects(proof);
  }

  static zk::EdbCrsPtr* crs_;
  static zk::EdbProver* prover_;
};

zk::EdbCrsPtr* VerifyPassTest::crs_ = nullptr;
zk::EdbProver* VerifyPassTest::prover_ = nullptr;

TEST_F(VerifyPassTest, HonestPileAccepted) {
  Pile pile;
  pile.add(prover_->prove_membership(member(0)));
  pile.add(prover_->prove_membership(member(1)));
  pile.add(prover_->prove_non_membership(absent()));
  const PassRun run = pile.verify();
  EXPECT_TRUE(run.result.all_ok);
  EXPECT_EQ(run.bisect_steps, 0u);
  for (std::size_t u = 0; u < 3; ++u) EXPECT_TRUE(pile.digests_ok(u));
  for (const unsigned threads : {1u, 4u}) {
    zk::EdbVerifyOptions opts;
    opts.threads = threads;
    EXPECT_TRUE(zk::edb_verify_membership(*crs(), prover_->commitment(),
                                          member(0),
                                          prover_->prove_membership(member(0)),
                                          opts)
                    .ok);
    EXPECT_TRUE(zk::edb_verify_non_membership(
                    *crs(), prover_->commitment(), absent(),
                    prover_->prove_non_membership(absent()), opts)
                    .ok);
  }
}

TEST_F(VerifyPassTest, TamperedLambdaRejectedAtAnyLevel) {
  for (const std::uint32_t level : {0u, 16u, 31u}) {
    auto proof = prover_->prove_membership(member(0));
    auto& lambda = proof.openings[level].lambda;
    lambda = qtmc().canonical(Bignum::mod_mul(lambda, Bignum(4), modulus()));
    SCOPED_TRACE(level);
    expect_only_case_rejected(proof);
  }
}

TEST_F(VerifyPassTest, TauOffByOneRejected) {
  auto proof = prover_->prove_membership(member(0));
  proof.openings[9].tau += Bignum(1);
  expect_only_case_rejected(proof);
}

TEST_F(VerifyPassTest, WrongChildDigestRejected) {
  // Level 12's child is swapped for another member's node at that depth:
  // level 13's opening is then checked against the wrong commitment.
  auto proof = prover_->prove_membership(member(0));
  const auto other = prover_->prove_membership(member(2));
  ASSERT_NE(proof.child_commitments[12], other.child_commitments[12]);
  proof.child_commitments[12] = other.child_commitments[12];
  expect_only_case_rejected(proof);
}

TEST_F(VerifyPassTest, SignFlippedLambdaRejected) {
  auto proof = prover_->prove_membership(member(0));
  proof.openings[20].lambda = modulus() - proof.openings[20].lambda;
  expect_only_case_rejected(proof);
}

TEST_F(VerifyPassTest, BadEcLeafRejected) {
  auto proof = prover_->prove_membership(member(0));
  proof.leaf_opening.r0 += Bignum(1);
  expect_only_case_rejected(proof);
}

// An inner C0 with one byte flipped: E2' of the child it belongs to fails
// in the fold, and its parent's digest, checked after the pass, no longer
// matches.
TEST_F(VerifyPassTest, FlippedInnerC0ByteRejected) {
  auto proof = prover_->prove_membership(member(0));
  Bytes& c0 = proof.child_commitments[7];
  c0.back() ^= 0x01;
  expect_only_case_rejected(proof);
}

// Two levels' r1s exchanged: both stay in range, so each level's C1 is
// derived from the other's r1 and both E2's and both parents' digests
// fail.
TEST_F(VerifyPassTest, R1sSwappedBetweenLevelsRejected) {
  auto proof = prover_->prove_membership(member(0));
  ASSERT_NE(proof.openings[3].r1, proof.openings[11].r1);
  std::swap(proof.openings[3].r1, proof.openings[11].r1);
  expect_only_case_rejected(proof);
}

// The first fold of a 16-unit pile fails, so verify() bisects; every
// unit's C1s were derived once, in the first pass, and are still exact.
TEST_F(VerifyPassTest, PileOf16WithAFailingFirstFold) {
  constexpr std::size_t kProofs = 16;
  const std::vector<std::size_t> bad = {5, 12};
  Pile pile;
  for (std::size_t i = 0; i < kProofs; ++i) {
    auto proof = prover_->prove_membership(member(static_cast<int>(i % 4)));
    if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
      proof.openings[(i * 7) % kHeight].tau += Bignum(1);
    }
    pile.add(proof);
  }
  const std::uint64_t folds = counter("crypto.batch_verify.folds");
  const PassRun run = pile.verify();
  EXPECT_GT(counter("crypto.batch_verify.folds") - folds, 3u);
  EXPECT_FALSE(run.result.all_ok);
  EXPECT_GT(run.bisect_steps, 0u);
  for (std::size_t i = 0; i < kProofs; ++i) {
    const bool is_bad = std::find(bad.begin(), bad.end(), i) != bad.end();
    EXPECT_EQ(run.result.unit_ok[i], !is_bad) << "proof " << i;
    EXPECT_TRUE(pile.digests_ok(i)) << "proof " << i;
  }
}

// The Fiat–Shamir transcript is every field of every accumulated equation
// in order, each framed as TaggedHasher::add frames it: recomputed here
// one add() per field from the same equations, the digest must match.
TEST(TranscriptTest, DigestFramesEveryFieldAsTaggedHasherAdds) {
  const QtmcKeyPair qkeys = QtmcScheme::keygen(/*q=*/4, kTestRsaBits);
  const QtmcScheme qtmc(qkeys.pk);
  const GroupPtr group = make_p256_group();
  const TmcKeyPair tkeys = TmcScheme::keygen(group);
  const TmcScheme tmc(group, tkeys.pk);
  const auto [com, dec] = qtmc.hard_commit(make_messages(4));
  const auto [leaf, leaf_dec] = tmc.hard_commit(msg16(9));
  const QtmcOpening op = qtmc.hard_open(dec, 2);
  const QtmcTease tease = qtmc.tease_hard(dec, 1);
  const TmcOpening leaf_op = tmc.hard_open(leaf_dec);
  const TmcTease leaf_tease = tmc.tease_hard(leaf_dec);

  BatchVerifier bv(qtmc, &tmc);
  bv.begin_unit();
  ASSERT_TRUE(bv.add_open(com, op));
  ASSERT_TRUE(bv.add_tease(com, tease));
  bv.begin_unit();
  ASSERT_TRUE(bv.add_leaf_open(leaf, leaf_op));
  ASSERT_TRUE(bv.add_leaf_tease(leaf, leaf_tease));

  std::vector<mercurial::RsaEquation> rsa;
  ASSERT_TRUE(qtmc.open_equations(com, op, rsa));
  ASSERT_TRUE(qtmc.tease_equations(com, tease, rsa));
  std::vector<mercurial::EcEquation> ec;
  ASSERT_TRUE(tmc.open_equations(leaf, leaf_op, ec));
  ASSERT_TRUE(tmc.tease_equations(leaf, leaf_tease, ec));
  TaggedHasher h("desword/batch-verify");
  h.add_u64(rsa.size());
  for (const mercurial::RsaEquation& eq : rsa) {
    h.add_u64(eq.lhs.size());
    for (const mercurial::RsaTerm& t : eq.lhs) {
      h.add_u64(static_cast<std::uint64_t>(t.kind));
      h.add_u64(t.pos);
      h.add(t.base.to_bytes());
      h.add(t.exponent.to_bytes());
    }
    h.add(eq.rhs.to_bytes());
  }
  h.add_u64(ec.size());
  for (const mercurial::EcEquation& eq : ec) {
    h.add_u64(eq.lhs.size());
    for (const mercurial::EcTerm& t : eq.lhs) {
      h.add_u64(static_cast<std::uint64_t>(t.kind));
      h.add(t.elem);
      h.add(t.scalar.to_bytes());
    }
    h.add(eq.rhs);
  }
  EXPECT_EQ(bv.transcript_digest(), h.digest());
}

// The QtmcCoprimalityTest forgery — every equation holds mod N, only the
// Jacobi job can reject it — alone and at unit 9 of a 16-unit pile.
TEST(VerifyPassCoprimalityTest, NonCoprimeForgeryRejectedOnEveryPool) {
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
  Bignum c0(1);
  for (const mercurial::RsaTerm& t : eqs[1].lhs) {
    c0 = Bignum::mod_mul(c0, scheme.eval_term(t), pk.n);
  }
  forged.c0 = scheme.canonical(c0);

  BatchVerifier one(scheme);
  one.begin_unit();
  ASSERT_TRUE(one.add_open(forged, forged_op));
  EXPECT_EQ(verify_everywhere(one).result.unit_ok, std::vector<bool>{false});

  constexpr std::size_t kUnits = 16;
  constexpr std::size_t kBad = 9;
  BatchVerifier many(scheme);
  for (std::size_t i = 0; i < kUnits; ++i) {
    many.begin_unit();
    ASSERT_TRUE(i == kBad ? many.add_open(forged, forged_op)
                          : many.add_open(com, scheme.hard_open(
                                                   dec, static_cast<std::uint32_t>(
                                                            i % 4))));
  }
  const PassRun run = verify_everywhere(many);
  EXPECT_GT(run.bisect_steps, 0u);
  for (std::size_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(run.result.unit_ok[i], i != kBad) << "unit " << i;
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
