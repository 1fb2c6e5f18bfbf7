#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "crypto/hash.h"
#include "crypto/primes.h"
#include "crypto/randsource.h"
#include "mercurial/batch_verify.h"
#include "mercurial/qtmc.h"

namespace desword::mercurial {
namespace {

// Small parameters keep the suite fast; production scale (RSA-2048,
// q up to 128) is exercised by the benchmarks.
constexpr int kTestRsaBits = 512;

Bytes msg16(int i) {
  return hash_to_128("qtmc-test-msg", {be64(static_cast<std::uint64_t>(i))});
}

std::vector<Bytes> make_messages(std::uint32_t count) {
  std::vector<Bytes> msgs;
  for (std::uint32_t i = 0; i < count; ++i) msgs.push_back(msg16(100 + i));
  return msgs;
}

class QtmcTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    q_ = GetParam();
    keys_ = QtmcScheme::keygen(q_, kTestRsaBits);
    scheme_ = std::make_unique<QtmcScheme>(keys_.pk);
  }

  std::uint32_t q_ = 0;
  QtmcKeyPair keys_{QtmcPublicKey{}, Bignum()};
  std::unique_ptr<QtmcScheme> scheme_;
};

TEST_P(QtmcTest, HardCommitOpenVerifyAllPositions) {
  const auto msgs = make_messages(q_);
  const auto [com, dec] = scheme_->hard_commit(msgs);
  for (std::uint32_t i = 0; i < q_; ++i) {
    const QtmcOpening op = scheme_->hard_open(dec, i);
    EXPECT_TRUE(scheme_->verify_open(com, op)) << "pos " << i;
    EXPECT_EQ(op.message, msgs[i]);
  }
}

TEST_P(QtmcTest, HardCommitTeaseVerifyAllPositions) {
  const auto msgs = make_messages(q_);
  const auto [com, dec] = scheme_->hard_commit(msgs);
  for (std::uint32_t i = 0; i < q_; ++i) {
    const QtmcTease t = scheme_->tease_hard(dec, i);
    EXPECT_TRUE(scheme_->verify_tease(com, t)) << "pos " << i;
    EXPECT_EQ(t.message, msgs[i]);
  }
}

TEST_P(QtmcTest, ShortMessageVectorPadsWithNull) {
  if (q_ < 2) GTEST_SKIP() << "needs arity >= 2";
  // Committing fewer than q messages commits the null message at the tail.
  const auto msgs = make_messages(1);
  const auto [com, dec] = scheme_->hard_commit(msgs);
  const QtmcOpening op = scheme_->hard_open(dec, q_ - 1);
  EXPECT_EQ(op.message, null_message());
  EXPECT_TRUE(scheme_->verify_open(com, op));
}

TEST_P(QtmcTest, OpenRejectsWrongMessage) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  QtmcOpening op = scheme_->hard_open(dec, 0);
  op.message = msg16(999);
  EXPECT_FALSE(scheme_->verify_open(com, op));
}

TEST_P(QtmcTest, TeaseRejectsWrongMessage) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  QtmcTease t = scheme_->tease_hard(dec, 0);
  t.message = msg16(999);
  EXPECT_FALSE(scheme_->verify_tease(com, t));
}

TEST_P(QtmcTest, OpenRejectsWrongPosition) {
  // An opening for position 0 replayed at position 1 must fail.
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  QtmcOpening op = scheme_->hard_open(dec, 0);
  if (q_ < 2) GTEST_SKIP() << "needs arity >= 2";
  op.pos = 1;
  EXPECT_FALSE(scheme_->verify_open(com, op));
}

TEST_P(QtmcTest, OpenRejectsOutOfRangePosition) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  QtmcOpening op = scheme_->hard_open(dec, 0);
  op.pos = q_;
  EXPECT_FALSE(scheme_->verify_open(com, op));
}

TEST_P(QtmcTest, OpenRejectsWrongCommitment) {
  const auto [com1, dec1] = scheme_->hard_commit(make_messages(q_));
  const auto [com2, dec2] = scheme_->hard_commit({msg16(7)});
  EXPECT_FALSE(scheme_->verify_open(com2, scheme_->hard_open(dec1, 0)));
}

TEST_P(QtmcTest, SoftCommitTeasesToAnythingAtAnyPosition) {
  const auto [com, dec] = scheme_->soft_commit();
  for (std::uint32_t i = 0; i < q_; ++i) {
    const QtmcTease t = scheme_->tease_soft(
        dec, i, msg16(static_cast<int>(i)), system_random());
    EXPECT_TRUE(scheme_->verify_tease(com, t)) << "pos " << i;
  }
  // Including the null message.
  const QtmcTease tn = scheme_->tease_soft(
      dec, 0, null_message(), system_random());
  EXPECT_TRUE(scheme_->verify_tease(com, tn));
}

TEST_P(QtmcTest, SoftCommitTeasesSamePositionToDifferentMessages) {
  // The equivocation at the heart of non-ownership proofs.
  const auto [com, dec] = scheme_->soft_commit();
  const QtmcTease t1 = scheme_->tease_soft(dec, 0, msg16(1), system_random());
  const QtmcTease t2 = scheme_->tease_soft(dec, 0, msg16(2), system_random());
  EXPECT_TRUE(scheme_->verify_tease(com, t1));
  EXPECT_TRUE(scheme_->verify_tease(com, t2));
}

TEST_P(QtmcTest, SoftCommitCannotBeHardOpenedNaively) {
  const auto [com, dec] = scheme_->soft_commit();
  const QtmcTease t = scheme_->tease_soft(dec, 0, msg16(3), system_random());
  // Present the tease as an opening using the soft r1 — must fail the
  // C1 = h^{r1} check (C1 is a power of g, not of h).
  QtmcOpening cheat{0, t.message, t.tau, t.lambda, dec.r1};
  EXPECT_FALSE(scheme_->verify_open(com, cheat));
}

TEST_P(QtmcTest, HardAndSoftCommitmentsLookAlike) {
  const auto [hcom, hdec] = scheme_->hard_commit(make_messages(q_));
  const auto [scom, sdec] = scheme_->soft_commit();
  EXPECT_EQ(hcom.serialize(keys_.pk.n).size(),
            scom.serialize(keys_.pk.n).size());
}

TEST_P(QtmcTest, HardAndSoftTeasesLookAlike) {
  const auto [hcom, hdec] = scheme_->hard_commit(make_messages(q_));
  const auto [scom, sdec] = scheme_->soft_commit();
  const QtmcTease th = scheme_->tease_hard(hdec, 0);
  const QtmcTease ts = scheme_->tease_soft(
      sdec, 0, hdec.message(0), system_random());
  EXPECT_EQ(th.serialize(keys_.pk.n).size(), ts.serialize(keys_.pk.n).size());
}

TEST_P(QtmcTest, CommitmentsAreRandomized) {
  const auto msgs = make_messages(q_);
  const auto [com1, dec1] = scheme_->hard_commit(msgs);
  const auto [com2, dec2] = scheme_->hard_commit(msgs);
  EXPECT_NE(com1, com2);
}

TEST_P(QtmcTest, SerializationRoundTrips) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  const QtmcCommitment com2 =
      QtmcCommitment::deserialize(keys_.pk.n, com.serialize(keys_.pk.n));
  EXPECT_EQ(com, com2);

  const QtmcOpening op = scheme_->hard_open(dec, 0);
  const QtmcOpening op2 =
      QtmcOpening::deserialize(keys_.pk.n, op.serialize(keys_.pk.n));
  EXPECT_TRUE(scheme_->verify_open(com2, op2));

  const QtmcTease t = scheme_->tease_hard(dec, 0);
  const QtmcTease t2 =
      QtmcTease::deserialize(keys_.pk.n, t.serialize(keys_.pk.n));
  EXPECT_TRUE(scheme_->verify_tease(com2, t2));
}

TEST_P(QtmcTest, PublicKeyRoundTripYieldsWorkingScheme) {
  const QtmcPublicKey pk2 = QtmcPublicKey::deserialize(keys_.pk.serialize());
  QtmcScheme scheme2(pk2);
  // A commitment made under the original scheme verifies under the
  // re-derived one (primes and S_i tables are deterministic).
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  const QtmcOpening op = scheme_->hard_open(dec, 0);
  EXPECT_TRUE(scheme2.verify_open(com, op));
}

TEST_P(QtmcTest, TrapdoorEquivocation) {
  const auto [com, dec] = scheme_->fake_commit(keys_.trapdoor);
  const QtmcOpening op1 = scheme_->fake_open(dec, keys_.trapdoor, 0, msg16(1));
  const QtmcOpening op2 = scheme_->fake_open(dec, keys_.trapdoor, 0, msg16(2));
  EXPECT_TRUE(scheme_->verify_open(com, op1));
  EXPECT_TRUE(scheme_->verify_open(com, op2));
  // Both openings of the one commitment also fold clean together.
  BatchVerifier bv(*scheme_);
  bv.begin_unit();
  EXPECT_TRUE(bv.add_open(com, op1));
  EXPECT_TRUE(bv.add_open(com, op2));
  EXPECT_TRUE(bv.verify().all_ok);
  if (q_ > 1) {
    const QtmcOpening op3 =
        scheme_->fake_open(dec, keys_.trapdoor, q_ - 1, msg16(3));
    EXPECT_TRUE(scheme_->verify_open(com, op3));
  }
}

TEST_P(QtmcTest, OpeningBitFlipFuzz) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  const QtmcOpening op = scheme_->hard_open(dec, 0);
  const Bytes ser = op.serialize(keys_.pk.n);
  ASSERT_TRUE(scheme_->verify_open(com, op));
  for (std::size_t i = 0; i < ser.size(); ++i) {
    Bytes mutated = ser;
    mutated[i] ^= 0x01;
    try {
      const QtmcOpening bad = QtmcOpening::deserialize(keys_.pk.n, mutated);
      EXPECT_FALSE(scheme_->verify_open(com, bad)) << "byte " << i;
    } catch (const Error&) {
      // rejected at parse time: fine
    }
  }
}

// Reference values straight from the scheme's definition (Λ, C0 and the
// tease Λ as one power of g each), with none of the prover's constants or
// tables: the yardstick for the fixed-base prover's algebra — and, through
// textbook_open, for the verifier's equations.
class Reference {
 public:
  explicit Reference(const QtmcPublicKey& pk)
      : pk_(pk), e_(derive_primes(pk.prime_seed, pk.q, kPrimeBits)) {
    for (const Bignum& e : e_) prod_ *= e;
  }

  Bignum p_i(std::uint32_t i) const { return prod_.divided_by(e_[i]); }

  /// g^x for a signed x.
  Bignum pow_g(const Bignum& x) const {
    if (!x.is_negative()) return Bignum::mod_exp(pk_.g, x, pk_.n);
    return Bignum::mod_inverse(Bignum::mod_exp(pk_.g, x.negated(), pk_.n),
                               pk_.n);
  }

  /// g^{x / e_pos}, asserting exact divisibility.
  Bignum pow_g_over(const Bignum& x, std::uint32_t pos) const {
    Bignum rem;
    const Bignum k = x.divided_by(e_[pos], &rem);
    EXPECT_TRUE(rem.is_zero()) << "exponent not divisible by e_" << pos;
    return pow_g(k);
  }

  /// Λ_pos = g^{(z·P + Σ_{j≠pos} m_j·P_j)/e_pos}.
  Bignum lambda(const QtmcHardDecommit& dec, std::uint32_t pos) const {
    Bignum x = dec.z * prod_;
    for (std::uint32_t j = 0; j < pk_.q; ++j) {
      if (j != pos) x += message_to_scalar(dec.message(j)) * p_i(j);
    }
    return pow_g_over(x, pos);
  }

  /// C0 = h̃^z · ∏ S_i^{m_i} · C1^{r0}.
  Bignum c0(const QtmcHardDecommit& dec, const Bignum& c1) const {
    Bignum x = dec.z * prod_;
    for (std::uint32_t i = 0; i < pk_.q; ++i) {
      x += message_to_scalar(dec.message(i)) * p_i(i);
    }
    return Bignum::mod_mul(pow_g(x), Bignum::mod_exp(c1, dec.r0, pk_.n),
                           pk_.n);
  }

  /// A soft tease's Λ = g^{(r0 − τ·r1 − m·P_pos)/e_pos}.
  Bignum tease_lambda(const QtmcSoftDecommit& dec, const QtmcTease& t) const {
    const Bignum x = dec.r0 - t.tau * dec.r1 -
                     message_to_scalar(t.message) * p_i(t.pos);
    return pow_g_over(x, t.pos);
  }

  /// Λ^{e_pos} · S_pos^m · C1^τ with S_pos = g^{P_pos}: the left side of
  /// the scheme's main equation.
  Bignum main_lhs(const Bignum& c1, std::uint32_t pos, BytesView msg,
                  const Bignum& tau, const Bignum& lambda) const {
    Bignum acc = Bignum::mod_exp(lambda, e_[pos], pk_.n);
    acc = Bignum::mod_mul(acc, pow_g(p_i(pos) * message_to_scalar(msg)),
                          pk_.n);
    return Bignum::mod_mul(acc, Bignum::mod_exp(c1, tau, pk_.n), pk_.n);
  }

  /// min(x, N−x): x's representative in Z_N*/{±1}.
  Bignum canonical(const Bignum& x) const {
    const Bignum y = x.mod(pk_.n);
    const Bignum flipped = pk_.n - y;
    return flipped < y ? flipped : y;
  }

  /// The textbook hard-opening check: position and message in range, r1
  /// and τ non-negative within the 1024-bit structural bound, C0, C1 and
  /// Λ canonical in Z_N*/{±1} and coprime to N, then h^{r1} == C1 and
  /// Λ^{e_pos}·S_pos^m·C1^τ == C0, both compared in Z_N*/{±1}.
  bool textbook_open(const QtmcCommitment& com, const QtmcOpening& op) const {
    constexpr int kExponentBound = 1024;
    if (op.pos >= pk_.q || op.message.size() != kMessageBytes) return false;
    for (const Bignum* x : {&op.r1, &op.tau}) {
      if (x->is_negative() || x->bits() > kExponentBound) return false;
    }
    for (const Bignum* x : {&com.c0, &com.c1, &op.lambda}) {
      if (x->is_zero() || x->is_negative() || canonical(*x) != *x ||
          !Bignum::gcd(*x, pk_.n).is_one()) {
        return false;
      }
    }
    return canonical(Bignum::mod_exp(pk_.h, op.r1, pk_.n)) == com.c1 &&
           canonical(main_lhs(com.c1, op.pos, op.message, op.tau,
                              op.lambda)) == com.c0;
  }

 private:
  QtmcPublicKey pk_;
  std::vector<Bignum> e_;
  Bignum prod_{1};
};

// The message layouts the prover's m* choices distinguish.
std::vector<std::pair<std::string, std::vector<Bytes>>> layouts(
    std::uint32_t q) {
  const Bytes backing = msg16(500);
  std::vector<Bytes> trie(q, backing);
  trie[q / 2] = msg16(501);
  std::vector<Bytes> two(q, backing);
  two[0] = msg16(502);
  two[q - 1] = msg16(503);  // the same position as two[0] at q = 1
  return {{"trie", trie},
          {"two_children", two},
          {"distinct", make_messages(q)},
          {"equal", std::vector<Bytes>(q, msg16(504))},
          {"null", std::vector<Bytes>(q, null_message())}};
}

// Checks every prover output of `scheme` on every layout against the
// reference: C0 and C1 of a DRBG commit, Λ of every hard opening and hard
// tease, and Λ of a soft tease to each layout message.
void expect_matches_reference(const QtmcScheme& scheme, const Reference& ref) {
  const std::uint32_t q = scheme.arity();
  const Bignum& n = scheme.public_key().n;
  const auto [scom, sdec] = scheme.soft_commit();
  for (const auto& [name, msgs] : layouts(q)) {
    SCOPED_TRACE(name);
    DrbgRandomSource rng(bytes_of("qtmc-reference-" + name));
    const auto [com, dec] = scheme.hard_commit(msgs, rng);
    EXPECT_EQ(com.c1, scheme.canonical(
                          Bignum::mod_exp(scheme.public_key().h, dec.r1, n)));
    EXPECT_EQ(com.c0, scheme.canonical(ref.c0(dec, com.c1)));
    for (std::uint32_t i = 0; i < q; ++i) {
      SCOPED_TRACE("pos " + std::to_string(i));
      const Bignum expected = scheme.canonical(ref.lambda(dec, i));
      const QtmcOpening op = scheme.hard_open(dec, i);
      EXPECT_EQ(op.lambda, expected);
      EXPECT_TRUE(scheme.verify_open(com, op));
      const QtmcTease th = scheme.tease_hard(dec, i);
      EXPECT_EQ(th.lambda, expected);
      EXPECT_TRUE(scheme.verify_tease(com, th));
      const QtmcTease ts = scheme.tease_soft(sdec, i, msgs[i], system_random());
      EXPECT_EQ(ts.lambda, scheme.canonical(ref.tease_lambda(sdec, ts)));
      EXPECT_TRUE(scheme.verify_tease(scom, ts));
    }
  }
}

TEST_P(QtmcTest, ProverMatchesReferenceWithoutTables) {
  expect_matches_reference(*scheme_, Reference(keys_.pk));
}

TEST_P(QtmcTest, ProverMatchesReferenceWithTables) {
  scheme_->precompute_fixed_bases(/*position_bases=*/true);
  ASSERT_NE(scheme_->fixed_base_tables_id(), nullptr);
  expect_matches_reference(*scheme_, Reference(keys_.pk));
}

// hard_commit_draft + hard_commit_bind against the one-shot commitment and
// the textbook C0 = h̃^z·∏ S_i^{m_i}·C1^{r0}, on the layouts a ZK-EDB commit
// produces and the m* choices they force: whichever positions are pending,
// the commitment and decommitment equal hard_commit's under the same
// randomness.
void expect_draft_bind_matches_textbook(const QtmcScheme& scheme,
                                        const Reference& ref) {
  const std::uint32_t q = scheme.arity();
  const Bignum& n = scheme.public_key().n;
  const Bytes backing = msg16(600);
  std::vector<Bytes> trie(q, backing);
  trie[q / 2] = msg16(601);
  std::vector<Bytes> tie(q, msg16(602));
  for (std::uint32_t i = 0; i < q / 2; ++i) tie[i] = msg16(603);
  std::vector<Bytes> one_absent = make_messages(q);
  one_absent[0] = backing;
  std::vector<std::uint32_t> all;
  std::vector<std::uint32_t> evens;
  std::vector<std::uint32_t> all_but_first;
  for (std::uint32_t i = 0; i < q; ++i) {
    all.push_back(i);
    if (i % 2 == 0) evens.push_back(i);
    if (i > 0) all_but_first.push_back(i);
  }
  struct Shape {
    std::string name;
    std::vector<Bytes> messages;
    std::vector<std::uint32_t> pending;
  };
  const std::vector<Shape> shapes{
      {"trie", trie, {q / 2}},
      {"trie, nothing pending", trie, {}},
      {"trie, all pending", trie, all},
      {"distinct, all pending", make_messages(q), all},
      {"distinct, evens pending", make_messages(q), evens},
      {"null", std::vector<Bytes>(q, null_message()), {0}},
      {"mode tie", tie, {}},
      {"mode tie, last pending", tie, {q - 1}},
      {"one absent child", one_absent, all_but_first}};
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const Bytes seed = bytes_of("qtmc-draft-" + shape.name);
    DrbgRandomSource one_shot_rng(seed);
    const auto [com, dec] = scheme.hard_commit(shape.messages, one_shot_rng);
    EXPECT_EQ(com.c0, scheme.canonical(ref.c0(dec, com.c1)));

    // Pending entries are ignored by the draft: clear them to prove it.
    std::vector<Bytes> known = shape.messages;
    std::vector<Bytes> late;
    for (const std::uint32_t pos : shape.pending) {
      late.push_back(shape.messages[pos]);
      known[pos].clear();
    }
    DrbgRandomSource rng(seed);
    const auto [bound, bound_dec] = scheme.hard_commit_bind(
        scheme.hard_commit_draft(known, shape.pending, rng), late);
    EXPECT_EQ(bound.c1, scheme.canonical(Bignum::mod_exp(
                            scheme.public_key().h, bound_dec.r1, n)));
    EXPECT_EQ(bound.c0, scheme.canonical(ref.c0(bound_dec, bound.c1)));
    EXPECT_EQ(bound, com);
    EXPECT_EQ(bound_dec.messages, dec.messages);
    EXPECT_EQ(bound_dec.z, dec.z);
    EXPECT_EQ(bound_dec.r0, dec.r0);
    EXPECT_EQ(bound_dec.r1, dec.r1);
    for (std::uint32_t i = 0; i < q; ++i) {
      const BytesView m = bound_dec.message(i);
      EXPECT_EQ(Bytes(m.begin(), m.end()), shape.messages[i]) << "pos " << i;
    }
  }
}

TEST_P(QtmcTest, DraftThenBindMatchesTextbookWithoutTables) {
  expect_draft_bind_matches_textbook(*scheme_, Reference(keys_.pk));
}

TEST_P(QtmcTest, DraftThenBindMatchesTextbookWithTables) {
  scheme_->precompute_fixed_bases(/*position_bases=*/true);
  ASSERT_NE(scheme_->fixed_base_tables_id(), nullptr);
  expect_draft_bind_matches_textbook(*scheme_, Reference(keys_.pk));
}

// C0 and hard_c1(r1) are the whole commitment a decommitment opens, bit
// for bit, for distinct vectors, trie-shaped ones (one real child, the
// shared backing digest elsewhere), a short vector and the all-null one,
// with and without the fixed-base tables: a ZK-EDB prover stores C0 only
// and rebuilds C1 for its proofs.
TEST_P(QtmcTest, HardC1RebuildsTheCommitmentFromC0) {
  std::vector<std::vector<Bytes>> shapes = {make_messages(q_),
                                            make_messages(q_ / 2), {}};
  std::vector<Bytes> trie(q_, msg16(7));
  trie[q_ - 1] = msg16(8);
  shapes.push_back(trie);
  for (const bool tables : {false, true}) {
    if (tables) scheme_->precompute_fixed_bases(/*position_bases=*/true);
    for (std::size_t k = 0; k < shapes.size(); ++k) {
      const auto [com, dec] = scheme_->hard_commit(shapes[k]);
      EXPECT_EQ((QtmcCommitment{com.c0, scheme_->hard_c1(dec.r1)}), com)
          << "shape " << k << (tables ? " with tables" : "");
    }
  }
}

TEST_P(QtmcTest, DraftAndBindRejectMalformedPositions) {
  const auto msgs = make_messages(q_);
  DrbgRandomSource rng(bytes_of("qtmc-draft-malformed"));
  EXPECT_THROW(scheme_->hard_commit_draft(msgs, {q_}, rng), CryptoError);
  EXPECT_THROW(scheme_->hard_commit_draft(msgs, {0, 0}, rng), CryptoError);
  const QtmcCommitDraft draft = scheme_->hard_commit_draft(msgs, {0}, rng);
  EXPECT_THROW(scheme_->hard_commit_bind(draft, {}), CryptoError);
  EXPECT_THROW(scheme_->hard_commit_bind(draft, {msgs[0], msgs[0]}),
               CryptoError);
  EXPECT_THROW(scheme_->hard_commit_bind(draft, {Bytes(3, 0)}), CryptoError);
}

// One opening checked by verify_open and by a one-unit fold.
bool fold_one(const QtmcScheme& scheme, const QtmcCommitment& com,
              const QtmcOpening& op) {
  BatchVerifier bv(scheme);
  bv.begin_unit();
  bv.add_open(com, op);
  return bv.verify().all_ok;
}

// The verifier emits E2' (Λ^e·S^m·h^{r1·τ} == C0) in place of the scheme's
// Λ^e·S^m·C1^τ == C0. Against the textbook pair computed here, every
// opening that probes one factor must draw the same verdict from
// verify_open and from a one-unit fold.
void expect_matches_textbook(const QtmcScheme& scheme, const Reference& ref,
                             const Bignum& trapdoor) {
  const std::uint32_t q = scheme.arity();
  const Bignum& n = scheme.public_key().n;
  const auto [com, dec] = scheme.hard_commit(make_messages(q));
  const auto [other, other_dec] = scheme.hard_commit(make_messages(q));
  const auto [fake, fake_dec] = scheme.fake_commit(trapdoor);
  struct Case {
    std::string name;
    QtmcCommitment com;
    QtmcOpening op;
    bool valid;
  };
  std::vector<Case> cases;
  for (const std::uint32_t pos : {0u, q - 1}) {
    const QtmcOpening op = scheme.hard_open(dec, pos);
    const std::string at = " pos " + std::to_string(pos);
    cases.push_back({"honest" + at, com, op, true});
    QtmcOpening tweaked = op;
    tweaked.tau = op.tau + Bignum(1);
    cases.push_back({"tau+1" + at, com, tweaked, false});
    tweaked.tau = op.tau - Bignum(1);
    cases.push_back({"tau-1" + at, com, tweaked, false});
    tweaked = op;
    tweaked.r1 = op.r1 + Bignum(1);
    cases.push_back({"r1+1" + at, com, tweaked, false});
    tweaked.r1 = op.r1 - Bignum(1);
    cases.push_back({"r1-1" + at, com, tweaked, false});
    QtmcCommitment swapped = com;
    swapped.c1 = other.c1;
    cases.push_back({"C1 swapped" + at, swapped, op, false});
    tweaked = op;
    tweaked.lambda = n - op.lambda;
    cases.push_back({"lambda sign-flipped" + at, com, tweaked, false});
    cases.push_back({"trapdoor" + at, fake,
                     scheme.fake_open(fake_dec, trapdoor, pos, msg16(9)),
                     true});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const bool textbook = ref.textbook_open(c.com, c.op);
    EXPECT_EQ(textbook, c.valid);
    EXPECT_EQ(scheme.verify_open(c.com, c.op), textbook);
    EXPECT_EQ(fold_one(scheme, c.com, c.op), textbook);
  }
}

TEST_P(QtmcTest, VerifierMatchesTextbookPairWithoutTables) {
  expect_matches_textbook(*scheme_, Reference(keys_.pk), keys_.trapdoor);
}

TEST_P(QtmcTest, VerifierMatchesTextbookPairWithTables) {
  scheme_->precompute_fixed_bases(/*position_bases=*/true);
  ASSERT_NE(scheme_->fixed_base_tables_id(), nullptr);
  expect_matches_textbook(*scheme_, Reference(keys_.pk), keys_.trapdoor);
}

// r1 and τ at the 1024-bit structural bound: r1·τ is past the 1024 bits
// h's fixed-base table covers, so E2''s h power — in verify_open and in
// the fold — takes ModExpContext's plain-power fallback, and must still
// reach the textbook verdict. One bit wider is a structural rejection.
TEST_P(QtmcTest, ExponentsAtTheBoundFallBackToPlainPowers) {
  scheme_->precompute_fixed_bases(/*position_bases=*/true);
  const Reference ref(keys_.pk);
  const Bignum& n = keys_.pk.n;
  QtmcOpening op;
  op.pos = q_ - 1;
  op.message = msg16(7);
  op.r1 = Bignum::rand_bits(1024);
  op.tau = Bignum::rand_bits(1024);
  op.lambda = ref.canonical(
      Bignum::mod_exp(keys_.pk.g, Bignum::rand_bits(kTestRsaBits), n));
  QtmcCommitment com;
  com.c1 = ref.canonical(Bignum::mod_exp(keys_.pk.h, op.r1, n));
  com.c0 = ref.canonical(
      ref.main_lhs(com.c1, op.pos, op.message, op.tau, op.lambda));
  ASSERT_GT((op.r1 * op.tau).bits(), 1024);

  ASSERT_TRUE(ref.textbook_open(com, op));
  EXPECT_TRUE(scheme_->verify_open(com, op));
  EXPECT_TRUE(fold_one(*scheme_, com, op));

  QtmcOpening off = op;
  off.tau = op.tau - Bignum(1);
  ASSERT_FALSE(ref.textbook_open(com, off));
  EXPECT_FALSE(scheme_->verify_open(com, off));
  EXPECT_FALSE(fold_one(*scheme_, com, off));

  QtmcOpening wide = op;
  wide.r1 = op.r1 + op.r1;  // 1025 bits
  ASSERT_FALSE(ref.textbook_open(com, wide));
  EXPECT_FALSE(scheme_->verify_open(com, wide));
  EXPECT_FALSE(fold_one(*scheme_, com, wide));
}

TEST_P(QtmcTest, ProvingRacesTheFirstTableBuild) {
  // Provers on several threads while another thread builds the tables:
  // each power reads either no table or a complete one, so every result
  // equals the reference whichever it saw.
  const Reference ref(keys_.pk);
  const Bytes seed = bytes_of("qtmc-race");
  const std::vector<Bytes> msgs = layouts(q_).front().second;  // trie
  DrbgRandomSource rng(seed);
  const auto [com, dec] = scheme_->hard_commit(msgs, rng);
  const Bignum c0 = scheme_->canonical(ref.c0(dec, com.c1));
  std::vector<Bignum> lambdas;
  for (std::uint32_t i = 0; i < q_; ++i) {
    lambdas.push_back(scheme_->canonical(ref.lambda(dec, i)));
  }
  const auto [scom, sdec] = scheme_->soft_commit();

  constexpr int kProvers = 3;
  constexpr int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { scheme_->precompute_fixed_bases(/*position_bases=*/true); });
  for (int t = 0; t < kProvers; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto pos = static_cast<std::uint32_t>((t + r) % q_);
        if (scheme_->hard_open(dec, pos).lambda != lambdas[pos]) ++mismatches;
        const QtmcTease ts = scheme_->tease_soft(
            sdec, pos, msgs[pos], system_random());
        if (ts.lambda != scheme_->canonical(ref.tease_lambda(sdec, ts))) {
          ++mismatches;
        }
        DrbgRandomSource replay(seed);
        if (scheme_->hard_commit(msgs, replay).first.c0 != c0) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Arity, QtmcTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(QtmcKeygenTest, RejectsBadArity) {
  EXPECT_THROW(QtmcScheme::keygen(0, kTestRsaBits), Error);
  EXPECT_THROW(QtmcScheme::keygen(5000, kTestRsaBits), Error);
}

TEST(QtmcFixedBaseRegistryTest, AdoptersKeepTheSharedSetAlive) {
  // The registry only holds weak references; each instance that adopted a
  // set owns it. Once the first adopter is gone, the set must still be
  // the one its remaining adopter uses — and a new instance of the same
  // CRS must find it rather than build another.
  const QtmcKeyPair keys = QtmcScheme::keygen(2, kTestRsaBits);
  auto first = std::make_unique<QtmcScheme>(keys.pk);
  first->precompute_fixed_bases(/*position_bases=*/true);
  QtmcScheme second(keys.pk);
  second.precompute_fixed_bases(/*position_bases=*/true);
  const void* id = second.fixed_base_tables_id();
  ASSERT_EQ(first->fixed_base_tables_id(), id);
  first.reset();
  QtmcScheme third(keys.pk);
  third.precompute_fixed_bases(/*position_bases=*/true);
  EXPECT_EQ(third.fixed_base_tables_id(), id);
  const auto [com, dec] = third.hard_commit(make_messages(2));
  EXPECT_TRUE(second.verify_open(com, second.hard_open(dec, 1)));
}

TEST(QtmcKeygenTest, TooManyMessagesRejected) {
  const QtmcKeyPair keys = QtmcScheme::keygen(2, kTestRsaBits);
  QtmcScheme scheme(keys.pk);
  EXPECT_THROW(scheme.hard_commit(make_messages(3)), Error);
}

}  // namespace
}  // namespace desword::mercurial
