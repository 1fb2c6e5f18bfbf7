#include <gtest/gtest.h>

#include "common/error.h"
#include "common/serial.h"
#include "crypto/bignum.h"
#include "crypto/group.h"
#include "crypto/hash.h"
#include "crypto/primes.h"
#include "crypto/randsource.h"
#include "crypto/rsa.h"
#include "crypto/schnorr.h"

namespace desword {
namespace {

TEST(BignumTest, BasicArithmetic) {
  const Bignum a(1000);
  const Bignum b(37);
  EXPECT_EQ((a + b).to_u64(), 1037u);
  EXPECT_EQ((a - b).to_u64(), 963u);
  EXPECT_EQ((a * b).to_u64(), 37000u);
  EXPECT_EQ(a.divided_by(b).to_u64(), 27u);
  Bignum rem;
  a.divided_by(b, &rem);
  EXPECT_EQ(rem.to_u64(), 1u);
  EXPECT_FALSE(a.divisible_by(b));
  EXPECT_TRUE(Bignum(999).divisible_by(Bignum(37)));
}

TEST(BignumTest, NegativeValues) {
  const Bignum a(5);
  const Bignum b(9);
  const Bignum d = a - b;  // -4
  EXPECT_TRUE(d.is_negative());
  EXPECT_EQ(d.negated().to_u64(), 4u);
  EXPECT_EQ(d.mod(Bignum(7)).to_u64(), 3u);  // canonical residue
  EXPECT_THROW(d.to_bytes(), CryptoError);
}

TEST(BignumTest, BytesRoundTrip) {
  const Bignum v = Bignum::from_dec("123456789012345678901234567890");
  EXPECT_EQ(Bignum::from_bytes(v.to_bytes()), v);
  const Bytes padded = v.to_bytes_padded(32);
  EXPECT_EQ(padded.size(), 32u);
  EXPECT_EQ(Bignum::from_bytes(padded), v);
  EXPECT_THROW(v.to_bytes_padded(4), CryptoError);
}

TEST(BignumTest, DecHexRoundTrip) {
  const Bignum v(9876543210ULL);
  EXPECT_EQ(Bignum::from_dec(v.to_dec()), v);
  EXPECT_EQ(Bignum::from_hex(v.to_hex()), v);
}

TEST(BignumTest, ModularOps) {
  const Bignum m(1009);  // prime
  const Bignum a(123);
  const Bignum e(456);
  const Bignum x = Bignum::mod_exp(a, e, m);
  EXPECT_LT(x, m);
  // Fermat: a^(m-1) = 1 mod m.
  EXPECT_TRUE(Bignum::mod_exp(a, Bignum(1008), m).is_one());
  const Bignum inv = Bignum::mod_inverse(a, m);
  EXPECT_TRUE(Bignum::mod_mul(a, inv, m).is_one());
  EXPECT_EQ(Bignum::gcd(Bignum(12), Bignum(18)).to_u64(), 6u);
}

TEST(BignumTest, ModInverseNonexistentThrows) {
  EXPECT_THROW(Bignum::mod_inverse(Bignum(6), Bignum(9)), CryptoError);
}

TEST(BignumTest, ModExpRejectsNegativeExponent) {
  EXPECT_THROW(
      Bignum::mod_exp(Bignum(2), Bignum(1) - Bignum(3), Bignum(11)),
      CryptoError);
}

TEST(BignumTest, Comparisons) {
  EXPECT_LT(Bignum(3), Bignum(4));
  EXPECT_GT(Bignum(9), Bignum(4));
  EXPECT_EQ(Bignum(7), Bignum(7));
}

TEST(BignumTest, RandRangeBounds) {
  const Bignum bound(1000);
  for (int i = 0; i < 50; ++i) {
    const Bignum r = Bignum::rand_range(bound);
    EXPECT_LT(r, bound);
    EXPECT_FALSE(r.is_negative());
  }
  EXPECT_THROW(Bignum::rand_range(Bignum()), CryptoError);
}

TEST(BignumTest, RandBitsExactWidth) {
  for (int bits : {8, 64, 136, 256}) {
    EXPECT_EQ(Bignum::rand_bits(bits).bits(), bits);
  }
}

TEST(BignumTest, PrimeGeneration) {
  const Bignum p = Bignum::generate_prime(128);
  EXPECT_EQ(p.bits(), 128);
  EXPECT_TRUE(p.is_prime());
  EXPECT_FALSE((p * Bignum(3)).is_prime());
}

TEST(HashTest, Sha256KnownVector) {
  // SHA-256("abc")
  EXPECT_EQ(to_hex(sha256(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(HashTest, TaggedHashDomainSeparation) {
  const Bytes a = hash_tagged("tag-a", {bytes_of("msg")});
  const Bytes b = hash_tagged("tag-b", {bytes_of("msg")});
  EXPECT_NE(a, b);
  // Structural separation: ("ab","c") != ("a","bc").
  const Bytes c = hash_tagged("t", {bytes_of("ab"), bytes_of("c")});
  const Bytes d = hash_tagged("t", {bytes_of("a"), bytes_of("bc")});
  EXPECT_NE(c, d);
}

TEST(HashTest, TaggedHasherMatchesOneShot) {
  TaggedHasher h("t");
  h.add(bytes_of("x")).add(bytes_of("y"));
  EXPECT_EQ(h.digest(), hash_tagged("t", {bytes_of("x"), bytes_of("y")}));
}

// The transcript framing: the tag, then each part, each behind its LEB128
// length (BinaryWriter::bytes) — one-, two- and three-byte lengths and an
// empty part — whether the parts go in one add() at a time or framed in
// one buffer through add_framed().
TEST(HashTest, TaggedHasherFramesPartsAsBinaryWriterBytes) {
  const std::vector<Bytes> parts = {Bytes(), bytes_of("x"),
                                    Bytes(200, 0xab), Bytes(20000, 0x5c)};
  BinaryWriter all;
  all.bytes(bytes_of("tag"));
  BinaryWriter framed;
  TaggedHasher one_by_one("tag");
  for (const Bytes& p : parts) {
    all.bytes(p);
    framed.bytes(p);
    one_by_one.add(p);
  }
  const Bytes expected = sha256(all.view());
  EXPECT_EQ(one_by_one.digest(), expected);
  TaggedHasher at_once("tag");
  at_once.add_framed(framed.view());
  EXPECT_EQ(at_once.digest(), expected);
}

TEST(HashTest, DrbgStreamDoesNotDependOnReadSizes) {
  DrbgRandomSource whole(bytes_of("seed"));
  DrbgRandomSource pieces(bytes_of("seed"));
  const Bytes stream = whole.bytes(16 * 7);
  Bytes read;
  for (int i = 0; i < 7; ++i) append(read, pieces.bytes(16));
  EXPECT_EQ(read, stream);
}

TEST(BignumTest, ToBytesIntoReusedBuffer) {
  Bytes out(300, 0xff);
  for (const Bignum& x : {Bignum::from_hex("0102030405060708090a0b0c0d0e0f10"),
                          Bignum(std::uint64_t{7}), Bignum()}) {
    x.to_bytes(out);
    EXPECT_EQ(out, x.to_bytes());
  }
  EXPECT_THROW(Bignum(std::uint64_t{3}).negated().to_bytes(out), CryptoError);
}

TEST(HashTest, HashTo128Width) {
  EXPECT_EQ(hash_to_128("t", {bytes_of("m")}).size(), 16u);
}

TEST(PrimesTest, HashToPrimeDeterministicAndPrime) {
  const Bytes seed = bytes_of("seed");
  const Bignum p1 = hash_to_prime(seed, 0, 136);
  const Bignum p2 = hash_to_prime(seed, 0, 136);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1.bits(), 136);
  EXPECT_TRUE(p1.is_prime());
  EXPECT_NE(hash_to_prime(seed, 1, 136), p1);
}

TEST(PrimesTest, DerivePrimesDistinct) {
  const auto primes = derive_primes(bytes_of("s2"), 16, 136);
  ASSERT_EQ(primes.size(), 16u);
  for (std::size_t i = 0; i < primes.size(); ++i) {
    EXPECT_TRUE(primes[i].is_prime());
    EXPECT_EQ(primes[i].bits(), 136);
    for (std::size_t j = i + 1; j < primes.size(); ++j) {
      EXPECT_NE(primes[i], primes[j]);
    }
  }
}

TEST(RsaTest, ModulusGeneration) {
  const RsaModulus m = generate_rsa_modulus(512, /*keep_factors=*/true);
  EXPECT_EQ(m.n.bits(), 512);
  ASSERT_TRUE(m.p.has_value());
  ASSERT_TRUE(m.q.has_value());
  EXPECT_EQ(*m.p * *m.q, m.n);
  EXPECT_TRUE(m.p->is_prime());
  EXPECT_TRUE(m.q->is_prime());
}

TEST(RsaTest, ModulusFactorsDiscardedByDefault) {
  const RsaModulus m = generate_rsa_modulus(512);
  EXPECT_FALSE(m.p.has_value());
  EXPECT_FALSE(m.q.has_value());
}

TEST(RsaTest, QuadraticResidueIsUnit) {
  const RsaModulus m = generate_rsa_modulus(512);
  const Bignum r = random_quadratic_residue(m.n);
  EXPECT_FALSE(r.is_zero());
  EXPECT_LT(r, m.n);
  EXPECT_TRUE(Bignum::gcd(r, m.n).is_one());
}

// ---------------------------------------------------------------------------
// Group backends (shared conformance suite).
// ---------------------------------------------------------------------------

class GroupConformance : public ::testing::TestWithParam<const char*> {
 protected:
  GroupPtr make() const {
    const std::string which = GetParam();
    if (which == "p256") return make_p256_group();
    return make_modp_group(ModpGroupId::kTest512);
  }
};

TEST_P(GroupConformance, GeneratorValidAndOrderPrime) {
  const GroupPtr g = make();
  EXPECT_TRUE(g->is_valid_element(g->generator()));
  EXPECT_TRUE(g->order().is_prime());
  EXPECT_EQ(g->generator().size(), g->element_size());
}

TEST_P(GroupConformance, ExpHomomorphism) {
  const GroupPtr g = make();
  const Bignum a = g->random_scalar();
  const Bignum b = g->random_scalar();
  // g^a * g^b == g^(a+b)
  const Bytes lhs = g->mul(g->exp_g(a), g->exp_g(b));
  const Bytes rhs = g->exp_g((a + b).mod(g->order()));
  EXPECT_EQ(lhs, rhs);
}

TEST_P(GroupConformance, InverseCancels) {
  const GroupPtr g = make();
  const Bignum a = g->random_scalar();
  const Bytes x = g->exp_g(a);
  // (x * x) * x^{-1} == x; ordered to avoid materializing the identity,
  // which has no fixed-width encoding on the EC backend.
  EXPECT_EQ(g->mul(g->mul(x, x), g->inverse(x)), x);
}

TEST_P(GroupConformance, OrderAnnihilates) {
  const GroupPtr g = make();
  const Bignum a = g->random_scalar();
  const Bytes x = g->exp_g(a);
  // x^(order+1) == x
  const Bytes y = g->exp(x, g->order() + Bignum(1));
  EXPECT_EQ(y, x);
}

TEST_P(GroupConformance, HashToElementValidAndDeterministic) {
  const GroupPtr g = make();
  const Bytes e1 = g->hash_to_element(bytes_of("seed-1"));
  const Bytes e2 = g->hash_to_element(bytes_of("seed-1"));
  const Bytes e3 = g->hash_to_element(bytes_of("seed-2"));
  EXPECT_EQ(e1, e2);
  EXPECT_NE(e1, e3);
  EXPECT_TRUE(g->is_valid_element(e1));
  EXPECT_TRUE(g->is_valid_element(e3));
}

TEST_P(GroupConformance, RejectsGarbageElements) {
  const GroupPtr g = make();
  EXPECT_FALSE(g->is_valid_element(Bytes{}));
  EXPECT_FALSE(g->is_valid_element(Bytes(g->element_size() + 1, 0x02)));
  Bytes zeros(g->element_size(), 0x00);
  EXPECT_FALSE(g->is_valid_element(zeros));
}

TEST_P(GroupConformance, ExpReducesScalarModOrder) {
  const GroupPtr g = make();
  const Bignum a = g->random_scalar();
  EXPECT_EQ(g->exp_g(a), g->exp_g(a + g->order()));
}

// multi_exp against the product of per-term exp calls: the generator
// twice (its terms merge on the P-256 backend), a scalar ≥ order, a zero
// scalar, and the term mixes each backend evaluates differently —
// generator only, points only, one point, both.
TEST_P(GroupConformance, MultiExpMatchesProductOfExps) {
  const GroupPtr g = make();
  const Bytes gen = g->generator();
  const Bytes x = g->exp_g(g->random_scalar());
  const Bytes y = g->hash_to_element(bytes_of("multi-exp-y"));
  const Bytes z = g->hash_to_element(bytes_of("multi-exp-z"));
  const Bignum a = g->random_scalar();
  const Bignum b = g->random_scalar();
  const Bignum c = g->random_scalar();
  const Bignum d = g->random_scalar();
  const auto product = [&g](const std::vector<std::pair<Bytes, Bignum>>& t) {
    Bytes acc;
    for (const auto& [elem, scalar] : t) {
      if (scalar.mod(g->order()).is_zero()) continue;
      const Bytes f = g->exp(elem, scalar);
      acc = acc.empty() ? f : g->mul(acc, f);
    }
    return acc;
  };
  const std::vector<std::vector<std::pair<Bytes, Bignum>>> cases = {
      {{gen, a}, {x, b}, {gen, c}, {y, d + g->order()}, {z, Bignum()}},
      {{gen, a}, {gen, b}},
      {{x, a}, {y, b}, {z, c}},
      {{y, d + g->order() + g->order()}},
      {{gen, a}},
      {{z, Bignum()}, {x, c}, {gen, d}},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(g->multi_exp(cases[i]), product(cases[i])) << "case " << i;
  }
}

TEST(P256MultiExpTest, IdentityProductThrows) {
  const GroupPtr g = make_p256_group();
  const Bytes gen = g->generator();
  const Bytes x = g->exp_g(g->random_scalar());
  const Bignum a = g->random_scalar();
  // Every scalar zero (mod the order).
  EXPECT_THROW(g->multi_exp({{x, Bignum()}, {gen, g->order()}}), CryptoError);
  EXPECT_THROW(g->multi_exp({}), CryptoError);
  // Generator terms that cancel once merged.
  EXPECT_THROW(g->multi_exp({{gen, a}, {gen, g->order() - a}}), CryptoError);
  // Points that cancel: x^a · (x^{-1})^a, with and without a generator
  // term that cancels alongside.
  const Bytes x_inv = g->inverse(x);
  EXPECT_THROW(g->multi_exp({{x, a}, {x_inv, a}}), CryptoError);
  EXPECT_THROW(
      g->multi_exp({{gen, a}, {x, a}, {x_inv, a}, {gen, g->order() - a}}),
      CryptoError);
  // The generator cancelling a point: g^a · (g^a)^{-1}.
  EXPECT_THROW(g->multi_exp({{gen, a}, {g->inverse(g->exp_g(a)), Bignum(1)}}),
               CryptoError);
}

INSTANTIATE_TEST_SUITE_P(Backends, GroupConformance,
                         ::testing::Values("p256", "modp512"));

TEST(ModpGroupTest, Rfc3526PrimeIsSafePrime) {
  // Validates the hardcoded RFC 3526 group-14 modulus: p prime and
  // (p-1)/2 prime. This is the expensive check that justifies trusting
  // the constant at runtime.
  const GroupPtr g = make_modp_group(ModpGroupId::kRfc3526_2048);
  const Bignum q = g->order();
  EXPECT_EQ(q.bits(), 2047);
  EXPECT_TRUE(q.is_prime());
  const Bignum p = q * Bignum(2) + Bignum(1);
  EXPECT_TRUE(p.is_prime());
}

// ---------------------------------------------------------------------------
// Schnorr signatures.
// ---------------------------------------------------------------------------

class SchnorrTest : public GroupConformance {};

TEST_P(SchnorrTest, SignVerifyRoundTrip) {
  const GroupPtr g = make();
  const SchnorrKeyPair kp = schnorr_keygen(*g);
  const Bytes msg = bytes_of("trace data");
  const SchnorrSignature sig = schnorr_sign(*g, kp.secret, msg);
  EXPECT_TRUE(schnorr_verify(*g, kp.public_key, msg, sig));
}

TEST_P(SchnorrTest, RejectsWrongMessage) {
  const GroupPtr g = make();
  const SchnorrKeyPair kp = schnorr_keygen(*g);
  const SchnorrSignature sig = schnorr_sign(*g, kp.secret, bytes_of("a"));
  EXPECT_FALSE(schnorr_verify(*g, kp.public_key, bytes_of("b"), sig));
}

TEST_P(SchnorrTest, RejectsWrongKey) {
  const GroupPtr g = make();
  const SchnorrKeyPair kp1 = schnorr_keygen(*g);
  const SchnorrKeyPair kp2 = schnorr_keygen(*g);
  const Bytes msg = bytes_of("m");
  const SchnorrSignature sig = schnorr_sign(*g, kp1.secret, msg);
  EXPECT_FALSE(schnorr_verify(*g, kp2.public_key, msg, sig));
}

TEST_P(SchnorrTest, RejectsTamperedSignature) {
  const GroupPtr g = make();
  const SchnorrKeyPair kp = schnorr_keygen(*g);
  const Bytes msg = bytes_of("m");
  SchnorrSignature sig = schnorr_sign(*g, kp.secret, msg);
  sig.response = (sig.response + Bignum(1)).mod(g->order());
  EXPECT_FALSE(schnorr_verify(*g, kp.public_key, msg, sig));
}

TEST_P(SchnorrTest, SerializationRoundTrip) {
  const GroupPtr g = make();
  const SchnorrKeyPair kp = schnorr_keygen(*g);
  const Bytes msg = bytes_of("m");
  const SchnorrSignature sig = schnorr_sign(*g, kp.secret, msg);
  const SchnorrSignature sig2 =
      SchnorrSignature::deserialize(*g, sig.serialize(*g));
  EXPECT_TRUE(schnorr_verify(*g, kp.public_key, msg, sig2));
}

INSTANTIATE_TEST_SUITE_P(Backends, SchnorrTest,
                         ::testing::Values("p256", "modp512"));

}  // namespace
}  // namespace desword
