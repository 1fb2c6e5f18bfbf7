// Property-style sweeps over the arithmetic and commitment layers:
// algebraic laws on random inputs, equivalence of the Montgomery fast
// path with the reference implementation, and cross-CRS rejection.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/bignum.h"
#include "crypto/hash.h"
#include "crypto/modexp.h"
#include "crypto/primes.h"
#include "crypto/rsa.h"
#include "mercurial/qtmc.h"
#include "mercurial/tmc.h"

namespace desword {
namespace {

Bignum random_bn(int bits) { return Bignum::rand_bits(bits); }

TEST(BignumPropertyTest, RingLaws) {
  for (int i = 0; i < 25; ++i) {
    const Bignum a = random_bn(200);
    const Bignum b = random_bn(180);
    const Bignum c = random_bn(90);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    EXPECT_EQ((a - b) + b, a);
  }
}

TEST(BignumPropertyTest, DivisionInvariant) {
  for (int i = 0; i < 25; ++i) {
    const Bignum a = random_bn(300);
    const Bignum d = random_bn(120);
    Bignum r;
    const Bignum q = a.divided_by(d, &r);
    EXPECT_EQ(q * d + r, a);
    EXPECT_LT(r, d);
  }
}

TEST(BignumPropertyTest, ModularExponentLaws) {
  const Bignum m = Bignum::generate_prime(128);
  for (int i = 0; i < 10; ++i) {
    const Bignum g = random_bn(100).mod(m);
    const Bignum x = random_bn(64);
    const Bignum y = random_bn(64);
    // g^(x+y) == g^x * g^y (mod m)
    EXPECT_EQ(Bignum::mod_exp(g, x + y, m),
              Bignum::mod_mul(Bignum::mod_exp(g, x, m),
                              Bignum::mod_exp(g, y, m), m));
    // (g^x)^y == g^(x*y)
    EXPECT_EQ(Bignum::mod_exp(Bignum::mod_exp(g, x, m), y, m),
              Bignum::mod_exp(g, x * y, m));
  }
}

TEST(BignumPropertyTest, GcdLaws) {
  for (int i = 0; i < 25; ++i) {
    const Bignum a = random_bn(150);
    const Bignum b = random_bn(150);
    const Bignum g = Bignum::gcd(a, b);
    EXPECT_TRUE(a.divisible_by(g));
    EXPECT_TRUE(b.divisible_by(g));
    EXPECT_EQ(Bignum::gcd(a, b), Bignum::gcd(b, a));
  }
}

TEST(ModExpContextTest, MatchesReferenceImplementation) {
  const RsaModulus mod = generate_rsa_modulus(512);
  const ModExpContext ctx(mod.n);
  for (int i = 0; i < 20; ++i) {
    const Bignum base = random_bn(500);
    const Bignum e = random_bn(1 + static_cast<int>(random_u64() % 300));
    EXPECT_EQ(ctx.exp(base, e), Bignum::mod_exp(base.mod(mod.n), e, mod.n));
  }
}

TEST(ModExpContextTest, SignedExponentInverts) {
  const RsaModulus mod = generate_rsa_modulus(512);
  const ModExpContext ctx(mod.n);
  const Bignum g = random_quadratic_residue(mod.n);
  const Bignum e = random_bn(100);
  const Bignum pos = ctx.exp_signed(g, e);
  const Bignum neg = ctx.exp_signed(g, e.negated());
  EXPECT_TRUE(Bignum::mod_mul(pos, neg, mod.n).is_one());
}

TEST(ModExpContextTest, RejectsEvenModulus) {
  EXPECT_THROW(ModExpContext(Bignum(100)), CryptoError);
  EXPECT_THROW(ModExpContext(Bignum(1)), CryptoError);
}

// multi_exp against the product of single exp calls, across batch sizes
// and exponent widths that reach every sliding-window Straus width the
// cost model picks (w = 1 at 1 bit, 2 at 16, 3 at 63, 4 at 128, 5 at
// 264/384, 6 at 1100, 7 at 2000, 8 at 5000) and Pippenger (200 × 63). A
// 4-wide pool cuts the larger batches into chunks, each with its own
// window choice; both paths must return the same residue.
Bignum product_of_exps(const ModExpContext& ctx,
                       const std::vector<ModExpContext::ExpTerm>& terms) {
  Bignum acc(1);
  for (const ModExpContext::ExpTerm& t : terms) {
    acc = Bignum::mod_mul(acc, ctx.exp(t.base, t.exponent), ctx.modulus());
  }
  return acc;
}

Bignum pow2(int k) {
  Bignum p(1);
  for (int i = 0; i < k; ++i) p += p;
  return p;
}

TEST(MultiExpPropertyTest, MatchesProductOfSingleExps) {
  const RsaModulus mod = generate_rsa_modulus(512);
  const ModExpContext ctx(mod.n);
  ThreadPool four(4);
  for (const int bits : {1, 16, 63, 128, 264, 384, 1100, 2000, 5000}) {
    for (const std::size_t n : {2, 3, 8, 17, 47, 64, 80, 200}) {
      std::vector<ModExpContext::ExpTerm> terms;
      for (std::size_t i = 0; i < n; ++i) {
        // Edge exponents first — 1, a lone top bit 2^{L−1}, all ones
        // 2^L − 1, a lone low bit 2^{L/2} — then random L-bit ones. The
        // last base is left unreduced (≥ N).
        Bignum e = i == 0   ? Bignum(1)
                   : i == 1 ? pow2(bits - 1)
                   : i == 2 ? pow2(bits) - Bignum(1)
                   : i == 3 ? pow2(bits / 2)
                            : random_bn(bits);
        Bignum base = random_bn(500).mod(mod.n);
        if (i + 1 == n) base += mod.n;
        terms.push_back({std::move(base), std::move(e)});
      }
      const Bignum expected = product_of_exps(ctx, terms);
      const std::string where =
          "n=" + std::to_string(n) + " bits=" + std::to_string(bits);
      EXPECT_EQ(ctx.multi_exp(terms), expected) << where;
      EXPECT_EQ(ctx.multi_exp(terms, &four), expected) << where << " pooled";
    }
  }
}

TEST(MultiExpPropertyTest, OneWideTermAmongNarrowOnes) {
  // The widest exponent sets the window and the chain length; the narrow
  // ones must still land at their own bit positions.
  const RsaModulus mod = generate_rsa_modulus(512);
  const ModExpContext ctx(mod.n);
  ThreadPool four(4);
  for (const std::size_t n : {2, 3, 8, 17, 47, 64, 80, 200}) {
    for (const int wide : {63, 264, 1100}) {
      std::vector<ModExpContext::ExpTerm> terms;
      for (std::size_t i = 0; i < n; ++i) {
        terms.push_back({random_bn(500).mod(mod.n),
                         i == n / 2 ? random_bn(wide) : random_bn(8)});
      }
      const Bignum expected = product_of_exps(ctx, terms);
      const std::string where =
          "n=" + std::to_string(n) + " wide=" + std::to_string(wide);
      EXPECT_EQ(ctx.multi_exp(terms), expected) << where;
      EXPECT_EQ(ctx.multi_exp(terms, &four), expected) << where << " pooled";
    }
  }
}

// The aggregated coprimality test (Jacobi symbol) against gcd, on a
// modulus whose factors are known: 0, 1, p, q, multiples of p and random
// residues, alone and folded through Montgomery products.
TEST(CoprimePropertyTest, JacobiTestAgreesWithGcd) {
  const RsaModulus mod = generate_rsa_modulus(512, /*keep_factors=*/true);
  ASSERT_TRUE(mod.p.has_value() && mod.q.has_value());
  const ModExpContext ctx(mod.n);
  std::vector<Bignum> xs = {Bignum(std::uint64_t{0}), Bignum(1), *mod.p,
                            *mod.q, mod.n - Bignum(1)};
  for (int k = 2; k < 12; ++k) {
    xs.push_back(Bignum::mod_mul(Bignum(static_cast<std::uint64_t>(k)),
                                 *mod.p, mod.n));
    xs.push_back(Bignum::mod_mul(random_bn(300), *mod.q, mod.n));
  }
  for (int i = 0; i < 200; ++i) xs.push_back(random_bn(511).mod(mod.n));
  for (const Bignum& x : xs) {
    const bool expected = Bignum::gcd(x, mod.n).is_one();
    EXPECT_EQ(ctx.coprime(x), expected) << x.to_hex();
    // Folded after a unit through Montgomery products (each leaves a unit
    // factor R^{-1}), x alone decides the product's coprimality. x + N
    // takes the operand-reduction path.
    Bignum unit = random_bn(511).mod(mod.n);
    while (!Bignum::gcd(unit, mod.n).is_one()) {
      unit = random_bn(511).mod(mod.n);
    }
    Bignum acc(1);
    ctx.mont_mul_into(acc, unit);
    ctx.mont_mul_into(acc, x + mod.n);
    EXPECT_EQ(ctx.coprime(acc), expected) << x.to_hex();
  }
}

// Proofs generated under one CRS must never verify under another, even
// with identical configurations — commitments bind to the key material.
TEST(CrossCrsTest, TmcRejectsForeignOpenings) {
  const GroupPtr group = make_p256_group();
  const auto keys_a = mercurial::TmcScheme::keygen(group);
  const auto keys_b = mercurial::TmcScheme::keygen(group);
  const mercurial::TmcScheme a(group, keys_a.pk);
  const mercurial::TmcScheme b(group, keys_b.pk);

  const Bytes msg = hash_to_128("m", {bytes_of("x")});
  const auto [com, dec] = a.hard_commit(msg);
  EXPECT_TRUE(a.verify_open(com, a.hard_open(dec)));
  EXPECT_FALSE(b.verify_open(com, a.hard_open(dec)));
}

TEST(CrossCrsTest, QtmcRejectsForeignOpenings) {
  const auto keys_a = mercurial::QtmcScheme::keygen(4, 512);
  const auto keys_b = mercurial::QtmcScheme::keygen(4, 512);
  const mercurial::QtmcScheme a(keys_a.pk);
  const mercurial::QtmcScheme b(keys_b.pk);

  std::vector<Bytes> msgs;
  for (int i = 0; i < 4; ++i) msgs.push_back(hash_to_128("m", {be64(i)}));
  const auto [com, dec] = a.hard_commit(msgs);
  const auto op = a.hard_open(dec, 1);
  EXPECT_TRUE(a.verify_open(com, op));
  EXPECT_FALSE(b.verify_open(com, op));
}

TEST(CrossCrsTest, QtmcDifferentSeedsGiveDifferentPrimes) {
  // Same modulus reused with a different prime seed is still a different
  // scheme: openings cannot transfer.
  const auto keys = mercurial::QtmcScheme::keygen(4, 512);
  mercurial::QtmcPublicKey other_pk = keys.pk;
  other_pk.prime_seed = bytes_of("different-seed");
  const mercurial::QtmcScheme a(keys.pk);
  const mercurial::QtmcScheme b(other_pk);

  std::vector<Bytes> msgs;
  for (int i = 0; i < 4; ++i) msgs.push_back(hash_to_128("m", {be64(i)}));
  const auto [com, dec] = a.hard_commit(msgs);
  EXPECT_FALSE(b.verify_open(com, a.hard_open(dec, 0)));
}

TEST(HashToPrimePropertyTest, WidthSweep) {
  for (const int bits : {64, 96, 136, 160}) {
    const Bignum p = hash_to_prime(bytes_of("sweep"), 3, bits);
    EXPECT_EQ(p.bits(), bits);
    EXPECT_TRUE(p.is_prime());
    EXPECT_TRUE(p.is_odd());
  }
}

}  // namespace
}  // namespace desword
