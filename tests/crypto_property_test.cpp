// Property-style sweeps over the arithmetic and commitment layers:
// algebraic laws on random inputs, equivalence of the Montgomery fast
// path with the reference implementation, and cross-CRS rejection.
#include <gtest/gtest.h>

#include <iostream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "crypto/bignum.h"
#include "crypto/hash.h"
#include "crypto/modexp.h"
#include "crypto/mont_ifma.h"
#include "crypto/primes.h"
#include "crypto/rsa.h"
#include "mercurial/batch_verify.h"
#include "mercurial/qtmc.h"
#include "mercurial/tmc.h"

namespace desword {
namespace {

Bignum random_bn(int bits) { return Bignum::rand_bits(bits); }

using Backend = ModExpContext::Backend;

// Skips a backend cell the host cannot run, with the reason in the log.
#define SKIP_UNLESS_AVAILABLE(backend, modulus)                          \
  do {                                                                   \
    if (!ModExpContext::available((backend), (modulus))) {               \
      GTEST_SKIP() << "backend " << ModExpContext::backend_name(backend) \
                   << " unavailable: this CPU lacks AVX-512 IFMA or the " \
                   << (modulus).bits() << "-bit modulus does not fit";   \
    }                                                                    \
  } while (false)

class MultiExpPropertyTest : public ::testing::TestWithParam<Backend> {};
class FixedBasePropertyTest : public ::testing::TestWithParam<Backend> {};

std::string backend_param_name(
    const ::testing::TestParamInfo<Backend>& info) {
  return ModExpContext::backend_name(info.param);
}

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
// 264/384, 6 at 1100, 7 at 2000, 8 at 5000) and Pippenger (200 × 63).
// Cut into 1–8 parts as a verification pass plans a fold side, each part
// picks its own window; every cut must multiply to the same residue, on
// either Montgomery backend.
Bignum product_of_exps(const ModExpContext& ctx,
                       const std::vector<ModExpContext::ExpTerm>& terms) {
  Bignum acc(1);
  for (const ModExpContext::ExpTerm& t : terms) {
    acc = Bignum::mod_mul(acc, ctx.exp(t.base, t.exponent), ctx.modulus());
  }
  return acc;
}

/// Every cut of `terms` into 1–8 parts (mercurial::cut_multi_exp, as
/// BatchVerifier's pass plans a fold side) multiplies back to `expected`.
void expect_parts_multiply_to(const ModExpContext& ctx,
                              const std::vector<ModExpContext::ExpTerm>& terms,
                              const Bignum& expected,
                              const std::string& where) {
  const std::vector<const ModExpContext::ExpTerm*> live =
      ctx.multi_exp_terms(terms);
  for (std::size_t parts = 1; parts <= 8; ++parts) {
    const std::vector<std::size_t> cut = mercurial::cut_multi_exp(live, parts);
    ASSERT_GE(cut.size(), 2u) << where;
    EXPECT_LE(cut.size() - 1, parts) << where;
    Bignum product(1);
    for (std::size_t p = 0; p + 1 < cut.size(); ++p) {
      ASSERT_LT(cut[p], cut[p + 1]) << where << " parts=" << parts;
      product = Bignum::mod_mul(
          product,
          ctx.multi_exp_part({live.data() + cut[p], cut[p + 1] - cut[p]}),
          ctx.modulus());
    }
    EXPECT_EQ(product, expected) << where << " parts=" << parts;
  }
}

Bignum pow2(int k) {
  Bignum p(1);
  for (int i = 0; i < k; ++i) p += p;
  return p;
}

TEST_P(MultiExpPropertyTest, MatchesProductOfSingleExps) {
  const RsaModulus mod = generate_rsa_modulus(512);
  SKIP_UNLESS_AVAILABLE(GetParam(), mod.n);
  const ModExpContext ctx(mod.n, GetParam());
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
      expect_parts_multiply_to(ctx, terms, expected, where);
    }
  }
}

TEST_P(MultiExpPropertyTest, OneWideTermAmongNarrowOnes) {
  // The widest exponent sets the window and the chain length; the narrow
  // ones must still land at their own bit positions.
  const RsaModulus mod = generate_rsa_modulus(512);
  SKIP_UNLESS_AVAILABLE(GetParam(), mod.n);
  const ModExpContext ctx(mod.n, GetParam());
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
      expect_parts_multiply_to(ctx, terms, expected, where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, MultiExpPropertyTest,
                         ::testing::Values(Backend::kBn, Backend::kIfma),
                         backend_param_name);

// Fixed-base tables against BN_mod_exp: window widths 1, 4 and 8, table
// widths from one bit to the 2440-bit g table of a q = 16 CRS, exponents
// 0, 1, all ones, a lone top bit, random ones, and one wider than the table
// (the plain-power fallback).
TEST_P(FixedBasePropertyTest, MatchesPlainExp) {
  for (const int modulus_bits : {512, 2048}) {
    const Bignum n = generate_rsa_modulus(modulus_bits).n;
    SKIP_UNLESS_AVAILABLE(GetParam(), n);
    const ModExpContext ctx(n, GetParam());
    const Bignum base = random_bn(modulus_bits + 7);  // unreduced
    for (const int window : {1, 4, 8}) {
      for (const int max_bits : {1, 63, 256, 2440}) {
        if (window == 1 && max_bits == 2440) continue;  // 2440 squarings
        const auto table = ctx.precompute(base, max_bits, window);
        EXPECT_EQ(table.backend(), GetParam());
        std::vector<Bignum> exps = {Bignum(std::uint64_t{0}), Bignum(1),
                                    pow2(max_bits) - Bignum(1),
                                    pow2(max_bits - 1), random_bn(max_bits),
                                    random_bn(max_bits + 9)};
        for (const Bignum& e : exps) {
          EXPECT_EQ(ctx.exp(table, e), Bignum::mod_exp(base.mod(n), e, n))
              << modulus_bits << "-bit N, w=" << window
              << " max_bits=" << max_bits << " e=" << e.to_hex();
        }
      }
    }
  }
}

TEST_P(FixedBasePropertyTest, TableFromTheOtherBackendIsRejected) {
  const Bignum n = generate_rsa_modulus(512).n;
  SKIP_UNLESS_AVAILABLE(Backend::kIfma, n);
  const Backend other =
      GetParam() == Backend::kBn ? Backend::kIfma : Backend::kBn;
  const ModExpContext ctx(n, GetParam());
  const ModExpContext foreign(n, other);
  const auto table = foreign.precompute(random_bn(500), 64);
  EXPECT_THROW((void)ctx.exp(table, random_bn(60)), CheckError);
  EXPECT_THROW((void)ctx.exp(table, random_bn(100)), CheckError);  // oversized
}

// Plain powers against BN_mod_exp: on kIfma a one-term sliding-window
// Straus, on kBn BN_mod_exp_mont. Bases 0, 1, N − 1 and unreduced random
// ones; exponents 0, 1, all ones, a lone top bit and random widths up to
// a g-table's 2440 bits.
TEST_P(FixedBasePropertyTest, PlainExpMatchesBnModExp) {
  for (const int modulus_bits : {512, 2048}) {
    const Bignum n = generate_rsa_modulus(modulus_bits).n;
    SKIP_UNLESS_AVAILABLE(GetParam(), n);
    const ModExpContext ctx(n, GetParam());
    const std::vector<Bignum> bases = {Bignum(std::uint64_t{0}), Bignum(1),
                                       n - Bignum(1),
                                       random_bn(modulus_bits + 7)};
    std::vector<Bignum> exps = {Bignum(std::uint64_t{0}), Bignum(1),
                                Bignum(2), pow2(256) - Bignum(1), pow2(255),
                                pow2(2440) - Bignum(1)};
    for (const int bits : {7, 128, 256, 512, 1024, 2440}) {
      exps.push_back(random_bn(bits));
    }
    for (const Bignum& base : bases) {
      for (const Bignum& e : exps) {
        EXPECT_EQ(ctx.exp(base, e), Bignum::mod_exp(base.mod(n), e, n))
            << modulus_bits << "-bit N, base=" << base.to_hex()
            << " e=" << e.to_hex();
      }
    }
  }
}

// The aggregated coprimality test (one fold, one Jacobi symbol) against
// gcd, on a modulus whose factors are known: 0, 1, p, q, multiples of p
// and q and random residues, alone and folded after a unit. x + N and −x
// take the operand-reduction path.
TEST_P(FixedBasePropertyTest, CoprimeFoldAgreesWithGcd) {
  const RsaModulus mod = generate_rsa_modulus(512, /*keep_factors=*/true);
  ASSERT_TRUE(mod.p.has_value() && mod.q.has_value());
  SKIP_UNLESS_AVAILABLE(GetParam(), mod.n);
  const ModExpContext ctx(mod.n, GetParam());
  EXPECT_TRUE(ctx.all_coprime({}));
  std::vector<Bignum> xs = {Bignum(std::uint64_t{0}), Bignum(1), *mod.p,
                            *mod.q, mod.n - Bignum(1), mod.n};
  for (int k = 2; k < 12; ++k) {
    xs.push_back(Bignum::mod_mul(Bignum(static_cast<std::uint64_t>(k)),
                                 *mod.p, mod.n));
    xs.push_back(Bignum::mod_mul(random_bn(300), *mod.q, mod.n));
  }
  for (int i = 0; i < 200; ++i) xs.push_back(random_bn(511).mod(mod.n));
  std::vector<Bignum> units;
  for (int i = 0; i < 8; ++i) {
    Bignum unit = random_bn(511).mod(mod.n);
    while (!Bignum::gcd(unit, mod.n).is_one()) {
      unit = random_bn(511).mod(mod.n);
    }
    units.push_back(std::move(unit));
  }
  bool all = true;
  std::vector<const Bignum*> everything;
  for (const Bignum& u : units) everything.push_back(&u);
  for (const Bignum& x : xs) {
    const bool expected = Bignum::gcd(x, mod.n).is_one();
    all = all && expected;
    everything.push_back(&x);
    EXPECT_EQ(ctx.all_coprime({&x}), expected) << x.to_hex();
    const Bignum wide = x + mod.n;
    const Bignum negated = x.negated();
    EXPECT_EQ(ctx.all_coprime({&units[0], &wide, &units[1]}), expected)
        << x.to_hex();
    EXPECT_EQ(ctx.all_coprime({&negated, &units[2]}), expected)
        << x.to_hex();
  }
  EXPECT_TRUE(ctx.all_coprime(
      std::vector<const Bignum*>(everything.begin(), everything.begin() + 8)));
  EXPECT_EQ(ctx.all_coprime(everything), all);
  EXPECT_FALSE(all);
}

INSTANTIATE_TEST_SUITE_P(Backends, FixedBasePropertyTest,
                         ::testing::Values(Backend::kBn, Backend::kIfma),
                         backend_param_name);

// The IFMA kernel against OpenSSL: AMM(a, b) must be a·b·2^{−52L} mod N and
// stay below 2N for a and b in [0, 2N), with R = 2^{52L} > 4N.
class IfmaKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!IfmaMontgomery::cpu_supported()) {
      GTEST_SKIP() << "this CPU lacks AVX-512 IFMA (or the OS does not "
                      "save zmm state); the kernel cannot run here";
    }
  }

  /// A random odd modulus of exactly `bits` bits.
  static Bignum odd_modulus(int bits) {
    Bignum n = random_bn(bits);
    return n.is_odd() ? n : n + Bignum(1);
  }

  /// AMM(a, b) through the kernel, as an integer (unreduced).
  static Bignum amm(const IfmaMontgomery& m, const Bignum& a,
                    const Bignum& b) {
    LimbBuffer x(m.limbs());
    LimbBuffer y(m.limbs());
    m.load(x.data(), a);
    m.load(y.data(), b);
    m.mul(x.data(), x.data(), y.data());
    return m.store(x.data());
  }

  /// 2^{−52L} mod n.
  static Bignum r_inverse(const IfmaMontgomery& m, const Bignum& n) {
    return Bignum::mod_inverse(
        pow2(static_cast<int>(52 * m.limbs())).mod(n), n);
  }

  // 512–3072-bit moduli and odd sizes on both sides of a register
  // boundary (414/415 bits: 1/2 zmm; 3326 bits fills 8).
  static constexpr int kModulusBits[] = {64,   414,  415,  512,  521, 1000,
                                         1024, 1536, 2047, 2048, 2049,
                                         3072, 3326};
};

TEST_F(IfmaKernelTest, ProductIsBnProductTimesRInverse) {
  for (const int bits : kModulusBits) {
    const Bignum n = odd_modulus(bits);
    const auto m = IfmaMontgomery::create(n);
    ASSERT_NE(m, nullptr) << bits;
    EXPECT_EQ(m->zmm(), IfmaMontgomery::zmm_for(n));
    const Bignum two_n = n + n;
    const Bignum r_inv = r_inverse(*m, n);
    for (int i = 0; i < 40; ++i) {
      const Bignum a = Bignum::rand_range(two_n);
      const Bignum b = Bignum::rand_range(two_n);
      const Bignum got = amm(*m, a, b);
      EXPECT_LT(got, two_n) << bits;
      EXPECT_EQ(got.mod(n), Bignum::mod_mul(Bignum::mod_mul(a, b, n), r_inv, n))
          << bits << "-bit N, a=" << a.to_hex() << " b=" << b.to_hex();
    }
  }
}

TEST_F(IfmaKernelTest, EdgeOperands) {
  for (const int bits : kModulusBits) {
    const Bignum n = odd_modulus(bits);
    const auto m = IfmaMontgomery::create(n);
    ASSERT_NE(m, nullptr) << bits;
    const Bignum two_n = n + n;
    const Bignum r_inv = r_inverse(*m, n);
    const std::vector<Bignum> edges = {
        Bignum(std::uint64_t{0}), Bignum(1), n - Bignum(1), n,
        n + Bignum(1), two_n - Bignum(1), n + Bignum::rand_range(n)};
    for (const Bignum& a : edges) {
      for (const Bignum& b : edges) {
        const Bignum got = amm(*m, a, b);
        EXPECT_LT(got, two_n) << bits;
        EXPECT_EQ(got.mod(n),
                  Bignum::mod_mul(Bignum::mod_mul(a, b, n), r_inv, n))
            << bits << "-bit N, a=" << a.to_hex() << " b=" << b.to_hex();
      }
      // Into the domain and out again is the identity on [0, N); a raw
      // value in [N, 2N) leaves fully reduced.
      LimbBuffer x(m->limbs());
      if (a < n) {
        m->to_mont(x.data(), a);
        EXPECT_EQ(m->from_mont(x.data()), a) << bits;
      }
      m->load(x.data(), a);
      EXPECT_EQ(m->from_mont(x.data()), Bignum::mod_mul(a, r_inv, n)) << bits;
    }
  }
}

TEST_F(IfmaKernelTest, AllOnesModuliCarryThroughEveryLane) {
  // N = 2^k − 1 has all-ones limbs, so N·y_i contributes 2^52 − 1 to a
  // lane and small operands leave lanes at exactly 2^52 − 1 when the last
  // carry arrives: the normalization's ripple must run through them.
  for (const int bits : {414, 830, 2046, 3326}) {
    const Bignum n = pow2(bits) - Bignum(1);
    const auto m = IfmaMontgomery::create(n);
    ASSERT_NE(m, nullptr) << bits;
    const Bignum two_n = n + n;
    const Bignum r_inv = r_inverse(*m, n);
    const std::vector<Bignum> operands = {
        Bignum(1),     Bignum(2),         Bignum(3),  n - Bignum(1),
        n + Bignum(1), two_n - Bignum(1), pow2(52),   pow2(bits / 2) - Bignum(1),
        pow2(52) - Bignum(1)};
    for (const Bignum& a : operands) {
      for (const Bignum& b : operands) {
        const Bignum got = amm(*m, a, b);
        EXPECT_LT(got, two_n) << bits;
        EXPECT_EQ(got.mod(n),
                  Bignum::mod_mul(Bignum::mod_mul(a, b, n), r_inv, n))
            << bits << "-bit all-ones N, a=" << a.to_hex()
            << " b=" << b.to_hex();
      }
    }
  }
}

TEST_F(IfmaKernelTest, TenThousandProductChainsStayBelowTwoN) {
  for (const int bits : {512, 2048, 3072}) {
    const Bignum n = odd_modulus(bits);
    const auto m = IfmaMontgomery::create(n);
    ASSERT_NE(m, nullptr) << bits;
    const Bignum two_n = n + n;
    const Bignum r_inv = r_inverse(*m, n);
    // Multipliers from the top of [N, 2N) and a random one, so the chain
    // runs as close to the 2N bound as the inputs allow.
    for (const Bignum& y : {two_n - Bignum(1), n + Bignum::rand_range(n)}) {
      LimbBuffer acc(m->limbs());
      LimbBuffer mul(m->limbs());
      Bignum expected = two_n - Bignum(2);
      m->load(acc.data(), expected);
      m->load(mul.data(), y);
      bool bounded = true;
      for (int i = 0; i < 10000 && bounded; ++i) {
        m->mul(acc.data(), acc.data(), mul.data());
        expected = Bignum::mod_mul(Bignum::mod_mul(expected, y, n), r_inv, n);
        bounded = m->store(acc.data()) < two_n;
        EXPECT_TRUE(bounded) << bits << "-bit N, step " << i;
      }
      EXPECT_EQ(m->store(acc.data()).mod(n), expected) << bits;
    }
  }
}

TEST_F(IfmaKernelTest, RejectsModuliThatDoNotFit) {
  EXPECT_EQ(IfmaMontgomery::zmm_for(pow2(3326) - Bignum(1)), 8);
  EXPECT_EQ(IfmaMontgomery::zmm_for(pow2(3327) - Bignum(1)), 0);
  EXPECT_EQ(IfmaMontgomery::create(pow2(4096) - Bignum(1)), nullptr);
  EXPECT_FALSE(ModExpContext::available(Backend::kIfma, pow2(4096) - Bignum(1)));
  EXPECT_THROW(ModExpContext(pow2(4096) - Bignum(1), Backend::kIfma),
               CryptoError);
  EXPECT_EQ(ModExpContext(pow2(4096) - Bignum(1)).backend(), Backend::kBn);
}

// Names the backend this host runs, so a log shows whether the IFMA cells
// above ran or skipped.
TEST(ModExpBackendReport, ActiveBackendIsLogged) {
  const Bignum n = pow2(2047) + Bignum(1);
  const ModExpContext ctx(n);
  std::cout << "[ modexp   ] AVX-512 IFMA "
            << (IfmaMontgomery::cpu_supported() ? "available" : "absent")
            << "; RSA-2048 ModExpContext backend: "
            << ModExpContext::backend_name(ctx.backend()) << std::endl;
  RecordProperty("modexp_backend", ModExpContext::backend_name(ctx.backend()));
  EXPECT_EQ(ctx.backend(), IfmaMontgomery::cpu_supported() ? Backend::kIfma
                                                           : Backend::kBn);
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
