// Parallel EDB-commit and proof determinism.
//
// The parallel trie build must be schedule-independent: with a fixed
// EdbProverOptions::seed, every node draws randomness from a DRBG keyed by
// its position, so the commitment — and every proof derived from it — is
// byte-identical at any thread count. These tests pin that contract, for
// the per-proof fan-out too (a proof's levels are computed in parallel),
// and for non-membership proofs, whose fabricated nodes and tease lifts
// are drawn from their digit paths: such a proof depends on neither the
// proofs made before it nor the threads that run it.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/hash.h"
#include "zkedb/batch.h"
#include "zkedb/prover.h"
#include "zkedb/verifier.h"

namespace desword::zkedb {
namespace {

EdbConfig test_config() {
  EdbConfig cfg;
  cfg.q = 4;
  cfg.height = 6;
  cfg.rsa_bits = 512;
  cfg.group_name = "p256";
  return cfg;
}

EdbKey key_of(const EdbCrs& crs, const std::string& id) {
  return key_for_identifier(crs, bytes_of(id));
}

std::map<Bytes, Bytes> test_entries(const EdbCrs& crs, int n) {
  std::map<Bytes, Bytes> entries;
  for (int i = 0; i < n; ++i) {
    entries[key_of(crs, "prod-" + std::to_string(i))] =
        bytes_of("trace-" + std::to_string(i));
  }
  return entries;
}

EdbProverOptions seeded(unsigned threads) {
  EdbProverOptions opts;
  opts.threads = threads;
  opts.seed = bytes_of("determinism-test-seed");
  return opts;
}

class ParallelEdbTest : public ::testing::Test {
 protected:
  void SetUp() override { crs_ = generate_crs(test_config()); }
  EdbCrsPtr crs_;
};

TEST_F(ParallelEdbTest, SeededCommitIdenticalAcrossThreadCounts) {
  const auto entries = test_entries(*crs_, 12);
  EdbProver seq(crs_, entries, seeded(1));
  for (const unsigned threads : {2u, 4u, 8u}) {
    EdbProver par(crs_, entries, seeded(threads));
    EXPECT_EQ(par.commitment_bytes(), seq.commitment_bytes())
        << "threads=" << threads;
  }
}

TEST_F(ParallelEdbTest, SeededProofsIdenticalAcrossThreadCounts) {
  const auto entries = test_entries(*crs_, 12);
  EdbProver seq(crs_, entries, seeded(1));
  EdbProver par(crs_, entries, seeded(4));

  // Single membership proofs: byte-identical.
  const EdbKey key = key_of(*crs_, "prod-3");
  EXPECT_EQ(seq.prove_membership(key).serialize(*crs_),
            par.prove_membership(key).serialize(*crs_));

  // Batch proofs: byte-identical, at either batch thread count.
  std::vector<EdbKey> keys;
  for (int i = 0; i < 12; ++i) keys.push_back(key_of(*crs_, "prod-" + std::to_string(i)));
  const Bytes base =
      edb_prove_membership_batch(seq, keys, /*threads=*/1).serialize(*crs_);
  EXPECT_EQ(edb_prove_membership_batch(par, keys, /*threads=*/1)
                .serialize(*crs_),
            base);
  EXPECT_EQ(edb_prove_membership_batch(par, keys, /*threads=*/4)
                .serialize(*crs_),
            base);

  // Non-membership proofs too, teases included: their lifts are drawn
  // from the key like every other randomizer.
  const EdbKey ghost = key_of(*crs_, "ghost-1");
  EXPECT_EQ(seq.prove_non_membership(ghost).serialize(*crs_),
            par.prove_non_membership(ghost).serialize(*crs_));
}

TEST_F(ParallelEdbTest, ParallelCommitVerifies) {
  const auto entries = test_entries(*crs_, 12);
  EdbProverOptions opts;
  opts.threads = 4;  // CSPRNG randomness, parallel build
  EdbProver prover(crs_, entries, opts);
  for (const auto& [key, value] : entries) {
    const auto proof = prover.prove_membership(key);
    const auto got =
        edb_verify_membership(*crs_, prover.commitment(), key, proof);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
  }
  const EdbKey ghost = key_of(*crs_, "ghost");
  EXPECT_TRUE(edb_verify_non_membership(*crs_, prover.commitment(), ghost,
                                        prover.prove_non_membership(ghost)));
}

TEST_F(ParallelEdbTest, DifferentSeedsDifferentCommitments) {
  const auto entries = test_entries(*crs_, 4);
  EdbProverOptions a = seeded(1);
  EdbProverOptions b = seeded(1);
  b.seed = bytes_of("another-seed");
  EXPECT_NE(EdbProver(crs_, entries, a).commitment_bytes(),
            EdbProver(crs_, entries, b).commitment_bytes());
  // Unseeded builds draw from the CSPRNG: two builds never collide.
  EXPECT_NE(EdbProver(crs_, entries).commitment_bytes(),
            EdbProver(crs_, entries).commitment_bytes());
}

TEST_F(ParallelEdbTest, SeededUpdatesStayDeterministic) {
  const auto entries = test_entries(*crs_, 6);
  EdbProver a(crs_, entries, seeded(1));
  EdbProver b(crs_, entries, seeded(4));
  const EdbKey extra = key_of(*crs_, "late-arrival");
  a.insert(extra, bytes_of("late"));
  b.insert(extra, bytes_of("late"));
  EXPECT_EQ(a.commitment_bytes(), b.commitment_bytes());
  a.erase(key_of(*crs_, "prod-0"));
  b.erase(key_of(*crs_, "prod-0"));
  EXPECT_EQ(a.commitment_bytes(), b.commitment_bytes());
}

TEST_F(ParallelEdbTest, VerifyManySweep) {
  const auto entries = test_entries(*crs_, 8);
  EdbProver prover(crs_, entries, seeded(4));
  std::vector<EdbMembershipProof> proofs;
  std::vector<EdbMembershipQuery> queries;
  proofs.reserve(8);
  for (const auto& [key, value] : entries) {
    proofs.push_back(prover.prove_membership(key));
    queries.push_back({key, &proofs.back()});
  }
  queries.push_back({key_of(*crs_, "prod-0"), nullptr});  // skipped slot
  EdbVerifyOptions opts;
  opts.threads = 4;
  const auto results =
      edb_verify_membership_many(*crs_, prover.commitment(), queries, opts);
  ASSERT_EQ(results.size(), queries.size());
  std::size_t i = 0;
  for (const auto& [key, value] : entries) {
    ASSERT_TRUE(results[i].has_value()) << i;
    EXPECT_EQ(*results[i], value);
    ++i;
  }
  EXPECT_FALSE(results.back().has_value());

  // A tampered proof fails only its own slot.
  auto bad = proofs.front();
  bad.value = bytes_of("forged");
  std::vector<EdbMembershipQuery> mixed{{queries[0].key, &bad}, queries[1]};
  EdbVerifyOptions mixed_opts;
  mixed_opts.threads = 2;
  const auto mixed_results = edb_verify_membership_many(
      *crs_, prover.commitment(), mixed, mixed_opts);
  EXPECT_FALSE(mixed_results[0].has_value());
  EXPECT_TRUE(mixed_results[1].has_value());
}

// ---------------------------------------------------------------------------
// Per-proof fan-out: EdbProverOptions::threads also sizes the parallel
// computation of one proof's levels.

/// Key whose base-q digits (root first) are `digits`: keys are 16-byte
/// big-endian integers below q^height.
EdbKey key_from_digits(const EdbCrs& crs,
                       const std::vector<std::uint32_t>& digits) {
  std::uint64_t value = 0;
  for (const std::uint32_t digit : digits) value = value * crs.q() + digit;
  EdbKey key(16, 0);
  for (int i = 15; i >= 8; --i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(value);
    value >>= 8;
  }
  return key;
}

/// Entries whose keys all start with digit 0, so any key starting with a
/// non-zero digit falls off the trie at the root and fabricates every
/// level below it.
std::map<Bytes, Bytes> low_entries(const EdbCrs& crs, int n) {
  std::map<Bytes, Bytes> entries;
  for (int i = 0; i < n; ++i) {
    std::vector<std::uint32_t> digits(crs.height(), 0);
    digits[crs.height() - 1] = static_cast<std::uint32_t>(i) % crs.q();
    digits[crs.height() - 2] = static_cast<std::uint32_t>(i) / crs.q();
    entries[key_from_digits(crs, digits)] = bytes_of("v" + std::to_string(i));
  }
  return entries;
}

std::vector<EdbKey> ghost_keys(const EdbCrs& crs,
                               const std::map<Bytes, Bytes>& entries) {
  std::vector<EdbKey> ghosts;
  for (int i = 0; i < 6; ++i) {
    const EdbKey ghost = key_of(crs, "fan-out-ghost-" + std::to_string(i));
    if (entries.count(ghost) == 0) ghosts.push_back(ghost);
  }
  return ghosts;
}

TEST_F(ParallelEdbTest, SeededMembershipProofsIdenticalAtAnyFanOut) {
  const auto entries = test_entries(*crs_, 12);
  EdbProver base(crs_, entries, seeded(1));
  for (const unsigned threads : {2u, 4u}) {
    EdbProver par(crs_, entries, seeded(threads));
    for (const auto& [key, value] : entries) {
      EXPECT_EQ(par.prove_membership(key).serialize(*crs_),
                base.prove_membership(key).serialize(*crs_))
          << "threads=" << threads;
    }
  }
}

TEST_F(ParallelEdbTest, NonMembershipProofsIndependentOfOrderAndFanOut) {
  const auto entries = test_entries(*crs_, 12);
  const std::vector<EdbKey> ghosts = ghost_keys(*crs_, entries);
  ASSERT_GE(ghosts.size(), 2u);
  const auto prove_all = [&](unsigned threads, bool reversed) {
    const EdbProver prover(crs_, entries, seeded(threads));
    std::vector<Bytes> proofs(ghosts.size());
    for (std::size_t k = 0; k < ghosts.size(); ++k) {
      const std::size_t i = reversed ? ghosts.size() - 1 - k : k;
      proofs[i] = prover.prove_non_membership(ghosts[i]).serialize(*crs_);
    }
    EXPECT_TRUE(edb_verify_non_membership(
        *crs_, prover.commitment(), ghosts.front(),
        EdbNonMembershipProof::deserialize(*crs_, proofs.front())));
    return proofs;
  };
  const std::vector<Bytes> base = prove_all(1, false);
  EXPECT_EQ(prove_all(1, true), base);
  EXPECT_EQ(prove_all(4, false), base);
  EXPECT_EQ(prove_all(4, true), base);
}

TEST_F(ParallelEdbTest, ConcurrentNonMembershipProofsMatchSequential) {
  // Eight callers prove overlapping absent keys on one prover at once.
  const auto entries = test_entries(*crs_, 12);
  const EdbProver prover(crs_, entries, seeded(4));
  const std::vector<EdbKey> ghosts = ghost_keys(*crs_, entries);
  ASSERT_GE(ghosts.size(), 3u);
  std::vector<Bytes> expected;
  for (const EdbKey& ghost : ghosts) {
    expected.push_back(prover.prove_non_membership(ghost).serialize(*crs_));
  }
  constexpr std::size_t kCallers = 8;
  constexpr std::size_t kPerCaller = 3;
  std::vector<std::vector<Bytes>> got(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t j = 0; j < kPerCaller; ++j) {
        got[c].push_back(
            prover.prove_non_membership(ghosts[(c + j) % ghosts.size()])
                .serialize(*crs_));
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t j = 0; j < kPerCaller; ++j) {
      EXPECT_EQ(got[c][j], expected[(c + j) % ghosts.size()])
          << "caller " << c << " proof " << j;
    }
  }
}

TEST_F(ParallelEdbTest, PathsThatMeetShareTheirFabricatedNodes) {
  const auto entries = low_entries(*crs_, 5);
  EdbProver prover(crs_, entries, seeded(4));
  const std::uint32_t h = crs_->height();
  std::vector<std::uint32_t> digits(h, 1);
  digits[0] = 3;  // off the trie at the root: levels 1..h-1 are fabricated
  const EdbKey first = key_from_digits(*crs_, digits);
  digits[h - 1] = 2;  // same path except the last level
  const EdbKey second = key_from_digits(*crs_, digits);
  digits[h - 1] = 1;
  digits[1] = 2;  // leaves the first key's path just below the backing
  const EdbKey third = key_from_digits(*crs_, digits);
  digits[1] = 1;
  digits[0] = 2;  // another absent root digit, onto the same backing
  const EdbKey fourth = key_from_digits(*crs_, digits);
  for (const EdbKey& k : {first, second, third, fourth}) {
    ASSERT_FALSE(prover.contains(k));
  }

  const auto a = prover.prove_non_membership(first);
  const auto b = prover.prove_non_membership(second);
  const auto c = prover.prove_non_membership(third);
  const auto e = prover.prove_non_membership(fourth);
  const Bignum& n = crs_->params().qtmc_pk.n;
  for (std::uint32_t d = 0; d + 1 < h; ++d) {
    EXPECT_EQ(a.teases[d].serialize(n), b.teases[d].serialize(n)) << d;
    EXPECT_EQ(a.child_commitments[d], b.child_commitments[d]) << d;
  }
  EXPECT_NE(a.child_commitments[h - 1], b.child_commitments[h - 1]);
  // The third key shares the root's tease and backing (level 0) alone.
  EXPECT_EQ(a.child_commitments[0], c.child_commitments[0]);
  for (std::uint32_t d = 1; d < h; ++d) {
    EXPECT_NE(a.child_commitments[d], c.child_commitments[d]) << d;
  }
  // The fourth key opens the root at another digit to the same backing,
  // which it must open as the first key does: below the root the two
  // proofs are one.
  EXPECT_NE(a.teases[0].serialize(n), e.teases[0].serialize(n));
  EXPECT_EQ(a.child_commitments[0], e.child_commitments[0]);
  for (std::uint32_t d = 1; d < h; ++d) {
    EXPECT_EQ(a.teases[d].serialize(n), e.teases[d].serialize(n)) << d;
    EXPECT_EQ(a.child_commitments[d], e.child_commitments[d]) << d;
  }
  EXPECT_TRUE(edb_verify_non_membership(*crs_, prover.commitment(), first, a));
  EXPECT_TRUE(
      edb_verify_non_membership(*crs_, prover.commitment(), second, b));
  EXPECT_TRUE(edb_verify_non_membership(*crs_, prover.commitment(), third, c));
  EXPECT_TRUE(
      edb_verify_non_membership(*crs_, prover.commitment(), fourth, e));
}

TEST_F(ParallelEdbTest, RepeatProofsByteIdenticalAfterStateRoundTrip) {
  const auto entries = test_entries(*crs_, 12);
  EdbProver prover(crs_, entries, seeded(4));
  const EdbKey member = entries.begin()->first;
  const std::vector<EdbKey> ghosts = ghost_keys(*crs_, entries);
  ASSERT_FALSE(ghosts.empty());
  const Bytes member_proof = prover.prove_membership(member).serialize(*crs_);
  const Bytes ghost_proof =
      prover.prove_non_membership(ghosts.front()).serialize(*crs_);
  // The repeat derives the same fabrication: identical bytes.
  EXPECT_EQ(prover.prove_non_membership(ghosts.front()).serialize(*crs_),
            ghost_proof);

  EdbProver loaded = EdbProver::load(crs_, prover.serialize_state());
  EXPECT_EQ(loaded.prove_membership(member).serialize(*crs_), member_proof);
  EXPECT_EQ(loaded.prove_non_membership(ghosts.front()).serialize(*crs_),
            ghost_proof);
}

TEST_F(ParallelEdbTest, ConcurrentMembershipProofsAgree) {
  const auto entries = test_entries(*crs_, 12);
  const EdbProver prover(crs_, entries, seeded(4));
  const EdbKey key = entries.begin()->first;
  const Bytes expected = prover.prove_membership(key).serialize(*crs_);
  constexpr int kCallers = 8;
  std::vector<Bytes> got(kCallers);
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      got[static_cast<std::size_t>(i)] =
          prover.prove_membership(key).serialize(*crs_);
    });
  }
  for (std::thread& t : callers) t.join();
  for (int i = 0; i < kCallers; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], expected) << "caller " << i;
  }
}

// A CRS fixed down to its last byte (RSA-512 modulus, bases, prime seed,
// TMC base), so a seeded prover's output is a constant.
EdbCrsPtr fixed_crs() {
  EdbPublicParams params;
  params.q = 4;
  params.height = 8;
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

// A membership proof in the layout of Table II, where every inner child
// entry is a serialized commitment: C0 and, re-inserted, the C1 = h^{r1}
// the child's opening pins. The wire layout leaves C1 out (DESIGN.md §5.5).
Bytes with_derived_c1(const EdbCrs& crs, EdbMembershipProof proof) {
  for (std::size_t d = 0; d + 1 < proof.child_commitments.size(); ++d) {
    proof.child_commitments[d] =
        mercurial::QtmcCommitment{
            Bignum::from_bytes(proof.child_commitments[d]),
            crs.qtmc().hard_c1(proof.openings[d + 1].r1)}
            .serialize(crs.params().qtmc_pk.n);
  }
  return proof.serialize(crs);
}

// Pins the bytes a seeded prover emits — its commitment plus one
// membership proof — so a change to HOW the prover computes (fixed-base
// tables, algebraic rewrites of Λ and C0) cannot change WHAT it emits.
// Proxies memoize verdicts by proof bytes, and deployed commitments must
// keep verifying, so these bytes are part of the contract. With the
// derived C1s re-inserted, the proof is byte for byte the one sent when
// inner children shipped both halves (kWithC1, that layout's golden).
TEST(SeededProverGoldenTest, CommitmentAndMembershipProofArePinned) {
  const EdbCrsPtr crs = fixed_crs();
  const auto entries = test_entries(*crs, 12);
  const EdbKey key = key_of(*crs, "prod-3");
  const auto digests = [&] {
    const EdbProver prover(crs, entries, seeded(2));
    const EdbMembershipProof proof = prover.prove_membership(key);
    return std::make_pair(
        to_hex(sha256(concat({prover.commitment_bytes(),
                              proof.serialize(*crs)}))),
        to_hex(sha256(concat({prover.commitment_bytes(),
                              with_derived_c1(*crs, proof)}))));
  };
  constexpr const char* kGolden =
      "ecba35f3f1430e644d4e57419bb6e9d8f8bf69fa44d8af04a976191f6a0f8323";
  constexpr const char* kWithC1 =
      "ce3892f26a12dd3f9235338fde4da7fe8dde2964dcba3816051e6b001304428c";
  EXPECT_EQ(digests(), std::make_pair(std::string(kGolden),
                                      std::string(kWithC1)))
      << "without fixed-base tables";
  crs->qtmc().precompute_fixed_bases(/*position_bases=*/true);
  EXPECT_EQ(digests(), std::make_pair(std::string(kGolden),
                                      std::string(kWithC1)))
      << "with fixed-base tables";
}

// Pins the public parameters' wire form and so EdbCrs::digest(), the CRS
// identity that verification-cache keys bind. The soft-backing byte stays
// in the blob as a constant 0, so neither moves.
TEST(SeededProverGoldenTest, PublicParamsBytesArePinned) {
  constexpr const char* kGolden =
      "1cb5c79febf8963d9d77d1b0b8ed3a5c7ca876bb18eb6a2b5ca8845507cbfbb9";
  const EdbCrsPtr crs = fixed_crs();
  EXPECT_EQ(to_hex(sha256(crs->params().serialize())), kGolden);
  EXPECT_EQ(to_hex(crs->digest()), kGolden);
}

// Pins the update path the same way: a seeded prover's commitment after
// each step of an insert/erase sequence, then one membership proof. The
// sequence grows a fresh branch, prunes one, regrows it (with fresh soft
// backing: a pruned prefix keeps nothing), and erases back down to soft
// backing.
TEST(SeededProverGoldenTest, InsertEraseSequenceIsPinned) {
  constexpr const char* kGolden =
      "17f53762286bbac72297dd435d4c2cf70f8292d34fa2ee4ed8f6391273d0bad6";
  constexpr const char* kWithC1 =
      "6802f7fd131e9e3e15307bfce817dd267148c2d24c8c73bb52db29473893e15b";
  const EdbCrsPtr crs = fixed_crs();
  const auto entries = test_entries(*crs, 12);
  const EdbKey late = key_of(*crs, "late-arrival");
  const EdbKey first = key_of(*crs, "prod-0");
  const auto digests = [&](unsigned threads) {
    EdbProver prover(crs, entries, seeded(threads));
    Bytes transcript;
    const auto step = [&] { append(transcript, prover.commitment_bytes()); };
    prover.insert(late, bytes_of("late"));
    step();
    prover.erase(first);
    step();
    prover.insert(first, bytes_of("back"));
    step();
    prover.erase(late);
    step();
    const EdbMembershipProof proof = prover.prove_membership(first);
    return std::make_pair(
        to_hex(sha256(concat({transcript, proof.serialize(*crs)}))),
        to_hex(sha256(concat({transcript, with_derived_c1(*crs, proof)}))));
  };
  const auto pinned =
      std::make_pair(std::string(kGolden), std::string(kWithC1));
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_EQ(digests(threads), pinned)
        << "without fixed-base tables, threads=" << threads;
  }
  crs->qtmc().precompute_fixed_bases(/*position_bases=*/true);
  EXPECT_EQ(digests(4), pinned) << "with fixed-base tables";
}

}  // namespace
}  // namespace desword::zkedb
