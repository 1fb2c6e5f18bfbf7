#include "zkedb/verifier.h"

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "common/thread_pool.h"
#include "mercurial/batch_verify.h"
#include "mercurial/message.h"
#include "obs/metrics.h"

namespace desword::zkedb {

namespace {

/// Verification runs concurrently from the thread pool (see
/// edb_verify_membership_many), which the histogram's atomic buckets are
/// built for — no extra synchronization here.
obs::Histogram& verify_wall_ms() {
  static obs::Histogram& h = obs::histogram_metric("zkedb.verify.wall_ms");
  return h;
}

obs::Counter& batched_verifies() {
  static obs::Counter& c = obs::metric("zkedb.verify.batched");
  return c;
}

obs::Counter& scalar_verifies() {
  static obs::Counter& c = obs::metric("zkedb.verify.scalar");
  return c;
}

/// A membership proof's commitments, decoded: `inner` is the root as
/// received (from the POC), then each inner child's shipped C0 with its C1
/// left for the verifier to derive as h^{r1} of the child's own opening;
/// `leaf` is the shipped leaf commitment.
struct OpenedChain {
  std::vector<mercurial::QtmcCommitment> inner;
  mercurial::TmcCommitment leaf;
};

/// Decodes a membership proof's commitments after every structural check
/// that needs no power: nullopt when the proof has the wrong shape, opens
/// off the key's digits, ships a C0 that is not one modulus-width element,
/// or carries an r1 outside QtmcScheme::exponent_in_range. May throw Error
/// on malformed leaf bytes (callers catch).
std::optional<OpenedChain> decode_chain(const EdbCrs& crs,
                                        const mercurial::QtmcCommitment& root,
                                        const EdbKey& key,
                                        const EdbMembershipProof& proof) {
  const std::uint32_t h = crs.height();
  if (proof.openings.size() != h || proof.child_commitments.size() != h) {
    return std::nullopt;
  }
  const mercurial::QtmcScheme& qtmc = crs.qtmc();
  const std::vector<std::uint32_t> digits = crs.digits_of(key);
  OpenedChain chain;
  chain.inner.resize(h);
  chain.inner[0] = root;
  for (std::uint32_t d = 0; d < h; ++d) {
    if (proof.openings[d].pos != digits[d]) return std::nullopt;
    if (d == 0) continue;
    const Bytes& c0 = proof.child_commitments[d - 1];
    if (c0.size() != qtmc.element_len() ||
        !mercurial::QtmcScheme::exponent_in_range(proof.openings[d].r1)) {
      return std::nullopt;
    }
    chain.inner[d].c0 = Bignum::from_bytes(c0);
  }
  chain.leaf = mercurial::TmcCommitment::deserialize(
      crs.group(), proof.child_commitments[h - 1]);
  return chain;
}

/// Whether step d's opened message is the digest of the node below it:
/// the next inner commitment (its C1 derived by then), or the leaf.
bool opens_to_child(const EdbCrs& crs, const OpenedChain& chain,
                    const EdbMembershipProof& proof, std::uint32_t d) {
  const Bytes digest = d + 1 < crs.height()
                           ? crs.digest_inner(chain.inner[d + 1])
                           : crs.digest_leaf(chain.leaf);
  return digest == proof.openings[d].message;
}

/// opens_to_child at every step.
bool chain_digests_match(const EdbCrs& crs, const OpenedChain& chain,
                         const EdbMembershipProof& proof) {
  for (std::uint32_t d = 0; d < crs.height(); ++d) {
    if (!opens_to_child(crs, chain, proof, d)) return false;
  }
  return true;
}

/// The root's C1 arrives with it; every other level's is derived.
mercurial::C1Origin c1_origin(std::uint32_t depth) {
  return depth == 0 ? mercurial::C1Origin::kReceived
                    : mercurial::C1Origin::kDerived;
}

/// Accumulates a decoded membership chain into `bv` (one already-begun
/// unit) — every opening, the leaf opening, and the derivation of each
/// inner C1 for bv's pass — and checks the leaf's value digest. Returns
/// false, the caller then failing the unit, when a check rejects. The
/// proof is valid iff this returns true AND the unit's equations verify
/// AND, once verify() derived the C1s, chain_digests_match. May throw
/// Error on malformed bytes (callers catch).
bool add_membership_chain(const EdbCrs& crs, OpenedChain& chain,
                          const EdbMembershipProof& proof,
                          mercurial::BatchVerifier& bv) {
  const std::uint32_t h = crs.height();
  for (std::uint32_t d = 0; d < h; ++d) {
    if (!bv.add_open(chain.inner[d], proof.openings[d], c1_origin(d))) {
      return false;
    }
  }
  if (!bv.add_leaf_open(chain.leaf, proof.leaf_opening)) return false;
  if (proof.leaf_opening.message != leaf_value_digest(proof.value)) {
    return false;
  }
  for (std::uint32_t d = 1; d < h; ++d) {
    bv.derive_c1(proof.openings[d].r1, &chain.inner[d].c1);
  }
  return true;
}

/// Non-membership analogue of add_membership_chain (teases instead of
/// openings, null message at the leaf). A tease reveals no r1, so every
/// child commitment is shipped whole and its digest is checked here.
bool add_non_membership_chain(const EdbCrs& crs,
                              const mercurial::QtmcCommitment& root,
                              const EdbKey& key,
                              const EdbNonMembershipProof& proof,
                              mercurial::BatchVerifier& bv) {
  const std::uint32_t h = crs.height();
  if (proof.teases.size() != h || proof.child_commitments.size() != h) {
    return false;
  }
  const std::vector<std::uint32_t> digits = crs.digits_of(key);

  mercurial::QtmcCommitment cur = root;
  for (std::uint32_t d = 0; d + 1 < h; ++d) {
    const mercurial::QtmcTease& tease = proof.teases[d];
    if (tease.pos != digits[d]) return false;
    if (!bv.add_tease(cur, tease)) return false;
    cur = mercurial::QtmcCommitment::deserialize(crs.params().qtmc_pk.n,
                                                 proof.child_commitments[d]);
    if (crs.digest_inner(cur) != tease.message) return false;
  }
  const mercurial::QtmcTease& last = proof.teases[h - 1];
  if (last.pos != digits[h - 1]) return false;
  if (!bv.add_tease(cur, last)) return false;
  const mercurial::TmcCommitment leaf_com = mercurial::TmcCommitment::deserialize(
      crs.group(), proof.child_commitments[h - 1]);
  if (crs.digest_leaf(leaf_com) != last.message) return false;
  if (!bv.add_leaf_tease(leaf_com, proof.leaf_tease)) return false;
  return proof.leaf_tease.message == mercurial::null_message();
}

VerifyOutcome verify_membership_scalar(const EdbCrs& crs,
                                       const mercurial::QtmcCommitment& root,
                                       const EdbKey& key,
                                       const EdbMembershipProof& proof,
                                       ThreadPool* pool) {
  try {
    auto chain = decode_chain(crs, root, key, proof);
    if (!chain.has_value()) return VerifyOutcome::reject();
    const std::uint32_t h = crs.height();
    parallel_for(pool, h - 1, [&](std::size_t i) {
      chain->inner[i + 1].c1 = crs.qtmc().hard_c1(proof.openings[i + 1].r1);
    });
    for (std::uint32_t d = 0; d < h; ++d) {
      if (!crs.qtmc().verify_open(chain->inner[d], proof.openings[d],
                                  c1_origin(d)) ||
          !opens_to_child(crs, *chain, proof, d)) {
        return VerifyOutcome::reject();
      }
    }
    if (!crs.tmc().verify_open(chain->leaf, proof.leaf_opening)) {
      return VerifyOutcome::reject();
    }
    if (proof.leaf_opening.message != leaf_value_digest(proof.value)) {
      return VerifyOutcome::reject();
    }
    return VerifyOutcome::accept_value(proof.value);
  } catch (const Error&) {
    return VerifyOutcome::reject();
  }
}

bool verify_non_membership_scalar(const EdbCrs& crs,
                                  const mercurial::QtmcCommitment& root,
                                  const EdbKey& key,
                                  const EdbNonMembershipProof& proof) {
  try {
    const std::uint32_t h = crs.height();
    if (proof.teases.size() != h || proof.child_commitments.size() != h) {
      return false;
    }
    const std::vector<std::uint32_t> digits = crs.digits_of(key);

    mercurial::QtmcCommitment cur = root;
    for (std::uint32_t d = 0; d + 1 < h; ++d) {
      const mercurial::QtmcTease& tease = proof.teases[d];
      if (tease.pos != digits[d]) return false;
      if (!crs.qtmc().verify_tease(cur, tease)) return false;
      cur = mercurial::QtmcCommitment::deserialize(crs.params().qtmc_pk.n,
                                                   proof.child_commitments[d]);
      if (crs.digest_inner(cur) != tease.message) return false;
    }
    const mercurial::QtmcTease& last = proof.teases[h - 1];
    if (last.pos != digits[h - 1]) return false;
    if (!crs.qtmc().verify_tease(cur, last)) return false;
    const mercurial::TmcCommitment leaf_com =
        mercurial::TmcCommitment::deserialize(crs.group(),
                                              proof.child_commitments[h - 1]);
    if (crs.digest_leaf(leaf_com) != last.message) return false;
    if (!crs.tmc().verify_tease(leaf_com, proof.leaf_tease)) return false;
    return proof.leaf_tease.message == mercurial::null_message();
  } catch (const Error&) {
    return false;
  }
}

}  // namespace

VerifyOutcome edb_verify_membership(const EdbCrs& crs,
                                    const mercurial::QtmcCommitment& root,
                                    const EdbKey& key,
                                    const EdbMembershipProof& proof,
                                    const EdbVerifyOptions& opts) {
  const obs::ScopedTimer timer(verify_wall_ms());
  ThreadPool* pool = ThreadPool::for_threads(opts.threads);
  if (!opts.batched) {
    scalar_verifies().add();
    return verify_membership_scalar(crs, root, key, proof, pool);
  }
  batched_verifies().add();
  try {
    // Every power-free check first; then one pass takes the fold's powers
    // and derives the inner C1s; then the digest chain, which reads them.
    auto chain = decode_chain(crs, root, key, proof);
    if (!chain.has_value()) return VerifyOutcome::reject();
    mercurial::BatchVerifier bv(crs.qtmc(), &crs.tmc());
    bv.begin_unit();
    if (!add_membership_chain(crs, *chain, proof, bv) ||
        !bv.verify(pool).all_ok || !chain_digests_match(crs, *chain, proof)) {
      return VerifyOutcome::reject();
    }
    return VerifyOutcome::accept_value(proof.value);
  } catch (const Error&) {
    return VerifyOutcome::reject();
  }
}

VerifyOutcome edb_verify_non_membership(const EdbCrs& crs,
                                        const mercurial::QtmcCommitment& root,
                                        const EdbKey& key,
                                        const EdbNonMembershipProof& proof,
                                        const EdbVerifyOptions& opts) {
  const obs::ScopedTimer timer(verify_wall_ms());
  if (!opts.batched) {
    scalar_verifies().add();
    return verify_non_membership_scalar(crs, root, key, proof)
               ? VerifyOutcome::accept()
               : VerifyOutcome::reject();
  }
  batched_verifies().add();
  try {
    mercurial::BatchVerifier bv(crs.qtmc(), &crs.tmc());
    bv.begin_unit();
    if (!add_non_membership_chain(crs, root, key, proof, bv)) {
      return VerifyOutcome::reject();
    }
    return bv.verify(ThreadPool::for_threads(opts.threads)).all_ok
               ? VerifyOutcome::accept()
               : VerifyOutcome::reject();
  } catch (const Error&) {
    return VerifyOutcome::reject();
  }
}

std::vector<VerifyOutcome> edb_verify_membership_many(
    const EdbCrs& crs, const mercurial::QtmcCommitment& root,
    const std::vector<EdbMembershipQuery>& queries,
    const EdbVerifyOptions& opts) {
  std::vector<VerifyOutcome> results(queries.size());
  ThreadPool* pool = ThreadPool::for_threads(opts.threads);

  if (!opts.batched) {
    // Proof verification is pure (crs and root are only read), so queries
    // are embarrassingly parallel.
    parallel_for(pool, queries.size(), [&](std::size_t i) {
      if (queries[i].proof == nullptr) return;
      results[i] = edb_verify_membership(crs, root, queries[i].key,
                                         *queries[i].proof, opts);
    });
    return results;
  }

  // Batched: contiguous shards, one BatchVerifier per worker so each fold
  // spans as many proofs as possible (the fold's win grows with the number
  // of merged equations). Units are proofs, so a bad proof in a shard is
  // bisected down to its own slot and everything else still passes.
  const std::size_t shards =
      pool == nullptr
          ? 1
          : std::max<std::size_t>(
                1, std::min<std::size_t>(pool->concurrency(), queries.size()));
  parallel_for(pool, shards, [&](std::size_t s) {
    const std::size_t begin = queries.size() * s / shards;
    const std::size_t end = queries.size() * (s + 1) / shards;
    if (begin == end) return;
    const obs::ScopedTimer timer(verify_wall_ms());
    mercurial::BatchVerifier bv(crs.qtmc(), &crs.tmc());
    struct Pending {
      std::size_t query;
      std::size_t unit;
      OpenedChain chain;  // bv derives its C1s in place
    };
    // Reserved up front: bv holds pointers into the chains' commitments.
    std::vector<Pending> pending;
    pending.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      if (queries[i].proof == nullptr) continue;
      batched_verifies().add();
      const std::size_t unit = bv.begin_unit();
      const EdbMembershipProof& proof = *queries[i].proof;
      bool ok = false;
      try {
        auto chain = decode_chain(crs, root, queries[i].key, proof);
        if (chain.has_value()) {
          pending.push_back({i, unit, std::move(*chain)});
          ok = add_membership_chain(crs, pending.back().chain, proof, bv);
          if (!ok) pending.pop_back();
        }
      } catch (const Error&) {
        ok = false;
      }
      if (!ok) bv.fail_unit();  // rejected before the equations; stays so
    }
    // Same exception discipline as the scalar verifiers: a verify() throw
    // (BN_* failure, internal check) rejects the shard's pending units —
    // their results stay rejected — instead of escaping the pool worker.
    // No pool for the fold: the shards already occupy it, so each pass
    // runs its jobs in order on this worker.
    try {
      const mercurial::BatchVerifier::Result res = bv.verify();
      for (const Pending& p : pending) {
        const EdbMembershipProof& proof = *queries[p.query].proof;
        if (res.unit_ok[p.unit] && chain_digests_match(crs, p.chain, proof)) {
          results[p.query] = VerifyOutcome::accept_value(proof.value);
        }
      }
    } catch (const Error&) {
    }
  });
  return results;
}

}  // namespace desword::zkedb
