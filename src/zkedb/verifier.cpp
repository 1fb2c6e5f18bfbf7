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

/// Digest of a serialized child commitment at depth `child_depth`
/// (leaf iff == height). Returns nullopt on malformed bytes.
std::optional<Bytes> child_digest(const EdbCrs& crs, BytesView serialized,
                                  std::uint32_t child_depth) {
  try {
    if (child_depth == crs.height()) {
      return crs.digest_leaf(
          mercurial::TmcCommitment::deserialize(crs.group(), serialized));
    }
    return crs.digest_inner(mercurial::QtmcCommitment::deserialize(
        crs.params().qtmc_pk.n, serialized));
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// The commitments a membership proof opens, root first: `root` as
/// received (from the POC), then each inner node's shipped C0 with
/// C1 = h^{r1} of its own opening. nullopt — before any power is taken —
/// when the proof has the wrong shape, opens off the key's digits, ships
/// a C0 that is not one modulus-width element, or carries an r1 outside
/// QtmcScheme::exponent_in_range. The h − 1 powers fan out over `pool`.
std::optional<std::vector<mercurial::QtmcCommitment>> opened_commitments(
    const EdbCrs& crs, const mercurial::QtmcCommitment& root,
    const EdbKey& key, const EdbMembershipProof& proof, ThreadPool* pool) {
  const std::uint32_t h = crs.height();
  if (proof.openings.size() != h || proof.child_commitments.size() != h) {
    return std::nullopt;
  }
  const mercurial::QtmcScheme& qtmc = crs.qtmc();
  const std::vector<std::uint32_t> digits = crs.digits_of(key);
  std::vector<mercurial::QtmcCommitment> coms(h);
  coms[0] = root;
  for (std::uint32_t d = 0; d < h; ++d) {
    if (proof.openings[d].pos != digits[d]) return std::nullopt;
    if (d == 0) continue;
    const Bytes& c0 = proof.child_commitments[d - 1];
    if (c0.size() != qtmc.element_len() ||
        !mercurial::QtmcScheme::exponent_in_range(proof.openings[d].r1)) {
      return std::nullopt;
    }
    coms[d].c0 = Bignum::from_bytes(c0);
  }
  parallel_for(pool, h - 1, [&](std::size_t i) {
    coms[i + 1].c1 = qtmc.hard_c1(proof.openings[i + 1].r1);
  });
  return coms;
}

/// Whether step d's opened message is the digest of the node below it:
/// the next opened commitment, or the shipped leaf commitment at the last
/// step. May throw Error on malformed leaf bytes (callers catch).
bool opens_to_child(const EdbCrs& crs,
                    const std::vector<mercurial::QtmcCommitment>& coms,
                    const EdbMembershipProof& proof, std::uint32_t d) {
  if (d + 1 < crs.height()) {
    return crs.digest_inner(coms[d + 1]) == proof.openings[d].message;
  }
  return crs.digest_leaf(mercurial::TmcCommitment::deserialize(
             crs.group(), proof.child_commitments[d])) ==
         proof.openings[d].message;
}

/// The root's C1 arrives with it; every other level's was derived.
mercurial::C1Origin c1_origin(std::uint32_t depth) {
  return depth == 0 ? mercurial::C1Origin::kReceived
                    : mercurial::C1Origin::kDerived;
}

/// Walks a membership chain, accumulating every opening into `bv` (one
/// already-begun unit) and running all non-equation checks: digit
/// positions, chain digests, the leaf value digest. Returns false — the
/// caller must then fail the unit — when any of them rejects; the proof is
/// valid iff this returns true AND the unit's equations verify. May throw
/// Error on malformed bytes (callers catch).
bool add_membership_chain(const EdbCrs& crs,
                          const mercurial::QtmcCommitment& root,
                          const EdbKey& key, const EdbMembershipProof& proof,
                          mercurial::BatchVerifier& bv, ThreadPool* pool) {
  const auto coms = opened_commitments(crs, root, key, proof, pool);
  if (!coms.has_value()) return false;
  const std::uint32_t h = crs.height();
  for (std::uint32_t d = 0; d < h; ++d) {
    if (!bv.add_open((*coms)[d], proof.openings[d], c1_origin(d)) ||
        !opens_to_child(crs, *coms, proof, d)) {
      return false;
    }
  }
  const mercurial::TmcCommitment leaf_com = mercurial::TmcCommitment::deserialize(
      crs.group(), proof.child_commitments[h - 1]);
  if (!bv.add_leaf_open(leaf_com, proof.leaf_opening)) return false;
  return proof.leaf_opening.message == leaf_value_digest(proof.value);
}

/// Non-membership analogue of add_membership_chain (teases instead of
/// openings, null message at the leaf).
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
  for (std::uint32_t d = 0; d < h; ++d) {
    const mercurial::QtmcTease& tease = proof.teases[d];
    if (tease.pos != digits[d]) return false;
    if (!bv.add_tease(cur, tease)) return false;
    const auto digest = child_digest(crs, proof.child_commitments[d], d + 1);
    if (!digest.has_value() || *digest != tease.message) return false;
    if (d + 1 < h) {
      cur = mercurial::QtmcCommitment::deserialize(crs.params().qtmc_pk.n,
                                                   proof.child_commitments[d]);
    }
  }
  const mercurial::TmcCommitment leaf_com = mercurial::TmcCommitment::deserialize(
      crs.group(), proof.child_commitments[h - 1]);
  if (!bv.add_leaf_tease(leaf_com, proof.leaf_tease)) return false;
  return proof.leaf_tease.message == mercurial::null_message();
}

VerifyOutcome verify_membership_scalar(const EdbCrs& crs,
                                       const mercurial::QtmcCommitment& root,
                                       const EdbKey& key,
                                       const EdbMembershipProof& proof,
                                       ThreadPool* pool) {
  try {
    const auto coms = opened_commitments(crs, root, key, proof, pool);
    if (!coms.has_value()) return VerifyOutcome::reject();
    const std::uint32_t h = crs.height();
    for (std::uint32_t d = 0; d < h; ++d) {
      if (!crs.qtmc().verify_open((*coms)[d], proof.openings[d],
                                  c1_origin(d)) ||
          !opens_to_child(crs, *coms, proof, d)) {
        return VerifyOutcome::reject();
      }
    }
    const mercurial::TmcCommitment leaf_com =
        mercurial::TmcCommitment::deserialize(crs.group(),
                                              proof.child_commitments[h - 1]);
    if (!crs.tmc().verify_open(leaf_com, proof.leaf_opening)) {
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
    for (std::uint32_t d = 0; d < h; ++d) {
      const mercurial::QtmcTease& tease = proof.teases[d];
      if (tease.pos != digits[d]) return false;
      if (!crs.qtmc().verify_tease(cur, tease)) return false;
      const auto digest = child_digest(crs, proof.child_commitments[d], d + 1);
      if (!digest.has_value() || *digest != tease.message) return false;
      if (d + 1 < h) {
        cur = mercurial::QtmcCommitment::deserialize(
            crs.params().qtmc_pk.n, proof.child_commitments[d]);
      }
    }
    const mercurial::TmcCommitment leaf_com =
        mercurial::TmcCommitment::deserialize(crs.group(),
                                              proof.child_commitments[h - 1]);
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
    mercurial::BatchVerifier bv(crs.qtmc(), &crs.tmc());
    bv.begin_unit();
    if (!add_membership_chain(crs, root, key, proof, bv, pool)) {
      return VerifyOutcome::reject();
    }
    if (!bv.verify(pool).all_ok) {
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
    };
    std::vector<Pending> pending;
    for (std::size_t i = begin; i < end; ++i) {
      if (queries[i].proof == nullptr) continue;
      batched_verifies().add();
      const std::size_t unit = bv.begin_unit();
      bool ok = false;
      try {
        ok = add_membership_chain(crs, root, queries[i].key,
                                  *queries[i].proof, bv, nullptr);
      } catch (const Error&) {
        ok = false;
      }
      if (!ok) {
        bv.fail_unit();
        continue;  // rejected before the equations; stays rejected
      }
      pending.push_back({i, unit});
    }
    // Same exception discipline as the scalar verifiers: a verify() throw
    // (BN_* failure, internal check) rejects the shard's pending units —
    // their results stay rejected — instead of escaping the pool worker.
    // No pool for the fold: the shards already occupy it.
    try {
      const mercurial::BatchVerifier::Result res = bv.verify();
      for (const Pending& p : pending) {
        if (res.unit_ok[p.unit]) {
          results[p.query] =
              VerifyOutcome::accept_value(queries[p.query].proof->value);
        }
      }
    } catch (const Error&) {
    }
  });
  return results;
}

}  // namespace desword::zkedb
