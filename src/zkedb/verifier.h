// ZK-EDB verification (the paper's EDB-Verify).
//
// Verification walks the proof chain from the root commitment, checking at
// every depth that (a) the opening/tease is valid for the current node's
// commitment, (b) it is at the key's digit position, and (c) its message
// equals the digest of the next node's commitment. Verification cost is
// O(height) and independent of q — the property Figure 5 measures.
//
// Two execution strategies produce the same accept/reject decisions:
//   * scalar — each opening is verified on its own (3–4 exponentiations);
//   * batched (default) — the chain's verification equations are folded
//     into one multi-exponentiation by a mercurial::BatchVerifier, with
//     scalar re-checks behind the bisection on failure (see
//     mercurial/batch_verify.h for the soundness argument).
//
// Both flavours return a `VerifyOutcome` (verify_cache.h): `ok` is the
// verdict; memberships additionally carry the proven value D(key).
#pragma once

#include <vector>

#include "zkedb/proof.h"
#include "zkedb/verify_cache.h"

namespace desword::zkedb {

/// Controls HOW verification executes, never WHAT it decides: the batched
/// and scalar strategies accept/reject identically (batched falls back to
/// exact scalar re-checks when a fold fails). Every call does the full
/// verification; memoizing verdicts is the proxy's job (its hop memo,
/// zkedb/verify_cache.h).
struct EdbVerifyOptions {
  bool batched = true;  // fold proof-chain equations into one multi-exp
  /// Worker threads: the *_many fan-out, and the pool one batched
  /// proof's verification pass runs its jobs on (see
  /// BatchVerifier::verify). 0 = default
  /// (DESWORD_THREADS env var, else hardware_concurrency()), 1 = fully
  /// sequential.
  unsigned threads = 0;
};

/// Verifies a membership proof against `root`. On success the outcome is
/// accepted and carries the proven value D(key). Never throws on
/// malformed proof content.
VerifyOutcome edb_verify_membership(const EdbCrs& crs,
                                    const mercurial::QtmcCommitment& root,
                                    const EdbKey& key,
                                    const EdbMembershipProof& proof,
                                    const EdbVerifyOptions& opts = {});

/// Verifies a non-membership proof against `root`. Accepted iff the
/// prover demonstrated D(key) = ⊥ (the outcome never carries a value).
VerifyOutcome edb_verify_non_membership(const EdbCrs& crs,
                                        const mercurial::QtmcCommitment& root,
                                        const EdbKey& key,
                                        const EdbNonMembershipProof& proof,
                                        const EdbVerifyOptions& opts = {});

/// One key/proof pair of a verification sweep.
struct EdbMembershipQuery {
  EdbKey key;
  const EdbMembershipProof* proof;
};

/// Verifies many independent membership proofs, fanning the per-proof work
/// out over `opts.threads` workers (0 = default: DESWORD_THREADS env, else
/// hardware_concurrency()). result[i] corresponds to queries[i] and equals
/// what edb_verify_membership would return for it. With `opts.batched`,
/// each worker folds its whole shard of proofs into one batch — the main
/// throughput lever of this module (see bench_zkedb VerifyManyBatched).
/// The shards already fill the pool, so each shard's verification pass
/// runs its jobs in order on its worker.
std::vector<VerifyOutcome> edb_verify_membership_many(
    const EdbCrs& crs, const mercurial::QtmcCommitment& root,
    const std::vector<EdbMembershipQuery>& queries,
    const EdbVerifyOptions& opts = {});

}  // namespace desword::zkedb
