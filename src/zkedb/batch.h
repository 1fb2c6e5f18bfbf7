// Batched membership proofs (extension).
//
// Recall checks query many products of one lot against the SAME POC; their
// tree paths share prefixes (always at least the root). A batch proof
// stores each unique (node, position) opening once instead of once per
// key, cutting wire bytes by the shared-prefix factor while preserving the
// exact per-key verification chain: the verifier re-walks every key and
// accepts only if each chain verifies edge by edge.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "zkedb/proof.h"
#include "zkedb/verifier.h"

namespace desword::zkedb {

class EdbProver;

/// One deduplicated step: the opening of the node reached by `prefix`
/// (digit path from the root, one byte per digit) at position
/// `opening.pos`, plus the child it reveals as in EdbMembershipProof: C0
/// of an inner child (its C1 is h^{r1} of the child's own openings, which
/// must all reveal the same r1), or the leaf's serialized TMC commitment
/// at the last level.
struct EdbBatchStep {
  Bytes prefix;  // digits of the node's path (empty = root)
  mercurial::QtmcOpening opening;
  Bytes child_commitment;
};

struct EdbBatchLeaf {
  EdbKey key;
  mercurial::TmcOpening opening;
  Bytes value;
};

struct EdbBatchMembershipProof {
  std::vector<EdbBatchStep> steps;
  std::vector<EdbBatchLeaf> leaves;

  Bytes serialize(const EdbCrs& crs) const;
  static EdbBatchMembershipProof deserialize(const EdbCrs& crs,
                                             BytesView data);
};

/// Proves membership of every key in `keys` (duplicates allowed; all must
/// be present). Mutates nothing. Per-key openings are generated on
/// `threads` workers (0 = default, see EdbProverOptions::threads).
EdbBatchMembershipProof edb_prove_membership_batch(
    const EdbProver& prover, const std::vector<EdbKey>& keys,
    unsigned threads = 0);

/// Verifies the batch against `root`. Returns the proven key -> value map,
/// or nullopt if ANY chain fails (all-or-nothing, so a partially forged
/// batch cannot smuggle values through). The unique edge and leaf checks
/// run on `opts.threads` workers (0 = default); with `opts.batched` each
/// worker folds its edge/leaf shard into one multi-exponentiation.
std::optional<std::map<EdbKey, Bytes>> edb_verify_membership_batch(
    const EdbCrs& crs, const mercurial::QtmcCommitment& root,
    const std::vector<EdbKey>& keys, const EdbBatchMembershipProof& proof,
    const EdbVerifyOptions& opts = {});

}  // namespace desword::zkedb
