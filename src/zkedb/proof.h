// ZK-EDB proof objects.
//
// Both proof flavours walk the q-ary tree from the root to the key's leaf:
//
//   * membership ("ownership" at the POC layer): hard openings at every
//     inner node plus a hard opening of the leaf TMC to H(value), plus the
//     value itself — the verifier recovers D(x) = value.
//   * non-membership ("non-ownership"): teases at every inner node plus a
//     tease of the (fabricated) leaf to the designated null message.
//
// Each step carries the commitment of the next node so the verifier can
// recompute the digest chain; per-level size is constant in q, which is
// what makes Table II's proof sizes proportional to h only. A membership
// proof ships only C0 of each inner child: the child's hard opening
// reveals r1, which pins C1 = h^{r1}, so the verifier derives C1 instead
// of receiving it (DESIGN.md §5.5). Teases reveal no r1, so a
// non-membership proof ships both halves.
#pragma once

#include <vector>

#include "common/bytes.h"
#include "mercurial/qtmc.h"
#include "mercurial/tmc.h"
#include "zkedb/params.h"

namespace desword::zkedb {

struct EdbMembershipProof {
  /// Hard openings of inner nodes at depths 0..height-1 (root first).
  std::vector<mercurial::QtmcOpening> openings;
  /// For step d < height-1, C0 of the inner node at depth d+1, big-endian
  /// and padded to the modulus width (QtmcScheme::element_len); its C1 is
  /// derived from openings[d+1].r1. The last entry is the leaf's
  /// serialized TMC commitment.
  std::vector<Bytes> child_commitments;
  mercurial::TmcOpening leaf_opening;
  Bytes value;

  Bytes serialize(const EdbCrs& crs) const;
  static EdbMembershipProof deserialize(const EdbCrs& crs, BytesView data);
};

struct EdbNonMembershipProof {
  /// Teases of inner nodes at depths 0..height-1 (root first).
  std::vector<mercurial::QtmcTease> teases;
  /// Serialized commitment (C0 and C1) of the node at depth d+1 for step
  /// d; the last entry is the leaf's TMC commitment.
  std::vector<Bytes> child_commitments;
  /// Tease of the leaf to the null message.
  mercurial::TmcTease leaf_tease;

  Bytes serialize(const EdbCrs& crs) const;
  static EdbNonMembershipProof deserialize(const EdbCrs& crs, BytesView data);
};

/// Digest a leaf value into the TMC message space.
Bytes leaf_value_digest(BytesView value);

}  // namespace desword::zkedb
