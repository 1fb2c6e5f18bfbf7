// ZK-EDB prover: commits a database and answers membership /
// non-membership queries.
//
// Committing builds the trie of committed keys bottom-up: leaves are TMC
// hard commitments to H(value); every inner trie node is a qTMC hard
// commitment over its q child digests, where every absent child points at
// the node's one soft backing commitment (DESIGN.md §5.3: siblings'
// absences share a digest). Non-membership proofs fabricate soft nodes
// lazily below the committed trie; fabrications are memoized so repeated
// queries present a consistent view.
//
// The prover object *is* the (Com, Dec) pair of the paper's EDB-commit:
// `commitment()` is Com, the internal state is Dec.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "crypto/randsource.h"
#include "mercurial/message.h"
#include "mercurial/qtmc.h"
#include "zkedb/proof.h"

namespace desword::zkedb {

/// Knobs for EDB-commit (and later updates) on an EdbProver.
struct EdbProverOptions {
  /// Worker threads for EDB-commit and insert/erase (DESIGN.md §5.4) and
  /// for the per-level openings of each proof: 0 = default
  /// (DESWORD_THREADS env var, else hardware_concurrency()), 1 = fully
  /// sequential. Commitments and membership proofs are identical at any
  /// thread count when `seed` is set; without a seed the CSPRNG makes every
  /// build unique anyway.
  unsigned threads = 0;
  /// Deterministic commitment randomness. When set, every node draws its
  /// randomizers from a DRBG keyed by H(seed, role, node position), so the
  /// commitment (and all proofs) are byte-identical across runs and thread
  /// counts. Leave unset for production use (CSPRNG).
  std::optional<Bytes> seed;
};

class EdbProver {
 public:
  /// EDB-commit: builds the tree over `entries` (key -> value). Keys must
  /// be unique, 16 bytes, within [0, q^height).
  EdbProver(EdbCrsPtr crs, const std::map<Bytes, Bytes>& entries,
            const EdbProverOptions& options = {});

  // Movable (moving a prover that other threads are using is undefined).
  EdbProver(EdbProver&& other) noexcept = default;
  EdbProver& operator=(EdbProver&& other) noexcept = default;

  /// Com: the root qTMC commitment.
  const mercurial::QtmcCommitment& commitment() const { return root_com_; }
  /// Com in wire form.
  Bytes commitment_bytes() const;

  const EdbCrs& crs() const { return *crs_; }
  std::size_t size() const { return values_.size(); }
  bool contains(const EdbKey& key) const;
  /// The committed value for `key`, if any.
  std::optional<Bytes> value_of(const EdbKey& key) const;

  /// EDB-proof for x ∈ [D]. Throws ProtocolError if the key is absent.
  /// Read-only: safe to call concurrently from many threads. The h + 1
  /// openings are computed in parallel (EdbProverOptions::threads).
  EdbMembershipProof prove_membership(const EdbKey& key) const;

  /// EDB-proof for x ∉ [D]. Throws ProtocolError if the key is present.
  /// Mutates internal memoization state (fabricated soft subtrees), so
  /// calls must not overlap each other or serialize_state(). The per-level
  /// teases and fabricated soft nodes are computed in parallel; seeds,
  /// soft-node ids and memo entries are still assigned in level order.
  EdbNonMembershipProof prove_non_membership(const EdbKey& key);

  /// Inserts a new entry, recommitting the affected root-to-leaf path
  /// (extension: dynamic databases). The root commitment CHANGES; the
  /// owner must re-publish its POC. Throws ProtocolError if the key is
  /// already present or out of range.
  void insert(const EdbKey& key, const Bytes& value);

  /// Removes an entry, recommitting the affected path (and pruning
  /// now-empty branches). The root commitment changes. Throws
  /// ProtocolError if the key is absent.
  void erase(const EdbKey& key);

  /// Serializes the full prover state (Dec): commitments, decommitments,
  /// soft backing nodes and memoized fabrications. Participants persist
  /// this across sessions — rebuilding from the entries alone would
  /// resample randomness and change the commitment.
  Bytes serialize_state() const;

  /// Restores a prover from `serialize_state` output. The resulting
  /// prover produces proofs valid under the original commitment.
  static EdbProver load(EdbCrsPtr crs, BytesView state);

 private:
  /// A node digest (EdbCrs::digest_inner / digest_leaf), stored inline.
  using Digest = std::array<std::uint8_t, mercurial::kMessageBytes>;
  /// One qTMC randomizer as fixed-width big-endian bytes.
  static constexpr std::size_t kRandomizerBytes =
      mercurial::kRandomizerBits / 8;
  using Randomizer = std::array<std::uint8_t, kRandomizerBytes>;

  // An inner trie node keeps only what nothing else determines: its
  // randomizers, and its digest (which its parent commits to). Its
  // messages are its children's digests, or its soft backing's at absent
  // children (inner_dec), and its commitment follows from both
  // (QtmcScheme::hard_commitment, recomputed when a proof or
  // serialize_state needs it). Storing them would triple the node's
  // memory, and every committed task keeps h nodes per key.
  struct InnerNode {
    Digest digest;
    Randomizer z, r0, r1;
  };
  static Digest to_digest(BytesView digest);
  /// Throws CryptoError when `x` is wider than a randomizer.
  static Randomizer to_randomizer(const Bignum& x);
  static Bignum to_bignum(const Randomizer& r);
  struct LeafNode {
    mercurial::TmcCommitment com;
    mercurial::TmcHardDecommit dec;
  };
  struct SoftInner {
    // Its digest, which the parent commits to, but no commitment: that is
    // a function of `dec` (QtmcScheme::soft_commitment, two fixed-base
    // powers), recomputed when a walk serializes it. Storing it would cost
    // ~40% of the node's memory, and every committed task leaves backing
    // nodes behind.
    Digest digest;
    mercurial::QtmcSoftDecommit dec;
    // digit -> (memoized tease, child soft-node id)
    std::map<std::uint32_t, std::pair<mercurial::QtmcTease, std::size_t>>
        teases;
  };
  struct SoftLeaf {
    mercurial::TmcCommitment com;
    mercurial::TmcSoftDecommit dec;
  };
  using SoftNode = std::variant<SoftInner, SoftLeaf>;

  /// Uninitialized shell used by `load`.
  explicit EdbProver(EdbCrsPtr crs) : crs_(std::move(crs)) {}

  using BuildEntry = std::pair<std::vector<std::uint32_t>, Bytes>;

  // One trie node that an EDB-commit, insert or erase (re)commits. A plan
  // lists its nodes children before parents and commit_plan commits them
  // in two passes (DESIGN.md §5.4).
  struct PlanNode {
    std::string prefix;  // its length is the node depth
    const Bytes* value = nullptr;  // leaf: the committed value (caller's)
    // Inner: the q child digests. Slots at `children` (digit, plan index)
    // are bound to the digests of those plan nodes; the other empty slots
    // are backed by soft nodes.
    std::vector<Bytes> messages;
    std::vector<std::pair<std::uint32_t, std::size_t>> children;
    // Filled by commit_plan.
    std::optional<SoftNode> new_backing;
    std::optional<mercurial::QtmcCommitDraft> draft;
    std::variant<std::monostate, InnerNode, LeafNode> node;
    Bytes digest;
  };

  /// Appends the subtree over entries[lo, hi) under `prefix` to `plan` and
  /// returns the subtree root's plan index.
  std::size_t plan_subtree(const std::vector<BuildEntry>& entries,
                           const std::string& prefix, std::size_t lo,
                           std::size_t hi, std::vector<PlanNode>& plan) const;

  /// Appends the new leaf for `digits` and its chain of new inner nodes up
  /// to depth `from_depth` (each with exactly one trie child) to `plan`.
  void grow_branch(const std::vector<std::uint32_t>& digits,
                   std::uint32_t from_depth, const Bytes& value,
                   std::vector<PlanNode>& plan) const;

  /// Appends the committed nodes from `depth` up to the root to `plan`,
  /// each keeping its child digests except at digits[d]: the node at
  /// `depth` binds there to the last node of `plan` (insert) or, when
  /// `plan` is empty, to soft backing (erase); each node above to the node
  /// below it.
  void recommit_path(const std::vector<std::uint32_t>& digits,
                     std::uint32_t depth, std::vector<PlanNode>& plan) const;

  /// Commits every node of `plan`. Pass 1, one parallel_for over all
  /// nodes: leaves hard-commit, inner nodes resolve their soft backing and
  /// draft their commitment. Pass 2, level by level from the deepest: each
  /// inner node binds its children's digests. Then the nodes, new backing
  /// nodes (in plan order) and the root commitment are published. Plan
  /// nodes are distinct trie nodes, and no container is written before
  /// both passes joined, so the passes share no mutable state.
  void commit_plan(std::vector<PlanNode>& plan);

  /// Fills the empty slots of the inner `node` outside its children with
  /// its soft backing's digest: the existing backing node's, or a new
  /// one's, which is kept in node.new_backing for commit_plan to publish.
  void back_absent_children(PlanNode& node) const;

  // Computes a soft node whose *node depth* is `depth` (leaf iff ==
  // height), drawing its randomness from `rng`; returns (node, digest).
  // Pure crypto that touches no container, so it runs in parallel; callers
  // append the node to soft_nodes_ themselves.
  std::pair<SoftNode, Bytes> soft_node(std::uint32_t depth,
                                       RandomSource& rng) const;

  // Digest of a soft node by id.
  Bytes soft_digest(std::size_t id) const;

  // The q messages of the inner trie node at `prefix`: at each digit the
  // child's digest, else the node's soft backing's, else (a node without
  // backing yet: an erase's just-pruned child, which recommit_path
  // rebinds) empty.
  std::vector<Bytes> inner_messages(const std::string& prefix) const;

  // The decommitment of the inner trie node at `prefix`: inner_messages
  // plus its stored randomizers.
  mercurial::QtmcHardDecommit inner_dec(const std::string& prefix) const;

  // Wire form of the commitment an inner decommitment opens.
  Bytes inner_commitment_bytes(const mercurial::QtmcHardDecommit& dec) const;

  // Commitment of a soft node in wire form (recomputed for an inner node,
  // which does not store it).
  Bytes soft_commitment_bytes(const SoftNode& node) const;

  /// DRBG seed for the node identified by (role, id): role 'i' = inner
  /// node keyed by prefix, 'l' = leaf keyed by prefix, 's' = soft backing
  /// keyed by the prefix of the node it backs, 'f' = fabricated soft node
  /// keyed by a counter.
  /// Only meaningful when opts_.seed is set; epoch_ folds updates in so
  /// recommits of the same prefix get fresh randomness.
  Bytes node_seed(char role, std::string_view id) const;

  /// The randomness for the node (role, id): a DRBG on node_seed when
  /// seeded, else the CSPRNG.
  std::unique_ptr<RandomSource> node_rng(char role, std::string_view id) const;

  static std::string child_prefix(const std::string& prefix,
                                  std::uint32_t digit);

  EdbCrsPtr crs_;
  EdbProverOptions opts_;
  // Bumped on every insert/erase so recommitted nodes draw fresh
  // deterministic randomness (seeded mode only).
  std::uint64_t epoch_ = 0;
  // Names fabricated soft nodes in seeded mode (role 'f').
  std::uint64_t fabrication_counter_ = 0;
  // The containers below are written only on the calling thread: commit
  // passes and proof fan-outs read them, and their results are published
  // after the fan-out joined. Parallel phases are covered dynamically by
  // parallel_edb_test and zkedb_update_test under TSan.
  // Trie nodes addressed by digit-prefix strings (one byte per digit).
  std::map<std::string, InnerNode> inner_;
  std::map<std::string, LeafNode> leaves_;
  // Soft backing of absent children, keyed by the trie prefix of the node
  // whose absent children it backs -> soft node id.
  std::map<std::string, std::size_t> soft_backing_;
  // Deque: stable references across push_back, so fabricating a child soft
  // node cannot invalidate the parent reference mid-update (and parallel
  // builders can hold digests while others append).
  std::deque<SoftNode> soft_nodes_;
  std::map<Bytes, Bytes> values_;
  mercurial::QtmcCommitment root_com_;
};

}  // namespace desword::zkedb
