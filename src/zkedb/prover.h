// ZK-EDB prover: commits a database and answers membership /
// non-membership queries.
//
// Committing builds the trie of committed keys bottom-up: leaves are TMC
// hard commitments to H(value); every inner trie node is a qTMC hard
// commitment over its q child digests, where every absent child points at
// the node's one soft backing commitment (DESIGN.md §5.3: siblings'
// absences share a digest). Non-membership proofs fabricate soft nodes
// below the committed trie.
//
// Every prover holds a secret key, and every node's randomizers are a DRBG
// on (key, role, epoch, position): a trie node keeps its digest, C0 and the
// epochs it and its backing were drawn under, and re-derives the rest when
// a proof needs it (DESIGN.md §5.4, "Trie-node storage"). A fabricated soft
// node and the lift of the soft tease that opens to it are drawn the same
// way, from its digit path below its backing, so they are never stored: a
// non-membership proof is a function of the key and the committed trie,
// and two proofs whose paths meet present one node there (DESIGN.md §5.3).
//
// The prover object *is* the (Com, Dec) pair of the paper's EDB-commit:
// `commitment()` is Com, the internal state is Dec.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
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
  /// sequential. Commitments and proofs do not depend on it.
  unsigned threads = 0;
  /// Source of the prover's secret key, which every node's randomizers are
  /// derived from (a DRBG on H(key, role, epoch, node position)). Unset,
  /// the key is 32 CSPRNG bytes; set, it is these bytes, so the commitment
  /// and every proof are byte-identical across runs (tests, fixtures,
  /// reproducible corpora). Either way the derivation is the same, and
  /// the key is as secret as the decommitment.
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
  /// Read-only, like prove_membership: a repeat is byte-identical, and
  /// calls may overlap each other and serialize_state(). The per-level
  /// teases and fabricated soft nodes are computed in parallel.
  EdbNonMembershipProof prove_non_membership(const EdbKey& key) const;

  /// Inserts a new entry, recommitting the affected root-to-leaf path
  /// (extension: dynamic databases). The root commitment CHANGES; the
  /// owner must re-publish its POC. Throws ProtocolError if the key is
  /// already present or out of range.
  void insert(const EdbKey& key, const Bytes& value);

  /// Removes an entry, recommitting the affected path (and pruning
  /// now-empty branches). The root commitment changes. Throws
  /// ProtocolError if the key is absent.
  void erase(const EdbKey& key);

  /// Serializes the full prover state (Dec): the entries, the key and
  /// every trie node's epochs. Its size depends on the committed trie
  /// alone, not on the proofs made. Participants persist this across
  /// sessions — rebuilding from the entries alone would draw a new key and
  /// change the commitment.
  Bytes serialize_state() const;

  /// Restores a prover from `serialize_state` output, re-deriving every
  /// node; throws SerializationError unless that reproduces the stored
  /// root commitment, and for a state of an older layout (DESIGN.md §5.4).
  /// The resulting prover produces the original's proofs, byte for byte.
  static EdbProver load(EdbCrsPtr crs, BytesView state);

 private:
  /// A node digest (EdbCrs::digest_inner / digest_leaf), stored inline.
  using Digest = std::array<std::uint8_t, mercurial::kMessageBytes>;
  /// InnerNode::backing_epoch of a node without soft backing.
  static constexpr std::uint64_t kNoBacking = ~std::uint64_t{0};

  // An inner trie node keeps what nothing else gives back cheaply: its
  // digest (which its parent commits to), its soft backing's digest, the
  // epochs it and its backing were drawn under, and C0, which lives in
  // c0_ at the node's slot. Its messages are its children's digests, or
  // the backing's at absent children (inner_messages); z, r0, r1 and the
  // backing's decommitment are re-derived from the key (node_rng). A
  // membership proof sends C0 alone (the verifier derives C1 = h^{r1}
  // from the opening); a non-membership proof rebuilds C1 with one
  // fixed-base power.
  struct InnerNode {
    Digest digest{};
    Digest backing{};  // meaningful iff backing_epoch != kNoBacking
    std::uint64_t epoch = 0;
    std::uint64_t backing_epoch = kNoBacking;
  };
  static Digest to_digest(BytesView digest);
  struct LeafNode {
    mercurial::TmcCommitment com;
    mercurial::TmcHardDecommit dec;
    std::uint64_t epoch = 0;
  };
  /// A soft node drawn for a proof: its decommitment (qTMC above the leaf
  /// level, TMC at it), digest and wire commitment.
  struct DrawnSoft {
    std::variant<mercurial::QtmcSoftDecommit, mercurial::TmcSoftDecommit> dec;
    Bytes digest;
    Bytes commitment;
  };

  /// Uninitialized shell used by `load`.
  explicit EdbProver(EdbCrsPtr crs) : crs_(std::move(crs)) {}

  using BuildEntry = std::pair<std::vector<std::uint32_t>, Bytes>;
  static constexpr std::size_t kNoParent = ~std::size_t{0};

  // One trie node that an EDB-commit, insert, erase or load (re)commits.
  // A plan lists its nodes children before parents, and every node but the
  // root has its parent in the plan; commit_plan commits them in two
  // passes (DESIGN.md §5.4).
  struct PlanNode {
    std::string prefix;  // its length is the node depth
    std::uint64_t epoch = 0;  // the epoch its randomness is drawn under
    const Bytes* value = nullptr;  // leaf: the committed value (caller's)
    // Inner: the q child digests. Slots at `children` (digit, plan index)
    // are bound to the digests of those plan nodes; the other empty slots
    // are backed by soft nodes.
    std::vector<Bytes> messages;
    std::vector<std::pair<std::uint32_t, std::size_t>> children;
    // Inner: its soft backing, kept from the committed node it recommits
    // (digest known) or drawn in pass 1 at backing_epoch (the node's own
    // epoch when it has none yet).
    std::uint64_t backing_epoch = kNoBacking;
    Bytes backing;
    // Filled by commit_plan.
    std::optional<mercurial::QtmcCommitDraft> draft;
    Bytes c0;  // inner: fixed-width C0
    LeafNode leaf;
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
  /// each keeping its child digests and backing except at digits[d]: the
  /// node at `depth` binds there to the last node of `plan` (insert) or,
  /// when `plan` is empty, to soft backing (erase); each node above to the
  /// node below it.
  void recommit_path(const std::vector<std::uint32_t>& digits,
                     std::uint32_t depth, std::vector<PlanNode>& plan) const;

  /// Commits every node of `plan`. Pass 1, one parallel_for over all
  /// nodes: leaves hard-commit, inner nodes resolve their soft backing and
  /// draft their commitment. Pass 2, level by level from the deepest: each
  /// inner node binds its children's digests. Then the nodes are published
  /// parents first (a new node takes a free slot) and the root commitment
  /// is set. Plan nodes are distinct trie nodes, and no container is
  /// written before both passes joined, so the passes share no mutable
  /// state.
  void commit_plan(std::vector<PlanNode>& plan);

  /// Fills the empty slots of the inner `node` outside its children with
  /// its soft backing's digest, drawing the backing first when the node
  /// does not carry one.
  void back_absent_children(PlanNode& node) const;

  // Computes a soft node whose *node depth* is `depth` (leaf iff ==
  // height), drawing its randomness from `rng`. Pure crypto that touches
  // no container, so it runs in parallel.
  DrawnSoft soft_node(std::uint32_t depth, RandomSource& rng) const;

  // The soft backing of the inner node at (slot, prefix), re-derived.
  DrawnSoft derive_backing(std::uint32_t slot, const std::string& prefix) const;

  // The q messages of the inner trie node at `slot` (depth `depth`): at
  // each digit the child's digest, else the node's soft backing's, else (a
  // node without backing yet) empty.
  std::vector<Bytes> inner_messages(std::uint32_t slot,
                                    std::uint32_t depth) const;

  // The decommitment of the inner trie node at (slot, prefix):
  // inner_messages plus its re-derived randomizers.
  mercurial::QtmcHardDecommit inner_dec(std::uint32_t slot,
                                        const std::string& prefix) const;

  // Wire form of the commitment of the inner node at `slot`: its stored C0
  // and C1 = h^{r1}.
  Bytes inner_commitment_bytes(std::uint32_t slot, const Bignum& r1) const;

  /// DRBG seed for the node identified by (role, epoch, id, below): role
  /// 'i' = inner node keyed by prefix, 'l' = leaf keyed by prefix, 's' =
  /// soft backing keyed by the prefix of the node it backs, 'f' =
  /// fabricated soft node keyed by the prefix of the trie node whose
  /// backing it lies below, with `below` the digits from the backing down
  /// to the node (empty for every other role). `epoch` is the update count the
  /// node was drawn at (for 'f', its backing's), so recommits of the same
  /// prefix get fresh randomness.
  Bytes node_seed(char role, std::uint64_t epoch, std::string_view id,
                  std::string_view below = {}) const;

  /// The randomness of the node (role, prefix) drawn at `epoch`: a DRBG on
  /// node_seed.
  DrbgRandomSource node_rng(char role, std::uint64_t epoch,
                            const std::string& prefix) const;

  static std::string child_prefix(const std::string& prefix,
                                  std::uint32_t digit);

  /// children_'s key for the child at `digit` of inner slot `parent`.
  static std::uint64_t child_key(std::uint32_t parent, std::uint32_t digit) {
    return (std::uint64_t{parent} << 32) | digit;
  }
  /// The slot of that child (in inner_, or in leaves_ below depth h − 1).
  std::optional<std::uint32_t> child_of(std::uint32_t parent,
                                        std::uint32_t digit) const;
  /// The inner slot at `prefix`, if committed.
  std::optional<std::uint32_t> find_inner(std::string_view prefix) const;
  /// Whether the inner node at `slot` has a trie child.
  bool has_trie_child(std::uint32_t slot) const;
  BytesView c0_of(std::uint32_t slot) const;
  /// A free (or new) slot for an inner node / a leaf.
  std::uint32_t take_inner_slot();
  std::uint32_t take_leaf_slot();

  EdbCrsPtr crs_;
  EdbProverOptions opts_;
  // The secret every node's randomness is derived from.
  Bytes key_;
  // Bumped on every insert/erase; recommitted nodes draw under the new
  // value.
  std::uint64_t epoch_ = 0;
  // The containers below are written only by a commit, insert, erase or
  // load, on the calling thread: commit passes read them, and their results
  // are published after the passes joined. Proofs only read them. Parallel
  // phases are covered dynamically by parallel_edb_test, zkedb_update_test
  // and persist_test under TSan.
  //
  // Trie nodes in flat slot arrays (DESIGN.md §5.4). Slot 0 of inner_ is
  // the root; inner slot s keeps its C0 at c0_[s·len, (s+1)·len), len the
  // modulus width. Pruned slots go on the free lists for reuse. children_
  // maps child_key(parent slot, digit) to the child's slot.
  std::vector<InnerNode> inner_;
  Bytes c0_;
  std::vector<LeafNode> leaves_;
  std::vector<std::uint32_t> free_inner_, free_leaves_;
  std::unordered_map<std::uint64_t, std::uint32_t> children_;
  std::map<Bytes, Bytes> values_;
  mercurial::QtmcCommitment root_com_;
};

}  // namespace desword::zkedb
