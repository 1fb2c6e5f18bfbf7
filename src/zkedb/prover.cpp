#include "zkedb/prover.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/hash.h"
#include "mercurial/message.h"
#include "obs/metrics.h"

namespace desword::zkedb {

namespace {

obs::Histogram& prove_wall_ms() {
  static obs::Histogram& h = obs::histogram_metric("zkedb.prove.wall_ms");
  return h;
}

/// Hands the malloc arenas' free pages back to the OS, at most once a
/// second process-wide. A build frees its transient memory (plan, drafts,
/// backing draws) between blocks that stay live, and glibc keeps such
/// pages resident: in perfbench's `campaign` the arenas' free bytes grew
/// ~1.8 MB a round against ~1.2 MB of live ones. One malloc_trim walks
/// every arena (~1 ms there) and the pages it releases fault back in on
/// reuse, so a participant committing many tasks a second trims once. A
/// non-membership proof frees its ~30 fabricated nodes the same way: in
/// `recall_scan` the live heap peaked 12 MB lower than when a memo kept
/// them, but without a trim the free chunks left peak RSS ~6 MB higher.
void release_free_pages() {
#if defined(__GLIBC__)
  static std::atomic<std::int64_t> last_ns{0};
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now().time_since_epoch())
                               .count();
  std::int64_t last = last_ns.load(std::memory_order_relaxed);
  if (now - last >= 1'000'000'000 &&
      last_ns.compare_exchange_strong(last, now, std::memory_order_relaxed)) {
    malloc_trim(0);
  }
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// Node storage and randomness
// ---------------------------------------------------------------------------

EdbProver::Digest EdbProver::to_digest(BytesView digest) {
  DESWORD_CHECK(digest.size() == mercurial::kMessageBytes,
                "node digest of the wrong size");
  Digest out{};
  std::copy(digest.begin(), digest.end(), out.begin());
  return out;
}

std::string EdbProver::child_prefix(const std::string& prefix,
                                    std::uint32_t digit) {
  std::string out = prefix;
  out.push_back(static_cast<char>(static_cast<unsigned char>(digit)));
  return out;
}

std::optional<std::uint32_t> EdbProver::child_of(std::uint32_t parent,
                                                 std::uint32_t digit) const {
  const auto it = children_.find(child_key(parent, digit));
  if (it == children_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> EdbProver::find_inner(
    std::string_view prefix) const {
  if (inner_.empty() || prefix.size() >= crs_->height()) return std::nullopt;
  std::uint32_t slot = 0;
  for (const char c : prefix) {
    const auto child =
        child_of(slot, static_cast<unsigned char>(c));
    if (!child) return std::nullopt;
    slot = *child;
  }
  return slot;
}

bool EdbProver::has_trie_child(std::uint32_t slot) const {
  for (std::uint32_t c = 0; c < crs_->q(); ++c) {
    if (child_of(slot, c)) return true;
  }
  return false;
}

BytesView EdbProver::c0_of(std::uint32_t slot) const {
  const std::size_t len = crs_->qtmc().element_len();
  return BytesView(c0_).subspan(slot * len, len);
}

std::uint32_t EdbProver::take_inner_slot() {
  if (!free_inner_.empty()) {
    const std::uint32_t slot = free_inner_.back();
    free_inner_.pop_back();
    return slot;
  }
  inner_.emplace_back();
  c0_.resize(c0_.size() + crs_->qtmc().element_len());
  return static_cast<std::uint32_t>(inner_.size() - 1);
}

std::uint32_t EdbProver::take_leaf_slot() {
  if (!free_leaves_.empty()) {
    const std::uint32_t slot = free_leaves_.back();
    free_leaves_.pop_back();
    return slot;
  }
  leaves_.emplace_back();
  return static_cast<std::uint32_t>(leaves_.size() - 1);
}

Bytes EdbProver::node_seed(char role, std::uint64_t epoch,
                           std::string_view id, std::string_view below) const {
  TaggedHasher h("desword/edb-node-rng");
  h.add(key_);
  h.add_u64(static_cast<std::uint64_t>(static_cast<unsigned char>(role)));
  h.add_u64(epoch);
  h.add_str(id);
  if (!below.empty()) h.add_str(below);
  return h.digest();
}

DrbgRandomSource EdbProver::node_rng(char role, std::uint64_t epoch,
                                     const std::string& prefix) const {
  return DrbgRandomSource(node_seed(role, epoch, prefix));
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

EdbProver::EdbProver(EdbCrsPtr crs, const std::map<Bytes, Bytes>& entries,
                     const EdbProverOptions& options)
    : crs_(std::move(crs)),
      opts_(options),
      key_(options.seed ? *options.seed : random_bytes(32)) {
  opts_.seed.reset();  // key_ holds it
  static obs::Histogram& commit_wall_ms =
      obs::histogram_metric("zkedb.commit.wall_ms");
  const obs::ScopedTimer commit_timer(commit_wall_ms);
  std::vector<BuildEntry> build_entries;
  build_entries.reserve(entries.size());
  for (const auto& [key, value] : entries) {
    build_entries.emplace_back(crs_->digits_of(key), value);
    values_.emplace(key, value);
  }
  // std::map iterates keys in lexicographic == numeric order, which is the
  // same order as digit vectors — the recursive build depends on it.
  DESWORD_CHECK(std::is_sorted(build_entries.begin(), build_entries.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first < b.first;
                               }),
                "ZK-EDB build entries not in digit order");

  std::vector<PlanNode> plan;
  (void)plan_subtree(build_entries, std::string(), 0, build_entries.size(),
                     plan);
  commit_plan(plan);
  static obs::Counter& commit_nodes = obs::metric("zkedb.commit.nodes");
  commit_nodes.add(inner_.size() + leaves_.size());
  release_free_pages();
}

Bytes EdbProver::commitment_bytes() const {
  return root_com_.serialize(crs_->params().qtmc_pk.n);
}

bool EdbProver::contains(const EdbKey& key) const {
  return values_.find(key) != values_.end();
}

std::optional<Bytes> EdbProver::value_of(const EdbKey& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

EdbProver::DrawnSoft EdbProver::soft_node(std::uint32_t depth,
                                          RandomSource& rng) const {
  if (depth == crs_->height()) {
    auto [com, dec] = crs_->tmc().soft_commit(rng);
    return {std::move(dec), crs_->digest_leaf(com), com.serialize()};
  }
  auto [com, dec] = crs_->qtmc().soft_commit(rng);
  return {std::move(dec), crs_->digest_inner(com),
          com.serialize(crs_->params().qtmc_pk.n)};
}

EdbProver::DrawnSoft EdbProver::derive_backing(
    std::uint32_t slot, const std::string& prefix) const {
  const InnerNode& node = inner_[slot];
  DESWORD_CHECK(node.backing_epoch != kNoBacking,
                "trie node without soft backing");
  DrbgRandomSource rng = node_rng('s', node.backing_epoch, prefix);
  return soft_node(static_cast<std::uint32_t>(prefix.size()) + 1, rng);
}

std::vector<Bytes> EdbProver::inner_messages(std::uint32_t slot,
                                             std::uint32_t depth) const {
  const std::uint32_t q = crs_->q();
  const bool leaf_children = depth + 1 == crs_->height();
  const InnerNode& node = inner_[slot];
  Bytes soft;
  if (node.backing_epoch != kNoBacking) {
    soft.assign(node.backing.begin(), node.backing.end());
  }
  std::vector<Bytes> messages(q);
  for (std::uint32_t c = 0; c < q; ++c) {
    const auto child = child_of(slot, c);
    if (!child) {
      messages[c] = soft;
    } else if (leaf_children) {
      messages[c] = crs_->digest_leaf(leaves_[*child].com);
    } else {
      messages[c].assign(inner_[*child].digest.begin(),
                         inner_[*child].digest.end());
    }
  }
  return messages;
}

mercurial::QtmcHardDecommit EdbProver::inner_dec(
    std::uint32_t slot, const std::string& prefix) const {
  mercurial::QtmcHardDecommit dec;
  dec.messages.reserve(crs_->q() * mercurial::kMessageBytes);
  for (const Bytes& m :
       inner_messages(slot, static_cast<std::uint32_t>(prefix.size()))) {
    DESWORD_CHECK(m.size() == mercurial::kMessageBytes,
                  "committed inner node with an unbacked child");
    append(dec.messages, m);
  }
  // hard_commit_draft's draws, in its order.
  DrbgRandomSource rng = node_rng('i', inner_[slot].epoch, prefix);
  dec.z = rng.rand_bits(mercurial::kRandomizerBits);
  dec.r0 = rng.rand_bits(mercurial::kRandomizerBits);
  dec.r1 = rng.rand_bits(mercurial::kRandomizerBits);
  return dec;
}

Bytes EdbProver::inner_commitment_bytes(std::uint32_t slot,
                                        const Bignum& r1) const {
  return mercurial::QtmcCommitment{Bignum::from_bytes(c0_of(slot)),
                                   crs_->qtmc().hard_c1(r1)}
      .serialize(crs_->params().qtmc_pk.n);
}

std::size_t EdbProver::plan_subtree(const std::vector<BuildEntry>& entries,
                                     const std::string& prefix, std::size_t lo,
                                     std::size_t hi,
                                     std::vector<PlanNode>& plan) const {
  const std::uint32_t depth = static_cast<std::uint32_t>(prefix.size());
  PlanNode node;
  node.prefix = prefix;
  node.epoch = epoch_;
  if (depth == crs_->height()) {
    DESWORD_CHECK(hi - lo == 1, "duplicate ZK-EDB keys in one leaf");
    node.value = &entries[lo].second;
  } else {
    node.messages.resize(crs_->q());
    // Entries are sorted by digit vectors, so children form contiguous runs.
    std::size_t run_lo = lo;
    while (run_lo < hi) {
      const std::uint32_t digit = entries[run_lo].first[depth];
      std::size_t run_hi = run_lo;
      while (run_hi < hi && entries[run_hi].first[depth] == digit) {
        ++run_hi;
      }
      node.children.emplace_back(
          digit, plan_subtree(entries, child_prefix(prefix, digit), run_lo,
                              run_hi, plan));
      run_lo = run_hi;
    }
  }
  plan.push_back(std::move(node));
  return plan.size() - 1;
}

void EdbProver::back_absent_children(PlanNode& node) const {
  const std::uint32_t depth = static_cast<std::uint32_t>(node.prefix.size());
  std::vector<bool> absent(node.messages.size(), false);
  for (std::uint32_t c = 0; c < node.messages.size(); ++c) {
    absent[c] = node.messages[c].empty();
  }
  for (const auto& [digit, index] : node.children) absent[digit] = false;
  const bool any_absent =
      std::find(absent.begin(), absent.end(), true) != absent.end();
  if (node.backing.empty() && (any_absent || node.backing_epoch != kNoBacking)) {
    if (node.backing_epoch == kNoBacking) node.backing_epoch = node.epoch;
    DrbgRandomSource rng = node_rng('s', node.backing_epoch, node.prefix);
    node.backing = soft_node(depth + 1, rng).digest;
  }
  for (std::uint32_t c = 0; c < node.messages.size(); ++c) {
    if (absent[c]) node.messages[c] = node.backing;
  }
}

void EdbProver::commit_plan(std::vector<PlanNode>& plan) {
  ThreadPool* pool = ThreadPool::for_threads(opts_.threads);
  const std::uint32_t h = crs_->height();
  const std::size_t len = crs_->qtmc().element_len();
  // Pass 1: everything that does not wait on a child's digest.
  parallel_for(pool, plan.size(), [&](std::size_t i) {
    PlanNode& node = plan[i];
    if (node.value != nullptr) {
      DrbgRandomSource rng = node_rng('l', node.epoch, node.prefix);
      auto [com, dec] =
          crs_->tmc().hard_commit(leaf_value_digest(*node.value), rng);
      node.digest = crs_->digest_leaf(com);
      node.leaf = LeafNode{std::move(com), std::move(dec), node.epoch};
      return;
    }
    back_absent_children(node);
    std::vector<std::uint32_t> pending;
    for (const auto& [digit, index] : node.children) pending.push_back(digit);
    DrbgRandomSource rng = node_rng('i', node.epoch, node.prefix);
    node.draft =
        crs_->qtmc().hard_commit_draft(node.messages, std::move(pending), rng);
  });
  // Pass 2: a node's children sit one level below it, so each level binds
  // in parallel once the level below is done.
  std::optional<mercurial::QtmcCommitment> root;
  std::vector<std::vector<std::size_t>> levels(h);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].draft) levels[plan[i].prefix.size()].push_back(i);
  }
  for (std::uint32_t d = h; d-- > 0;) {
    parallel_for(pool, levels[d].size(), [&](std::size_t k) {
      PlanNode& node = plan[levels[d][k]];
      std::vector<Bytes> child_digests;
      child_digests.reserve(node.children.size());
      for (const auto& [digit, index] : node.children) {
        child_digests.push_back(plan[index].digest);
      }
      auto [com, dec] =
          crs_->qtmc().hard_commit_bind(std::move(*node.draft), child_digests);
      node.digest = crs_->digest_inner(com);
      node.c0 = com.c0.to_bytes_padded(len);
      if (node.prefix.empty()) root = std::move(com);  // the one root task
    });
  }
  DESWORD_CHECK(root.has_value(), "commit plan without the root");

  // Publish parents first: the reverse of the plan's order. A fresh build
  // sizes every container exactly, once.
  if (inner_.empty()) {
    const std::size_t n_leaves = static_cast<std::size_t>(std::count_if(
        plan.begin(), plan.end(),
        [](const PlanNode& node) { return node.value != nullptr; }));
    inner_.reserve(plan.size() - n_leaves);
    c0_.reserve((plan.size() - n_leaves) * len);
    leaves_.reserve(n_leaves);
    children_.reserve(plan.size());
  }
  std::vector<std::size_t> parent(plan.size(), kNoParent);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    for (const auto& [digit, index] : plan[i].children) parent[index] = i;
  }
  std::vector<std::uint32_t> slot(plan.size());
  for (std::size_t i = plan.size(); i-- > 0;) {
    PlanNode& node = plan[i];
    if (node.prefix.empty()) {
      if (inner_.empty()) (void)take_inner_slot();
      slot[i] = 0;
    } else {
      DESWORD_CHECK(parent[i] != kNoParent, "plan node without its parent");
      const std::uint32_t up = slot[parent[i]];
      const std::uint32_t digit =
          static_cast<unsigned char>(node.prefix.back());
      const auto existing = child_of(up, digit);
      slot[i] = existing ? *existing
                         : (node.value != nullptr ? take_leaf_slot()
                                                  : take_inner_slot());
      children_.insert_or_assign(child_key(up, digit), slot[i]);
    }
    if (node.value != nullptr) {
      leaves_[slot[i]] = std::move(node.leaf);
      continue;
    }
    InnerNode& inner = inner_[slot[i]];
    inner.digest = to_digest(node.digest);
    inner.epoch = node.epoch;
    inner.backing_epoch = node.backing_epoch;
    inner.backing = node.backing.empty() ? Digest{} : to_digest(node.backing);
    std::copy(node.c0.begin(), node.c0.end(),
              c0_.begin() + static_cast<std::ptrdiff_t>(slot[i] * len));
  }
  root_com_ = std::move(*root);
}

// ---------------------------------------------------------------------------
// Proofs
// ---------------------------------------------------------------------------

EdbMembershipProof EdbProver::prove_membership(const EdbKey& key) const {
  if (!contains(key)) {
    throw ProtocolError("prove_membership: key not in database");
  }
  const obs::ScopedTimer timer(prove_wall_ms());
  const std::vector<std::uint32_t> digits = crs_->digits_of(key);
  const std::uint32_t h = crs_->height();

  // Walk the path first (index lookups, the stored C0s and the randomizer
  // derivations), then compute the h openings and the leaf opening —
  // independent given the decommitments — into their slots over the pool.
  // An inner child's C1 is not sent: its opening's r1 pins it.
  std::vector<mercurial::QtmcHardDecommit> decs;
  decs.reserve(h);
  EdbMembershipProof proof;
  proof.openings.resize(h);
  proof.child_commitments.reserve(h);
  std::string prefix;
  std::uint32_t slot = 0;
  for (std::uint32_t d = 0; d < h; ++d) {
    if (d > 0) {
      const BytesView c0 = c0_of(slot);
      proof.child_commitments.emplace_back(c0.begin(), c0.end());
    }
    decs.push_back(inner_dec(slot, prefix));
    const auto child = child_of(slot, digits[d]);
    DESWORD_CHECK(child.has_value(), "committed key without its trie path");
    slot = *child;
    prefix = child_prefix(prefix, digits[d]);
  }
  const LeafNode& leaf = leaves_[slot];
  proof.child_commitments.push_back(leaf.com.serialize());
  parallel_for(ThreadPool::for_threads(opts_.threads), h + 1,
               [&](std::size_t i) {
                 if (i < h) {
                   proof.openings[i] =
                       crs_->qtmc().hard_open(decs[i], digits[i]);
                 } else {
                   proof.leaf_opening = crs_->tmc().hard_open(leaf.dec);
                 }
               });
  proof.value = values_.at(key);
  return proof;
}

EdbNonMembershipProof EdbProver::prove_non_membership(
    const EdbKey& key) const {
  if (contains(key)) {
    throw ProtocolError("prove_non_membership: key is in database");
  }
  const obs::ScopedTimer timer(prove_wall_ms());
  const std::vector<std::uint32_t> digits = crs_->digits_of(key);
  const std::uint32_t h = crs_->height();

  // Every level d gets teases[d] and child_commitments[d] (the node at
  // depth d+1); the per-level crypto fills its slots in parallel below.
  EdbNonMembershipProof proof;
  proof.teases.resize(h);
  proof.child_commitments.resize(h);

  // Walk committed trie nodes (lookups and derivations only; the
  // tease_hard at each joins the fan-out below) until the path falls off
  // the trie at node `slot`, onto its soft backing.
  std::vector<mercurial::QtmcHardDecommit> hard;
  std::vector<std::uint32_t> slots;
  std::string prefix;
  std::uint32_t slot = 0;
  while (true) {
    slots.push_back(slot);
    hard.push_back(inner_dec(slot, prefix));
    const std::uint32_t d = static_cast<std::uint32_t>(prefix.size());
    const auto child = child_of(slot, digits[d]);
    if (!child) break;
    if (d + 1 == h) {
      // Walked into a committed leaf — the key is present after all.
      throw ProtocolError("non-membership walk reached a committed leaf");
    }
    prefix = child_prefix(prefix, digits[d]);
    slot = *child;
  }
  const std::uint32_t off = static_cast<std::uint32_t>(hard.size()) - 1;

  // Below the backing (the node at depth off + 1), the node at each depth
  // in (off + 1, h] is fabricated from a DRBG on its digit path below the
  // backing, under the backing's epoch; the tease that opens its parent
  // to it draws its lift from the same DRBG. The path starts below the
  // backing, not at the trie node, because every absent child of the
  // trie node shows that one backing. So a repeat, or another key whose
  // path meets this one, presents the same nodes and teases.
  const std::uint32_t first = off + 1;  // the first soft tease's level
  const std::size_t tail = h - first;
  const std::uint64_t backing_epoch = inner_[slot].backing_epoch;
  std::optional<DrawnSoft> backing;
  std::vector<DrawnSoft> fresh(tail);
  std::vector<std::optional<DrbgRandomSource>> rngs(tail);
  ThreadPool* pool = ThreadPool::for_threads(opts_.threads);
  // Pass 1: the hard teases and child commitments, the backing and the
  // fabricated nodes.
  parallel_for(pool, hard.size() + 1 + tail, [&](std::size_t i) {
    if (i < hard.size()) {
      proof.teases[i] = crs_->qtmc().tease_hard(hard[i], digits[i]);
      if (i + 1 < hard.size()) {
        proof.child_commitments[i] =
            inner_commitment_bytes(slots[i + 1], hard[i + 1].r1);
      }
      return;
    }
    i -= hard.size();
    if (i == 0) {
      backing = derive_backing(slot, prefix);
      proof.child_commitments[off] = backing->commitment;
      return;
    }
    const std::uint32_t depth = first + static_cast<std::uint32_t>(i);
    const std::string below(digits.begin() + first, digits.begin() + depth);
    DrbgRandomSource& rng = rngs[i - 1].emplace(
        node_seed('f', backing_epoch, prefix, below));
    fresh[i - 1] = soft_node(depth, rng);
    proof.child_commitments[depth - 1] = fresh[i - 1].commitment;
  });
  // Pass 2: the soft teases, each opening its parent to the node below.
  parallel_for(pool, tail, [&](std::size_t k) {
    const DrawnSoft& parent = k > 0 ? fresh[k - 1] : *backing;
    const std::uint32_t level = first + static_cast<std::uint32_t>(k);
    proof.teases[level] = crs_->qtmc().tease_soft(
        std::get<mercurial::QtmcSoftDecommit>(parent.dec), digits[level],
        fresh[k].digest, *rngs[k]);
  });
  const DrawnSoft& last = tail > 0 ? fresh.back() : *backing;
  proof.leaf_tease =
      crs_->tmc().tease_soft(std::get<mercurial::TmcSoftDecommit>(last.dec),
                             mercurial::null_message());
  // The fabricated nodes are freed with this frame, as a commit's drafts
  // are.
  release_free_pages();
  return proof;
}

// ---------------------------------------------------------------------------
// Incremental updates
// ---------------------------------------------------------------------------

void EdbProver::grow_branch(const std::vector<std::uint32_t>& digits,
                            std::uint32_t from_depth, const Bytes& value,
                            std::vector<PlanNode>& plan) const {
  const std::uint32_t h = crs_->height();
  PlanNode leaf;
  leaf.prefix.assign(digits.begin(), digits.end());
  leaf.epoch = epoch_;
  leaf.value = &value;
  plan.push_back(std::move(leaf));
  for (std::uint32_t d = h; d-- > from_depth;) {
    PlanNode node;
    node.prefix.assign(digits.begin(), digits.begin() + d);
    node.epoch = epoch_;
    node.messages.resize(crs_->q());
    node.children.emplace_back(digits[d], plan.size() - 1);
    plan.push_back(std::move(node));
  }
}

void EdbProver::recommit_path(const std::vector<std::uint32_t>& digits,
                              std::uint32_t depth,
                              std::vector<PlanNode>& plan) const {
  std::vector<std::uint32_t> slots(depth + 1, 0);
  for (std::uint32_t d = 1; d <= depth; ++d) {
    slots[d] = *child_of(slots[d - 1], digits[d - 1]);
  }
  for (std::uint32_t d = depth + 1; d-- > 0;) {
    const InnerNode& committed = inner_[slots[d]];
    PlanNode node;
    node.prefix.assign(digits.begin(), digits.begin() + d);
    node.epoch = epoch_;
    node.messages = inner_messages(slots[d], d);
    node.messages[digits[d]].clear();
    node.backing_epoch = committed.backing_epoch;
    if (committed.backing_epoch != kNoBacking) {
      node.backing.assign(committed.backing.begin(), committed.backing.end());
    }
    if (!plan.empty()) node.children.emplace_back(digits[d], plan.size() - 1);
    plan.push_back(std::move(node));
  }
}

void EdbProver::insert(const EdbKey& key, const Bytes& value) {
  if (contains(key)) throw ProtocolError("insert: key already present");
  ++epoch_;  // recommitted nodes must draw fresh randomness
  const std::vector<std::uint32_t> digits = crs_->digits_of(key);
  const std::uint32_t h = crs_->height();

  // Find the deepest existing ancestor.
  std::uint32_t slot = 0;
  std::uint32_t d = 0;
  while (d < h) {
    const auto child = child_of(slot, digits[d]);
    if (!child) break;
    slot = *child;
    ++d;
  }
  if (d == h) throw ProtocolError("insert: leaf already exists");

  // Grow the missing branch below depth d+1 and splice it into the node
  // at depth d, then recommit up to the root.
  std::vector<PlanNode> plan;
  grow_branch(digits, d + 1, value, plan);
  recommit_path(digits, d, plan);
  commit_plan(plan);
  values_.emplace(key, value);
}

void EdbProver::erase(const EdbKey& key) {
  if (!contains(key)) throw ProtocolError("erase: key not present");
  ++epoch_;  // recommitted nodes must draw fresh randomness
  const std::vector<std::uint32_t> digits = crs_->digits_of(key);
  const std::uint32_t h = crs_->height();
  std::vector<std::uint32_t> slots(h, 0);
  for (std::uint32_t d = 1; d < h; ++d) {
    slots[d] = *child_of(slots[d - 1], digits[d - 1]);
  }

  // Remove the leaf.
  const std::uint32_t leaf = *child_of(slots[h - 1], digits[h - 1]);
  children_.erase(child_key(slots[h - 1], digits[h - 1]));
  leaves_[leaf] = LeafNode{};
  free_leaves_.push_back(leaf);
  values_.erase(key);

  // Prune childless inner nodes bottom-up (never the root). d ends at the
  // lowest surviving node on the path, which gets soft backing at the
  // removed position.
  std::uint32_t d = h - 1;
  while (d > 0 && !has_trie_child(slots[d])) {
    children_.erase(child_key(slots[d - 1], digits[d - 1]));
    inner_[slots[d]] = InnerNode{};
    free_inner_.push_back(slots[d]);
    --d;
  }
  std::vector<PlanNode> plan;
  recommit_path(digits, d, plan);
  commit_plan(plan);
}

}  // namespace desword::zkedb
