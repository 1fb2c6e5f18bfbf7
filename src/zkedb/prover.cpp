#include "zkedb/prover.h"

#include <algorithm>

#include "common/error.h"
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

}  // namespace

EdbProver::Digest EdbProver::to_digest(BytesView digest) {
  DESWORD_CHECK(digest.size() == mercurial::kMessageBytes,
                "node digest of the wrong size");
  Digest out{};
  std::copy(digest.begin(), digest.end(), out.begin());
  return out;
}

EdbProver::Randomizer EdbProver::to_randomizer(const Bignum& x) {
  const Bytes be = x.to_bytes_padded(kRandomizerBytes);
  Randomizer out{};
  std::copy(be.begin(), be.end(), out.begin());
  return out;
}

Bignum EdbProver::to_bignum(const Randomizer& r) {
  return Bignum::from_bytes(BytesView(r.data(), r.size()));
}

std::string EdbProver::child_prefix(const std::string& prefix,
                                    std::uint32_t digit) {
  std::string out = prefix;
  out.push_back(static_cast<char>(static_cast<unsigned char>(digit)));
  return out;
}

EdbProver::EdbProver(EdbCrsPtr crs, const std::map<Bytes, Bytes>& entries,
                     const EdbProverOptions& options)
    : crs_(std::move(crs)), opts_(options) {
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
}

Bytes EdbProver::node_seed(char role, std::string_view id) const {
  TaggedHasher h("desword/edb-node-rng");
  h.add(*opts_.seed);
  h.add_u64(static_cast<std::uint64_t>(static_cast<unsigned char>(role)));
  h.add_u64(epoch_);
  h.add_str(id);
  return h.digest();
}

std::unique_ptr<RandomSource> EdbProver::node_rng(char role,
                                                  std::string_view id) const {
  if (opts_.seed) return std::make_unique<DrbgRandomSource>(node_seed(role, id));
  return std::make_unique<SystemRandomSource>();
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

std::pair<EdbProver::SoftNode, Bytes> EdbProver::soft_node(
    std::uint32_t depth, RandomSource& rng) const {
  if (depth == crs_->height()) {
    auto [com, dec] = crs_->tmc().soft_commit(rng);
    Bytes digest = crs_->digest_leaf(com);
    return {SoftLeaf{std::move(com), std::move(dec)}, std::move(digest)};
  }
  auto [com, dec] = crs_->qtmc().soft_commit(rng);
  Bytes digest = crs_->digest_inner(com);
  return {SoftInner{to_digest(digest), std::move(dec), {}},
          std::move(digest)};
}

Bytes EdbProver::soft_digest(std::size_t id) const {
  DESWORD_DCHECK(id < soft_nodes_.size(), "soft node id out of range");
  const SoftNode& node = soft_nodes_.at(id);
  if (const auto* inner = std::get_if<SoftInner>(&node)) {
    return Bytes(inner->digest.begin(), inner->digest.end());
  }
  return crs_->digest_leaf(std::get<SoftLeaf>(node).com);
}

std::vector<Bytes> EdbProver::inner_messages(const std::string& prefix) const {
  const std::uint32_t q = crs_->q();
  const bool leaf_children = prefix.size() + 1 == crs_->height();
  const auto backing = soft_backing_.find(prefix);
  const Bytes soft = backing != soft_backing_.end()
                         ? soft_digest(backing->second)
                         : Bytes();
  std::vector<Bytes> messages(q);
  std::string next = child_prefix(prefix, 0);
  for (std::uint32_t c = 0; c < q; ++c) {
    next.back() = static_cast<char>(static_cast<unsigned char>(c));
    if (leaf_children) {
      if (const auto it = leaves_.find(next); it != leaves_.end()) {
        messages[c] = crs_->digest_leaf(it->second.com);
      }
    } else if (const auto it = inner_.find(next); it != inner_.end()) {
      messages[c].assign(it->second.digest.begin(), it->second.digest.end());
    }
    if (messages[c].empty()) messages[c] = soft;
  }
  return messages;
}

mercurial::QtmcHardDecommit EdbProver::inner_dec(
    const std::string& prefix) const {
  const InnerNode& node = inner_.at(prefix);
  mercurial::QtmcHardDecommit dec;
  dec.messages.reserve(crs_->q() * mercurial::kMessageBytes);
  for (const Bytes& m : inner_messages(prefix)) {
    DESWORD_CHECK(m.size() == mercurial::kMessageBytes,
                  "committed inner node with an unbacked child");
    append(dec.messages, m);
  }
  dec.z = to_bignum(node.z);
  dec.r0 = to_bignum(node.r0);
  dec.r1 = to_bignum(node.r1);
  return dec;
}

Bytes EdbProver::inner_commitment_bytes(
    const mercurial::QtmcHardDecommit& dec) const {
  return crs_->qtmc().hard_commitment(dec).serialize(
      crs_->params().qtmc_pk.n);
}

Bytes EdbProver::soft_commitment_bytes(const SoftNode& node) const {
  if (const auto* inner = std::get_if<SoftInner>(&node)) {
    return crs_->qtmc().soft_commitment(inner->dec).serialize(
        crs_->params().qtmc_pk.n);
  }
  return std::get<SoftLeaf>(node).com.serialize();
}

std::size_t EdbProver::plan_subtree(const std::vector<BuildEntry>& entries,
                                     const std::string& prefix, std::size_t lo,
                                     std::size_t hi,
                                     std::vector<PlanNode>& plan) const {
  const std::uint32_t depth = static_cast<std::uint32_t>(prefix.size());
  PlanNode node;
  node.prefix = prefix;
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
  std::vector<bool> is_child(node.messages.size(), false);
  for (const auto& [digit, index] : node.children) is_child[digit] = true;
  Bytes digest;  // the node's backing, resolved at its first absent child
  for (std::uint32_t c = 0; c < node.messages.size(); ++c) {
    if (is_child[c] || !node.messages[c].empty()) continue;
    if (digest.empty()) {
      if (const auto it = soft_backing_.find(node.prefix);
          it != soft_backing_.end()) {
        digest = soft_digest(it->second);
      } else {
        auto [soft, soft_dig] =
            soft_node(depth + 1, *node_rng('s', node.prefix));
        digest = std::move(soft_dig);
        node.new_backing = std::move(soft);
      }
    }
    node.messages[c] = digest;
  }
}

void EdbProver::commit_plan(std::vector<PlanNode>& plan) {
  ThreadPool* pool = ThreadPool::for_threads(opts_.threads);
  const std::uint32_t h = crs_->height();
  // Pass 1: everything that does not wait on a child's digest.
  parallel_for(pool, plan.size(), [&](std::size_t i) {
    PlanNode& node = plan[i];
    if (node.value != nullptr) {
      auto [com, dec] = crs_->tmc().hard_commit(leaf_value_digest(*node.value),
                                                *node_rng('l', node.prefix));
      node.digest = crs_->digest_leaf(com);
      node.node = LeafNode{std::move(com), std::move(dec)};
      return;
    }
    back_absent_children(node);
    std::vector<std::uint32_t> pending;
    for (const auto& [digit, index] : node.children) pending.push_back(digit);
    node.draft = crs_->qtmc().hard_commit_draft(node.messages,
                                                std::move(pending),
                                                *node_rng('i', node.prefix));
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
      node.node = InnerNode{to_digest(node.digest), to_randomizer(dec.z),
                            to_randomizer(dec.r0), to_randomizer(dec.r1)};
      if (node.prefix.empty()) root = std::move(com);  // the one root task
    });
  }
  for (PlanNode& node : plan) {
    if (node.new_backing) {
      soft_backing_.emplace(node.prefix, soft_nodes_.size());
      soft_nodes_.push_back(std::move(*node.new_backing));
    }
    if (auto* inner = std::get_if<InnerNode>(&node.node)) {
      inner_.insert_or_assign(node.prefix, std::move(*inner));
    } else {
      leaves_.insert_or_assign(node.prefix,
                               std::move(std::get<LeafNode>(node.node)));
    }
  }
  DESWORD_CHECK(root.has_value(), "commit plan without the root");
  root_com_ = std::move(*root);
}

EdbMembershipProof EdbProver::prove_membership(const EdbKey& key) const {
  if (!contains(key)) {
    throw ProtocolError("prove_membership: key not in database");
  }
  const obs::ScopedTimer timer(prove_wall_ms());
  const std::vector<std::uint32_t> digits = crs_->digits_of(key);
  const std::uint32_t h = crs_->height();

  // Walk the path first (map lookups and digest copies only), then compute
  // the h openings, the h − 1 inner child commitments and the leaf opening
  // — independent given the decommitments — into their slots over the
  // pool.
  std::vector<mercurial::QtmcHardDecommit> decs;
  decs.reserve(h);
  EdbMembershipProof proof;
  proof.openings.resize(h);
  proof.child_commitments.resize(h);
  std::string prefix;
  for (std::uint32_t d = 0; d < h; ++d) {
    decs.push_back(inner_dec(prefix));
    prefix = child_prefix(prefix, digits[d]);
  }
  const LeafNode& leaf = leaves_.at(prefix);
  proof.child_commitments[h - 1] = leaf.com.serialize();
  parallel_for(ThreadPool::for_threads(opts_.threads), 2 * h,
               [&](std::size_t i) {
                 if (i < h) {
                   proof.openings[i] =
                       crs_->qtmc().hard_open(decs[i], digits[i]);
                 } else if (i + 1 < 2 * h) {
                   // The commitment of the node below level i − h.
                   proof.child_commitments[i - h] =
                       inner_commitment_bytes(decs[i - h + 1]);
                 } else {
                   proof.leaf_opening = crs_->tmc().hard_open(leaf.dec);
                 }
               });
  proof.value = values_.at(key);
  return proof;
}

EdbNonMembershipProof EdbProver::prove_non_membership(const EdbKey& key) {
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

  // Phase 1: walk committed trie nodes (lookups only; the tease_hard at
  // each joins the fan-out below) until the path falls off the trie onto a
  // soft backing node.
  std::vector<mercurial::QtmcHardDecommit> hard;
  std::string prefix;
  std::size_t soft_id = 0;
  while (true) {
    hard.push_back(inner_dec(prefix));
    const std::uint32_t d = static_cast<std::uint32_t>(prefix.size());
    const std::string next = child_prefix(prefix, digits[d]);
    const bool child_in_trie =
        (d + 1 < h) ? (inner_.find(next) != inner_.end())
                    : (leaves_.find(next) != leaves_.end());
    if (!child_in_trie) {
      soft_id = soft_backing_.at(prefix);
      proof.child_commitments[d] = soft_commitment_bytes(soft_nodes_[soft_id]);
      break;
    }
    if (d + 1 == h) {
      // Walked into a committed leaf — the key is present after all.
      throw ProtocolError("non-membership walk reached a committed leaf");
    }
    prefix = next;  // its commitment is computed in the fan-out
  }

  // Phase 2: replay memoized fabrications (soft_id is the soft node at
  // depth d) until a level has no memoized tease yet. The replayed nodes'
  // commitments are recomputed in the fan-out.
  std::vector<std::size_t> replayed;
  std::uint32_t d = static_cast<std::uint32_t>(hard.size());
  for (; d < h; ++d) {
    const auto& cur = std::get<SoftInner>(soft_nodes_[soft_id]);
    const auto it = cur.teases.find(digits[d]);
    if (it == cur.teases.end()) break;
    proof.teases[d] = it->second.first;
    soft_id = it->second.second;
    replayed.push_back(soft_id);
  }

  // Phase 3: fabricate the unmemoized tail [d, h). Level k's tease opens
  // its parent (the memoized node for k == d, else the node fabricated for
  // level k−1) to the digest of the node fabricated below it. Seeds are
  // drawn in level order here and nodes are appended in level order after
  // the fan-out, so soft-node ids, the memo and serialize_state() never
  // depend on scheduling.
  const std::size_t first_replayed = hard.size();
  const std::uint32_t first = d;
  const std::size_t tail = h - first;
  std::vector<std::optional<Bytes>> seeds(tail);
  if (opts_.seed) {
    for (auto& seed : seeds) {
      seed = node_seed('f', std::to_string(fabrication_counter_++));
    }
  }
  std::vector<std::pair<SoftNode, Bytes>> fresh(tail);
  ThreadPool* pool = ThreadPool::for_threads(opts_.threads);
  // Pass 1: the phase-1 hard teases, the replayed nodes' commitments and
  // the tail's soft nodes. soft_nodes_ is not mutated until both passes
  // joined, so reading it here and in pass 2 is race-free.
  parallel_for(pool, hard.size() + replayed.size() + tail, [&](std::size_t i) {
    if (i < hard.size()) {
      proof.teases[i] = crs_->qtmc().tease_hard(hard[i], digits[i]);
      if (i + 1 < hard.size()) {
        proof.child_commitments[i] = inner_commitment_bytes(hard[i + 1]);
      }
      return;
    }
    i -= hard.size();
    if (i < replayed.size()) {
      proof.child_commitments[first_replayed + i] =
          soft_commitment_bytes(soft_nodes_[replayed[i]]);
      return;
    }
    const std::size_t k = i - replayed.size();
    std::optional<DrbgRandomSource> drbg;
    if (seeds[k]) drbg.emplace(*seeds[k]);
    RandomSource& rng =
        drbg ? static_cast<RandomSource&>(*drbg) : system_random();
    fresh[k] = soft_node(first + static_cast<std::uint32_t>(k) + 1, rng);
    proof.child_commitments[first + k] =
        soft_commitment_bytes(fresh[k].first);
  });
  // Pass 2: the tail's soft teases.
  parallel_for(pool, tail, [&](std::size_t k) {
    const SoftNode& parent = k == 0 ? soft_nodes_[soft_id] : fresh[k - 1].first;
    const std::uint32_t level = first + static_cast<std::uint32_t>(k);
    proof.teases[level] = crs_->qtmc().tease_soft(
        std::get<SoftInner>(parent).dec, digits[level], fresh[k].second);
  });
  for (std::size_t k = 0; k < tail; ++k) {
    const std::uint32_t level = first + static_cast<std::uint32_t>(k);
    const std::size_t child_id = soft_nodes_.size();
    // soft_nodes_ is a deque: appending never invalidates `parent`.
    auto& parent = std::get<SoftInner>(soft_nodes_[soft_id]);
    parent.teases.emplace(digits[level],
                          std::make_pair(proof.teases[level], child_id));
    soft_nodes_.push_back(std::move(fresh[k].first));
    soft_id = child_id;
  }

  const auto& leaf = std::get<SoftLeaf>(soft_nodes_[soft_id]);
  proof.leaf_tease =
      crs_->tmc().tease_soft(leaf.dec, mercurial::null_message());
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
  leaf.value = &value;
  plan.push_back(std::move(leaf));
  for (std::uint32_t d = h; d-- > from_depth;) {
    PlanNode node;
    node.prefix.assign(digits.begin(), digits.begin() + d);
    node.messages.resize(crs_->q());
    node.children.emplace_back(digits[d], plan.size() - 1);
    plan.push_back(std::move(node));
  }
}

void EdbProver::recommit_path(const std::vector<std::uint32_t>& digits,
                              std::uint32_t depth,
                              std::vector<PlanNode>& plan) const {
  for (std::uint32_t d = depth + 1; d-- > 0;) {
    PlanNode node;
    node.prefix.assign(digits.begin(), digits.begin() + d);
    node.messages = inner_messages(node.prefix);
    node.messages[digits[d]].clear();
    if (!plan.empty()) node.children.emplace_back(digits[d], plan.size() - 1);
    plan.push_back(std::move(node));
  }
}

void EdbProver::insert(const EdbKey& key, const Bytes& value) {
  if (contains(key)) throw ProtocolError("insert: key already present");
  ++epoch_;  // recommitted nodes must draw fresh seeded randomness
  const std::vector<std::uint32_t> digits = crs_->digits_of(key);
  const std::uint32_t h = crs_->height();

  // Find the deepest existing ancestor.
  std::string prefix;
  std::uint32_t d = 0;
  while (d < h) {
    const std::string next = child_prefix(prefix, digits[d]);
    const bool child_in_trie =
        (d + 1 < h) ? (inner_.find(next) != inner_.end())
                    : (leaves_.find(next) != leaves_.end());
    if (!child_in_trie) break;
    prefix = next;
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
  ++epoch_;  // recommitted nodes must draw fresh seeded randomness
  const std::vector<std::uint32_t> digits = crs_->digits_of(key);
  const std::uint32_t h = crs_->height();

  // Remove the leaf.
  std::string prefix(digits.begin(), digits.end());
  leaves_.erase(prefix);
  values_.erase(key);

  // Prune childless inner nodes bottom-up (never the root); d ends at the
  // lowest surviving node on the path, which gets soft backing at the
  // removed position.
  const auto has_trie_child = [&](std::uint32_t depth) {
    for (std::uint32_t c = 0; c < crs_->q(); ++c) {
      const std::string next = child_prefix(prefix, c);
      if (depth + 1 < h ? inner_.count(next) != 0 : leaves_.count(next) != 0) {
        return true;
      }
    }
    return false;
  };
  std::uint32_t d = h - 1;
  prefix.pop_back();
  while (d > 0 && !has_trie_child(d)) {
    inner_.erase(prefix);
    prefix.pop_back();
    --d;
  }
  std::vector<PlanNode> plan;
  recommit_path(digits, d, plan);
  commit_plan(plan);
}

}  // namespace desword::zkedb
