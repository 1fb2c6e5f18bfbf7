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

  const unsigned threads =
      opts_.threads != 0 ? opts_.threads : ThreadPool::default_threads();
  ThreadPool* pool =
      threads > 1 ? &ThreadPool::with_threads(threads) : nullptr;
  (void)build(build_entries, std::string(), 0, build_entries.size(), pool);
  root_com_ = inner_.at(std::string()).com;
  static obs::Counter& commit_nodes = obs::metric("zkedb.commit.nodes");
  commit_nodes.add(inner_.size() + leaves_.size());
}

EdbProver::EdbProver(EdbProver&& other) noexcept
    : crs_(std::move(other.crs_)),
      opts_(std::move(other.opts_)),
      epoch_(other.epoch_),
      fabrication_counter_(other.fabrication_counter_),
      inner_(std::move(other.inner_)),
      leaves_(std::move(other.leaves_)),
      soft_backing_(std::move(other.soft_backing_)),
      soft_nodes_(std::move(other.soft_nodes_)),
      values_(std::move(other.values_)),
      root_com_(std::move(other.root_com_)) {}

EdbProver& EdbProver::operator=(EdbProver&& other) noexcept {
  if (this != &other) {
    crs_ = std::move(other.crs_);
    opts_ = std::move(other.opts_);
    epoch_ = other.epoch_;
    fabrication_counter_ = other.fabrication_counter_;
    inner_ = std::move(other.inner_);
    leaves_ = std::move(other.leaves_);
    soft_backing_ = std::move(other.soft_backing_);
    soft_nodes_ = std::move(other.soft_nodes_);
    values_ = std::move(other.values_);
    root_com_ = std::move(other.root_com_);
  }
  return *this;
}

Bytes EdbProver::node_seed(char role, std::string_view id) const {
  TaggedHasher h("desword/edb-node-rng");
  h.add(*opts_.seed);
  h.add_u64(static_cast<std::uint64_t>(static_cast<unsigned char>(role)));
  h.add_u64(epoch_);
  h.add_str(id);
  return h.digest();
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
  return {SoftInner{std::move(com), std::move(dec), {}}, std::move(digest)};
}

Bytes EdbProver::soft_digest(std::size_t id) const {
  DESWORD_DCHECK(id < soft_nodes_.size(), "soft node id out of range");
  const SoftNode& node = soft_nodes_.at(id);
  if (const auto* inner = std::get_if<SoftInner>(&node)) {
    // Only backing nodes are digested here; they keep their commitment.
    return crs_->digest_inner(inner->com.value());
  }
  return crs_->digest_leaf(std::get<SoftLeaf>(node).com);
}

Bytes EdbProver::soft_commitment_bytes(const SoftNode& node) const {
  if (const auto* inner = std::get_if<SoftInner>(&node)) {
    const Bignum& n = crs_->params().qtmc_pk.n;
    return inner->com ? inner->com->serialize(n)
                      : crs_->qtmc().soft_commitment(inner->dec).serialize(n);
  }
  return std::get<SoftLeaf>(node).com.serialize();
}

Bytes EdbProver::backing_digest(const std::string& prefix,
                                std::uint32_t digit) {
  const std::uint32_t depth = static_cast<std::uint32_t>(prefix.size());
  const std::string backing_key =
      crs_->params().soft_mode == SoftMode::kShared
          ? prefix
          : child_prefix(prefix, digit);
  {
    MutexLock lock(state_mu_);
    const auto it = soft_backing_.find(backing_key);
    if (it != soft_backing_.end()) return soft_digest(it->second);
  }
  // Each backing key belongs to exactly one trie node, and that node's
  // build/update runs on one thread, so no other thread can be creating
  // this key concurrently; the lock only protects the containers.
  std::optional<DrbgRandomSource> drbg;
  if (opts_.seed) drbg.emplace(node_seed('s', backing_key));
  RandomSource& rng =
      drbg ? static_cast<RandomSource&>(*drbg) : system_random();
  auto [node, digest] = soft_node(depth + 1, rng);
  MutexLock lock(state_mu_);
  soft_backing_.emplace(backing_key, soft_nodes_.size());
  soft_nodes_.push_back(std::move(node));
  return digest;
}

Bytes EdbProver::commit_inner(const std::string& prefix,
                              std::vector<Bytes> messages) {
  std::optional<DrbgRandomSource> drbg;
  if (opts_.seed) drbg.emplace(node_seed('i', prefix));
  RandomSource& rng =
      drbg ? static_cast<RandomSource&>(*drbg) : system_random();
  auto [com, dec] = crs_->qtmc().hard_commit(messages, rng);
  Bytes digest = crs_->digest_inner(com);
  MutexLock lock(state_mu_);
  inner_.insert_or_assign(prefix, InnerNode{std::move(com), std::move(dec)});
  return digest;
}

Bytes EdbProver::build(const std::vector<BuildEntry>& entries,
                       const std::string& prefix, std::size_t lo,
                       std::size_t hi, ThreadPool* pool) {
  const std::uint32_t depth = static_cast<std::uint32_t>(prefix.size());
  if (depth == crs_->height()) {
    DESWORD_CHECK(hi - lo == 1, "duplicate ZK-EDB keys in one leaf");
    const Bytes& value = entries[lo].second;
    std::optional<DrbgRandomSource> drbg;
    if (opts_.seed) drbg.emplace(node_seed('l', prefix));
    RandomSource& rng =
        drbg ? static_cast<RandomSource&>(*drbg) : system_random();
    auto [com, dec] = crs_->tmc().hard_commit(leaf_value_digest(value), rng);
    Bytes digest = crs_->digest_leaf(com);
    MutexLock lock(state_mu_);
    leaves_.emplace(prefix, LeafNode{std::move(com), std::move(dec)});
    return digest;
  }

  const std::uint32_t q = crs_->q();
  std::vector<Bytes> messages(q);
  std::vector<bool> present(q, false);

  // Entries are sorted by digit vectors, so children form contiguous runs.
  // Collect the runs (and fill `present`, which is bit-packed and must not
  // be written concurrently) before fanning the child builds out.
  struct Run {
    std::uint32_t digit;
    std::size_t lo;
    std::size_t hi;
  };
  std::vector<Run> runs;
  std::size_t run_lo = lo;
  while (run_lo < hi) {
    const std::uint32_t digit = entries[run_lo].first[depth];
    std::size_t run_hi = run_lo;
    while (run_hi < hi && entries[run_hi].first[depth] == digit) {
      ++run_hi;
    }
    runs.push_back(Run{digit, run_lo, run_hi});
    present[digit] = true;
    run_lo = run_hi;
  }

  // Child subtrees are independent: each task writes a distinct
  // messages[digit] slot. Nested parallel_for is deadlock-free (a blocked
  // caller drains its own batch), so the recursion fans out at every level
  // and degrades to sequential once all workers are busy.
  parallel_for(pool, runs.size(), [&](std::size_t i) {
    const Run& r = runs[i];
    messages[r.digit] =
        build(entries, child_prefix(prefix, r.digit), r.lo, r.hi, pool);
  });

  // Back absent children with soft commitments.
  for (std::uint32_t c = 0; c < q; ++c) {
    if (!present[c]) messages[c] = backing_digest(prefix, c);
  }

  return commit_inner(prefix, std::move(messages));
}

EdbMembershipProof EdbProver::prove_membership(const EdbKey& key) const {
  if (!contains(key)) {
    throw ProtocolError("prove_membership: key not in database");
  }
  const obs::ScopedTimer timer(prove_wall_ms());
  const std::vector<std::uint32_t> digits = crs_->digits_of(key);
  const std::uint32_t h = crs_->height();
  const Bignum& n = crs_->params().qtmc_pk.n;

  // Walk the path first (map lookups only), then compute the h openings
  // plus the leaf opening — independent given the committed tree — into
  // their slots over the pool.
  std::vector<const mercurial::QtmcHardDecommit*> decs(h);
  EdbMembershipProof proof;
  proof.openings.resize(h);
  proof.child_commitments.reserve(h);
  std::string prefix;
  for (std::uint32_t d = 0; d < h; ++d) {
    decs[d] = &inner_.at(prefix).dec;
    prefix = child_prefix(prefix, digits[d]);
    if (d + 1 < h) {
      proof.child_commitments.push_back(inner_.at(prefix).com.serialize(n));
    } else {
      proof.child_commitments.push_back(leaves_.at(prefix).com.serialize());
    }
  }
  const LeafNode& leaf = leaves_.at(prefix);
  parallel_for(ThreadPool::for_threads(opts_.threads), h + 1,
               [&](std::size_t d) {
                 if (d == h) {
                   proof.leaf_opening = crs_->tmc().hard_open(leaf.dec);
                 } else {
                   proof.openings[d] =
                       crs_->qtmc().hard_open(*decs[d], digits[d]);
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
  const Bignum& n = crs_->params().qtmc_pk.n;

  // Every level d gets teases[d] and child_commitments[d] (the node at
  // depth d+1); the per-level crypto fills its slots in parallel below.
  EdbNonMembershipProof proof;
  proof.teases.resize(h);
  proof.child_commitments.resize(h);

  // Phase 1: walk committed trie nodes (lookups only; the tease_hard at
  // each joins the fan-out below) until the path falls off the trie onto a
  // soft backing node.
  std::vector<const mercurial::QtmcHardDecommit*> hard;
  std::string prefix;
  std::size_t soft_id = 0;
  while (true) {
    hard.push_back(&inner_.at(prefix).dec);
    const std::uint32_t d = static_cast<std::uint32_t>(prefix.size());
    const std::string next = child_prefix(prefix, digits[d]);
    const bool child_in_trie =
        (d + 1 < h) ? (inner_.find(next) != inner_.end())
                    : (leaves_.find(next) != leaves_.end());
    if (!child_in_trie) {
      const std::string backing_key =
          crs_->params().soft_mode == SoftMode::kShared ? prefix : next;
      soft_id = soft_backing_.at(backing_key);
      proof.child_commitments[d] = soft_commitment_bytes(soft_nodes_[soft_id]);
      break;
    }
    if (d + 1 == h) {
      // Walked into a committed leaf — the key is present after all.
      throw ProtocolError("non-membership walk reached a committed leaf");
    }
    proof.child_commitments[d] = inner_.at(next).com.serialize(n);
    prefix = next;
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
      proof.teases[i] = crs_->qtmc().tease_hard(*hard[i], digits[i]);
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
  {
    MutexLock lock(state_mu_);
    for (std::size_t k = 0; k < tail; ++k) {
      const std::uint32_t level = first + static_cast<std::uint32_t>(k);
      const std::size_t child_id = soft_nodes_.size();
      // soft_nodes_ is a deque: appending never invalidates `parent`.
      auto& parent = std::get<SoftInner>(soft_nodes_[soft_id]);
      parent.teases.emplace(digits[level],
                            std::make_pair(proof.teases[level], child_id));
      if (auto* inner = std::get_if<SoftInner>(&fresh[k].first)) {
        inner->com.reset();  // derived from dec on a replay
      }
      soft_nodes_.push_back(std::move(fresh[k].first));
      soft_id = child_id;
    }
  }

  const auto& leaf = std::get<SoftLeaf>(soft_nodes_[soft_id]);
  proof.leaf_tease =
      crs_->tmc().tease_soft(leaf.dec, mercurial::null_message());
  return proof;
}

// ---------------------------------------------------------------------------
// Incremental updates
// ---------------------------------------------------------------------------

Bytes EdbProver::grow_branch(const std::vector<std::uint32_t>& digits,
                             std::uint32_t from_depth, const Bytes& value) {
  const std::uint32_t h = crs_->height();
  // Leaf first.
  std::string prefix;
  for (std::uint32_t d = 0; d < h; ++d) {
    prefix = child_prefix(prefix, digits[d]);
  }
  std::optional<DrbgRandomSource> drbg;
  if (opts_.seed) drbg.emplace(node_seed('l', prefix));
  RandomSource& rng =
      drbg ? static_cast<RandomSource&>(*drbg) : system_random();
  auto [leaf_com, leaf_dec] =
      crs_->tmc().hard_commit(leaf_value_digest(value), rng);
  Bytes digest = crs_->digest_leaf(leaf_com);
  leaves_.emplace(prefix, LeafNode{std::move(leaf_com), std::move(leaf_dec)});

  // Inner nodes from depth h-1 down to from_depth, each with exactly one
  // trie child (the one just created) and soft backing elsewhere.
  for (std::uint32_t d = h; d-- > from_depth;) {
    prefix.pop_back();
    const std::uint32_t q = crs_->q();
    std::vector<Bytes> messages(q);
    for (std::uint32_t c = 0; c < q; ++c) {
      messages[c] = (c == digits[d]) ? digest : backing_digest(prefix, c);
    }
    digest = commit_inner(prefix, std::move(messages));
  }
  return digest;
}

void EdbProver::recommit_path(const std::vector<std::uint32_t>& digits,
                              std::uint32_t depth, const Bytes& child_digest) {
  // Update nodes from `depth` (whose child digest at digits[depth]
  // changed) up to the root, re-hard-committing each.
  Bytes digest = child_digest;
  std::string prefix(digits.begin(),
                     digits.begin() + static_cast<long>(depth) + 1);
  prefix.pop_back();  // prefix of the node at `depth`
  for (std::uint32_t d = depth + 1; d-- > 0;) {
    const mercurial::QtmcHardDecommit& dec = inner_.at(prefix).dec;
    std::vector<Bytes> messages;
    messages.reserve(dec.size());
    for (std::size_t c = 0; c < dec.size(); ++c) {
      const BytesView m = dec.message(c);
      messages.emplace_back(m.begin(), m.end());
    }
    messages[digits[d]] = digest;
    digest = commit_inner(prefix, std::move(messages));
    if (!prefix.empty()) prefix.pop_back();
  }
  root_com_ = inner_.at(std::string()).com;
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
  const Bytes branch_digest = grow_branch(digits, d + 1, value);
  values_.emplace(key, value);
  recommit_path(digits, d, branch_digest);
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

  // Prune childless inner nodes bottom-up (never the root).
  std::uint32_t d = h;  // depth of the removed node's parent + 1
  while (d > 1) {
    prefix.pop_back();
    --d;
    // Does this node still have any trie child?
    bool has_child = false;
    for (std::uint32_t c = 0; c < crs_->q() && !has_child; ++c) {
      const std::string next = child_prefix(prefix, c);
      has_child = (d + 1 < h) ? (inner_.find(next) != inner_.end())
                              : (leaves_.find(next) != leaves_.end());
    }
    if (has_child) {
      // Replace the removed child's digest with soft backing, recommit.
      recommit_path(digits, d, backing_digest(prefix, digits[d]));
      return;
    }
    inner_.erase(prefix);
  }
  // Everything below the root vanished: recommit the root with soft
  // backing at the removed position.
  recommit_path(digits, 0, backing_digest(std::string(), digits[0]));
}

}  // namespace desword::zkedb
