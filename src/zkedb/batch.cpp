#include "zkedb/batch.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "common/error.h"
#include "common/serial.h"
#include "common/thread_pool.h"
#include "mercurial/batch_verify.h"
#include "zkedb/prover.h"

namespace desword::zkedb {

Bytes EdbBatchMembershipProof::serialize(const EdbCrs& crs) const {
  const Bignum& n = crs.params().qtmc_pk.n;
  BinaryWriter w;
  w.varint(steps.size());
  for (const EdbBatchStep& s : steps) {
    w.bytes(s.prefix);
    w.bytes(s.opening.serialize(n));
    w.bytes(s.child_commitment);
  }
  w.varint(leaves.size());
  for (const EdbBatchLeaf& l : leaves) {
    w.bytes(l.key);
    w.bytes(l.opening.serialize(crs.group()));
    w.bytes(l.value);
  }
  return w.take();
}

EdbBatchMembershipProof EdbBatchMembershipProof::deserialize(
    const EdbCrs& crs, BytesView data) {
  const Bignum& n = crs.params().qtmc_pk.n;
  BinaryReader r(data);
  EdbBatchMembershipProof proof;
  const std::uint64_t n_steps = r.varint();
  for (std::uint64_t i = 0; i < n_steps; ++i) {
    EdbBatchStep step;
    step.prefix = r.bytes();
    step.opening = mercurial::QtmcOpening::deserialize(n, r.bytes());
    step.child_commitment = r.bytes();
    if (step.prefix.size() >= crs.height()) {
      throw SerializationError("batch step prefix too deep");
    }
    if (step.prefix.size() + 1 < crs.height() &&
        step.child_commitment.size() != crs.qtmc().element_len()) {
      throw SerializationError("batch step child C0 has wrong width");
    }
    proof.steps.push_back(std::move(step));
  }
  const std::uint64_t n_leaves = r.varint();
  for (std::uint64_t i = 0; i < n_leaves; ++i) {
    EdbBatchLeaf leaf;
    leaf.key = r.bytes();
    leaf.opening = mercurial::TmcOpening::deserialize(crs.group(), r.bytes());
    leaf.value = r.bytes();
    proof.leaves.push_back(std::move(leaf));
  }
  r.expect_done();
  return proof;
}

EdbBatchMembershipProof edb_prove_membership_batch(
    const EdbProver& prover, const std::vector<EdbKey>& keys,
    unsigned threads) {
  const EdbCrs& crs = prover.crs();

  std::vector<EdbKey> unique_keys;
  {
    std::set<EdbKey> seen_keys;
    for (const EdbKey& key : keys) {
      if (seen_keys.insert(key).second) unique_keys.push_back(key);
    }
  }

  // Opening generation (one qTMC hard_open per edge, one TMC open per
  // leaf) dominates; prove_membership is read-only, so keys fan out.
  std::vector<EdbMembershipProof> singles(unique_keys.size());
  parallel_for(ThreadPool::for_threads(threads), unique_keys.size(),
               [&](std::size_t i) {
                 singles[i] = prover.prove_membership(unique_keys[i]);
               });

  EdbBatchMembershipProof batch;
  std::map<std::pair<Bytes, std::uint32_t>, std::size_t> seen_steps;
  for (std::size_t i = 0; i < unique_keys.size(); ++i) {
    const EdbKey& key = unique_keys[i];
    const std::vector<std::uint32_t> digits = crs.digits_of(key);
    EdbMembershipProof& single = singles[i];
    Bytes prefix;
    for (std::uint32_t d = 0; d < crs.height(); ++d) {
      const auto step_id = std::make_pair(prefix, digits[d]);
      if (seen_steps.find(step_id) == seen_steps.end()) {
        seen_steps.emplace(step_id, batch.steps.size());
        batch.steps.push_back(EdbBatchStep{
            prefix, std::move(single.openings[d]),
            std::move(single.child_commitments[d])});
      }
      prefix.push_back(static_cast<std::uint8_t>(digits[d]));
    }
    batch.leaves.push_back(EdbBatchLeaf{key, std::move(single.leaf_opening),
                                        std::move(single.value)});
  }
  return batch;
}

std::optional<std::map<EdbKey, Bytes>> edb_verify_membership_batch(
    const EdbCrs& crs, const mercurial::QtmcCommitment& root,
    const std::vector<EdbKey>& keys, const EdbBatchMembershipProof& proof,
    const EdbVerifyOptions& opts) {
  try {
    const std::uint32_t h = crs.height();

    // Index the deduplicated material.
    std::map<std::pair<Bytes, std::uint32_t>, const EdbBatchStep*> steps;
    for (const EdbBatchStep& s : proof.steps) {
      steps[{s.prefix, s.opening.pos}] = &s;
    }
    std::map<EdbKey, const EdbBatchLeaf*> leaves;
    for (const EdbBatchLeaf& l : proof.leaves) leaves[l.key] = &l;

    // Phase 1 (sequential, no modular arithmetic): walk every chain,
    // checking structure, and collect each unique trie node and each
    // unique (prefix, digit) edge on the chains. An inner node's C1 is
    // derived from the r1 its openings reveal, so every step at one prefix
    // must reveal the same r1: then each node has one commitment, chains
    // sharing an edge share the identical reconstruction, and verifying
    // the edge once is sound — and the edges are independent, so they fan
    // out.
    struct PathNode {
      mercurial::QtmcCommitment com;  // C1 derived after the walk (not root)
      const Bignum* r1 = nullptr;     // what this node's openings reveal
    };
    std::vector<PathNode> nodes{PathNode{root, nullptr}};
    std::map<Bytes, std::size_t> node_at;  // non-root prefix -> nodes index
    struct EdgeCheck {
      const EdbBatchStep* step;
      std::size_t parent;  // into nodes
      std::size_t child;   // into nodes; unused at leaf depth
      bool at_leaf_depth;
    };
    std::vector<EdgeCheck> edges;
    std::set<std::pair<Bytes, std::uint32_t>> edge_seen;
    struct LeafCheck {
      const EdbBatchLeaf* leaf;
      const EdbBatchStep* last_step;
    };
    std::vector<LeafCheck> leaf_checks;

    std::map<EdbKey, Bytes> values;
    for (const EdbKey& key : keys) {
      if (values.find(key) != values.end()) continue;  // duplicate request
      const std::vector<std::uint32_t> digits = crs.digits_of(key);
      std::size_t cur = 0;
      Bytes prefix;
      const EdbBatchStep* last_step = nullptr;
      for (std::uint32_t d = 0; d < h; ++d) {
        const auto it = steps.find({prefix, digits[d]});
        if (it == steps.end()) return std::nullopt;
        const EdbBatchStep* step = it->second;
        if (step->opening.pos != digits[d]) return std::nullopt;
        if (d > 0) {
          const Bignum*& r1 = nodes[cur].r1;
          if (r1 == nullptr) {
            r1 = &step->opening.r1;
          } else if (*r1 != step->opening.r1) {
            return std::nullopt;
          }
        }
        const bool fresh_edge = edge_seen.insert({prefix, digits[d]}).second;
        prefix.push_back(static_cast<std::uint8_t>(digits[d]));
        std::size_t child = 0;
        if (d + 1 < h) {
          const auto [at, fresh] = node_at.emplace(prefix, nodes.size());
          if (fresh) {
            if (step->child_commitment.size() != crs.qtmc().element_len()) {
              return std::nullopt;
            }
            nodes.push_back(PathNode{
                {Bignum::from_bytes(step->child_commitment), Bignum()},
                nullptr});
          }
          child = at->second;
        }
        if (fresh_edge) {
          edges.push_back(EdgeCheck{step, cur, child, d + 1 == h});
        }
        cur = child;
        last_step = step;
      }
      const auto leaf_it = leaves.find(key);
      if (leaf_it == leaves.end()) return std::nullopt;
      leaf_checks.push_back(LeafCheck{leaf_it->second, last_step});
      values.emplace(key, leaf_it->second->value);
    }

    // Every inner node but the root gets C1 = h^{r1} (range-checked before
    // any power is taken); the powers fan out.
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      if (!mercurial::QtmcScheme::exponent_in_range(*nodes[i].r1)) {
        return std::nullopt;
      }
    }
    ThreadPool* pool = ThreadPool::for_threads(opts.threads);
    parallel_for(pool, nodes.size() - 1, [&](std::size_t i) {
      nodes[i + 1].com.c1 = crs.qtmc().hard_c1(*nodes[i + 1].r1);
    });

    // Phase 2 (parallel): the expensive opening verifications. Failures
    // only flip the flag, so order does not matter; remaining checks keep
    // running but the batch is rejected as a whole (all-or-nothing).
    std::atomic<bool> ok{true};
    // Contiguous shards so the batched strategy can fold a whole shard
    // into one multi-exponentiation per worker.
    const auto run_sharded = [&](std::size_t count, auto&& shard_fn) {
      const std::size_t shards =
          pool == nullptr ? 1
                          : std::max<std::size_t>(
                                1, std::min<std::size_t>(pool->concurrency(),
                                                         count));
      parallel_for(pool, count == 0 ? 0 : shards, [&](std::size_t s) {
        const std::size_t begin = count * s / shards;
        const std::size_t end = count * (s + 1) / shards;
        if (begin != end) shard_fn(begin, end);
      });
    };

    // The opened message of an edge must be the digest of its revealed
    // child; throws on malformed leaf bytes.
    const auto edge_digest = [&](const EdgeCheck& e) {
      return e.at_leaf_depth
                 ? crs.digest_leaf(mercurial::TmcCommitment::deserialize(
                       crs.group(), e.step->child_commitment))
                 : crs.digest_inner(nodes[e.child].com);
    };
    // Only the root's C1 was received; the others were derived.
    const auto origin = [](const EdgeCheck& e) {
      return e.parent == 0 ? mercurial::C1Origin::kReceived
                           : mercurial::C1Origin::kDerived;
    };

    if (opts.batched) {
      run_sharded(edges.size(), [&](std::size_t begin, std::size_t end) {
        if (!ok.load(std::memory_order_relaxed)) return;
        mercurial::BatchVerifier bv(crs.qtmc());
        bool shard_ok = true;
        for (std::size_t i = begin; i < end && shard_ok; ++i) {
          const EdgeCheck& e = edges[i];
          bv.begin_unit();
          try {
            if (!bv.add_open(nodes[e.parent].com, e.step->opening,
                             origin(e)) ||
                edge_digest(e) != e.step->opening.message) {
              shard_ok = false;
            }
          } catch (const Error&) {
            shard_ok = false;
          }
        }
        // verify() has no no-throw guarantee (BN_* failures, internal
        // checks); a throw escaping a pool worker would not be converted
        // into a rejection, so treat it as shard failure like the scalar
        // verifiers' internal catch does.
        if (shard_ok) {
          try {
            shard_ok = bv.verify().all_ok;
          } catch (const Error&) {
            shard_ok = false;
          }
        }
        if (!shard_ok) ok.store(false, std::memory_order_relaxed);
      });
      if (!ok.load()) return std::nullopt;

      run_sharded(leaf_checks.size(), [&](std::size_t begin,
                                          std::size_t end) {
        if (!ok.load(std::memory_order_relaxed)) return;
        mercurial::BatchVerifier bv(crs.qtmc(), &crs.tmc());
        bool shard_ok = true;
        for (std::size_t i = begin; i < end && shard_ok; ++i) {
          const LeafCheck& c = leaf_checks[i];
          bv.begin_unit();
          try {
            const mercurial::TmcCommitment leaf_com =
                mercurial::TmcCommitment::deserialize(
                    crs.group(), c.last_step->child_commitment);
            if (!bv.add_leaf_open(leaf_com, c.leaf->opening) ||
                c.leaf->opening.message != leaf_value_digest(c.leaf->value)) {
              shard_ok = false;
            }
          } catch (const Error&) {
            shard_ok = false;
          }
        }
        if (shard_ok) {
          try {
            shard_ok = bv.verify().all_ok;
          } catch (const Error&) {
            shard_ok = false;
          }
        }
        if (!shard_ok) ok.store(false, std::memory_order_relaxed);
      });
      if (!ok.load()) return std::nullopt;

      return values;
    }

    parallel_for(pool, edges.size(), [&](std::size_t i) {
      if (!ok.load(std::memory_order_relaxed)) return;
      const EdgeCheck& e = edges[i];
      try {
        if (!crs.qtmc().verify_open(nodes[e.parent].com, e.step->opening,
                                    origin(e))) {
          ok.store(false, std::memory_order_relaxed);
          return;
        }
        if (edge_digest(e) != e.step->opening.message) {
          ok.store(false, std::memory_order_relaxed);
        }
      } catch (const Error&) {
        ok.store(false, std::memory_order_relaxed);
      }
    });
    if (!ok.load()) return std::nullopt;

    parallel_for(pool, leaf_checks.size(), [&](std::size_t i) {
      if (!ok.load(std::memory_order_relaxed)) return;
      const LeafCheck& c = leaf_checks[i];
      try {
        const mercurial::TmcCommitment leaf_com =
            mercurial::TmcCommitment::deserialize(
                crs.group(), c.last_step->child_commitment);
        if (!crs.tmc().verify_open(leaf_com, c.leaf->opening) ||
            c.leaf->opening.message != leaf_value_digest(c.leaf->value)) {
          ok.store(false, std::memory_order_relaxed);
        }
      } catch (const Error&) {
        ok.store(false, std::memory_order_relaxed);
      }
    });
    if (!ok.load()) return std::nullopt;

    return values;
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace desword::zkedb
