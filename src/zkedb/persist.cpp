// EdbProver state (de)serialization — the durable form of the paper's
// DPOC. Format versioned with a magic header so stored credentials fail
// loudly rather than misparse after upgrades.
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/serial.h"
#include "zkedb/prover.h"

namespace desword::zkedb {

namespace {

constexpr std::uint32_t kStateMagic = 0x44504f43;  // "DPOC"
// Version 3 stores the prover's key, its epoch and fabrication counter,
// the root commitment, each trie node's prefix and the epochs it and its
// soft backing were drawn under, then the memoized fabrications. Nothing
// a node derives from the key is written: `load` re-derives every node
// and checks the root. Versions 1 and 2 stored every node's commitment,
// messages and randomizers (version 2 dropped inner soft commitments, tag
// 2); they still load, their nodes replaying the stored randomizers.
constexpr std::uint8_t kStateVersion = 3;

void write_scalar(BinaryWriter& w, const Bignum& v) { w.bytes(v.to_bytes()); }

Bignum read_scalar(BinaryReader& r) { return Bignum::from_bytes(r.bytes()); }

}  // namespace

Bytes EdbProver::serialize_state() const {
  const Bignum& n = crs_->params().qtmc_pk.n;
  const std::uint32_t h = crs_->height();
  BinaryWriter w;
  w.u32(kStateMagic);
  w.u8(kStateVersion);
  w.bytes(key_);
  w.varint(epoch_);
  w.varint(fabrication_counter_);

  // Committed entries.
  w.varint(values_.size());
  for (const auto& [key, value] : values_) {
    w.bytes(key);
    w.bytes(value);
  }
  w.bytes(commitment_bytes());

  // Trie nodes in prefix order: depth first, digits ascending.
  std::vector<std::pair<std::string, std::uint32_t>> inner, leaves;
  std::vector<std::pair<std::string, std::uint32_t>> stack{{"", 0}};
  while (!stack.empty()) {
    auto [prefix, slot] = std::move(stack.back());
    stack.pop_back();
    const bool leaf_children = prefix.size() + 1 == h;
    for (std::uint32_t i = 0; i < crs_->q(); ++i) {
      // Leaves in ascending order; inner children pushed descending so
      // they pop ascending.
      const std::uint32_t c = leaf_children ? i : crs_->q() - 1 - i;
      if (const auto child = child_of(slot, c)) {
        (leaf_children ? leaves : stack)
            .emplace_back(child_prefix(prefix, c), *child);
      }
    }
    inner.emplace_back(std::move(prefix), slot);
  }
  w.varint(inner.size());
  for (const auto& [prefix, slot] : inner) {
    const InnerNode& node = inner_[slot];
    w.str(prefix);
    w.varint(node.epoch);
    w.varint(node.backing_epoch == kNoBacking ? 0 : node.backing_epoch + 1);
  }
  w.varint(leaves.size());
  for (const auto& [prefix, slot] : leaves) {
    w.str(prefix);
    w.varint(leaves_[slot].epoch);
  }

  // Randomizers of nodes still as loaded from a version 1 or 2 state.
  w.varint(legacy_.size());
  for (const auto& [node, values] : legacy_) {
    w.u8(static_cast<std::uint8_t>(node.first));
    w.str(node.second);
    w.varint(values.size());
    for (const Bignum& v : values) write_scalar(w, v);
  }

  // Memo roots, then the soft nodes they reach (memoized fabrications).
  w.varint(soft_backing_.size());
  for (const auto& [prefix, id] : soft_backing_) {
    w.str(prefix);
    w.varint(id);
  }
  w.varint(soft_nodes_.size());
  for (const SoftNode& node : soft_nodes_) {
    if (const auto* soft = std::get_if<SoftInner>(&node)) {
      w.u8(2);
      write_scalar(w, soft->dec.r0);
      write_scalar(w, soft->dec.r1);
      w.varint(soft->teases.size());
      for (const auto& [digit, entry] : soft->teases) {
        w.u32(digit);
        w.bytes(entry.first.serialize(n));
        w.varint(entry.second);
      }
    } else {
      const auto& leaf = std::get<SoftLeaf>(node);
      w.u8(1);
      w.bytes(leaf.com.serialize());
      write_scalar(w, leaf.dec.r0);
      write_scalar(w, leaf.dec.r1);
    }
  }
  return w.take();
}

EdbProver EdbProver::load(EdbCrsPtr crs, BytesView state) {
  EdbProver prover(std::move(crs));
  const EdbCrs& c = *prover.crs_;
  const Bignum& n = c.params().qtmc_pk.n;
  const std::uint32_t h = c.height();
  BinaryReader r(state);

  if (r.u32() != kStateMagic) {
    throw SerializationError("not a DPOC state blob");
  }
  const std::uint8_t version = r.u8();
  if (version < 1 || version > kStateVersion) {
    throw SerializationError("unsupported DPOC state version");
  }
  const bool legacy = version < 3;
  if (legacy) {
    // No key was stored: nodes drawn from now on use a fresh one.
    prover.key_ = random_bytes(32);
  } else {
    prover.key_ = r.bytes();
    prover.epoch_ = r.varint();
    prover.fabrication_counter_ = r.varint();
  }

  std::vector<BuildEntry> entries;
  const std::uint64_t n_values = r.varint();
  for (std::uint64_t i = 0; i < n_values; ++i) {
    Bytes key = r.bytes();
    Bytes value = r.bytes();
    if (!c.key_in_range(key)) {
      throw SerializationError("DPOC state entry key outside the key space");
    }
    if (!prover.values_.emplace(std::move(key), std::move(value)).second) {
      throw SerializationError("duplicate DPOC state entry");
    }
  }
  // The map iterates in digit order, as plan_subtree needs.
  for (const auto& [key, value] : prover.values_) {
    entries.emplace_back(c.digits_of(key), value);
  }

  // Each node's epochs by prefix; a version 1/2 node replays its stored
  // randomizers (legacy_), so its epochs stay 0.
  struct Drawn {
    std::uint64_t epoch = 0;
    std::uint64_t backing_epoch = kNoBacking;
  };
  std::map<std::string, Drawn> drawn;
  const auto add_node = [&](std::string prefix, bool leaf, Drawn epochs) {
    if ((prefix.size() == h) != leaf || prefix.size() > h) {
      throw SerializationError("DPOC state node at the wrong depth");
    }
    if (!legacy && (epochs.epoch > prover.epoch_ ||
                    (epochs.backing_epoch != kNoBacking &&
                     epochs.backing_epoch > prover.epoch_))) {
      throw SerializationError("DPOC state node drawn after its epoch");
    }
    if (!drawn.emplace(std::move(prefix), epochs).second) {
      throw SerializationError("duplicate DPOC state node");
    }
  };
  // Version 1/2 only: each inner node's stored commitment and messages,
  // checked against what the loaded trie derives.
  std::map<std::string, std::pair<Bytes, std::vector<Bytes>>> stored;
  Bytes root;

  if (!legacy) {
    root = r.bytes();
    for (std::uint64_t i = r.varint(); i > 0; --i) {
      std::string prefix = r.str();
      Drawn epochs;
      epochs.epoch = r.varint();
      const std::uint64_t backing = r.varint();
      if (backing != 0) epochs.backing_epoch = backing - 1;
      add_node(std::move(prefix), false, epochs);
    }
    for (std::uint64_t i = r.varint(); i > 0; --i) {
      std::string prefix = r.str();
      Drawn epochs;
      epochs.epoch = r.varint();
      add_node(std::move(prefix), true, epochs);
    }
    for (std::uint64_t i = r.varint(); i > 0; --i) {
      const char role = static_cast<char>(r.u8());
      if (role != 'i' && role != 'l' && role != 's') {
        throw SerializationError("unknown DPOC state node role");
      }
      std::string prefix = r.str();
      const std::uint64_t count = r.varint();
      if (count > 3) {
        throw SerializationError("too many stored node randomizers");
      }
      std::vector<Bignum> values(static_cast<std::size_t>(count));
      for (Bignum& v : values) v = read_scalar(r);
      prover.legacy_.emplace(std::make_pair(role, std::move(prefix)),
                             std::move(values));
    }
  } else {
    for (std::uint64_t i = r.varint(); i > 0; --i) {
      std::string prefix = r.str();
      const Bytes com =
          mercurial::QtmcCommitment::deserialize(n, r.bytes()).serialize(n);
      const std::uint64_t n_msgs = r.varint();
      if (n_msgs != c.q()) {
        throw SerializationError("inner node message count mismatch");
      }
      std::vector<Bytes> messages;
      for (std::uint64_t j = 0; j < n_msgs; ++j) {
        messages.push_back(r.bytes());
        if (messages.back().size() != mercurial::kMessageBytes) {
          throw SerializationError("inner node message is not 16 bytes");
        }
      }
      std::vector<Bignum> randomizers;
      for (int j = 0; j < 3; ++j) randomizers.push_back(read_scalar(r));
      if (prefix.empty()) root = com;
      prover.legacy_.emplace(std::make_pair('i', prefix),
                             std::move(randomizers));
      add_node(prefix, false, Drawn{});
      stored.emplace(std::move(prefix),
                     std::make_pair(com, std::move(messages)));
    }
    for (std::uint64_t i = r.varint(); i > 0; --i) {
      std::string prefix = r.str();
      (void)mercurial::TmcCommitment::deserialize(c.group(), r.bytes());
      (void)r.bytes();  // the message, H(value), which the entry gives
      std::vector<Bignum> randomizers;
      for (int j = 0; j < 2; ++j) randomizers.push_back(read_scalar(r));
      prover.legacy_.emplace(std::make_pair('l', prefix),
                             std::move(randomizers));
      add_node(std::move(prefix), true, Drawn{});
    }
  }

  for (std::uint64_t i = r.varint(); i > 0; --i) {
    std::string prefix = r.str();
    const std::size_t id = static_cast<std::size_t>(r.varint());
    prover.soft_backing_.emplace(std::move(prefix), id);
  }
  for (std::uint64_t i = r.varint(); i > 0; --i) {
    const std::uint8_t tag = r.u8();
    if (tag == 0 || (tag == 2 && version >= 2)) {
      SoftInner inner;
      if (tag == 0) {
        (void)mercurial::QtmcCommitment::deserialize(n, r.bytes());
      }
      inner.dec.r0 = read_scalar(r);
      inner.dec.r1 = read_scalar(r);
      inner.digest =
          to_digest(c.digest_inner(c.qtmc().soft_commitment(inner.dec)));
      const std::uint64_t n_teases = r.varint();
      for (std::uint64_t j = 0; j < n_teases; ++j) {
        const std::uint32_t digit = r.u32();
        mercurial::QtmcTease tease =
            mercurial::QtmcTease::deserialize(n, r.bytes());
        const std::size_t child = static_cast<std::size_t>(r.varint());
        inner.teases.emplace(digit, std::make_pair(std::move(tease), child));
      }
      prover.soft_nodes_.emplace_back(std::move(inner));
    } else if (tag == 1) {
      SoftLeaf leaf;
      leaf.com = mercurial::TmcCommitment::deserialize(c.group(), r.bytes());
      leaf.dec.r0 = read_scalar(r);
      leaf.dec.r1 = read_scalar(r);
      prover.soft_nodes_.emplace_back(std::move(leaf));
    } else {
      throw SerializationError("unknown soft node tag");
    }
  }
  r.expect_done();

  // Referential integrity: backing ids and memoized children must exist.
  for (const auto& [prefix, id] : prover.soft_backing_) {
    if (id >= prover.soft_nodes_.size()) {
      throw SerializationError("soft backing id out of range");
    }
  }
  for (const SoftNode& node : prover.soft_nodes_) {
    if (const auto* inner = std::get_if<SoftInner>(&node)) {
      for (const auto& [digit, entry] : inner->teases) {
        if (entry.second >= prover.soft_nodes_.size()) {
          throw SerializationError("memoized child id out of range");
        }
      }
    }
  }
  if (legacy) {
    // Every stored backing replays its randomizers; it stays a memo root
    // (ids unchanged) while its node exists. An earlier writer kept the
    // backings of pruned nodes: those go.
    for (auto it = prover.soft_backing_.begin();
         it != prover.soft_backing_.end();) {
      if (drawn.count(it->first) == 0 || it->first.size() >= h) {
        it = prover.soft_backing_.erase(it);
        continue;
      }
      drawn[it->first].backing_epoch = 0;
      const SoftNode& node = prover.soft_nodes_[it->second];
      std::vector<Bignum> randomizers;
      if (const auto* inner = std::get_if<SoftInner>(&node)) {
        randomizers = {inner->dec.r0, inner->dec.r1};
      } else {
        const auto& leaf = std::get<SoftLeaf>(node);
        randomizers = {leaf.dec.r0, leaf.dec.r1};
      }
      prover.legacy_.emplace(std::make_pair('s', it->first),
                             std::move(randomizers));
      ++it;
    }
    prover.compact_soft_nodes();
  }

  // Stored randomizers belong to a node of the matching kind.
  for (const auto& [node, values] : prover.legacy_) {
    const auto& [role, prefix] = node;
    if (drawn.count(prefix) == 0 || (role == 'l') != (prefix.size() == h)) {
      throw SerializationError("stored randomizers of no such node");
    }
  }

  // Re-derive the trie the entries span, each node under its epochs.
  std::vector<PlanNode> plan;
  (void)prover.plan_subtree(entries, std::string(), 0, entries.size(), plan);
  if (plan.size() != drawn.size()) {
    throw SerializationError("DPOC state nodes do not match its entries");
  }
  for (PlanNode& node : plan) {
    const auto it = drawn.find(node.prefix);
    if (it == drawn.end()) {
      throw SerializationError("DPOC state nodes do not match its entries");
    }
    node.epoch = it->second.epoch;
    node.backing_epoch = it->second.backing_epoch;
  }
  try {
    prover.commit_plan(plan);
  } catch (const CryptoError&) {
    throw SerializationError("DPOC state randomizers do not commit its nodes");
  }

  // Version 1/2: every stored inner node must be what its trie derives.
  for (const auto& [prefix, com_and_messages] : stored) {
    const auto& [com, messages] = com_and_messages;
    const std::uint32_t slot = *prover.find_inner(prefix);
    if (prover.inner_messages(slot, static_cast<std::uint32_t>(
                                        prefix.size())) != messages) {
      throw SerializationError("inner node messages do not match the trie");
    }
    if (prover.inner_commitment_bytes(slot,
                                      prover.inner_dec(slot, prefix).r1) !=
        com) {
      throw SerializationError("inner node commitment does not match");
    }
  }
  // A memo root must be its node's backing, of the node's kind.
  for (const auto& [prefix, id] : prover.soft_backing_) {
    const auto slot = prover.find_inner(prefix);
    if (!slot || prover.inner_[*slot].backing_epoch == kNoBacking ||
        prover.soft_digest(id) !=
            Bytes(prover.inner_[*slot].backing.begin(),
                  prover.inner_[*slot].backing.end()) ||
        std::holds_alternative<SoftLeaf>(prover.soft_nodes_[id]) !=
            (prefix.size() + 1 == h)) {
      throw SerializationError("memo root is not its node's soft backing");
    }
  }
  if (prover.commitment_bytes() != root) {
    throw SerializationError("DPOC state does not re-derive its commitment");
  }
  return prover;
}

}  // namespace desword::zkedb
