// EdbProver state (de)serialization — the durable form of the paper's
// DPOC. Format versioned with a magic header so stored credentials fail
// loudly rather than misparse after upgrades.
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/serial.h"
#include "zkedb/prover.h"

namespace desword::zkedb {

namespace {

constexpr std::uint32_t kStateMagic = 0x44504f43;  // "DPOC"
// Version 4 stores the prover's key and epoch, the entries, the root
// commitment, and each trie node's prefix and the epochs it and its soft
// backing were drawn under. Nothing a node derives from the key is
// written, and no proof adds to it: `load` re-derives every node and
// checks the root. Older layouts are refused (DESIGN.md §5.4): versions 1
// and 2 stored randomizers drawn from no key, and version 3 stored
// fabricated soft nodes named by a counter, which no key re-derives.
constexpr std::uint8_t kStateVersion = 4;

}  // namespace

Bytes EdbProver::serialize_state() const {
  const std::uint32_t h = crs_->height();
  BinaryWriter w;
  w.u32(kStateMagic);
  w.u8(kStateVersion);
  w.bytes(key_);
  w.varint(epoch_);

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
  return w.take();
}

EdbProver EdbProver::load(EdbCrsPtr crs, BytesView state) {
  EdbProver prover(std::move(crs));
  const EdbCrs& c = *prover.crs_;
  const std::uint32_t h = c.height();
  BinaryReader r(state);

  if (r.u32() != kStateMagic) {
    throw SerializationError("not a DPOC state blob");
  }
  if (r.u8() != kStateVersion) {
    throw SerializationError("unsupported DPOC state version");
  }
  prover.key_ = r.bytes();
  prover.epoch_ = r.varint();

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
  const Bytes root = r.bytes();

  // Each node's epochs by prefix.
  struct Drawn {
    std::uint64_t epoch = 0;
    std::uint64_t backing_epoch = kNoBacking;
  };
  std::map<std::string, Drawn> drawn;
  const auto add_node = [&](std::string prefix, bool leaf, Drawn epochs) {
    if ((prefix.size() == h) != leaf || prefix.size() > h) {
      throw SerializationError("DPOC state node at the wrong depth");
    }
    if (epochs.epoch > prover.epoch_ ||
        (epochs.backing_epoch != kNoBacking &&
         epochs.backing_epoch > prover.epoch_)) {
      throw SerializationError("DPOC state node drawn after its epoch");
    }
    if (!drawn.emplace(std::move(prefix), epochs).second) {
      throw SerializationError("duplicate DPOC state node");
    }
  };
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
  r.expect_done();

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
  prover.commit_plan(plan);
  if (prover.commitment_bytes() != root) {
    throw SerializationError("DPOC state does not re-derive its commitment");
  }
  return prover;
}

}  // namespace desword::zkedb
