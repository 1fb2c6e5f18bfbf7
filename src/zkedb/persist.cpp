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
// Version 2 adds soft-node tag 2: an inner soft node stored without its
// commitment, which is derived from the decommitment. Every inner soft
// node is written that way; tag 0 (commitment stored too) is still read,
// and its commitment dropped, so version 1 blobs and older version 2
// blobs load.
constexpr std::uint8_t kStateVersion = 2;

void write_scalar(BinaryWriter& w, const Bignum& v) { w.bytes(v.to_bytes()); }

Bignum read_scalar(BinaryReader& r) { return Bignum::from_bytes(r.bytes()); }

}  // namespace

Bytes EdbProver::serialize_state() const {
  const Bignum& n = crs_->params().qtmc_pk.n;
  BinaryWriter w;
  w.u32(kStateMagic);
  w.u8(kStateVersion);

  // Committed entries.
  w.varint(values_.size());
  for (const auto& [key, value] : values_) {
    w.bytes(key);
    w.bytes(value);
  }

  // Inner trie nodes, with the commitment and messages the prover derives
  // rather than stores.
  w.varint(inner_.size());
  for (const auto& entry : inner_) {
    const std::string& prefix = entry.first;
    const mercurial::QtmcHardDecommit dec = inner_dec(prefix);
    w.str(prefix);
    w.bytes(inner_commitment_bytes(dec));
    w.varint(dec.size());
    for (std::size_t j = 0; j < dec.size(); ++j) w.bytes(dec.message(j));
    write_scalar(w, dec.z);
    write_scalar(w, dec.r0);
    write_scalar(w, dec.r1);
  }

  // Leaves.
  w.varint(leaves_.size());
  for (const auto& [prefix, leaf] : leaves_) {
    w.str(prefix);
    w.bytes(leaf.com.serialize());
    w.bytes(leaf.dec.message);
    write_scalar(w, leaf.dec.r0);
    write_scalar(w, leaf.dec.r1);
  }

  // Soft backing map.
  w.varint(soft_backing_.size());
  for (const auto& [key, id] : soft_backing_) {
    w.str(key);
    w.varint(id);
  }

  // Soft nodes (including memoized fabrication teases).
  w.varint(soft_nodes_.size());
  for (const SoftNode& node : soft_nodes_) {
    if (const auto* inner = std::get_if<SoftInner>(&node)) {
      w.u8(2);
      write_scalar(w, inner->dec.r0);
      write_scalar(w, inner->dec.r1);
      w.varint(inner->teases.size());
      for (const auto& [digit, entry] : inner->teases) {
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
  BinaryReader r(state);

  if (r.u32() != kStateMagic) {
    throw SerializationError("not a DPOC state blob");
  }
  const std::uint8_t version = r.u8();
  if (version != 1 && version != kStateVersion) {
    throw SerializationError("unsupported DPOC state version");
  }

  const std::uint64_t n_values = r.varint();
  for (std::uint64_t i = 0; i < n_values; ++i) {
    Bytes key = r.bytes();
    Bytes value = r.bytes();
    (void)c.digits_of(key);  // validates the key against the CRS
    prover.values_.emplace(std::move(key), std::move(value));
  }

  // Inner nodes keep their digest and randomizers; the stored commitment
  // and messages are checked against what the loaded trie derives, below.
  std::map<std::string, std::pair<Bytes, std::vector<Bytes>>> stored;
  const std::uint64_t n_inner = r.varint();
  for (std::uint64_t i = 0; i < n_inner; ++i) {
    std::string prefix = r.str();
    const mercurial::QtmcCommitment com =
        mercurial::QtmcCommitment::deserialize(n, r.bytes());
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
    InnerNode node{};
    try {
      node.z = to_randomizer(read_scalar(r));
      node.r0 = to_randomizer(read_scalar(r));
      node.r1 = to_randomizer(read_scalar(r));
    } catch (const CryptoError&) {
      throw SerializationError("inner node randomizer too wide");
    }
    node.digest = to_digest(c.digest_inner(com));
    if (!prover.inner_.emplace(prefix, node).second) {
      throw SerializationError("duplicate inner node");
    }
    stored.emplace(std::move(prefix),
                   std::make_pair(com.serialize(n), std::move(messages)));
  }

  const std::uint64_t n_leaves = r.varint();
  for (std::uint64_t i = 0; i < n_leaves; ++i) {
    std::string prefix = r.str();
    LeafNode leaf;
    leaf.com = mercurial::TmcCommitment::deserialize(c.group(), r.bytes());
    leaf.dec.message = r.bytes();
    leaf.dec.r0 = read_scalar(r);
    leaf.dec.r1 = read_scalar(r);
    prover.leaves_.emplace(std::move(prefix), std::move(leaf));
  }

  const std::uint64_t n_backing = r.varint();
  for (std::uint64_t i = 0; i < n_backing; ++i) {
    std::string key = r.str();
    const std::size_t id = static_cast<std::size_t>(r.varint());
    prover.soft_backing_.emplace(std::move(key), id);
  }

  const std::uint64_t n_soft = r.varint();
  for (std::uint64_t i = 0; i < n_soft; ++i) {
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
  for (const auto& [key, id] : prover.soft_backing_) {
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

  // Every inner node's messages must be its children's digests (or its
  // soft backing's) and its commitment must follow from them and its
  // randomizers: the prover re-derives both for every proof.
  for (const auto& [prefix, com_and_messages] : stored) {
    const auto& [com, messages] = com_and_messages;
    if (prover.inner_messages(prefix) != messages) {
      throw SerializationError("inner node messages do not match the trie");
    }
    if (prover.inner_commitment_bytes(prover.inner_dec(prefix)) != com) {
      throw SerializationError("inner node commitment does not match");
    }
  }
  const auto root = stored.find(std::string());
  if (root == stored.end()) {
    throw SerializationError("DPOC state has no root node");
  }
  prover.root_com_ =
      mercurial::QtmcCommitment::deserialize(n, root->second.first);
  return prover;
}

}  // namespace desword::zkedb
