#include "zkedb/proof.h"

#include "common/error.h"
#include "common/serial.h"
#include "crypto/hash.h"

namespace desword::zkedb {

Bytes leaf_value_digest(BytesView value) {
  return hash_to_128("zkedb/leaf-value", {value});
}

Bytes EdbMembershipProof::serialize(const EdbCrs& crs) const {
  const Bignum& n = crs.params().qtmc_pk.n;
  BinaryWriter w;
  w.varint(openings.size());
  for (const auto& op : openings) w.bytes(op.serialize(n));
  w.varint(child_commitments.size());
  for (const auto& c : child_commitments) w.bytes(c);
  w.bytes(leaf_opening.serialize(crs.group()));
  w.bytes(value);
  return w.take();
}

EdbMembershipProof EdbMembershipProof::deserialize(const EdbCrs& crs,
                                                   BytesView data) {
  const Bignum& n = crs.params().qtmc_pk.n;
  BinaryReader r(data);
  EdbMembershipProof proof;
  const std::uint64_t n_open = r.varint();
  if (n_open != crs.height()) {
    throw SerializationError("membership proof has wrong depth");
  }
  proof.openings.reserve(n_open);
  for (std::uint64_t i = 0; i < n_open; ++i) {
    proof.openings.push_back(mercurial::QtmcOpening::deserialize(n, r.bytes()));
  }
  const std::uint64_t n_child = r.varint();
  if (n_child != crs.height()) {
    throw SerializationError("membership proof has wrong child count");
  }
  proof.child_commitments.reserve(n_child);
  for (std::uint64_t i = 0; i < n_child; ++i) {
    proof.child_commitments.push_back(r.bytes());
    if (i + 1 < n_child &&
        proof.child_commitments.back().size() != crs.qtmc().element_len()) {
      throw SerializationError("membership proof child C0 has wrong width");
    }
  }
  proof.leaf_opening =
      mercurial::TmcOpening::deserialize(crs.group(), r.bytes());
  proof.value = r.bytes();
  r.expect_done();
  return proof;
}

Bytes EdbNonMembershipProof::serialize(const EdbCrs& crs) const {
  const Bignum& n = crs.params().qtmc_pk.n;
  BinaryWriter w;
  w.varint(teases.size());
  for (const auto& t : teases) w.bytes(t.serialize(n));
  w.varint(child_commitments.size());
  for (const auto& c : child_commitments) w.bytes(c);
  w.bytes(leaf_tease.serialize(crs.group()));
  return w.take();
}

EdbNonMembershipProof EdbNonMembershipProof::deserialize(const EdbCrs& crs,
                                                         BytesView data) {
  const Bignum& n = crs.params().qtmc_pk.n;
  BinaryReader r(data);
  EdbNonMembershipProof proof;
  const std::uint64_t n_tease = r.varint();
  if (n_tease != crs.height()) {
    throw SerializationError("non-membership proof has wrong depth");
  }
  proof.teases.reserve(n_tease);
  for (std::uint64_t i = 0; i < n_tease; ++i) {
    proof.teases.push_back(mercurial::QtmcTease::deserialize(n, r.bytes()));
  }
  const std::uint64_t n_child = r.varint();
  if (n_child != crs.height()) {
    throw SerializationError("non-membership proof has wrong child count");
  }
  proof.child_commitments.reserve(n_child);
  for (std::uint64_t i = 0; i < n_child; ++i) {
    proof.child_commitments.push_back(r.bytes());
  }
  proof.leaf_tease = mercurial::TmcTease::deserialize(crs.group(), r.bytes());
  r.expect_done();
  return proof;
}

}  // namespace desword::zkedb
