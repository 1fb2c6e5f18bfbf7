#include "zkedb/params.h"

#include "common/error.h"
#include "common/serial.h"
#include "crypto/hash.h"

namespace desword::zkedb {

Bytes EdbPublicParams::serialize() const {
  BinaryWriter w;
  w.u32(q);
  w.u32(height);
  w.str(group_name);
  w.u8(0);  // soft-backing mode: shared, the only one
  w.bytes(tmc_pk.serialize());
  w.bytes(qtmc_pk.serialize());
  return w.take();
}

EdbPublicParams EdbPublicParams::deserialize(BytesView data) {
  BinaryReader r(data);
  EdbPublicParams p;
  p.q = r.u32();
  p.height = r.u32();
  p.group_name = r.str();
  if (r.u8() != 0) throw SerializationError("bad soft-backing mode");
  const Bytes tmc_ser = r.bytes();
  const Bytes qtmc_ser = r.bytes();
  r.expect_done();
  const GroupPtr group = group_by_name(p.group_name);
  p.tmc_pk = mercurial::TmcPublicKey::deserialize(*group, tmc_ser);
  p.qtmc_pk = mercurial::QtmcPublicKey::deserialize(qtmc_ser);
  return p;
}

GroupPtr group_by_name(const std::string& name) {
  if (name == "p256") return make_p256_group();
  if (name == "modp2048") return make_modp_group(ModpGroupId::kRfc3526_2048);
  if (name == "modp512-test") return make_modp_group(ModpGroupId::kTest512);
  throw ConfigError("unknown group backend: " + name);
}

EdbCrs::EdbCrs(EdbPublicParams params) : params_(std::move(params)) {
  if (params_.q < 2 || params_.q > 256) {
    throw ConfigError("ZK-EDB branching factor must be in [2, 256]");
  }
  if (params_.height < 1 || params_.height > 256) {
    throw ConfigError("ZK-EDB height must be in [1, 256]");
  }
  if (params_.qtmc_pk.q != params_.q) {
    throw ConfigError("qTMC arity does not match branching factor");
  }
  group_ = group_by_name(params_.group_name);
  tmc_ = std::make_unique<mercurial::TmcScheme>(group_, params_.tmc_pk);
  qtmc_ = std::make_unique<mercurial::QtmcScheme>(params_.qtmc_pk);
  digest_ = sha256(params_.serialize());
}

std::vector<std::uint32_t> EdbCrs::digits_of(const EdbKey& key) const {
  if (key.size() != kKeyBytes) {
    throw ConfigError("ZK-EDB key must be 16 bytes");
  }
  // Repeated long division by q, collecting remainders (least significant
  // digit first). Works for any q in [2, 256].
  Bytes value = key;
  std::vector<std::uint32_t> digits(params_.height);
  for (std::uint32_t d = 0; d < params_.height; ++d) {
    std::uint64_t rem = 0;
    for (auto& byte : value) {
      const std::uint64_t cur = (rem << 8) | byte;
      byte = static_cast<std::uint8_t>(cur / params_.q);
      rem = cur % params_.q;
    }
    digits[params_.height - 1 - d] = static_cast<std::uint32_t>(rem);
  }
  for (std::uint8_t byte : value) {
    if (byte != 0) throw ConfigError("ZK-EDB key exceeds q^height");
  }
  return digits;
}

bool EdbCrs::key_in_range(const EdbKey& key) const {
  if (key.size() != kKeyBytes) return false;
  try {
    (void)digits_of(key);
    return true;
  } catch (const ConfigError&) {
    return false;
  }
}

Bytes EdbCrs::digest_inner(const mercurial::QtmcCommitment& com) const {
  return hash_to_128("zkedb/inner-node", {com.serialize(params_.qtmc_pk.n)});
}

Bytes EdbCrs::digest_leaf(const mercurial::TmcCommitment& com) const {
  return hash_to_128("zkedb/leaf-node", {com.serialize()});
}

EdbCrsPtr generate_crs(const EdbConfig& config) {
  const GroupPtr group = group_by_name(config.group_name);
  mercurial::TmcKeyPair tmc_keys = mercurial::TmcScheme::keygen(group);
  mercurial::QtmcKeyPair qtmc_keys =
      mercurial::QtmcScheme::keygen(config.q, config.rsa_bits);
  EdbPublicParams params;
  params.q = config.q;
  params.height = config.height;
  params.group_name = config.group_name;
  params.tmc_pk = std::move(tmc_keys.pk);
  params.qtmc_pk = std::move(qtmc_keys.pk);
  // Trapdoors go out of scope here: the CRS generator (the proxy) never
  // needs them at runtime.
  return std::make_shared<EdbCrs>(std::move(params));
}

EdbKey key_for_identifier(const EdbCrs& crs, BytesView identifier) {
  const Bytes digest = hash_to_128("zkedb/key", {identifier});
  // Reduce into [0, q^height) for small test key spaces; a no-op whenever
  // q^height >= 2^128 (all production configurations).
  Bignum space(1);
  const Bignum q(crs.q());
  for (std::uint32_t i = 0; i < crs.height(); ++i) space *= q;
  const Bignum reduced = Bignum::from_bytes(digest).mod(space);
  return reduced.to_bytes_padded(kKeyBytes);
}

}  // namespace desword::zkedb
