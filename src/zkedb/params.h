// Parameters and common reference string for the ZK-EDB.
//
// The ZK-EDB is a q-ary tree of height h over the key space [0, q^h).
// Production deployments use q^h >= 2^128 with keys derived by hashing
// product identifiers (the paper sweeps (q,h) ∈ {(8,43),(16,32),(32,26),
// (64,22),(128,19)}). Unit tests shrink the key space.
//
// Leaves (depth h) are TMC commitments over a prime-order group; inner
// nodes (depths 0..h-1) are strong-RSA qTMC commitments. The CRS bundles
// both public keys.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/group.h"
#include "mercurial/qtmc.h"
#include "mercurial/tmc.h"

namespace desword::zkedb {

/// Keys are always 16-byte big-endian integers; configurations with
/// q^h < 2^128 simply require the value to be < q^h.
inline constexpr std::size_t kKeyBytes = 16;
using EdbKey = Bytes;

/// Kept only so that existing `EdbConfig{q, h, bits, group, kShared}`
/// initializers compile; every absent child is backed by its trie node's
/// one shared soft commitment (DESIGN.md §5.3).
enum class SoftMode : std::uint8_t { kShared = 0 };

struct EdbConfig {
  std::uint32_t q = 16;
  std::uint32_t height = 32;
  int rsa_bits = 2048;
  std::string group_name = "p256";  // "p256" | "modp2048" | "modp512-test"
  SoftMode soft_mode = SoftMode::kShared;  // read by nothing; see SoftMode
};

/// Serializable public parameters (the "ps" of the paper's Table I). The
/// wire form keeps a soft-backing byte after the group name, always 0.
struct EdbPublicParams {
  std::uint32_t q = 0;
  std::uint32_t height = 0;
  std::string group_name;
  mercurial::TmcPublicKey tmc_pk;
  mercurial::QtmcPublicKey qtmc_pk;

  Bytes serialize() const;
  static EdbPublicParams deserialize(BytesView data);
};

/// Runtime CRS: public parameters plus instantiated schemes. Shared
/// (immutable) between provers and verifiers.
class EdbCrs {
 public:
  explicit EdbCrs(EdbPublicParams params);

  const EdbPublicParams& params() const { return params_; }
  const mercurial::TmcScheme& tmc() const { return *tmc_; }
  const mercurial::QtmcScheme& qtmc() const { return *qtmc_; }
  const Group& group() const { return *group_; }
  std::uint32_t q() const { return params_.q; }
  std::uint32_t height() const { return params_.height; }

  /// Base-q digits of `key`, most significant first (length = height).
  /// Throws ConfigError if the key is outside [0, q^height).
  std::vector<std::uint32_t> digits_of(const EdbKey& key) const;

  /// True iff `key` is a valid 16-byte key within the key space.
  bool key_in_range(const EdbKey& key) const;

  /// 128-bit digest binding an inner-node commitment into its parent.
  Bytes digest_inner(const mercurial::QtmcCommitment& com) const;
  /// 128-bit digest binding a leaf commitment into its parent.
  Bytes digest_leaf(const mercurial::TmcCommitment& com) const;

  /// SHA-256 of the serialized public parameters — the CRS identity that
  /// verification-cache keys bind (two CRSs share a digest iff they share
  /// every public parameter). Computed once at construction.
  const Bytes& digest() const { return digest_; }

 private:
  EdbPublicParams params_;
  Bytes digest_;
  GroupPtr group_;
  std::unique_ptr<mercurial::TmcScheme> tmc_;
  std::unique_ptr<mercurial::QtmcScheme> qtmc_;
};

using EdbCrsPtr = std::shared_ptr<const EdbCrs>;

/// Trusted setup (paper: CRS-Gen / PS-Gen). Generates fresh TMC and qTMC
/// keys for the given configuration; trapdoors are discarded.
EdbCrsPtr generate_crs(const EdbConfig& config);

/// Resolves a group backend by name.
GroupPtr group_by_name(const std::string& name);

/// Derives the canonical ZK-EDB key for an application-level identifier
/// (e.g. an RFID product id): hash truncated into the key space.
EdbKey key_for_identifier(const EdbCrs& crs, BytesView identifier);

}  // namespace desword::zkedb
