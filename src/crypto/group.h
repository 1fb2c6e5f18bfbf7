// Abstract cyclic group of prime order.
//
// The Pedersen-style trapdoor mercurial commitment (TMC) and the Schnorr
// signature baseline are written against this interface. Elements are
// handled as opaque serialized byte strings so that commitments and proofs
// serialize without caring which backend produced them.
//
// Backends:
//   * NIST P-256 elliptic curve (compressed points, 33 bytes) — primary.
//   * Multiplicative subgroup of quadratic residues mod a safe prime
//     (RFC 3526 2048-bit group, plus a small deterministic test group) —
//     ablation backend matching the "classic" DL instantiation.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/bignum.h"

namespace desword {

class Group {
 public:
  virtual ~Group() = default;

  /// Human-readable backend identifier ("p256", "modp2048", ...).
  virtual std::string name() const = 0;

  /// The prime group order; scalars live in [0, order).
  virtual const Bignum& order() const = 0;

  /// Serialized canonical generator.
  virtual Bytes generator() const = 0;

  /// elem ^ scalar (scalar taken mod order; must be non-negative).
  virtual Bytes exp(BytesView elem, const Bignum& scalar) const = 0;

  /// Group operation a * b.
  virtual Bytes mul(BytesView a, BytesView b) const = 0;

  /// ∏ elem_i ^ scalar_i (scalars taken mod order; must be non-negative).
  /// Terms whose scalar reduces to 0 contribute the identity and are
  /// skipped. Backends override this with a faster evaluation (MODP: one
  /// shared squaring chain; P-256: OpenSSL's scalar multiplication with
  /// the generator terms merged); the default multiplies per-term exp()
  /// results. Throws CryptoError if the product is the
  /// identity (it has no serialization on the EC backend) — batched
  /// verification equations avoid the identity with overwhelming
  /// probability, and verifiers treat the throw as a mismatch.
  virtual Bytes multi_exp(
      const std::vector<std::pair<Bytes, Bignum>>& terms) const {
    Bytes acc;
    bool have_acc = false;
    for (const auto& [elem, scalar] : terms) {
      if (scalar.mod(order()).is_zero()) continue;
      Bytes factor = exp(elem, scalar);
      acc = have_acc ? mul(acc, factor) : std::move(factor);
      have_acc = true;
    }
    if (!have_acc) {
      throw CryptoError("Group::multi_exp: identity product");
    }
    return acc;
  }

  /// Whether multi_exp(lhs) == multi_exp(rhs); false when either side is
  /// the identity (multi_exp throws there). Backends may share work
  /// between the sides: P-256 decodes each distinct element once.
  virtual bool multi_exp_equal(
      const std::vector<std::pair<Bytes, Bignum>>& lhs,
      const std::vector<std::pair<Bytes, Bignum>>& rhs) const {
    try {
      return multi_exp(lhs) == multi_exp(rhs);
    } catch (const CryptoError&) {
      return false;
    }
  }

  /// Group inverse.
  virtual Bytes inverse(BytesView a) const = 0;

  /// Full membership check (expensive for MODP; used at trust boundaries).
  virtual bool is_valid_element(BytesView e) const = 0;

  /// Deterministically maps a seed to a group element with unknown discrete
  /// log relative to the generator (used to derive the Pedersen base `h`
  /// when no trapdoor is wanted).
  virtual Bytes hash_to_element(BytesView seed) const = 0;

  /// Hint that `elem` will be exponentiated many times (a CRS generator):
  /// backends may build a fixed-base precomputation table for it (MODP)
  /// or keep it decoded (P-256). Optional — the default is a no-op. Call
  /// before sharing the group across threads, or rely on the backend's own
  /// locking.
  virtual void precompute_base(BytesView elem) const { (void)elem; }

  /// Serialized element size in bytes (fixed per backend).
  virtual std::size_t element_size() const = 0;

  /// Uniform scalar in [0, order).
  Bignum random_scalar() const { return Bignum::rand_range(order()); }

  /// generator() ^ scalar.
  Bytes exp_g(const Bignum& scalar) const {
    const Bytes g = generator();
    return exp(g, scalar);
  }

  /// a * b^{-1}.
  Bytes div(BytesView a, BytesView b) const {
    const Bytes ib = inverse(b);
    return mul(a, ib);
  }
};

using GroupPtr = std::shared_ptr<const Group>;

/// NIST P-256 backend.
GroupPtr make_p256_group();

enum class ModpGroupId {
  kRfc3526_2048,  // 2048-bit MODP group 14 (safe prime), production scale
  kTest512,       // fixed 512-bit safe prime, for fast unit tests only
};

/// Safe-prime QR-subgroup backend.
GroupPtr make_modp_group(ModpGroupId id);

}  // namespace desword
