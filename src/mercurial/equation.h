// Verification equations as data.
//
// Scalar verification of a mercurial opening checks one or two product
// equations (∏ base^exponent == rhs) immediately. The batch-verification
// engine instead has the schemes EMIT those equations as plain structs so a
// BatchVerifier can fold many of them — across a whole proof chain, or
// across many proofs — into a single multi-exponentiation (see
// batch_verify.h). Terms reference the CRS bases (h, h̃-free: verification
// never uses h̃; S_i) symbolically so the fold can merge their exponents:
// S_i appears in every equation at position i, which is where most of the
// batching win comes from, and h in both equations of every hard opening —
// h^{r1} == C1 and Λ^{e}·S^m·h^{r1·τ} == C0, the latter standing in for
// the scheme's C1^τ factor (QtmcScheme::open_equations). A fold raises h
// to its merged exponent once, through h's fixed-base table, outside the
// multi-exponentiation, so only proof-supplied bases (Λ, and C1 in teases)
// and the S_i share the squaring chain.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "crypto/bignum.h"

namespace desword::mercurial {

/// One base^exponent factor of a qTMC (strong-RSA) verification equation.
struct RsaTerm {
  enum class Kind : std::uint8_t {
    kGeneric,  // proof-supplied base carried in `base`
    kH,        // the CRS base h
    kS,        // the CRS base S_{pos}
  };

  Kind kind = Kind::kGeneric;
  std::uint32_t pos = 0;  // kS only
  Bignum base;            // kGeneric only
  Bignum exponent;        // always >= 0 (checked at emission)
};

/// Product equation ∏ lhs == rhs under the qTMC modulus N. Exponents are
/// integers over the hidden-order RSA group — they are never reduced.
struct RsaEquation {
  std::vector<RsaTerm> lhs;
  Bignum rhs;
};

/// One elem^scalar factor of a TMC (prime-order group) equation.
struct EcTerm {
  enum class Kind : std::uint8_t {
    kGeneric,  // proof-supplied element carried in `elem`
    kG,        // the CRS generator g
    kH,        // the CRS base h
  };

  Kind kind = Kind::kGeneric;
  Bytes elem;     // kGeneric only
  Bignum scalar;  // taken mod the group order
};

/// Product equation ∏ lhs == rhs in the TMC group.
struct EcEquation {
  std::vector<EcTerm> lhs;
  Bytes rhs;
};

}  // namespace desword::mercurial
