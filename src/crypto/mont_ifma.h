// Radix-2^52 Montgomery multiplication on AVX-512 IFMA.
//
// A residue mod N is held as L = 8·Z limbs of 52 bits, one per 64-bit lane
// of Z zmm registers (Z = 5 at RSA-2048). The product is the
// word-by-word "almost Montgomery" multiplication AMM(a, b) =
// (a·b + m·N) / R with R = 2^{52·L}: vpmadd52luq/vpmadd52huq accumulate
// the low and high 52-bit halves of every limb product, lane 0 is carried
// in a scalar register so the per-limb reduction factor y never waits on
// the vector unit, and one lane shift per limb of b divides by 2^52. The
// modulus must satisfy 4N < R; then a, b ∈ [0, 2N) give AMM(a, b) ∈
// [0, 2N), so products chain without a final subtraction. A value is
// fully reduced only on exit: AMM(x, 1) ∈ [0, N], then a masked subtract.
// Every step is branch-free on operand values.
//
// ModExpContext (crypto/modexp.h) runs its fixed-base and multi-exp paths
// on this kernel when the CPU reports AVX512F and AVX512IFMA (CPUID plus
// XGETBV, so the OS must save the zmm state) and the modulus fits Z ≤ 8;
// otherwise it keeps OpenSSL's BN_mod_mul_montgomery (DESIGN.md §5.4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "crypto/bignum.h"

namespace desword {

/// Heap array of 64-bit limbs on a 64-byte (one zmm) boundary. Movable,
/// not copyable; contents are zero-initialized.
class LimbBuffer {
 public:
  LimbBuffer() = default;
  explicit LimbBuffer(std::size_t limbs);

  std::uint64_t* data() { return limbs_.get(); }
  const std::uint64_t* data() const { return limbs_.get(); }
  std::size_t size() const { return size_; }

 private:
  struct Free {
    void operator()(std::uint64_t* p) const;
  };
  std::unique_ptr<std::uint64_t[], Free> limbs_;
  std::size_t size_ = 0;
};

class IfmaMontgomery {
 public:
  /// Largest register count the kernel is instantiated for: moduli of up
  /// to 8·8·52 − 2 = 3326 bits.
  static constexpr int kMaxZmm = 8;

  /// True when CPUID reports AVX512F and AVX512IFMA and XGETBV shows the
  /// OS saving the opmask and zmm state.
  static bool cpu_supported();

  /// Registers per residue for `modulus` (the least Z with 4N < 2^{416·Z}),
  /// or 0 when it exceeds kMaxZmm.
  static int zmm_for(const Bignum& modulus);

  /// The context for an odd `modulus` > 1, or null when the CPU lacks IFMA
  /// or the modulus does not fit.
  static std::unique_ptr<const IfmaMontgomery> create(const Bignum& modulus);

  int zmm() const { return zmm_; }
  /// Limbs per residue, L = 8·zmm.
  std::size_t limbs() const { return limbs_; }

  /// r ← AMM(a, b) = a·b·2^{−52L} mod N, as a value in [0, 2N), for a and
  /// b in [0, 2N). r may alias a or b.
  void mul(std::uint64_t* r, const std::uint64_t* a,
           const std::uint64_t* b) const {
    mul_(r, a, b, n_.data(), k0_);
  }

  /// r ← x·R mod N (< 2N) for x in [0, N): entry into the Montgomery domain.
  void to_mont(std::uint64_t* r, const Bignum& x) const;
  /// a·R^{−1} mod N, fully reduced, for a in [0, 2N).
  Bignum from_mont(const std::uint64_t* a) const;

  /// Writes x (0 ≤ x < 2^{52L}) as L normalized limbs.
  void load(std::uint64_t* r, const Bignum& x) const;
  /// The integer the L limbs of `a` hold, unreduced.
  Bignum store(const std::uint64_t* a) const;

  using MulFn = void (*)(std::uint64_t*, const std::uint64_t*,
                         const std::uint64_t*, const std::uint64_t*,
                         std::uint64_t);

 private:
  IfmaMontgomery(const Bignum& modulus, int zmm);

  int zmm_;
  std::size_t limbs_;
  MulFn mul_;
  std::uint64_t k0_;  // −N^{−1} mod 2^52
  LimbBuffer n_;      // N
  LimbBuffer rr_;     // R² mod N
  LimbBuffer one_;    // 1
};

}  // namespace desword
