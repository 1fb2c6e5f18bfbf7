// Repeated modular exponentiation under one fixed modulus.
//
// Every qTMC operation exponentiates under the same RSA modulus N; OpenSSL
// rebuilds the Montgomery context on every BN_mod_exp call unless one is
// supplied. ModExpContext builds the context once per modulus and reuses
// it, which shaves a measurable constant off all commit/open/verify paths
// (see bench_qtmc_micro). Thread safe after construction: the context is
// only read.
//
// Fixed-base acceleration: the CRS generators (g, h, h̃, the S_i vector)
// never change after key generation, so callers exponentiating the same
// base thousands of times can trade memory for speed with a windowed
// precomputation table. For window w and exponent length L the table holds
// ceil(L/w) · (2^w − 1) residues (entry [j][k] = base^(k·2^{wj}) in
// Montgomery form) and an exponentiation becomes at most ceil(L/w)
// multiplications — no squarings at all. At w = 4 that is ~4–6× fewer
// modular multiplications than square-and-multiply, for ~4 KiB of table
// per 64 exponent bits at a 2048-bit modulus.
//
// Multi-exponentiation: verification equations are products of powers
// ∏ b_i^{x_i} under one modulus. multi_exp() evaluates the whole product
// with a SINGLE shared squaring chain (the dominant cost of any
// exponentiation) instead of one chain per base: sliding-window Straus
// interleaving for small batches, Pippenger bucket aggregation for large
// ones (per-window digit buckets, no per-base tables). Straus recodes each
// exponent into odd windows of at most w bits, so a base's table holds
// only its odd powers b^1, b^3, …, b^{2^w−1} (2^{w−1} residues) and each
// window multiplies in once, at its lowest set bit — about L/(w+1)
// multiplies per base instead of the L/w of fixed windows over a table
// twice the size. The crossover and window are picked from a
// multiplication-count model over the batch size and the widest exponent.
// A caller that evaluates one product on several threads (BatchVerifier's
// verification pass) cuts it into parts with multi_exp_terms and
// multi_exp_part, sized by the same model (multi_exp_cost).
//
// Coprimality: verifiers must reject proof elements that share a factor
// with N. all_coprime() folds the elements into one product with
// Montgomery multiplies and tests the product once with the Jacobi symbol
// (QtmcScheme::elements_coprime, DESIGN.md §5.5).
//
// Backends: every algorithm below — plain and fixed-base powers, the
// multi-exp and the coprimality fold — is written once, over a small
// Montgomery-arithmetic interface, and runs on one of two products chosen
// in the constructor: the AVX-512 IFMA radix-2^52 kernel
// (crypto/mont_ifma.h) when the CPU has it and the modulus fits, else
// OpenSSL's BN_mod_mul_montgomery. Both return the same residues. On
// OpenSSL a plain exp() is BN_mod_exp_mont; on the kernel it is a
// one-term sliding-window Straus.
#pragma once

#include <openssl/bn.h>

#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "crypto/bignum.h"
#include "crypto/mont_ifma.h"

namespace desword {

class ModExpContext {
 public:
  /// The Montgomery product the fixed-base and multi-exp paths run on.
  enum class Backend {
    kBn,    // OpenSSL BN_mod_mul_montgomery
    kIfma,  // AVX-512 IFMA radix-2^52 kernel (crypto/mont_ifma.h)
  };

  /// Precomputed fixed-base table (build via `precompute`). Movable,
  /// read-only afterwards, safe to share across threads. Valid with any
  /// ModExpContext over the same modulus and backend (the Montgomery
  /// representation depends only on those), which lets one CRS-wide table
  /// set serve every scheme instance derived from the same public key.
  /// Using it under the other backend throws CheckError.
  class FixedBaseTable {
   public:
    FixedBaseTable(FixedBaseTable&&) noexcept = default;
    FixedBaseTable& operator=(FixedBaseTable&&) noexcept = default;

    int max_bits() const { return max_bits_; }
    int window() const { return window_; }
    /// The backend whose Montgomery domain the entries are in.
    Backend backend() const {
      return entries_.index() == 0 ? Backend::kBn : Backend::kIfma;
    }

   private:
    friend class ModExpContext;
    FixedBaseTable() = default;

    Bignum base_;           // reduced base (for oversized fallback)
    int window_ = 0;        // digit width w
    int max_bits_ = 0;      // largest exponent the table covers
    std::size_t row_ = 0;   // 2^w - 1 entries per block
    // [block][digit-1] in the backend's Montgomery form: one BIGNUM per
    // entry (kBn) or one flat 64-byte-aligned limb array (kIfma).
    std::variant<std::vector<Bignum>, LimbBuffer> entries_;
  };

  /// One b^x factor of a multi-exponentiation product.
  struct ExpTerm {
    Bignum base;
    Bignum exponent;  // must be >= 0
  };

  /// Builds the Montgomery context for `modulus` (must be odd and > 1 —
  /// RSA moduli always are) on the fastest available backend: kIfma when
  /// the CPU supports it and the modulus fits, else kBn. Throws
  /// CryptoError on a bad modulus.
  explicit ModExpContext(const Bignum& modulus);
  /// The same on an explicit backend (tests, benches); throws CryptoError
  /// when `backend` is not available for `modulus` on this CPU.
  ModExpContext(const Bignum& modulus, Backend backend);
  ~ModExpContext();

  ModExpContext(const ModExpContext&) = delete;
  ModExpContext& operator=(const ModExpContext&) = delete;

  /// Whether `backend` can serve `modulus` on this CPU (kBn always can).
  static bool available(Backend backend, const Bignum& modulus);
  /// "bn" or "ifma".
  static const char* backend_name(Backend backend);

  const Bignum& modulus() const { return modulus_; }
  Backend backend() const { return ifma_ ? Backend::kIfma : Backend::kBn; }

  /// (base ^ exponent) mod modulus; exponent must be >= 0. Variable time
  /// in the exponent on both backends.
  Bignum exp(const Bignum& base, const Bignum& exponent) const;

  /// Signed-exponent variant: negative exponents invert the result
  /// (base must be a unit mod modulus).
  Bignum exp_signed(const Bignum& base, const Bignum& exponent) const;

  /// Builds a fixed-base table for exponents up to `max_bits` bits.
  /// `window` in [1, 8]; 4 is a good default (16-entry rows).
  FixedBaseTable precompute(const Bignum& base, int max_bits,
                            int window = 4) const;

  /// (base ^ exponent) via the table; exponent must be >= 0. Exponents
  /// wider than table.max_bits() transparently fall back to plain exp().
  /// The table must come from a context on the same backend (CheckError
  /// otherwise).
  Bignum exp(const FixedBaseTable& table, const Bignum& exponent) const;

  /// Signed-exponent variant of the table path.
  Bignum exp_signed(const FixedBaseTable& table, const Bignum& exponent) const;

  /// gcd(x, N) == 1 for every x in `xs` (true when empty). The elements
  /// (reduced mod N first when they are not in [0, N)) are folded with one
  /// Montgomery product each on the backend, x_1·…·x_k·R^{1−k} mod N, and
  /// the fold is tested once as Jacobi(·, N) ≠ 0: for odd N the symbol is
  /// 0 exactly when some prime factor of N divides the fold, and R is a
  /// unit, so exactly when one divides some x. Variable time — the x and N
  /// must be public (proof elements and the RSA modulus are).
  bool all_coprime(const std::vector<const Bignum*>& xs) const;

  /// ∏ terms[i].base ^ terms[i].exponent mod modulus, sharing one squaring
  /// chain across all bases. Zero exponents contribute 1 and are skipped;
  /// an empty (or all-zero-exponent) product returns 1. Negative exponents
  /// throw CryptoError. Counts as one crypto.multi_exp.calls; a single
  /// live term is one plain exp() and counts as that.
  Bignum multi_exp(const std::vector<ExpTerm>& terms) const;

  /// For a caller that evaluates one product in parts: the live
  /// (non-zero-exponent) terms of multi_exp(terms), widest exponent first.
  /// The multi_exp_part products of any cut of them into contiguous runs
  /// multiply to multi_exp(terms) mod the modulus. Counts the product
  /// once, as multi_exp would, however many parts evaluate it. Negative
  /// exponents throw CryptoError. The pointers alias `terms`.
  std::vector<const ExpTerm*> multi_exp_terms(
      const std::vector<ExpTerm>& terms) const;

  /// ∏ over a non-empty run of multi_exp_terms' output, by the algorithm
  /// and window multi_exp picks for it. Counted in no metric.
  Bignum multi_exp_part(std::span<const ExpTerm* const> part) const;

  /// Estimated Montgomery products of a multi_exp over `n` live terms
  /// whose widest exponent has `max_bits` bits: the cheapest Straus or
  /// Pippenger window under the model multi_exp picks by.
  static double multi_exp_cost(std::size_t n, int max_bits);

 private:
  /// Calls f(arith) with the backend's Montgomery arithmetic (modexp.cpp).
  template <class F>
  decltype(auto) with_arith(F&& f) const;

  /// Evaluates the product of `terms` (non-empty, non-zero exponents of at
  /// most `max_bits` bits) with the cheaper of Straus and Pippenger.
  Bignum multi_exp_live(std::span<const ExpTerm* const> terms,
                        int max_bits) const;

  struct MontFree {
    void operator()(BN_MONT_CTX* m) const;
  };

  Bignum modulus_;
  std::unique_ptr<BN_MONT_CTX, MontFree> mont_;
  std::unique_ptr<const IfmaMontgomery> ifma_;  // null on kBn
};

}  // namespace desword
