// RAII arbitrary-precision integer built on OpenSSL BIGNUM.
//
// Semantics:
//   * values are signed integers; serialization (`to_bytes`) is the
//     big-endian magnitude and requires a non-negative value,
//   * `mod()` always returns the canonical non-negative representative,
//   * modular helpers (`mod_exp`, `mod_mul`, `mod_inverse`) require
//     non-negative operands reduced or reducible mod `m`.
//
// The class is value-semantic (deep copy) and exception safe: any OpenSSL
// failure throws CryptoError.
#pragma once

#include <openssl/bn.h>

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace desword {

class Bignum {
 public:
  /// Zero.
  Bignum();
  explicit Bignum(std::uint64_t v);
  Bignum(const Bignum& other);
  Bignum(Bignum&& other) noexcept;
  Bignum& operator=(const Bignum& other);
  Bignum& operator=(Bignum&& other) noexcept;
  ~Bignum();

  /// Parses a big-endian magnitude (non-negative result).
  static Bignum from_bytes(BytesView be);
  /// Parses a decimal string (optionally signed).
  static Bignum from_dec(std::string_view dec);
  /// Parses a hex string (optionally signed).
  static Bignum from_hex(std::string_view hex);

  /// Minimal big-endian magnitude (empty for zero). Requires value >= 0.
  Bytes to_bytes() const;
  /// The same bytes into `out` (resized to fit), reusing its storage.
  void to_bytes(Bytes& out) const;
  /// Big-endian magnitude left-padded with zeros to exactly `len` bytes.
  /// Throws if the value does not fit. Requires value >= 0.
  Bytes to_bytes_padded(std::size_t len) const;
  std::string to_dec() const;
  std::string to_hex() const;
  /// Converts to uint64_t; throws CryptoError if negative or too large.
  std::uint64_t to_u64() const;

  int bits() const;
  bool is_zero() const;
  bool is_one() const;
  bool is_odd() const;
  bool is_negative() const;

  Bignum operator+(const Bignum& rhs) const;
  Bignum operator-(const Bignum& rhs) const;
  Bignum operator*(const Bignum& rhs) const;
  Bignum& operator+=(const Bignum& rhs);
  Bignum& operator-=(const Bignum& rhs);
  Bignum& operator*=(const Bignum& rhs);
  Bignum negated() const;

  /// Integer division; if `rem` is non-null receives the remainder
  /// (OpenSSL truncated-division semantics). `d` must be non-zero.
  Bignum divided_by(const Bignum& d, Bignum* rem = nullptr) const;

  /// True iff `d` divides this value exactly.
  bool divisible_by(const Bignum& d) const;

  /// Canonical non-negative residue in [0, m).
  Bignum mod(const Bignum& m) const;

  /// (base ^ exp) mod m. Requires exp >= 0 and m > 0.
  static Bignum mod_exp(const Bignum& base, const Bignum& exp,
                        const Bignum& m);
  /// (a * b) mod m.
  static Bignum mod_mul(const Bignum& a, const Bignum& b, const Bignum& m);
  /// a^{-1} mod m; throws CryptoError if the inverse does not exist.
  static Bignum mod_inverse(const Bignum& a, const Bignum& m);
  static Bignum gcd(const Bignum& a, const Bignum& b);

  std::strong_ordering operator<=>(const Bignum& rhs) const;
  bool operator==(const Bignum& rhs) const;

  /// Uniform value in [0, bound). Requires bound > 0. CSPRNG-backed.
  static Bignum rand_range(const Bignum& bound);
  /// Uniform value with exactly `bits` bits (top bit set). CSPRNG-backed.
  static Bignum rand_bits(int bits);

  /// Miller-Rabin primality check (BN_check_prime).
  bool is_prime() const;
  /// Generates a random prime of exactly `bits` bits. `safe` requests a
  /// safe prime (p = 2q + 1 with q prime).
  static Bignum generate_prime(int bits, bool safe = false);

  /// Escape hatches for OpenSSL interop (e.g. EC scalar multiplication).
  BIGNUM* raw() { return bn_; }
  const BIGNUM* raw() const { return bn_; }

 private:
  explicit Bignum(BIGNUM* owned) : bn_(owned) {}
  static BIGNUM* checked(BIGNUM* bn);

  BIGNUM* bn_;
};

}  // namespace desword
