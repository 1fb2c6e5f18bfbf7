#include "crypto/bignum.h"

#include <openssl/err.h>

#include <memory>
#include <utility>

#include "common/error.h"

namespace desword {

namespace {

/// Thread-local scratch context shared by all Bignum operations.
BN_CTX* ctx() {
  // Owned, so a thread that exits (a local ThreadPool's worker) frees it.
  thread_local const std::unique_ptr<BN_CTX, decltype(&BN_CTX_free)> c(
      BN_CTX_new(), &BN_CTX_free);
  if (c == nullptr) throw CryptoError("BN_CTX_new failed");
  return c.get();
}

[[noreturn]] void fail(const char* op) {
  throw CryptoError(std::string(op) + " failed (openssl err " +
                    std::to_string(ERR_peek_last_error()) + ")");
}

}  // namespace

BIGNUM* Bignum::checked(BIGNUM* bn) {
  if (bn == nullptr) fail("BN alloc");
  return bn;
}

Bignum::Bignum() : bn_(checked(BN_new())) { BN_zero(bn_); }

Bignum::Bignum(std::uint64_t v) : bn_(checked(BN_new())) {
  if (BN_set_word(bn_, v) != 1) fail("BN_set_word");
}

Bignum::Bignum(const Bignum& other) : bn_(checked(BN_dup(other.bn_))) {}

Bignum::Bignum(Bignum&& other) noexcept : bn_(other.bn_) {
  other.bn_ = nullptr;
}

Bignum& Bignum::operator=(const Bignum& other) {
  if (this != &other) {
    if (BN_copy(bn_, other.bn_) == nullptr) fail("BN_copy");
  }
  return *this;
}

Bignum& Bignum::operator=(Bignum&& other) noexcept {
  std::swap(bn_, other.bn_);
  return *this;
}

Bignum::~Bignum() {
  if (bn_ != nullptr) BN_free(bn_);
}

Bignum Bignum::from_bytes(BytesView be) {
  BIGNUM* bn = BN_bin2bn(be.data(), static_cast<int>(be.size()), nullptr);
  if (bn == nullptr) fail("BN_bin2bn");
  return Bignum(bn);
}

Bignum Bignum::from_dec(std::string_view dec) {
  BIGNUM* bn = nullptr;
  const std::string s(dec);
  if (BN_dec2bn(&bn, s.c_str()) == 0) fail("BN_dec2bn");
  return Bignum(bn);
}

Bignum Bignum::from_hex(std::string_view hex) {
  BIGNUM* bn = nullptr;
  const std::string s(hex);
  if (BN_hex2bn(&bn, s.c_str()) == 0) fail("BN_hex2bn");
  return Bignum(bn);
}

Bytes Bignum::to_bytes() const {
  Bytes out;
  to_bytes(out);
  return out;
}

void Bignum::to_bytes(Bytes& out) const {
  if (is_negative()) throw CryptoError("to_bytes on negative value");
  out.resize(static_cast<std::size_t>(BN_num_bytes(bn_)));
  if (!out.empty()) BN_bn2bin(bn_, out.data());
}

Bytes Bignum::to_bytes_padded(std::size_t len) const {
  if (is_negative()) throw CryptoError("to_bytes_padded on negative value");
  Bytes out(len);
  if (BN_bn2binpad(bn_, out.data(), static_cast<int>(len)) < 0) {
    fail("BN_bn2binpad (value too large for pad length)");
  }
  return out;
}

std::string Bignum::to_dec() const {
  char* s = BN_bn2dec(bn_);
  if (s == nullptr) fail("BN_bn2dec");
  std::string out(s);
  OPENSSL_free(s);
  return out;
}

std::string Bignum::to_hex() const {
  char* s = BN_bn2hex(bn_);
  if (s == nullptr) fail("BN_bn2hex");
  std::string out(s);
  OPENSSL_free(s);
  return out;
}

std::uint64_t Bignum::to_u64() const {
  if (is_negative() || bits() > 64) {
    throw CryptoError("to_u64: value out of range");
  }
  // BN_get_word returns unsigned long (64-bit on this platform).
  return static_cast<std::uint64_t>(BN_get_word(bn_));
}

int Bignum::bits() const { return BN_num_bits(bn_); }
bool Bignum::is_zero() const { return BN_is_zero(bn_); }
bool Bignum::is_one() const { return BN_is_one(bn_); }
bool Bignum::is_odd() const { return BN_is_odd(bn_); }
bool Bignum::is_negative() const { return BN_is_negative(bn_); }

Bignum Bignum::operator+(const Bignum& rhs) const {
  Bignum out;
  if (BN_add(out.bn_, bn_, rhs.bn_) != 1) fail("BN_add");
  return out;
}

Bignum Bignum::operator-(const Bignum& rhs) const {
  Bignum out;
  if (BN_sub(out.bn_, bn_, rhs.bn_) != 1) fail("BN_sub");
  return out;
}

Bignum Bignum::operator*(const Bignum& rhs) const {
  Bignum out;
  if (BN_mul(out.bn_, bn_, rhs.bn_, ctx()) != 1) fail("BN_mul");
  return out;
}

Bignum& Bignum::operator+=(const Bignum& rhs) {
  if (BN_add(bn_, bn_, rhs.bn_) != 1) fail("BN_add");
  return *this;
}

Bignum& Bignum::operator-=(const Bignum& rhs) {
  if (BN_sub(bn_, bn_, rhs.bn_) != 1) fail("BN_sub");
  return *this;
}

Bignum& Bignum::operator*=(const Bignum& rhs) {
  if (BN_mul(bn_, bn_, rhs.bn_, ctx()) != 1) fail("BN_mul");
  return *this;
}

Bignum Bignum::negated() const {
  Bignum out(*this);
  BN_set_negative(out.bn_, !is_negative() && !is_zero());
  return out;
}

Bignum Bignum::divided_by(const Bignum& d, Bignum* rem) const {
  if (d.is_zero()) throw CryptoError("division by zero");
  Bignum q;
  Bignum r;
  if (BN_div(q.bn_, r.bn_, bn_, d.bn_, ctx()) != 1) fail("BN_div");
  if (rem != nullptr) *rem = std::move(r);
  return q;
}

bool Bignum::divisible_by(const Bignum& d) const {
  Bignum r;
  divided_by(d, &r);
  return r.is_zero();
}

Bignum Bignum::mod(const Bignum& m) const {
  Bignum out;
  if (BN_nnmod(out.bn_, bn_, m.bn_, ctx()) != 1) fail("BN_nnmod");
  return out;
}

Bignum Bignum::mod_exp(const Bignum& base, const Bignum& exp,
                       const Bignum& m) {
  if (exp.is_negative()) throw CryptoError("mod_exp: negative exponent");
  Bignum out;
  // One-shot generic fallback for callers without a per-modulus context
  // (keygen-time derivations); hot paths use ModExpContext.
  if (BN_mod_exp(out.bn_, base.bn_, exp.bn_, m.bn_,  // desword-lint: allow(modexp)
                 ctx()) != 1) {
    fail("BN_mod_exp");
  }
  return out;
}

Bignum Bignum::mod_mul(const Bignum& a, const Bignum& b, const Bignum& m) {
  Bignum out;
  if (BN_mod_mul(out.bn_, a.bn_, b.bn_, m.bn_, ctx()) != 1) {
    fail("BN_mod_mul");
  }
  return out;
}

Bignum Bignum::mod_inverse(const Bignum& a, const Bignum& m) {
  Bignum out;
  if (BN_mod_inverse(out.bn_, a.bn_, m.bn_, ctx()) == nullptr) {
    throw CryptoError("mod_inverse: no inverse exists");
  }
  return out;
}

Bignum Bignum::gcd(const Bignum& a, const Bignum& b) {
  Bignum out;
  if (BN_gcd(out.bn_, a.bn_, b.bn_, ctx()) != 1) fail("BN_gcd");
  return out;
}

std::strong_ordering Bignum::operator<=>(const Bignum& rhs) const {
  const int c = BN_cmp(bn_, rhs.bn_);
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

bool Bignum::operator==(const Bignum& rhs) const {
  return BN_cmp(bn_, rhs.bn_) == 0;
}

Bignum Bignum::rand_range(const Bignum& bound) {
  if (bound.is_zero() || bound.is_negative()) {
    throw CryptoError("rand_range: bound must be > 0");
  }
  Bignum out;
  if (BN_rand_range(out.bn_, bound.bn_) != 1) fail("BN_rand_range");
  return out;
}

Bignum Bignum::rand_bits(int bits) {
  Bignum out;
  if (BN_rand(out.bn_, bits, BN_RAND_TOP_ONE, BN_RAND_BOTTOM_ANY) != 1) {
    fail("BN_rand");
  }
  return out;
}

bool Bignum::is_prime() const {
  const int r = BN_check_prime(bn_, ctx(), nullptr);
  if (r < 0) fail("BN_check_prime");
  return r == 1;
}

Bignum Bignum::generate_prime(int bits, bool safe) {
  Bignum out;
  if (BN_generate_prime_ex(out.bn_, bits, safe ? 1 : 0, nullptr, nullptr,
                           nullptr) != 1) {
    fail("BN_generate_prime_ex");
  }
  return out;
}

}  // namespace desword
