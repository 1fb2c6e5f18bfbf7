// NIST P-256 elliptic-curve backend.
//
// Elements are serialized as 33-byte compressed points. P-256 has cofactor
// 1, so every on-curve non-infinity point is a member of the prime-order
// group, which keeps validation cheap.
#include <openssl/ec.h>
#include <openssl/obj_mac.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/mutex.h"
#include "crypto/group.h"
#include "crypto/hash.h"

namespace desword {

namespace {

struct EcGroupDeleter {
  void operator()(EC_GROUP* g) const { EC_GROUP_free(g); }
};
struct EcPointDeleter {
  void operator()(EC_POINT* p) const { EC_POINT_free(p); }
};
struct BnCtxDeleter {
  void operator()(BN_CTX* c) const { BN_CTX_free(c); }
};

using EcGroupPtr = std::unique_ptr<EC_GROUP, EcGroupDeleter>;
using EcPointPtr = std::unique_ptr<EC_POINT, EcPointDeleter>;
using BnCtxPtr = std::unique_ptr<BN_CTX, BnCtxDeleter>;

constexpr std::size_t kCompressedPointSize = 33;

class P256Group final : public Group {
 public:
  P256Group()
      : group_(EC_GROUP_new_by_curve_name(NID_X9_62_prime256v1)) {
    if (group_ == nullptr) throw CryptoError("EC_GROUP_new_by_curve_name");
    const BIGNUM* n = EC_GROUP_get0_order(group_.get());
    order_ = Bignum::from_bytes(bn_bytes(n));
    generator_ = encode(EC_GROUP_get0_generator(group_.get()));
  }

  std::string name() const override { return "p256"; }
  const Bignum& order() const override { return order_; }
  Bytes generator() const override { return generator_; }
  std::size_t element_size() const override { return kCompressedPointSize; }

  Bytes exp(BytesView elem, const Bignum& scalar) const override {
    BnCtxPtr ctx(BN_CTX_new());
    EcPointPtr p = decode(elem, ctx.get());
    EcPointPtr r(EC_POINT_new(group_.get()));
    const Bignum s = scalar.mod(order_);
    if (r == nullptr ||
        EC_POINT_mul(group_.get(), r.get(), nullptr, p.get(), s.raw(),
                     ctx.get()) != 1) {
      throw CryptoError("EC_POINT_mul failed");
    }
    return encode(r.get(), ctx.get());
  }

  Bytes mul(BytesView a, BytesView b) const override {
    BnCtxPtr ctx(BN_CTX_new());
    EcPointPtr pa = decode(a, ctx.get());
    EcPointPtr pb = decode(b, ctx.get());
    EcPointPtr r(EC_POINT_new(group_.get()));
    if (r == nullptr ||
        EC_POINT_add(group_.get(), r.get(), pa.get(), pb.get(), ctx.get()) !=
            1) {
      throw CryptoError("EC_POINT_add failed");
    }
    return encode(r.get(), ctx.get());
  }

  /// One EC_POINT_mul per non-generator term, summed (see sum()). An
  /// identity product (every scalar zero, or terms that cancel) is the
  /// point at infinity, which encode refuses with a CryptoError.
  Bytes multi_exp(
      const std::vector<std::pair<Bytes, Bignum>>& terms) const override {
    BnCtxPtr ctx(BN_CTX_new());
    Decoded decoded;
    const EcPointPtr acc = sum(terms, decoded, ctx.get());
    return encode(acc.get(), ctx.get());
  }

  /// Both sides share one set of decoded points and are compared as
  /// points, without encoding either.
  bool multi_exp_equal(
      const std::vector<std::pair<Bytes, Bignum>>& lhs,
      const std::vector<std::pair<Bytes, Bignum>>& rhs) const override {
    BnCtxPtr ctx(BN_CTX_new());
    Decoded decoded;
    const EcPointPtr l = sum(lhs, decoded, ctx.get());
    const EcPointPtr r = sum(rhs, decoded, ctx.get());
    if (EC_POINT_is_at_infinity(group_.get(), l.get()) != 0 ||
        EC_POINT_is_at_infinity(group_.get(), r.get()) != 0) {
      return false;
    }
    const int cmp = EC_POINT_cmp(group_.get(), l.get(), r.get(), ctx.get());
    if (cmp < 0) throw CryptoError("EC_POINT_cmp failed");
    return cmp == 0;
  }

  /// Keeps `elem` decoded: multi_exp and multi_exp_equal then skip its
  /// point decompression. Thread safe.
  void precompute_base(BytesView elem) const override {
    BnCtxPtr ctx(BN_CTX_new());
    EcPointPtr p = decode(elem, ctx.get());
    WriterMutexLock lk(bases_mu_);
    bases_.try_emplace(Bytes(elem.begin(), elem.end()), std::move(p));
  }

  Bytes inverse(BytesView a) const override {
    BnCtxPtr ctx(BN_CTX_new());
    EcPointPtr p = decode(a, ctx.get());
    if (EC_POINT_invert(group_.get(), p.get(), ctx.get()) != 1) {
      throw CryptoError("EC_POINT_invert failed");
    }
    return encode(p.get(), ctx.get());
  }

  bool is_valid_element(BytesView e) const override {
    if (e.size() != kCompressedPointSize) return false;
    BnCtxPtr ctx(BN_CTX_new());
    EcPointPtr p(EC_POINT_new(group_.get()));
    if (p == nullptr ||
        EC_POINT_oct2point(group_.get(), p.get(), e.data(), e.size(),
                           ctx.get()) != 1) {
      return false;
    }
    return EC_POINT_is_at_infinity(group_.get(), p.get()) == 0;
  }

  Bytes hash_to_element(BytesView seed) const override {
    // Try-and-increment: interpret successive hashes as compressed points.
    BnCtxPtr ctx(BN_CTX_new());
    for (std::uint64_t counter = 0;; ++counter) {
      TaggedHasher h("desword/p256-hash-to-element");
      h.add(seed).add_u64(counter);
      const Bytes digest = h.digest();
      Bytes candidate(kCompressedPointSize);
      candidate[0] = (digest[0] & 1) ? 0x03 : 0x02;
      std::copy(digest.begin(), digest.end(), candidate.begin() + 1);
      EcPointPtr p(EC_POINT_new(group_.get()));
      if (p != nullptr &&
          EC_POINT_oct2point(group_.get(), p.get(), candidate.data(),
                             candidate.size(), ctx.get()) == 1 &&
          EC_POINT_is_at_infinity(group_.get(), p.get()) == 0) {
        return candidate;
      }
    }
  }

 private:
  static Bytes bn_bytes(const BIGNUM* bn) {
    Bytes out(static_cast<std::size_t>(BN_num_bytes(bn)));
    if (!out.empty()) BN_bn2bin(bn, out.data());
    return out;
  }

  /// The points one evaluation decoded, by encoding: each distinct
  /// element is decompressed once. Kept bases are not copied in.
  using Decoded = std::map<Bytes, EcPointPtr>;

  /// `elem` as a point: a kept base (precompute_base), else decoded once
  /// into `decoded`.
  const EC_POINT* point(const Bytes& elem, Decoded& decoded,
                        BN_CTX* ctx) const {
    {
      // Kept bases are never erased, and std::map nodes do not move, so
      // the point outlives the lock.
      ReaderMutexLock lk(bases_mu_);
      const auto it = bases_.find(elem);
      if (it != bases_.end()) return it->second.get();
    }
    auto it = decoded.find(elem);
    if (it == decoded.end()) it = decoded.emplace(elem, decode(elem, ctx)).first;
    return it->second.get();
  }

  /// ∏ elem^scalar as a point (possibly the point at infinity): one
  /// EC_POINT_mul per non-generator term. Generator terms merge into a
  /// single g_scalar, which OpenSSL evaluates on the curve's precomputed
  /// generator table; the first point rides in the same call. Each point
  /// runs OpenSSL's own P-256 scalar multiplication, which beats a generic
  /// EC_POINT_add/dbl Straus chain at the handful of points a leaf fold
  /// carries. (EC_POINTs_mul would take every point in one call but is
  /// deprecated in OpenSSL 3.0+.)
  EcPointPtr sum(const std::vector<std::pair<Bytes, Bignum>>& terms,
                 Decoded& decoded, BN_CTX* ctx) const {
    Bignum g_scalar;
    std::vector<std::pair<const EC_POINT*, Bignum>> points;
    for (const auto& [elem, scalar] : terms) {
      Bignum s = scalar.mod(order_);
      if (s.is_zero()) continue;  // identity contribution
      if (elem == generator_) {
        g_scalar = (g_scalar + s).mod(order_);
      } else {
        points.emplace_back(point(elem, decoded, ctx), std::move(s));
      }
    }

    EcPointPtr acc(EC_POINT_new(group_.get()));
    EcPointPtr term(EC_POINT_new(group_.get()));
    if (acc == nullptr || term == nullptr) {
      throw CryptoError("EC_POINT_new failed");
    }
    const BIGNUM* g = g_scalar.is_zero() ? nullptr : g_scalar.raw();
    const EC_POINT* p0 = points.empty() ? nullptr : points[0].first;
    const BIGNUM* s0 = points.empty() ? nullptr : points[0].second.raw();
    if (EC_POINT_mul(group_.get(), acc.get(), g, p0, s0, ctx) != 1) {
      throw CryptoError("EC_POINT_mul failed");
    }
    for (std::size_t i = 1; i < points.size(); ++i) {
      if (EC_POINT_mul(group_.get(), term.get(), nullptr, points[i].first,
                       points[i].second.raw(), ctx) != 1 ||
          EC_POINT_add(group_.get(), acc.get(), acc.get(), term.get(),
                       ctx) != 1) {
        throw CryptoError("EC_POINT_mul failed");
      }
    }
    return acc;
  }

  EcPointPtr decode(BytesView e, BN_CTX* ctx) const {
    if (e.size() != kCompressedPointSize) {
      throw CryptoError("p256 element has wrong size");
    }
    EcPointPtr p(EC_POINT_new(group_.get()));
    if (p == nullptr ||
        EC_POINT_oct2point(group_.get(), p.get(), e.data(), e.size(), ctx) !=
            1) {
      throw CryptoError("p256 element decode failed");
    }
    return p;
  }

  Bytes encode(const EC_POINT* p, BN_CTX* ctx = nullptr) const {
    BnCtxPtr local;
    if (ctx == nullptr) {
      local.reset(BN_CTX_new());
      ctx = local.get();
    }
    if (EC_POINT_is_at_infinity(group_.get(), p) != 0) {
      // Pedersen commitments hit the identity only with negligible
      // probability; treat it as a hard error rather than widening the
      // wire format.
      throw CryptoError("p256: refusing to encode point at infinity");
    }
    Bytes out(kCompressedPointSize);
    const std::size_t n =
        EC_POINT_point2oct(group_.get(), p, POINT_CONVERSION_COMPRESSED,
                           out.data(), out.size(), ctx);
    if (n != kCompressedPointSize) {
      throw CryptoError("EC_POINT_point2oct failed");
    }
    return out;
  }

  EcGroupPtr group_;
  Bignum order_;
  Bytes generator_;

  // Bases kept decoded (precompute_base); never erased.
  mutable SharedMutex bases_mu_;
  mutable std::map<Bytes, EcPointPtr> bases_ DESWORD_GUARDED_BY(bases_mu_);
};

}  // namespace

GroupPtr make_p256_group() { return std::make_shared<P256Group>(); }

}  // namespace desword
