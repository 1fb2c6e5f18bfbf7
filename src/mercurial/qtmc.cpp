#include "mercurial/qtmc.h"

#include <list>
#include <map>
#include <mutex>  // desword-lint: allow(raw-mutex) — std::once_flag/call_once

#include "common/error.h"
#include "common/rng.h"
#include "common/serial.h"
#include "crypto/hash.h"
#include "crypto/primes.h"
#include "crypto/rsa.h"

namespace desword::mercurial {

namespace {

constexpr int kRandomizerBits = 256;
// Sanity cap on attacker-supplied exponents (honest values are ~256 bits;
// the cap only bounds verification work, not security).
constexpr int kMaxExponentBits = 1024;

Bignum product_range(const std::vector<Bignum>& primes, std::size_t lo,
                     std::size_t hi) {
  if (hi - lo == 1) return primes[lo];
  const std::size_t mid = lo + (hi - lo) / 2;
  return product_range(primes, lo, mid) * product_range(primes, mid, hi);
}

// Divide-and-conquer "all-but-one" power tree: out[i] = base^{∏_{j≠i} e_j}
// within [lo, hi), assuming `base` already carries the primes outside the
// range. Θ(q log q) modular squarings total instead of Θ(q²).
void fill_powers(const Bignum& base, const std::vector<Bignum>& primes,
                 std::size_t lo, std::size_t hi, const ModExpContext& mexp,
                 std::vector<Bignum>& out) {
  if (hi - lo == 1) {
    out[lo] = base;
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  const Bignum prod_left = product_range(primes, lo, mid);
  const Bignum prod_right = product_range(primes, mid, hi);
  fill_powers(mexp.exp(base, prod_right), primes, lo, mid, mexp, out);
  fill_powers(mexp.exp(base, prod_left), primes, mid, hi, mexp, out);
}

// Process-wide registry of fixed-base table sets, keyed by the hash of the
// serialized public key. Fixed-base tables depend only on the modulus and
// the base, so every QtmcScheme instance built from the same CRS can adopt
// one shared, immutable set instead of rebuilding megabytes of
// precomputation per instance (proxy + participants all hold the same CRS).
//
// The registry is a bounded LRU: a peer able to present many distinct CRS
// public keys must not drive unbounded memory growth (each set is several
// MiB). Evicting an entry only drops the registry's reference — instances
// that already adopted the set keep it alive via shared_ptr, and a
// re-presented CRS simply rebuilds. The registry mutex guards only the
// map itself; table builds run outside it, deduplicated per entry by
// once_flags, so one slow build for CRS A never blocks precompute for an
// unrelated CRS B.
struct FixedBaseSet {
  std::shared_ptr<const ModExpContext::FixedBaseTable> g;
  std::shared_ptr<const ModExpContext::FixedBaseTable> h;
  std::shared_ptr<const ModExpContext::FixedBaseTable> h_tilde;
  std::shared_ptr<const std::vector<ModExpContext::FixedBaseTable>> s;
};

struct FixedBaseEntry {
  std::once_flag base_once;
  std::once_flag pos_once;
  FixedBaseSet set;
};

constexpr std::size_t kFixedBaseRegistryCap = 8;

struct FixedBaseRegistry {
  Mutex mu;
  std::map<Bytes, std::shared_ptr<FixedBaseEntry>> entries
      DESWORD_GUARDED_BY(mu);
  std::list<Bytes> lru DESWORD_GUARDED_BY(mu);  // front = most recently used
};

FixedBaseRegistry& fixed_base_registry() {
  static auto* reg = new FixedBaseRegistry();
  return *reg;
}

// Looks up (or inserts) the entry for `key`, evicting the least recently
// used entries beyond the cap. O(cap) list scans are fine at cap = 8.
std::shared_ptr<FixedBaseEntry> fixed_base_entry(const Bytes& key) {
  FixedBaseRegistry& reg = fixed_base_registry();
  MutexLock lock(reg.mu);
  const auto it = reg.entries.find(key);
  if (it != reg.entries.end()) {
    reg.lru.remove(key);
    reg.lru.push_front(key);
    return it->second;
  }
  while (reg.entries.size() >= kFixedBaseRegistryCap && !reg.lru.empty()) {
    reg.entries.erase(reg.lru.back());
    reg.lru.pop_back();
  }
  auto entry = std::make_shared<FixedBaseEntry>();
  reg.entries.emplace(key, entry);
  reg.lru.push_front(key);
  return entry;
}

}  // namespace

Bytes QtmcPublicKey::serialize() const {
  BinaryWriter w;
  w.bytes(n.to_bytes());
  w.bytes(g.to_bytes());
  w.bytes(h.to_bytes());
  w.bytes(prime_seed);
  w.u32(q);
  return w.take();
}

QtmcPublicKey QtmcPublicKey::deserialize(BytesView data) {
  BinaryReader r(data);
  QtmcPublicKey pk;
  pk.n = Bignum::from_bytes(r.bytes());
  pk.g = Bignum::from_bytes(r.bytes());
  pk.h = Bignum::from_bytes(r.bytes());
  pk.prime_seed = r.bytes();
  pk.q = r.u32();
  r.expect_done();
  if (pk.q == 0 || pk.q > 4096) {
    throw SerializationError("qTMC arity out of range");
  }
  if (pk.n.bits() < 256 || pk.g.is_zero() || pk.g >= pk.n ||
      pk.h.is_zero() || pk.h >= pk.n) {
    throw SerializationError("malformed qTMC public key");
  }
  return pk;
}

Bytes QtmcCommitment::serialize(const Bignum& modulus) const {
  const std::size_t len = static_cast<std::size_t>((modulus.bits() + 7) / 8);
  BinaryWriter w;
  w.bytes(c0.to_bytes_padded(len));
  w.bytes(c1.to_bytes_padded(len));
  return w.take();
}

QtmcCommitment QtmcCommitment::deserialize(const Bignum& modulus,
                                           BytesView data) {
  BinaryReader r(data);
  QtmcCommitment com{Bignum::from_bytes(r.bytes()),
                     Bignum::from_bytes(r.bytes())};
  r.expect_done();
  if (com.c0.is_zero() || com.c0 >= modulus || com.c1.is_zero() ||
      com.c1 >= modulus) {
    throw SerializationError("qTMC commitment element out of range");
  }
  return com;
}

Bytes QtmcOpening::serialize(const Bignum& modulus) const {
  const std::size_t len = static_cast<std::size_t>((modulus.bits() + 7) / 8);
  BinaryWriter w;
  w.varint(pos);
  w.bytes(message);
  w.bytes(tau.to_bytes());
  w.bytes(lambda.to_bytes_padded(len));
  w.bytes(r1.to_bytes());
  return w.take();
}

QtmcOpening QtmcOpening::deserialize(const Bignum& modulus, BytesView data) {
  BinaryReader r(data);
  QtmcOpening op;
  op.pos = static_cast<std::uint32_t>(r.varint());
  op.message = r.bytes();
  op.tau = Bignum::from_bytes(r.bytes());
  op.lambda = Bignum::from_bytes(r.bytes());
  op.r1 = Bignum::from_bytes(r.bytes());
  r.expect_done();
  if (op.message.size() != kMessageBytes || op.lambda >= modulus) {
    throw SerializationError("malformed qTMC opening");
  }
  return op;
}

Bytes QtmcTease::serialize(const Bignum& modulus) const {
  const std::size_t len = static_cast<std::size_t>((modulus.bits() + 7) / 8);
  BinaryWriter w;
  w.varint(pos);
  w.bytes(message);
  w.bytes(tau.to_bytes());
  w.bytes(lambda.to_bytes_padded(len));
  return w.take();
}

QtmcTease QtmcTease::deserialize(const Bignum& modulus, BytesView data) {
  BinaryReader r(data);
  QtmcTease t;
  t.pos = static_cast<std::uint32_t>(r.varint());
  t.message = r.bytes();
  t.tau = Bignum::from_bytes(r.bytes());
  t.lambda = Bignum::from_bytes(r.bytes());
  r.expect_done();
  if (t.message.size() != kMessageBytes || t.lambda >= modulus) {
    throw SerializationError("malformed qTMC tease");
  }
  return t;
}

QtmcKeyPair QtmcScheme::keygen(std::uint32_t q, int rsa_bits) {
  if (q == 0 || q > 4096) throw CryptoError("qTMC arity out of range");
  const RsaModulus mod = generate_rsa_modulus(rsa_bits);
  QtmcPublicKey pk;
  pk.n = mod.n;
  pk.g = random_quadratic_residue(pk.n);
  Bignum a = Bignum::rand_bits(kRandomizerBits);
  pk.h = Bignum::mod_exp(pk.g, a, pk.n);
  pk.prime_seed = random_bytes(32);
  pk.q = q;
  return QtmcKeyPair{std::move(pk), std::move(a)};
}

QtmcScheme::QtmcScheme(QtmcPublicKey pk) : pk_(std::move(pk)) {
  n_len_ = static_cast<std::size_t>((pk_.n.bits() + 7) / 8);
  n_half_ = (pk_.n - Bignum(1)).divided_by(Bignum(2));
  mexp_ = std::make_unique<ModExpContext>(pk_.n);
  e_ = derive_primes(pk_.prime_seed, pk_.q, kPrimeBits);
  prod_all_ = product_range(e_, 0, e_.size());
  s_.resize(pk_.q);
  fill_powers(pk_.g.mod(pk_.n), e_, 0, e_.size(), *mexp_, s_);
  // h̃ = g^P = S_0^{e_0} (cheap: one small exponentiation).
  h_tilde_ = mexp_->exp(s_[0], e_[0]);
  rho_.reserve(pk_.q);
  for (std::uint32_t i = 0; i < pk_.q; ++i) {
    const Bignum p_i = prod_all_.divided_by(e_[i]);
    rho_.push_back(p_i.mod(e_[i]));
  }
  u_.resize(pk_.q);
}

std::pair<QtmcCommitment, QtmcHardDecommit> QtmcScheme::hard_commit(
    const std::vector<Bytes>& messages) const {
  return hard_commit(messages, system_random());
}

std::pair<QtmcCommitment, QtmcHardDecommit> QtmcScheme::hard_commit(
    const std::vector<Bytes>& messages, RandomSource& rng) const {
  if (messages.size() > pk_.q) {
    throw CryptoError("qTMC: more messages than arity");
  }
  QtmcHardDecommit dec;
  dec.messages = messages;
  dec.messages.resize(pk_.q, null_message());
  dec.z = rng.rand_bits(kRandomizerBits);
  dec.r0 = rng.rand_bits(kRandomizerBits);
  dec.r1 = rng.rand_bits(kRandomizerBits);

  const Bignum c1 = canonical(pow_h(dec.r1));
  Bignum acc = pow_h_tilde(dec.z);
  // Group equal messages: ∏_{i∈I} S_i^m = (∏_{i∈I} S_i)^m. ZK-EDB nodes
  // commit the same soft-backing digest at most positions, so this turns
  // q exponentiations into one per distinct message. Messages unique to a
  // single position go through the per-position fixed-base table instead
  // (when built), which beats a plain exponentiation of the lone base.
  struct Grouped {
    Bignum base;
    std::uint32_t first_pos = 0;
    std::uint32_t count = 0;
  };
  std::map<Bytes, Grouped> base_by_message;
  for (std::uint32_t i = 0; i < pk_.q; ++i) {
    const Bytes& m = dec.messages[i];
    if (message_to_scalar(m).is_zero()) continue;  // S_i^0 = 1
    const auto it = base_by_message.find(m);
    if (it == base_by_message.end()) {
      base_by_message.emplace(m, Grouped{s_[i], i, 1});
    } else {
      it->second.base = Bignum::mod_mul(it->second.base, s_[i], pk_.n);
      ++it->second.count;
    }
  }
  for (const auto& [m, group] : base_by_message) {
    const Bignum scalar = message_to_scalar(m);
    const Bignum factor = group.count == 1 ? pow_s(group.first_pos, scalar)
                                           : mexp_->exp(group.base, scalar);
    acc = Bignum::mod_mul(acc, factor, pk_.n);
  }
  Bignum c0 = canonical(Bignum::mod_mul(acc, mexp_->exp(c1, dec.r0), pk_.n));
  return {QtmcCommitment{std::move(c0), c1}, std::move(dec)};
}

Bignum QtmcScheme::lambda_exponent(const QtmcHardDecommit& dec,
                                   std::uint32_t pos) const {
  // (z·P + Σ_{j≠pos} m_j·P_j) / e_pos  =  z·P_pos + Σ_{j≠pos} m_j·(P_pos/e_j)
  const Bignum p_pos = prod_all_.divided_by(e_[pos]);
  Bignum exp = dec.z * p_pos;
  for (std::uint32_t j = 0; j < pk_.q; ++j) {
    if (j == pos) continue;
    const Bignum m = message_to_scalar(dec.messages[j]);
    if (m.is_zero()) continue;
    exp += m * p_pos.divided_by(e_[j]);
  }
  return exp;
}

QtmcOpening QtmcScheme::hard_open(const QtmcHardDecommit& dec,
                                  std::uint32_t pos) const {
  if (pos >= pk_.q || dec.messages.size() != pk_.q) {
    throw CryptoError("qTMC hard_open: bad position or decommitment");
  }
  const Bignum lambda = canonical(pow_g(lambda_exponent(dec, pos)));
  return QtmcOpening{pos, dec.messages[pos], dec.r0, lambda, dec.r1};
}

QtmcTease QtmcScheme::tease_hard(const QtmcHardDecommit& dec,
                                 std::uint32_t pos) const {
  if (pos >= pk_.q || dec.messages.size() != pk_.q) {
    throw CryptoError("qTMC tease_hard: bad position or decommitment");
  }
  const Bignum lambda = canonical(pow_g(lambda_exponent(dec, pos)));
  return QtmcTease{pos, dec.messages[pos], dec.r0, lambda};
}

std::pair<QtmcCommitment, QtmcSoftDecommit> QtmcScheme::soft_commit() const {
  return soft_commit(system_random());
}

std::pair<QtmcCommitment, QtmcSoftDecommit> QtmcScheme::soft_commit(
    RandomSource& rng) const {
  Bignum r0 = rng.rand_bits(kRandomizerBits);
  Bignum r1 = rng.rand_bits(kRandomizerBits);
  // Teasing needs r1 invertible modulo every e_i: gcd(r1, P) must be 1.
  // Reduce P mod r1 first so the gcd runs on 256-bit operands and the
  // whole operation stays constant in q (Figure 4(b) behaviour).
  while (!Bignum::gcd(r1, prod_all_.mod(r1)).is_one()) {
    r1 = rng.rand_bits(kRandomizerBits);
  }
  QtmcSoftDecommit dec{std::move(r0), std::move(r1)};
  QtmcCommitment com = soft_commitment(dec);
  return {std::move(com), std::move(dec)};
}

QtmcCommitment QtmcScheme::soft_commitment(const QtmcSoftDecommit& dec) const {
  return QtmcCommitment{canonical(pow_g(dec.r0)), canonical(pow_g(dec.r1))};
}

const Bignum& QtmcScheme::u_base(std::uint32_t pos) const {
  MutexLock lock(u_mutex_);
  if (!u_[pos].has_value()) {
    // U_pos = g^{(P/e_pos) div e_pos}; one-time Θ(q·|e|)-bit exponentiation,
    // cached so steady-state soft openings stay constant time.
    const Bignum p_pos = prod_all_.divided_by(e_[pos]);
    const Bignum quot = (p_pos - rho_[pos]).divided_by(e_[pos]);
    u_[pos] = pow_g(quot);
  }
  return *u_[pos];
}

void QtmcScheme::precompute_soft_bases() const {
  for (std::uint32_t i = 0; i < pk_.q; ++i) (void)u_base(i);
}

void QtmcScheme::precompute_fixed_bases(bool position_bases) const {
  MutexLock lock(fb_mu_);
  if (fb_ready_.load(std::memory_order_acquire) &&
      (!position_bases || fb_pos_ready_.load(std::memory_order_acquire))) {
    return;
  }
  // Builds run outside the registry lock: the per-entry once_flags dedupe
  // concurrent builders of the SAME CRS (later arrivals block until the
  // tables exist, instead of duplicating megabytes of work), while
  // unrelated CRSs build in parallel.
  const std::shared_ptr<FixedBaseEntry> entry =
      fixed_base_entry(sha256(pk_.serialize()));
  if (!fb_ready_.load(std::memory_order_acquire)) {
    std::call_once(entry->base_once, [&] {
      // λ exponents reach z·P + Σ m_j·P_j < 2^{P_bits + kRandomizerBits + 8};
      // anything wider (hostile input) falls back to plain modexp inside
      // ModExpContext::exp, so the cap is a fast-path bound, not a limit.
      const int g_bits = prod_all_.bits() + kRandomizerBits + 8;
      entry->set.g = std::make_shared<const ModExpContext::FixedBaseTable>(
          mexp_->precompute(pk_.g.mod(pk_.n), g_bits));
      entry->set.h = std::make_shared<const ModExpContext::FixedBaseTable>(
          mexp_->precompute(pk_.h.mod(pk_.n), kMaxExponentBits));
      entry->set.h_tilde = std::make_shared<const ModExpContext::FixedBaseTable>(
          mexp_->precompute(h_tilde_, kRandomizerBits));
    });
    fb_g_ = entry->set.g;
    fb_h_ = entry->set.h;
    fb_h_tilde_ = entry->set.h_tilde;
    fb_ready_.store(true, std::memory_order_release);
  }
  if (position_bases && !fb_pos_ready_.load(std::memory_order_acquire)) {
    std::call_once(entry->pos_once, [&] {
      std::vector<ModExpContext::FixedBaseTable> tables;
      tables.reserve(pk_.q);
      for (std::uint32_t i = 0; i < pk_.q; ++i) {
        // Message scalars are kMessageBytes wide (128 bits).
        tables.push_back(
            mexp_->precompute(s_[i], static_cast<int>(kMessageBytes) * 8));
      }
      entry->set.s =
          std::make_shared<const std::vector<ModExpContext::FixedBaseTable>>(
              std::move(tables));
    });
    fb_s_ = entry->set.s;
    fb_pos_ready_.store(true, std::memory_order_release);
  }
}

const void* QtmcScheme::fixed_base_tables_id() const {
  MutexLock lock(fb_mu_);
  return fb_g_.get();
}

// See the declarations in qtmc.h for why these four accessors may read the
// fb_* pointers without holding fb_mu_ (write-once release/acquire
// publication gated by fb_*_ready_).
const ModExpContext::FixedBaseTable* QtmcScheme::fb_g_table() const {
  if (!fb_ready_.load(std::memory_order_acquire)) return nullptr;
  return fb_g_.get();
}

const ModExpContext::FixedBaseTable* QtmcScheme::fb_h_table() const {
  if (!fb_ready_.load(std::memory_order_acquire)) return nullptr;
  return fb_h_.get();
}

const ModExpContext::FixedBaseTable* QtmcScheme::fb_h_tilde_table() const {
  if (!fb_ready_.load(std::memory_order_acquire)) return nullptr;
  return fb_h_tilde_.get();
}

const std::vector<ModExpContext::FixedBaseTable>* QtmcScheme::fb_s_tables()
    const {
  if (!fb_pos_ready_.load(std::memory_order_acquire)) return nullptr;
  return fb_s_.get();
}

Bignum QtmcScheme::pow_g(const Bignum& exponent) const {
  if (const auto* t = fb_g_table()) return mexp_->exp(*t, exponent);
  return mexp_->exp(pk_.g, exponent);
}

Bignum QtmcScheme::pow_g_signed(const Bignum& exponent) const {
  if (const auto* t = fb_g_table()) return mexp_->exp_signed(*t, exponent);
  return mexp_->exp_signed(pk_.g, exponent);
}

Bignum QtmcScheme::pow_h(const Bignum& exponent) const {
  if (const auto* t = fb_h_table()) return mexp_->exp(*t, exponent);
  return mexp_->exp(pk_.h, exponent);
}

Bignum QtmcScheme::pow_h_tilde(const Bignum& exponent) const {
  if (const auto* t = fb_h_tilde_table()) return mexp_->exp(*t, exponent);
  return mexp_->exp(h_tilde_, exponent);
}

Bignum QtmcScheme::pow_s(std::uint32_t pos, const Bignum& exponent) const {
  if (const auto* s = fb_s_tables()) return mexp_->exp((*s)[pos], exponent);
  return mexp_->exp(s_[pos], exponent);
}

QtmcTease QtmcScheme::tease_soft(const QtmcSoftDecommit& dec,
                                 std::uint32_t pos, BytesView msg) const {
  if (pos >= pk_.q) throw CryptoError("qTMC tease_soft: bad position");
  const Bignum m = message_to_scalar(msg);
  const Bignum& e = e_[pos];
  // τ ≡ (r0 − m·ρ_pos)·r1^{-1} (mod e), lifted to ~256 bits so soft teases
  // are distributed like hard ones.
  const Bignum inv_r1 = Bignum::mod_inverse(dec.r1.mod(e), e);
  const Bignum t = Bignum::mod_mul((dec.r0 - m * rho_[pos]).mod(e), inv_r1, e);
  Bignum tau = t + Bignum::rand_bits(kRandomizerBits - kPrimeBits) * e;

  Bignum a = dec.r0 - tau * dec.r1 - m * rho_[pos];
  Bignum rem;
  const Bignum k0 = a.divided_by(e, &rem);
  if (!rem.is_zero()) {
    throw CryptoError("qTMC tease_soft: internal divisibility failure");
  }
  Bignum lambda = pow_g_signed(k0);
  if (!m.is_zero()) {
    const Bignum um = mexp_->exp(u_base(pos), m);
    lambda = Bignum::mod_mul(lambda, Bignum::mod_inverse(um, pk_.n), pk_.n);
  }
  lambda = canonical(lambda);
  return QtmcTease{pos, Bytes(msg.begin(), msg.end()), std::move(tau),
                   std::move(lambda)};
}

Bignum QtmcScheme::canonical(const Bignum& x) const {
  return x > n_half_ ? pk_.n - x : x;
}

bool QtmcScheme::element_canonical(const Bignum& x) const {
  // Requiring the canonical representative (not just [1, N)) makes element
  // encodings unique: x and N−x name the same element of Z_N*/{±1}, and
  // accepting both would let a prover flip signs to grind the Fiat–Shamir
  // batching multipliers.
  return !x.is_zero() && !x.is_negative() && x <= n_half_;
}

void QtmcScheme::accumulate_elements(const std::vector<RsaEquation>& eqs,
                                     std::size_t begin, std::size_t end,
                                     Bignum& acc) const {
  for (std::size_t i = begin; i < end; ++i) {
    for (const RsaTerm& term : eqs[i].lhs) {
      if (term.kind == RsaTerm::Kind::kGeneric) {
        acc = Bignum::mod_mul(acc, term.base, pk_.n);
      }
    }
    acc = Bignum::mod_mul(acc, eqs[i].rhs, pk_.n);
  }
}

bool QtmcScheme::product_coprime(const Bignum& acc) const {
  return Bignum::gcd(acc, pk_.n).is_one();
}

bool QtmcScheme::elements_coprime(const std::vector<RsaEquation>& eqs,
                                  std::size_t begin, std::size_t end) const {
  Bignum acc(1);
  accumulate_elements(eqs, begin, end, acc);
  return product_coprime(acc);
}

bool QtmcScheme::main_equation(const QtmcCommitment& com, std::uint32_t pos,
                               BytesView msg, const Bignum& tau,
                               const Bignum& lambda,
                               std::vector<RsaEquation>& out) const {
  if (pos >= pk_.q || msg.size() != kMessageBytes) return false;
  // Canonical-form checks only; coprimality with N is enforced by the
  // consumer via elements_coprime (one aggregated gcd instead of one per
  // element).
  if (!element_canonical(com.c0) || !element_canonical(com.c1) ||
      !element_canonical(lambda)) {
    return false;
  }
  if (tau.is_negative() || tau.bits() > kMaxExponentBits) return false;
  // Λ^{e_pos} · S_pos^m · C1^τ == C0 (the S term drops for the null
  // message, matching the scalar verifier).
  RsaEquation eq;
  eq.lhs.push_back(RsaTerm{RsaTerm::Kind::kGeneric, 0, lambda, e_[pos]});
  const Bignum m = message_to_scalar(msg);
  if (!m.is_zero()) {
    eq.lhs.push_back(RsaTerm{RsaTerm::Kind::kS, pos, Bignum(), m});
  }
  eq.lhs.push_back(RsaTerm{RsaTerm::Kind::kGeneric, 0, com.c1, tau});
  eq.rhs = com.c0;
  out.push_back(std::move(eq));
  return true;
}

bool QtmcScheme::open_equations(const QtmcCommitment& com,
                                const QtmcOpening& op,
                                std::vector<RsaEquation>& out) const {
  if (op.r1.is_negative() || op.r1.bits() > kMaxExponentBits) return false;
  const std::size_t mark = out.size();
  if (!main_equation(com, op.pos, op.message, op.tau, op.lambda, out)) {
    return false;
  }
  // h^{r1} == C1 — the check that distinguishes hard openings from teases.
  RsaEquation eq;
  eq.lhs.push_back(RsaTerm{RsaTerm::Kind::kH, 0, Bignum(), op.r1});
  eq.rhs = com.c1;
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(mark), std::move(eq));
  return true;
}

bool QtmcScheme::tease_equations(const QtmcCommitment& com,
                                 const QtmcTease& tease,
                                 std::vector<RsaEquation>& out) const {
  return main_equation(com, tease.pos, tease.message, tease.tau, tease.lambda,
                       out);
}

const Bignum& QtmcScheme::term_base(const RsaTerm& term) const {
  switch (term.kind) {
    case RsaTerm::Kind::kH:
      return pk_.h;
    case RsaTerm::Kind::kS:
      DESWORD_CHECK(term.pos < pk_.q, "qTMC term_base: S position");
      return s_[term.pos];
    case RsaTerm::Kind::kGeneric:
      return term.base;
  }
  throw CryptoError("qTMC term_base: bad kind");
}

Bignum QtmcScheme::eval_term(const RsaTerm& term) const {
  switch (term.kind) {
    case RsaTerm::Kind::kH:
      return pow_h(term.exponent);
    case RsaTerm::Kind::kS:
      DESWORD_CHECK(term.pos < pk_.q, "qTMC eval_term: S position");
      return pow_s(term.pos, term.exponent);
    case RsaTerm::Kind::kGeneric:
      return mexp_->exp(term.base, term.exponent);
  }
  throw CryptoError("qTMC eval_term: bad kind");
}

bool QtmcScheme::check_scalar(const RsaEquation& eq) const {
  Bignum acc;
  bool have_acc = false;
  for (const RsaTerm& term : eq.lhs) {
    Bignum factor = eval_term(term);
    acc = have_acc ? Bignum::mod_mul(acc, factor, pk_.n) : std::move(factor);
    have_acc = true;
  }
  // Equality in Z_N*/{±1}: the RHS is canonical by emission
  // (element_canonical), the LHS product is canonicalized here. Proof
  // elements are canonicalized at generation, so honest equations — whose
  // sides may differ by the sign a canonicalization flipped — still hold.
  return have_acc && canonical(acc) == eq.rhs;
}

bool QtmcScheme::verify_open(const QtmcCommitment& com,
                             const QtmcOpening& op) const {
  try {
    std::vector<RsaEquation> eqs;
    if (!open_equations(com, op, eqs)) return false;
    if (!elements_coprime(eqs, 0, eqs.size())) return false;
    for (const RsaEquation& eq : eqs) {
      if (!check_scalar(eq)) return false;
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

bool QtmcScheme::verify_tease(const QtmcCommitment& com,
                              const QtmcTease& tease) const {
  try {
    std::vector<RsaEquation> eqs;
    if (!tease_equations(com, tease, eqs)) return false;
    if (!elements_coprime(eqs, 0, eqs.size())) return false;
    for (const RsaEquation& eq : eqs) {
      if (!check_scalar(eq)) return false;
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

std::pair<QtmcCommitment, QtmcSoftDecommit> QtmcScheme::fake_commit(
    const Bignum& trapdoor) const {
  (void)trapdoor;  // needed only at fake_open time
  Bignum k = Bignum::rand_bits(kRandomizerBits);
  Bignum r1 = Bignum::rand_bits(kRandomizerBits);
  while (!Bignum::gcd(r1, prod_all_.mod(r1)).is_one()) {
    r1 = Bignum::rand_bits(kRandomizerBits);
  }
  QtmcCommitment com{canonical(pow_g(k)), canonical(pow_h(r1))};
  return {std::move(com), QtmcSoftDecommit{std::move(k), std::move(r1)}};
}

QtmcOpening QtmcScheme::fake_open(const QtmcSoftDecommit& dec,
                                  const Bignum& trapdoor, std::uint32_t pos,
                                  BytesView msg) const {
  if (pos >= pk_.q) throw CryptoError("qTMC fake_open: bad position");
  const Bignum m = message_to_scalar(msg);
  const Bignum& e = e_[pos];
  // C1 = h^{r1} = g^{a·r1}; solve τ ≡ (k − m·ρ)·(a·r1)^{-1} (mod e).
  const Bignum ar1 = trapdoor * dec.r1;
  const Bignum inv = Bignum::mod_inverse(ar1.mod(e), e);
  const Bignum t = Bignum::mod_mul((dec.r0 - m * rho_[pos]).mod(e), inv, e);
  Bignum tau = t + Bignum::rand_bits(kRandomizerBits - kPrimeBits) * e;

  Bignum a_int = dec.r0 - tau * ar1 - m * rho_[pos];
  Bignum rem;
  const Bignum k0 = a_int.divided_by(e, &rem);
  if (!rem.is_zero()) {
    throw CryptoError("qTMC fake_open: internal divisibility failure");
  }
  Bignum lambda = pow_g_signed(k0);
  if (!m.is_zero()) {
    const Bignum um = mexp_->exp(u_base(pos), m);
    lambda = Bignum::mod_mul(lambda, Bignum::mod_inverse(um, pk_.n), pk_.n);
  }
  lambda = canonical(lambda);
  return QtmcOpening{pos, Bytes(msg.begin(), msg.end()), std::move(tau),
                     std::move(lambda), dec.r1};
}

}  // namespace desword::mercurial
