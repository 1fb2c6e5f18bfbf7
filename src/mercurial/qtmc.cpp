#include "mercurial/qtmc.h"

#include <algorithm>
#include <map>
#include <mutex>  // desword-lint: allow(raw-mutex) — std::once_flag/call_once

#include "common/error.h"
#include "common/rng.h"
#include "common/serial.h"
#include "crypto/hash.h"
#include "crypto/primes.h"
#include "crypto/rsa.h"

namespace desword::mercurial {

using FixedBaseTable = ModExpContext::FixedBaseTable;

struct QtmcBaseTables {
  FixedBaseTable g;
  FixedBaseTable h;
  FixedBaseTable h_tilde;
};

struct QtmcPositionTables {
  std::vector<FixedBaseTable> s;
  std::vector<FixedBaseTable> s_inv;
  std::vector<FixedBaseTable> t;
  std::vector<FixedBaseTable> u_inv;
  FixedBaseTable w;
  FixedBaseTable g_inv;
};

namespace {

// Divide-and-conquer power tree over the primes: each node covers a range
// X of positions and carries three powers of g,
//   s = g^{O},  t = g^{σ(O)},  u = g^{⌊P/Π_X²⌋},
// where O = P/Π_X is the product of the primes outside X and
// σ(O) = Σ_{j outside} O/e_j. At leaf i the outside set is every j ≠ i, so
// s = S_i, t = T_i and u = U_i (⌊P/e_i²⌋ = ⌊P_i/e_i⌋). Moving into one half
// adds the other half's primes Q to the outside set:
//   O' = O·Π_Q,  σ(O') = σ(O)·Π_Q + O·σ(Q),
//   ⌊P/Π'²⌋ = Π_Q²·⌊P/Π_X²⌋ + ⌊Π_Q²·(P mod Π_X²)/Π_X²⌋.
// Every exponent is O(|Q|·|e|) bits, so the whole tree costs Θ(q log q)
// modular squarings instead of Θ(q²).
struct RangeProduct {
  Bignum prod;   // Π_Q = ∏_{j∈Q} e_j
  Bignum sigma;  // σ(Q) = Σ_{j∈Q} Π_Q/e_j
};

RangeProduct range_product(const std::vector<Bignum>& primes, std::size_t lo,
                           std::size_t hi) {
  if (hi - lo == 1) return RangeProduct{primes[lo], Bignum(1)};
  const std::size_t mid = lo + (hi - lo) / 2;
  const RangeProduct l = range_product(primes, lo, mid);
  const RangeProduct r = range_product(primes, mid, hi);
  return RangeProduct{l.prod * r.prod, l.sigma * r.prod + l.prod * r.sigma};
}

struct TreePowers {
  Bignum s;
  Bignum t;
  Bignum u;
};

void fill_powers(const TreePowers& node, const Bignum& g, const Bignum& p,
                 const std::vector<Bignum>& primes, std::size_t lo,
                 std::size_t hi, const ModExpContext& mexp,
                 std::vector<TreePowers>& out) {
  if (hi - lo == 1) {
    out[lo] = node;
    return;
  }
  const Bignum pi = range_product(primes, lo, hi).prod;
  const Bignum pi_sq = pi * pi;
  const Bignum p_rem = p.mod(pi_sq);
  const std::size_t mid = lo + (hi - lo) / 2;
  const auto descend = [&](const RangeProduct& other, std::size_t sub_lo,
                           std::size_t sub_hi) {
    const Bignum other_sq = other.prod * other.prod;
    // Each two-power product shares one squaring chain.
    TreePowers sub{
        mexp.exp(node.s, other.prod),
        mexp.multi_exp({{node.t, other.prod}, {node.s, other.sigma}}),
        mexp.multi_exp(
            {{node.u, other_sq},
             {g, (other_sq * p_rem).divided_by(pi_sq)}})};
    fill_powers(sub, g, p, primes, sub_lo, sub_hi, mexp, out);
  };
  descend(range_product(primes, mid, hi), lo, mid);
  descend(range_product(primes, lo, mid), mid, hi);
}

// Montgomery's batch inversion: replaces every element of `xs` by its
// inverse mod `n` with ONE modular inverse and 3·(|xs| − 1)
// multiplications. Throws CryptoError if any element is not a unit.
void invert_all(std::vector<Bignum*>& xs, const Bignum& n) {
  std::vector<Bignum> prefix(xs.size());
  prefix[0] = *xs[0];
  for (std::size_t k = 1; k < xs.size(); ++k) {
    prefix[k] = Bignum::mod_mul(prefix[k - 1], *xs[k], n);
  }
  Bignum inv = Bignum::mod_inverse(prefix.back(), n);
  for (std::size_t k = xs.size(); k-- > 1;) {
    Bignum x_inv = Bignum::mod_mul(inv, prefix[k - 1], n);
    inv = Bignum::mod_mul(inv, *xs[k], n);
    *xs[k] = std::move(x_inv);
  }
  *xs[0] = std::move(inv);
}

// Index of the most frequent message of `dec` outside the `skip` positions
// and its count. Ties go to the lowest message, so the choice is
// deterministic (the commitment does not depend on it).
std::pair<std::size_t, std::size_t> mode_of(const QtmcHardDecommit& dec,
                                            const std::vector<bool>& skip) {
  std::vector<std::size_t> order;
  order.reserve(dec.size());
  for (std::size_t i = 0; i < dec.size(); ++i) {
    if (!skip[i]) order.push_back(i);
  }
  const auto less = [&](std::size_t x, std::size_t y) {
    const BytesView a = dec.message(x);
    const BytesView b = dec.message(y);
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  };
  std::sort(order.begin(), order.end(), less);
  std::pair<std::size_t, std::size_t> best{0, 0};
  for (std::size_t k = 0; k < order.size();) {
    std::size_t run = k + 1;
    while (run < order.size() && !less(order[k], order[run])) ++run;
    if (run - k > best.second) best = {order[k], run - k};
    k = run;
  }
  return best;
}

bool same_message(BytesView a, BytesView b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

// Process-wide registry of fixed-base table sets, keyed by the hash of the
// serialized public key. Fixed-base tables depend only on the modulus and
// the base, so every QtmcScheme instance built from the same CRS can adopt
// one shared, immutable set instead of rebuilding megabytes of
// precomputation per instance (proxy + participants all hold the same CRS).
//
// The registry holds weak references: an instance that adopts a set owns
// its entry (QtmcScheme keeps aliasing pointers into it), so a set lives
// exactly as long as some instance of its CRS does, and a CRS nobody holds
// any more costs no memory — however many distinct CRSs a process has
// seen. Expired keys are purged on each insertion. The registry mutex
// guards only the map itself; table builds run outside it, deduplicated
// per entry by once_flags, so one slow build for CRS A never blocks
// precompute for an unrelated CRS B.
struct FixedBaseEntry {
  std::once_flag base_once;
  std::once_flag pos_once;
  std::unique_ptr<const QtmcBaseTables> base;
  std::unique_ptr<const QtmcPositionTables> pos;
};

struct FixedBaseRegistry {
  Mutex mu;
  std::map<Bytes, std::weak_ptr<FixedBaseEntry>> entries
      DESWORD_GUARDED_BY(mu);
};

FixedBaseRegistry& fixed_base_registry() {
  static auto* reg = new FixedBaseRegistry();
  return *reg;
}

// The live entry for `key`, created if no instance holds one.
std::shared_ptr<FixedBaseEntry> fixed_base_entry(const Bytes& key) {
  FixedBaseRegistry& reg = fixed_base_registry();
  MutexLock lock(reg.mu);
  const auto it = reg.entries.find(key);
  if (it != reg.entries.end()) {
    if (std::shared_ptr<FixedBaseEntry> live = it->second.lock()) return live;
  }
  std::erase_if(reg.entries,
                [](const auto& kv) { return kv.second.expired(); });
  auto entry = std::make_shared<FixedBaseEntry>();
  reg.entries[key] = entry;
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
  prod_all_ = range_product(e_, 0, e_.size()).prod;
  const Bignum g = pk_.g.mod(pk_.n);
  // Root: the outside set is empty (O = 1, σ = 0) and ⌊P/P²⌋ = 0 for
  // q ≥ 2; at q = 1 the root is the leaf and U_0 = g^{⌊1/e_0⌋} = 1.
  std::vector<TreePowers> powers(pk_.q);
  fill_powers(TreePowers{g, Bignum(1), Bignum(1)}, g, prod_all_, e_, 0,
              e_.size(), *mexp_, powers);
  // h̃ = g^P = S_0^{e_0} (cheap: one small exponentiation).
  h_tilde_ = mexp_->exp(powers[0].s, e_[0]);
  w_ = Bignum(1);
  for (std::uint32_t i = 0; i < pk_.q; ++i) {
    p_.push_back(prod_all_.divided_by(e_[i]));
    rho_.push_back(p_[i].mod(e_[i]));
    s_.push_back(std::move(powers[i].s));
    t_.push_back(std::move(powers[i].t));
    u_inv_.push_back(std::move(powers[i].u));  // inverted below
    w_ = Bignum::mod_mul(w_, s_[i], pk_.n);
  }
  s_inv_ = s_;
  g_inv_ = g;
  std::vector<Bignum*> units;
  for (Bignum& x : s_inv_) units.push_back(&x);
  for (Bignum& x : u_inv_) units.push_back(&x);
  units.push_back(&g_inv_);
  invert_all(units, pk_.n);
}

std::pair<QtmcCommitment, QtmcHardDecommit> QtmcScheme::hard_commit(
    const std::vector<Bytes>& messages) const {
  return hard_commit(messages, system_random());
}

std::pair<QtmcCommitment, QtmcHardDecommit> QtmcScheme::hard_commit(
    const std::vector<Bytes>& messages, RandomSource& rng) const {
  return hard_commit_bind(hard_commit_draft(messages, {}, rng), {});
}

Bignum QtmcScheme::hard_c1(const Bignum& r1) const {
  return canonical(pow_h(r1));
}

bool QtmcScheme::exponent_in_range(const Bignum& x) {
  return !x.is_negative() && x.bits() <= kMaxExponentBits;
}

QtmcCommitDraft QtmcScheme::hard_commit_draft(
    const std::vector<Bytes>& messages, std::vector<std::uint32_t> pending,
    RandomSource& rng) const {
  if (messages.size() > pk_.q) {
    throw CryptoError("qTMC: more messages than arity");
  }
  std::vector<bool> is_pending(pk_.q, false);
  for (const std::uint32_t pos : pending) {
    if (pos >= pk_.q || is_pending[pos]) {
      throw CryptoError("qTMC: bad pending position");
    }
    is_pending[pos] = true;
  }
  QtmcCommitDraft draft;
  QtmcHardDecommit& dec = draft.dec;
  dec.messages.reserve(pk_.q * kMessageBytes);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (is_pending[i]) {
      dec.messages.resize(dec.messages.size() + kMessageBytes, 0);
      continue;
    }
    if (messages[i].size() != kMessageBytes) {
      throw CryptoError("mercurial message must be exactly 16 bytes");
    }
    append(dec.messages, messages[i]);
  }
  dec.messages.resize(pk_.q * kMessageBytes, 0);  // null-message tail
  dec.z = rng.rand_bits(kRandomizerBits);
  dec.r0 = rng.rand_bits(kRandomizerBits);
  dec.r1 = rng.rand_bits(kRandomizerBits);

  // ∏_i S_i^{m_i} = W^{m*} · ∏_{m_i≠m*} S_i^{m_i−m*} with m* the most
  // frequent known message (null when none repeats): a ZK-EDB node commits
  // the shared soft-backing digest at every absent child, so this is one
  // 128-bit power per distinct message besides m*.
  const auto [star, count] = mode_of(dec, is_pending);
  if (count > 1) draft.m_star = message_to_scalar(dec.message(star));
  draft.acc = pow_h_tilde(dec.z);
  if (!draft.m_star.is_zero()) {
    const QtmcPositionTables* tables = fb_pos();
    draft.acc = Bignum::mod_mul(
        draft.acc, pow(w_, tables ? &tables->w : nullptr, draft.m_star),
        pk_.n);
  }
  for (std::uint32_t i = 0; i < pk_.q; ++i) {
    if (is_pending[i]) continue;
    const Bignum d = message_to_scalar(dec.message(i)) - draft.m_star;
    if (d.is_zero()) continue;
    draft.acc = Bignum::mod_mul(draft.acc, pow_s_signed(i, d), pk_.n);
  }
  draft.c1 = hard_c1(dec.r1);
  // C1^{r0} = (±h^{r1})^{r0} = ±h^{r1·r0}; canonical() absorbs the sign.
  draft.acc = Bignum::mod_mul(draft.acc, pow_h(dec.r1 * dec.r0), pk_.n);
  draft.pending = std::move(pending);
  return draft;
}

std::pair<QtmcCommitment, QtmcHardDecommit> QtmcScheme::hard_commit_bind(
    QtmcCommitDraft draft, const std::vector<Bytes>& messages) const {
  if (messages.size() != draft.pending.size()) {
    throw CryptoError("qTMC: bind needs one message per pending position");
  }
  for (std::size_t k = 0; k < messages.size(); ++k) {
    const Bytes& m = messages[k];
    if (m.size() != kMessageBytes) {
      throw CryptoError("mercurial message must be exactly 16 bytes");
    }
    const std::uint32_t pos = draft.pending[k];
    std::copy(m.begin(), m.end(),
              draft.dec.messages.begin() +
                  static_cast<std::ptrdiff_t>(pos * kMessageBytes));
    const Bignum d = message_to_scalar(m) - draft.m_star;
    if (d.is_zero()) continue;
    draft.acc = Bignum::mod_mul(draft.acc, pow_s_signed(pos, d), pk_.n);
  }
  return {QtmcCommitment{canonical(draft.acc), std::move(draft.c1)},
          std::move(draft.dec)};
}

Bignum QtmcScheme::hard_lambda(const QtmcHardDecommit& dec,
                               std::uint32_t pos) const {
  // Λ_pos = g^{(z·P + Σ_{j≠pos} m_j·P_j)/e_pos}
  //       = S_pos^z · T_pos^{m*} · g^{R},  R = Σ_{j≠pos} (m_j − m*)·P/(e_pos·e_j).
  // When every j ≠ pos holds the same message, m* is that message and
  // R = 0 (a trie node opened at its real child). Otherwise R is a
  // Θ(q·|e|)-bit power whatever m* is, so m* = null and S_pos^z = g^{z·P_pos}
  // folds into it: one power of g.
  const std::uint32_t first = pos == 0 ? 1 : 0;
  bool shared = true;
  for (std::uint32_t j = first + 1; j < pk_.q && shared; ++j) {
    shared = j == pos || same_message(dec.message(j), dec.message(first));
  }
  if (!shared) {
    Bignum x = dec.z * p_[pos];
    for (std::uint32_t j = 0; j < pk_.q; ++j) {
      if (j == pos) continue;
      const Bignum m = message_to_scalar(dec.message(j));
      if (!m.is_zero()) x += m * p_[pos].divided_by(e_[j]);
    }
    return canonical(pow_g(x));
  }
  const QtmcPositionTables* tables = fb_pos();
  Bignum lambda = pow(s_[pos], tables ? &tables->s[pos] : nullptr, dec.z);
  // first >= q only at q = 1, where there is no other position: Λ = S_0^z.
  if (first < pk_.q) {
    const Bignum m_star = message_to_scalar(dec.message(first));
    if (!m_star.is_zero()) {
      lambda = Bignum::mod_mul(
          lambda, pow(t_[pos], tables ? &tables->t[pos] : nullptr, m_star),
          pk_.n);
    }
  }
  return canonical(lambda);
}

QtmcOpening QtmcScheme::hard_open(const QtmcHardDecommit& dec,
                                  std::uint32_t pos) const {
  if (pos >= pk_.q || dec.messages.size() != pk_.q * kMessageBytes) {
    throw CryptoError("qTMC hard_open: bad position or decommitment");
  }
  const BytesView m = dec.message(pos);
  return QtmcOpening{pos, Bytes(m.begin(), m.end()), dec.r0,
                     hard_lambda(dec, pos), dec.r1};
}

QtmcTease QtmcScheme::tease_hard(const QtmcHardDecommit& dec,
                                 std::uint32_t pos) const {
  if (pos >= pk_.q || dec.messages.size() != pk_.q * kMessageBytes) {
    throw CryptoError("qTMC tease_hard: bad position or decommitment");
  }
  const BytesView m = dec.message(pos);
  return QtmcTease{pos, Bytes(m.begin(), m.end()), dec.r0,
                   hard_lambda(dec, pos)};
}

std::pair<QtmcCommitment, QtmcSoftDecommit> QtmcScheme::soft_commit() const {
  return soft_commit(system_random());
}

std::pair<QtmcCommitment, QtmcSoftDecommit> QtmcScheme::soft_commit(
    RandomSource& rng) const {
  Bignum r0 = rng.rand_bits(kRandomizerBits);
  Bignum r1 = rng.rand_bits(kRandomizerBits);
  // Teasing needs r1 invertible modulo every e_i.
  while (!coprime_to_primes(r1)) r1 = rng.rand_bits(kRandomizerBits);
  QtmcCommitment com{canonical(pow_g(r0)), canonical(pow_g(r1))};
  return {std::move(com), QtmcSoftDecommit{std::move(r0), std::move(r1)}};
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
      // Λ exponents reach z·P_i + R < 2^{P_bits + kRandomizerBits + 8};
      // anything wider (the simulator) falls back to plain modexp inside
      // ModExpContext::exp, so the width is a fast-path bound, not a limit.
      const int g_bits = prod_all_.bits() + kRandomizerBits + 8;
      entry->base = std::make_unique<const QtmcBaseTables>(QtmcBaseTables{
          mexp_->precompute(pk_.g.mod(pk_.n), g_bits),
          mexp_->precompute(pk_.h.mod(pk_.n), kMaxExponentBits),
          mexp_->precompute(h_tilde_, kRandomizerBits)});
    });
    fb_base_ = std::shared_ptr<const QtmcBaseTables>(entry, entry->base.get());
    fb_ready_.store(true, std::memory_order_release);
  }
  if (position_bases && !fb_pos_ready_.load(std::memory_order_acquire)) {
    std::call_once(entry->pos_once, [&] {
      const auto each = [&](const std::vector<Bignum>& bases, int bits) {
        std::vector<FixedBaseTable> tables;
        tables.reserve(bases.size());
        for (const Bignum& b : bases) {
          tables.push_back(mexp_->precompute(b, bits));
        }
        return tables;
      };
      // S_i powers z (256 bits) when opening and messages when verifying;
      // the other position bases power messages or message differences.
      // A soft tease's |k0| < τ·r1 < 2^{2·256}.
      entry->pos = std::make_unique<const QtmcPositionTables>(
          QtmcPositionTables{each(s_, kRandomizerBits),
                             each(s_inv_, kMessageBits),
                             each(t_, kMessageBits),
                             each(u_inv_, kMessageBits),
                             mexp_->precompute(w_, kMessageBits),
                             mexp_->precompute(g_inv_, 2 * kRandomizerBits)});
    });
    fb_pos_ =
        std::shared_ptr<const QtmcPositionTables>(entry, entry->pos.get());
    fb_pos_ready_.store(true, std::memory_order_release);
  }
}

const void* QtmcScheme::fixed_base_tables_id() const {
  MutexLock lock(fb_mu_);
  return fb_base_.get();
}

// See the declarations in qtmc.h for why these accessors may read the
// fb_* pointers without holding fb_mu_ (write-once release/acquire
// publication gated by fb_*_ready_).
const QtmcBaseTables* QtmcScheme::fb_base() const {
  if (!fb_ready_.load(std::memory_order_acquire)) return nullptr;
  return fb_base_.get();
}

const QtmcPositionTables* QtmcScheme::fb_pos() const {
  if (!fb_pos_ready_.load(std::memory_order_acquire)) return nullptr;
  return fb_pos_.get();
}

Bignum QtmcScheme::pow(const Bignum& base, const FixedBaseTable* table,
                       const Bignum& exponent) const {
  return table != nullptr ? mexp_->exp(*table, exponent)
                          : mexp_->exp(base, exponent);
}

Bignum QtmcScheme::pow_g(const Bignum& exponent) const {
  const QtmcBaseTables* t = fb_base();
  return pow(pk_.g, t ? &t->g : nullptr, exponent);
}

Bignum QtmcScheme::pow_g_signed(const Bignum& exponent) const {
  if (!exponent.is_negative()) return pow_g(exponent);
  const QtmcPositionTables* t = fb_pos();
  return pow(g_inv_, t ? &t->g_inv : nullptr, exponent.negated());
}

Bignum QtmcScheme::pow_h(const Bignum& exponent) const {
  const QtmcBaseTables* t = fb_base();
  return pow(pk_.h, t ? &t->h : nullptr, exponent);
}

Bignum QtmcScheme::pow_h_tilde(const Bignum& exponent) const {
  const QtmcBaseTables* t = fb_base();
  return pow(h_tilde_, t ? &t->h_tilde : nullptr, exponent);
}

Bignum QtmcScheme::pow_s(std::uint32_t pos, const Bignum& exponent) const {
  const QtmcPositionTables* t = fb_pos();
  return pow(s_[pos], t ? &t->s[pos] : nullptr, exponent);
}

Bignum QtmcScheme::pow_s_signed(std::uint32_t pos, const Bignum& d) const {
  if (!d.is_negative()) return pow_s(pos, d);
  const QtmcPositionTables* t = fb_pos();
  return pow(s_inv_[pos], t ? &t->s_inv[pos] : nullptr, d.negated());
}

Bignum QtmcScheme::soft_lambda(std::uint32_t pos, const Bignum& k0,
                               const Bignum& m) const {
  Bignum lambda = pow_g_signed(k0);
  if (!m.is_zero()) {
    const QtmcPositionTables* t = fb_pos();
    lambda = Bignum::mod_mul(
        lambda, pow(u_inv_[pos], t ? &t->u_inv[pos] : nullptr, m), pk_.n);
  }
  return canonical(lambda);
}

QtmcTease QtmcScheme::tease_soft(const QtmcSoftDecommit& dec,
                                 std::uint32_t pos, BytesView msg,
                                 RandomSource& rng) const {
  if (pos >= pk_.q) throw CryptoError("qTMC tease_soft: bad position");
  const Bignum m = message_to_scalar(msg);
  const Bignum& e = e_[pos];
  // τ ≡ (r0 − m·ρ_pos)·r1^{-1} (mod e), lifted to ~256 bits so soft teases
  // are distributed like hard ones.
  const Bignum inv_r1 = Bignum::mod_inverse(dec.r1.mod(e), e);
  const Bignum t = Bignum::mod_mul((dec.r0 - m * rho_[pos]).mod(e), inv_r1, e);
  Bignum tau = t + rng.rand_bits(kRandomizerBits - kPrimeBits) * e;

  Bignum a = dec.r0 - tau * dec.r1 - m * rho_[pos];
  Bignum rem;
  const Bignum k0 = a.divided_by(e, &rem);
  if (!rem.is_zero()) {
    throw CryptoError("qTMC tease_soft: internal divisibility failure");
  }
  return QtmcTease{pos, Bytes(msg.begin(), msg.end()), std::move(tau),
                   soft_lambda(pos, k0, m)};
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

bool QtmcScheme::coprime_to_primes(const Bignum& r1) const {
  // gcd(r1, P) = 1 iff no prime factor of P = ∏ e_j divides r1, and the
  // e_j are those factors, so this accepts exactly the r1 that
  // gcd(r1, P mod r1) = 1 accepts, without the gcd. Each remainder is a
  // variable-time BN division involving r1, as P mod r1 is.
  for (const Bignum& e : e_) {
    if (r1.mod(e).is_zero()) return false;
  }
  return true;
}

void QtmcScheme::collect_elements(const std::vector<RsaEquation>& eqs,
                                  std::size_t begin, std::size_t end,
                                  std::vector<const Bignum*>& out) const {
  for (std::size_t i = begin; i < end; ++i) {
    for (const RsaTerm& term : eqs[i].lhs) {
      if (term.kind == RsaTerm::Kind::kGeneric) out.push_back(&term.base);
    }
    out.push_back(&eqs[i].rhs);
  }
}

bool QtmcScheme::elements_coprime(const std::vector<RsaEquation>& eqs,
                                  std::size_t begin, std::size_t end) const {
  std::vector<const Bignum*> elems;
  collect_elements(eqs, begin, end, elems);
  return mexp_->all_coprime(elems);
}

bool QtmcScheme::main_equation(const QtmcCommitment& com, std::uint32_t pos,
                               BytesView msg, const Bignum& tau,
                               const Bignum& lambda, const Bignum* r1,
                               std::vector<RsaEquation>& out) const {
  if (pos >= pk_.q || msg.size() != kMessageBytes) return false;
  // Canonical-form checks only; coprimality with N is enforced by the
  // consumer via elements_coprime (one aggregated Jacobi symbol instead of
  // one gcd per element). C1 is checked by the callers that read it.
  if (!element_canonical(com.c0) || !element_canonical(lambda)) return false;
  if (!exponent_in_range(tau)) return false;
  // Λ^{e_pos} · S_pos^m · C1^τ == C0 (the S term drops for the null
  // message, matching the scalar verifier).
  RsaEquation eq;
  eq.lhs.push_back(RsaTerm{RsaTerm::Kind::kGeneric, 0, lambda, e_[pos]});
  const Bignum m = message_to_scalar(msg);
  if (!m.is_zero()) {
    eq.lhs.push_back(RsaTerm{RsaTerm::Kind::kS, pos, Bignum(), m});
  }
  if (r1 != nullptr) {
    // A hard opening's companion equation h^{r1} == C1 pins C1 to ±h^{r1},
    // so C1^τ and h^{r1·τ} are the same element of Z_N*/{±1}: the pair
    // holds iff the pair with C1^τ does (DESIGN.md §5.5), and h powers
    // through its fixed-base table instead of a generic base.
    eq.lhs.push_back(RsaTerm{RsaTerm::Kind::kH, 0, Bignum(), *r1 * tau});
  } else {
    eq.lhs.push_back(RsaTerm{RsaTerm::Kind::kGeneric, 0, com.c1, tau});
  }
  eq.rhs = com.c0;
  out.push_back(std::move(eq));
  return true;
}

bool QtmcScheme::open_equations(const QtmcCommitment& com,
                                const QtmcOpening& op,
                                std::vector<RsaEquation>& out,
                                C1Origin origin) const {
  if (!exponent_in_range(op.r1)) return false;
  // A derived C1 is canonical(h^{r1}) by construction, and nothing below
  // reads it: the caller may fill it in after emission.
  if (origin == C1Origin::kReceived && !element_canonical(com.c1)) {
    return false;
  }
  const std::size_t mark = out.size();
  if (!main_equation(com, op.pos, op.message, op.tau, op.lambda, &op.r1,
                     out)) {
    return false;
  }
  if (origin == C1Origin::kDerived) return true;  // C1 = ±h^{r1} already
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
  if (!element_canonical(com.c1)) return false;
  return main_equation(com, tease.pos, tease.message, tease.tau, tease.lambda,
                       nullptr, out);
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

bool QtmcScheme::verify_open(const QtmcCommitment& com, const QtmcOpening& op,
                             C1Origin origin) const {
  try {
    std::vector<RsaEquation> eqs;
    if (!open_equations(com, op, eqs, origin)) return false;
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
  while (!coprime_to_primes(r1)) r1 = Bignum::rand_bits(kRandomizerBits);
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
  return QtmcOpening{pos, Bytes(msg.begin(), msg.end()), std::move(tau),
                     soft_lambda(pos, k0, m), dec.r1};
}

}  // namespace desword::mercurial
