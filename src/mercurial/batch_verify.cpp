#include "mercurial/batch_verify.h"

#include <functional>
#include <map>
#include <utility>

#include "common/error.h"
#include "crypto/hash.h"
#include "crypto/randsource.h"
#include "obs/metrics.h"

namespace desword::mercurial {

namespace {

constexpr int kMultiplierBytes = 16;  // 128-bit batching multipliers

obs::Counter& fold_count() {
  static obs::Counter& c = obs::metric("crypto.batch_verify.folds");
  return c;
}

obs::Counter& bisect_count() {
  static obs::Counter& c = obs::metric("crypto.batch_verify.bisect_steps");
  return c;
}

/// Identity of a base whose exponents a fold merges: the CRS base a term
/// names, or a generic base or RHS by value. LHS and RHS accumulators are
/// kept separate, so merging never needs inverses (the group order is
/// hidden); the key only has to be injective per side. It points into the
/// verifier's equations, which outlive the fold.
struct RsaBaseKey {
  RsaTerm::Kind kind = RsaTerm::Kind::kGeneric;
  std::uint32_t pos = 0;          // kS only
  const Bignum* value = nullptr;  // kGeneric only

  bool operator<(const RsaBaseKey& o) const {
    if (kind != o.kind) return kind < o.kind;
    if (pos != o.pos) return pos < o.pos;
    // One kind carries a value on every key or on none.
    return value != nullptr && *value < *o.value;
  }
};

RsaBaseKey rsa_base_key(const RsaTerm& term) {
  switch (term.kind) {
    case RsaTerm::Kind::kH:
      return RsaBaseKey{term.kind, 0, nullptr};
    case RsaTerm::Kind::kS:
      return RsaBaseKey{term.kind, term.pos, nullptr};
    case RsaTerm::Kind::kGeneric:
      break;
  }
  return RsaBaseKey{term.kind, 0, &term.base};
}

}  // namespace

BatchVerifier::BatchVerifier(const QtmcScheme& qtmc, const TmcScheme* tmc)
    : qtmc_(&qtmc), tmc_(tmc) {}

std::size_t BatchVerifier::begin_unit() {
  UnitRange u;
  u.rsa_begin = u.rsa_end = rsa_eqs_.size();
  u.ec_begin = u.ec_end = ec_eqs_.size();
  units_.push_back(u);
  return units_.size() - 1;
}

bool BatchVerifier::add_open(const QtmcCommitment& com, const QtmcOpening& op,
                             C1Origin origin) {
  DESWORD_CHECK(!units_.empty(), "BatchVerifier: begin_unit before add_open");
  UnitRange& u = units_.back();
  if (!qtmc_->open_equations(com, op, rsa_eqs_, origin)) {
    u.failed = true;
    return false;
  }
  u.rsa_end = rsa_eqs_.size();
  return true;
}

bool BatchVerifier::add_tease(const QtmcCommitment& com,
                              const QtmcTease& tease) {
  DESWORD_CHECK(!units_.empty(), "BatchVerifier: begin_unit before add_tease");
  UnitRange& u = units_.back();
  if (!qtmc_->tease_equations(com, tease, rsa_eqs_)) {
    u.failed = true;
    return false;
  }
  u.rsa_end = rsa_eqs_.size();
  return true;
}

bool BatchVerifier::add_leaf_open(const TmcCommitment& com,
                                  const TmcOpening& op) {
  DESWORD_CHECK(!units_.empty(),
                "BatchVerifier: begin_unit before add_leaf_open");
  DESWORD_CHECK(tmc_ != nullptr, "BatchVerifier: no TMC scheme configured");
  UnitRange& u = units_.back();
  if (!tmc_->open_equations(com, op, ec_eqs_)) {
    u.failed = true;
    return false;
  }
  u.ec_end = ec_eqs_.size();
  return true;
}

bool BatchVerifier::add_leaf_tease(const TmcCommitment& com,
                                   const TmcTease& tease) {
  DESWORD_CHECK(!units_.empty(),
                "BatchVerifier: begin_unit before add_leaf_tease");
  DESWORD_CHECK(tmc_ != nullptr, "BatchVerifier: no TMC scheme configured");
  UnitRange& u = units_.back();
  if (!tmc_->tease_equations(com, tease, ec_eqs_)) {
    u.failed = true;
    return false;
  }
  u.ec_end = ec_eqs_.size();
  return true;
}

void BatchVerifier::fail_unit() {
  DESWORD_CHECK(!units_.empty(), "BatchVerifier: begin_unit before fail_unit");
  units_.back().failed = true;
}

void BatchVerifier::derive_multipliers(std::vector<Bignum>& rsa_r,
                                       std::vector<Bignum>& ec_r) const {
  // Fiat–Shamir: the multipliers are a deterministic function of every
  // accumulated equation, so a prover committed to its proofs cannot pick
  // proofs as a function of the multipliers. Each field is length-prefixed
  // by TaggedHasher, making the transcript encoding injective.
  TaggedHasher h("desword/batch-verify");
  h.add_u64(rsa_eqs_.size());
  for (const RsaEquation& eq : rsa_eqs_) {
    h.add_u64(eq.lhs.size());
    for (const RsaTerm& t : eq.lhs) {
      h.add_u64(static_cast<std::uint64_t>(t.kind));
      h.add_u64(t.pos);
      h.add(t.base.to_bytes());
      h.add(t.exponent.to_bytes());
    }
    h.add(eq.rhs.to_bytes());
  }
  h.add_u64(ec_eqs_.size());
  for (const EcEquation& eq : ec_eqs_) {
    h.add_u64(eq.lhs.size());
    for (const EcTerm& t : eq.lhs) {
      h.add_u64(static_cast<std::uint64_t>(t.kind));
      h.add(t.elem);
      h.add(t.scalar.to_bytes());
    }
    h.add(eq.rhs);
  }
  DrbgRandomSource drbg(h.digest());
  rsa_r.reserve(rsa_eqs_.size());
  for (std::size_t i = 0; i < rsa_eqs_.size(); ++i) {
    rsa_r.push_back(Bignum::from_bytes(drbg.bytes(kMultiplierBytes)));
  }
  ec_r.reserve(ec_eqs_.size());
  for (std::size_t i = 0; i < ec_eqs_.size(); ++i) {
    ec_r.push_back(Bignum::from_bytes(drbg.bytes(kMultiplierBytes)));
  }
}

bool BatchVerifier::fold_rsa(const std::vector<std::size_t>& unit_idxs,
                             const std::vector<Bignum>& rsa_r,
                             ThreadPool* pool) const {
  // Aggregated coprimality check: emission only canonical-form-checks the
  // proof-supplied elements; the gcd(x, N) = 1 requirement of the scalar
  // verifiers is enforced here with ONE Jacobi-symbol test over the
  // Montgomery product of every element in the fold. A non-coprime
  // element fails the fold, bisection isolates its unit, and scalar_unit
  // re-applies the check per unit — so verdicts still match
  // verify_open/verify_tease exactly.
  {
    std::vector<const Bignum*> elems;
    for (std::size_t u : unit_idxs) {
      const UnitRange& range = units_[u];
      qtmc_->collect_elements(rsa_eqs_, range.rsa_begin, range.rsa_end,
                              elems);
    }
    if (!qtmc_->modexp_context().all_coprime(elems)) return false;
  }
  // Exponents are merged per distinct base as plain integers — over the
  // hidden-order RSA group they must never be reduced.
  using Merged = std::map<RsaBaseKey, ModExpContext::ExpTerm>;
  Merged lhs;
  Merged rhs;
  const auto accumulate = [](Merged& acc, const RsaBaseKey& key,
                             const Bignum& base, Bignum contrib) {
    auto it = acc.find(key);
    if (it == acc.end()) {
      acc.emplace(key, ModExpContext::ExpTerm{base, std::move(contrib)});
    } else {
      it->second.exponent += contrib;
    }
  };
  bool any = false;
  for (std::size_t u : unit_idxs) {
    const UnitRange& range = units_[u];
    for (std::size_t i = range.rsa_begin; i < range.rsa_end; ++i) {
      any = true;
      const Bignum& r = rsa_r[i];
      const RsaEquation& eq = rsa_eqs_[i];
      for (const RsaTerm& t : eq.lhs) {
        accumulate(lhs, rsa_base_key(t), qtmc_->term_base(t), t.exponent * r);
      }
      accumulate(rhs, RsaBaseKey{RsaTerm::Kind::kGeneric, 0, &eq.rhs},
                 eq.rhs, r);
    }
  }
  if (!any) return true;
  // h leaves the multi-exp: its merged exponent (Σ r·r1·τ over E2' plus
  // Σ r·r1 over any E1, ~645 bits for a membership proof) would set the
  // length of the shared squaring chain that the ≤ 264-bit Λ and S_i
  // exponents ride on. One fixed-base power through h's table costs about
  // a quarter of that width in multiplications and no squarings.
  RsaTerm h_term{RsaTerm::Kind::kH, 0, Bignum(), Bignum()};
  if (const auto it = lhs.find(rsa_base_key(h_term)); it != lhs.end()) {
    h_term.exponent = std::move(it->second.exponent);
    lhs.erase(it);
  }
  std::vector<ModExpContext::ExpTerm> lhs_terms;
  lhs_terms.reserve(lhs.size());
  for (auto& [key, term] : lhs) lhs_terms.push_back(std::move(term));
  std::vector<ModExpContext::ExpTerm> rhs_terms;
  rhs_terms.reserve(rhs.size());
  for (auto& [key, term] : rhs) rhs_terms.push_back(std::move(term));
  const ModExpContext& mexp = qtmc_->modexp_context();
  // The fold is compared in the quotient group Z_N*/{±1}, matching
  // check_scalar: canonicalizing the two folded products projects the
  // Z_N* computation through the quotient homomorphism. In Z_N* itself
  // small-exponent batching is UNSOUND — the publicly known order-2
  // element −1 gives a sign-flip defect (−1)^{r_i} that cancels for every
  // even multiplier — while in the quotient −1 is the identity and no
  // other low-order element is computable without factoring N. Chunked
  // evaluation over `pool` multiplies partial products mod N, yielding the
  // same residue, so the compare — and its soundness — is unchanged, as
  // it is by multiplying the h power in after the multi-exp.
  Bignum left = mexp.multi_exp(lhs_terms, pool);
  if (!h_term.exponent.is_zero()) {
    left = Bignum::mod_mul(left, qtmc_->eval_term(h_term), mexp.modulus());
  }
  return qtmc_->canonical(left) ==
         qtmc_->canonical(mexp.multi_exp(rhs_terms, pool));
}

bool BatchVerifier::fold_ec(const std::vector<std::size_t>& unit_idxs,
                            const std::vector<Bignum>& ec_r) const {
  if (tmc_ == nullptr) return true;  // no EC equations can exist
  const Group& group = tmc_->group();
  const Bignum& order = group.order();
  std::map<Bytes, Bignum> lhs;
  std::map<Bytes, Bignum> rhs;
  const auto accumulate = [&order](std::map<Bytes, Bignum>& acc,
                                   const Bytes& elem, const Bignum& contrib) {
    auto it = acc.find(elem);
    if (it == acc.end()) {
      acc.emplace(elem, contrib);
    } else {
      it->second = (it->second + contrib).mod(order);
    }
  };
  bool any = false;
  for (std::size_t u : unit_idxs) {
    const UnitRange& range = units_[u];
    for (std::size_t i = range.ec_begin; i < range.ec_end; ++i) {
      any = true;
      const Bignum& r = ec_r[i];
      const EcEquation& eq = ec_eqs_[i];
      for (const EcTerm& t : eq.lhs) {
        accumulate(lhs, tmc_->term_elem(t),
                   Bignum::mod_mul(t.scalar.mod(order), r, order));
      }
      accumulate(rhs, eq.rhs, r.mod(order));
    }
  }
  if (!any) return true;
  try {
    const std::vector<std::pair<Bytes, Bignum>> lhs_terms(lhs.begin(),
                                                          lhs.end());
    const std::vector<std::pair<Bytes, Bignum>> rhs_terms(rhs.begin(),
                                                          rhs.end());
    return group.multi_exp(lhs_terms) == group.multi_exp(rhs_terms);
  } catch (const Error&) {
    // A folded side collapsed to the (unencodable) identity. Treat as a
    // fold mismatch: bisection settles the affected units scalar-exactly.
    return false;
  }
}

bool BatchVerifier::fold(const std::vector<std::size_t>& unit_idxs,
                         const std::vector<Bignum>& rsa_r,
                         const std::vector<Bignum>& ec_r,
                         ThreadPool* pool) const {
  fold_count().add();
  return fold_rsa(unit_idxs, rsa_r, pool) && fold_ec(unit_idxs, ec_r);
}

bool BatchVerifier::scalar_unit(std::size_t unit) const {
  const UnitRange& range = units_[unit];
  try {
    if (!qtmc_->elements_coprime(rsa_eqs_, range.rsa_begin, range.rsa_end)) {
      return false;
    }
    for (std::size_t i = range.rsa_begin; i < range.rsa_end; ++i) {
      if (!qtmc_->check_scalar(rsa_eqs_[i])) return false;
    }
    for (std::size_t i = range.ec_begin; i < range.ec_end; ++i) {
      if (!tmc_->check_scalar(ec_eqs_[i])) return false;
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

BatchVerifier::Result BatchVerifier::verify(ThreadPool* pool) const {
  Result res;
  res.unit_ok.assign(units_.size(), false);
  std::vector<std::size_t> live;
  live.reserve(units_.size());
  for (std::size_t u = 0; u < units_.size(); ++u) {
    if (!units_[u].failed) live.push_back(u);
  }
  std::vector<Bignum> rsa_r;
  std::vector<Bignum> ec_r;
  derive_multipliers(rsa_r, ec_r);
  // One fold for the whole batch in the common (all-honest) case; on
  // failure, halve and re-fold until the offending units are isolated and
  // settle each isolated unit with the exact scalar equations.
  const std::function<void(const std::vector<std::size_t>&)> settle =
      [&](const std::vector<std::size_t>& idxs) {
        if (idxs.empty()) return;
        if (fold(idxs, rsa_r, ec_r, pool)) {
          for (std::size_t u : idxs) res.unit_ok[u] = true;
          return;
        }
        if (idxs.size() == 1) {
          res.unit_ok[idxs[0]] = scalar_unit(idxs[0]);
          return;
        }
        bisect_count().add();
        const auto mid =
            idxs.begin() + static_cast<std::ptrdiff_t>(idxs.size() / 2);
        settle(std::vector<std::size_t>(idxs.begin(), mid));
        settle(std::vector<std::size_t>(mid, idxs.end()));
      };
  settle(live);
  res.all_ok = true;
  for (std::size_t u = 0; u < units_.size(); ++u) {
    if (!res.unit_ok[u]) {
      res.all_ok = false;
      break;
    }
  }
  return res;
}

}  // namespace desword::mercurial
