#include "mercurial/batch_verify.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <span>
#include <utility>

#include "common/error.h"
#include "common/serial.h"
#include "common/thread_pool.h"
#include "crypto/hash.h"
#include "crypto/randsource.h"
#include "obs/metrics.h"

namespace desword::mercurial {

namespace {

constexpr int kMultiplierBytes = 16;  // 128-bit batching multipliers

// Pass planning estimates, in modular products at a 2048-bit modulus
// (~0.4 µs each on the IFMA kernel): the Jacobi symbol of the coprimality
// test (BN_kronecker, ~0.27 ms) and one EC equation's share of the leaf
// fold (point decompression and P-256 scalar multiplication, ~0.2 ms).
constexpr double kJacobiProducts = 650;
constexpr double kEcEquationProducts = 500;

/// Products of a power through a fixed-base table of 4-bit windows (h's).
double fixed_base_cost(const Bignum& exponent) {
  return static_cast<double>(exponent.bits()) / 4;
}

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

void BatchVerifier::derive_c1(const Bignum& r1, Bignum* c1) {
  c1s_.push_back(C1Derivation{r1, c1});
}

void BatchVerifier::fail_unit() {
  DESWORD_CHECK(!units_.empty(), "BatchVerifier: begin_unit before fail_unit");
  units_.back().failed = true;
}

Bytes BatchVerifier::transcript_digest() const {
  // Each field is length-prefixed as TaggedHasher::add frames it, making
  // the transcript encoding injective; the fields are framed into one
  // buffer (BinaryWriter::bytes frames the same way) and hashed in one
  // update.
  BinaryWriter w;
  const auto add_u64 = [&w](std::uint64_t v) {  // TaggedHasher::add_u64
    w.varint(8);
    w.u64(v);
  };
  Bytes field;  // one Bignum's bytes, reused
  const auto add_bignum = [&](const Bignum& x) {
    x.to_bytes(field);
    w.bytes(field);
  };
  add_u64(rsa_eqs_.size());
  for (const RsaEquation& eq : rsa_eqs_) {
    add_u64(eq.lhs.size());
    for (const RsaTerm& t : eq.lhs) {
      add_u64(static_cast<std::uint64_t>(t.kind));
      add_u64(t.pos);
      add_bignum(t.base);
      add_bignum(t.exponent);
    }
    add_bignum(eq.rhs);
  }
  add_u64(ec_eqs_.size());
  for (const EcEquation& eq : ec_eqs_) {
    add_u64(eq.lhs.size());
    for (const EcTerm& t : eq.lhs) {
      add_u64(static_cast<std::uint64_t>(t.kind));
      w.bytes(t.elem);
      add_bignum(t.scalar);
    }
    w.bytes(eq.rhs);
  }
  TaggedHasher h("desword/batch-verify");
  h.add_framed(w.view());
  return h.digest();
}

void BatchVerifier::derive_multipliers(std::vector<Bignum>& rsa_r,
                                       std::vector<Bignum>& ec_r) const {
  // Fiat–Shamir: the multipliers are a deterministic function of every
  // accumulated equation, so a prover committed to its proofs cannot pick
  // proofs as a function of the multipliers. One draw for all of them:
  // the DRBG's byte stream does not depend on how it is read.
  DrbgRandomSource drbg(transcript_digest());
  const Bytes stream =
      drbg.bytes(kMultiplierBytes * (rsa_eqs_.size() + ec_eqs_.size()));
  const auto multiplier = [&stream](std::size_t i) {
    return Bignum::from_bytes(
        BytesView(stream).subspan(i * kMultiplierBytes, kMultiplierBytes));
  };
  rsa_r.reserve(rsa_eqs_.size());
  for (std::size_t i = 0; i < rsa_eqs_.size(); ++i) {
    rsa_r.push_back(multiplier(i));
  }
  ec_r.reserve(ec_eqs_.size());
  for (std::size_t i = 0; i < ec_eqs_.size(); ++i) {
    ec_r.push_back(multiplier(rsa_eqs_.size() + i));
  }
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
    // A folded side that collapsed to the identity compares unequal: a
    // fold mismatch, which bisection settles scalar-exactly.
    return group.multi_exp_equal(lhs_terms, rhs_terms);
  } catch (const Error&) {
    return false;
  }
}

std::vector<std::size_t> cut_multi_exp(
    const std::vector<const ModExpContext::ExpTerm*>& live,
    std::size_t parts) {
  std::vector<std::size_t> cut{0};
  if (live.empty()) return cut;
  std::uint64_t total_bits = 0;
  for (const ModExpContext::ExpTerm* t : live) {
    total_bits += static_cast<std::uint64_t>(t->exponent.bits());
  }
  // Cut where the running bit total crosses the next multiple of
  // total / parts.
  std::uint64_t running = 0;
  for (std::size_t i = 0; i + 1 < live.size() && cut.size() < parts; ++i) {
    running += static_cast<std::uint64_t>(live[i]->exponent.bits());
    if (running * parts >= total_bits * cut.size()) cut.push_back(i + 1);
  }
  cut.push_back(live.size());
  return cut;
}

namespace {

/// One side of the RSA fold: its live terms, widest exponent first, cut
/// into runs that the pass evaluates as separate jobs.
struct FoldSide {
  explicit FoldSide(std::vector<const ModExpContext::ExpTerm*> terms)
      : live(std::move(terms)) {}

  std::vector<const ModExpContext::ExpTerm*> live;
  std::vector<std::size_t> cut{0};  // run boundaries (cut_multi_exp)
  std::vector<Bignum> product;      // one per run, written by its job

  /// Estimated products of multi_exp over live[begin, end).
  double cost(std::size_t begin, std::size_t end) const {
    return begin == end ? 0.0
                        : ModExpContext::multi_exp_cost(
                              end - begin, live[begin]->exponent.bits());
  }
  void cut_into(std::size_t parts) {
    cut = cut_multi_exp(live, parts);
    product.assign(cut.size() - 1, Bignum(1));
  }
  std::span<const ModExpContext::ExpTerm* const> run(std::size_t p) const {
    return {live.data() + cut[p], cut[p + 1] - cut[p]};
  }
  /// acc · ∏ product mod n.
  Bignum times(Bignum acc, const Bignum& n) const {
    for (const Bignum& x : product) acc = Bignum::mod_mul(acc, x, n);
    return acc;
  }
};

}  // namespace

struct BatchVerifier::MergedRsa {
  std::vector<ModExpContext::ExpTerm> lhs;
  std::vector<ModExpContext::ExpTerm> rhs;
  RsaTerm h{RsaTerm::Kind::kH, 0, Bignum(), Bignum()};
};

BatchVerifier::MergedRsa BatchVerifier::merge_rsa(
    const std::vector<std::size_t>& unit_idxs,
    const std::vector<Bignum>& rsa_r) const {
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
  for (std::size_t u : unit_idxs) {
    const UnitRange& range = units_[u];
    for (std::size_t i = range.rsa_begin; i < range.rsa_end; ++i) {
      const Bignum& r = rsa_r[i];
      const RsaEquation& eq = rsa_eqs_[i];
      for (const RsaTerm& t : eq.lhs) {
        accumulate(lhs, rsa_base_key(t), qtmc_->term_base(t), t.exponent * r);
      }
      accumulate(rhs, RsaBaseKey{RsaTerm::Kind::kGeneric, 0, &eq.rhs},
                 eq.rhs, r);
    }
  }
  MergedRsa merged;
  // h leaves the multi-exp: its merged exponent (Σ r·r1·τ over E2' plus
  // Σ r·r1 over any E1, ~645 bits for a membership proof) would set the
  // length of the shared squaring chain that the ≤ 264-bit Λ and S_i
  // exponents ride on. One fixed-base power through h's table costs about
  // a quarter of that width in multiplications and no squarings.
  if (const auto it = lhs.find(rsa_base_key(merged.h)); it != lhs.end()) {
    merged.h.exponent = std::move(it->second.exponent);
    lhs.erase(it);
  }
  merged.lhs.reserve(lhs.size());
  for (auto& [key, term] : lhs) merged.lhs.push_back(std::move(term));
  merged.rhs.reserve(rhs.size());
  for (auto& [key, term] : rhs) merged.rhs.push_back(std::move(term));
  return merged;
}

bool BatchVerifier::fold(const std::vector<std::size_t>& unit_idxs,
                         const std::vector<Bignum>& rsa_r,
                         const std::vector<Bignum>& ec_r, ThreadPool* pool,
                         bool derive) const {
  if (!unit_idxs.empty()) fold_count().add();
  // Serial prefix: everything the jobs read. The proof-supplied RSA
  // elements, for the aggregated coprimality test: emission only
  // canonical-form-checks them; the gcd(x, N) = 1 requirement of the
  // scalar verifiers is enforced by ONE Jacobi-symbol test over their
  // Montgomery product. A non-coprime element fails the fold, bisection
  // isolates its unit, and scalar_unit re-applies the check per unit — so
  // verdicts still match verify_open/verify_tease exactly.
  std::vector<const Bignum*> elems;
  std::size_t ec_equations = 0;
  for (std::size_t u : unit_idxs) {
    const UnitRange& range = units_[u];
    qtmc_->collect_elements(rsa_eqs_, range.rsa_begin, range.rsa_end, elems);
    ec_equations += range.ec_end - range.ec_begin;
  }
  const MergedRsa merged = merge_rsa(unit_idxs, rsa_r);
  const ModExpContext& mexp = qtmc_->modexp_context();
  FoldSide lhs(mexp.multi_exp_terms(merged.lhs));
  FoldSide rhs(mexp.multi_exp_terms(merged.rhs));

  // The plan. Every job's cost is estimated in modular products; each
  // multi-exp is cut into runs of at most total / concurrency, and the
  // jobs are claimed longest first, so the pass ends about when its
  // longest job does. Estimates only balance the jobs: a wrong one costs
  // wall time, never a verdict. Without a pool each side is one run.
  enum class Kind : std::uint8_t { kCoprime, kEc, kH, kLhs, kRhs, kC1 };
  struct Job {
    double cost;
    Kind kind;
    std::size_t index;  // the run (kLhs, kRhs) or derivation (kC1)
  };
  std::vector<Job> jobs;
  if (!elems.empty()) {
    jobs.push_back({static_cast<double>(elems.size()) + kJacobiProducts,
                    Kind::kCoprime, 0});
  }
  if (ec_equations != 0) {
    jobs.push_back({static_cast<double>(ec_equations) * kEcEquationProducts,
                    Kind::kEc, 0});
  }
  if (!merged.h.exponent.is_zero()) {
    jobs.push_back({fixed_base_cost(merged.h.exponent), Kind::kH, 0});
  }
  if (derive) {
    for (std::size_t k = 0; k < c1s_.size(); ++k) {
      jobs.push_back({fixed_base_cost(c1s_[k].r1), Kind::kC1, k});
    }
  }
  const double lhs_cost = lhs.cost(0, lhs.live.size());
  const double rhs_cost = rhs.cost(0, rhs.live.size());
  double total = lhs_cost + rhs_cost;
  for (const Job& j : jobs) total += j.cost;
  const double concurrency =
      pool == nullptr ? 1.0 : static_cast<double>(pool->concurrency());
  const auto parts_for = [&](double cost) {
    return cost == 0.0 ? std::size_t{1}
                       : static_cast<std::size_t>(std::max(
                             1.0, std::ceil(cost * concurrency / total)));
  };
  lhs.cut_into(parts_for(lhs_cost));
  rhs.cut_into(parts_for(rhs_cost));
  for (const auto& [side, kind] : {std::pair{&lhs, Kind::kLhs},
                                   std::pair{&rhs, Kind::kRhs}}) {
    for (std::size_t p = 0; p < side->product.size(); ++p) {
      jobs.push_back({side->cost(side->cut[p], side->cut[p + 1]), kind, p});
    }
  }
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.cost > b.cost;
  });

  // The pass. Each job writes only its own result.
  bool coprime = true;
  bool ec_ok = true;
  Bignum h_power(1);
  parallel_for(pool, jobs.size(), [&](std::size_t j) {
    const Job& job = jobs[j];
    switch (job.kind) {
      case Kind::kCoprime:
        coprime = mexp.all_coprime(elems);
        return;
      case Kind::kEc:
        ec_ok = fold_ec(unit_idxs, ec_r);
        return;
      case Kind::kH:
        h_power = qtmc_->eval_term(merged.h);
        return;
      case Kind::kLhs:
        lhs.product[job.index] = mexp.multi_exp_part(lhs.run(job.index));
        return;
      case Kind::kRhs:
        rhs.product[job.index] = mexp.multi_exp_part(rhs.run(job.index));
        return;
      case Kind::kC1:
        *c1s_[job.index].c1 = qtmc_->hard_c1(c1s_[job.index].r1);
        return;
    }
  });

  if (!coprime || !ec_ok) return false;
  // The fold is compared in the quotient group Z_N*/{±1}, matching
  // check_scalar: canonicalizing the two folded products projects the
  // Z_N* computation through the quotient homomorphism. In Z_N* itself
  // small-exponent batching is UNSOUND — the publicly known order-2
  // element −1 gives a sign-flip defect (−1)^{r_i} that cancels for every
  // even multiplier — while in the quotient −1 is the identity and no
  // other low-order element is computable without factoring N. The runs
  // and the h power multiply mod N to the residue one multi-exp over all
  // terms yields, so the compare — and its soundness — is unchanged.
  const Bignum& n = mexp.modulus();
  return qtmc_->canonical(lhs.times(std::move(h_power), n)) ==
         qtmc_->canonical(rhs.times(Bignum(1), n));
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
  // settle each isolated unit with the exact scalar equations. The first
  // fold runs even over no units: its pass derives the queued C1s.
  const std::function<void(const std::vector<std::size_t>&, bool)> settle =
      [&](const std::vector<std::size_t>& idxs, bool first) {
        if (idxs.empty() && !first) return;
        if (fold(idxs, rsa_r, ec_r, pool, first)) {
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
        settle(std::vector<std::size_t>(idxs.begin(), mid), false);
        settle(std::vector<std::size_t>(mid, idxs.end()), false);
      };
  settle(live, true);
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
