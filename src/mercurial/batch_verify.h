// Randomized batch verification of mercurial proof chains.
//
// Folds the verification equations of many qTMC/TMC openings into one
// product equation per group via the small-exponent batching technique
// (Bellare–Garay–Rabin, EUROCRYPT 1998): each equation ∏ b^e == rhs is
// raised to an independent 128-bit multiplier r_i and the results are
// multiplied together. On the RSA side both the individual equations and
// the fold are compared in the quotient group Z_N*/{±1} (canonical
// representatives min(x, N−x)); plain Z_N* contains the publicly known
// order-2 element −1, whose sign-flip defects small-exponent batching
// cannot catch. The fold holds for honest proofs by construction; a
// cheating prover passes with probability ≤ 2^-128 per batch (see
// DESIGN.md §5.5). Exponents of repeated bases — h in every
// hard opening, S_i at position i, the commitment elements — merge, so the
// whole batch costs one multi-exponentiation (crypto/modexp.h Pippenger /
// Straus, Group::multi_exp) instead of 3–4 full exponentiations per
// opening. h's merged exponent, the widest, is evaluated apart from the
// multi-exponentiation through h's fixed-base table.
//
// Each fold is one pass over independent jobs: the coprimality fold and
// its Jacobi symbol, the EC fold, h's fixed-base power and contiguous
// parts of both RSA multi-exponentiations, sized together so that the
// longest job is about the pass's total work divided by the pool's
// concurrency (plus, in the first pass, the C1 derivations queued with
// derive_c1). Given a thread pool the jobs run on it; without one they
// run in order on the calling thread. Each job writes only its own
// result; the caller multiplies the parts together and compares once,
// after the pass. The parts multiply to the same group element as one
// multi-exponentiation, so the pool changes wall time only — never a
// fold's outcome or the bisection.
//
// Multipliers are derived deterministically from a transcript hash of all
// accumulated equations (Fiat–Shamir style), so verification stays
// reproducible and a prover committed to its proofs cannot steer them.
//
// When the folded equation fails, the verifier bisects: it re-folds halves
// of the unit set until the failing units are isolated, then re-checks each
// isolated unit with the exact scalar equations. The final accept/reject
// decision per unit is therefore byte-identical to scalar verification —
// randomization can only cost extra work on failure, never flip a verdict
// on the units that are re-checked, and a fold that spuriously failed (it
// cannot, for honest proofs) would still converge to the scalar answer.
//
// RSA-side coprimality with N is likewise aggregated: one Jacobi-symbol
// test over the product of a fold's proof-supplied elements replaces one
// gcd per element (see QtmcScheme::elements_coprime), with bisection
// leaves re-applying the per-unit check so verdicts stay exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mercurial/equation.h"
#include "mercurial/qtmc.h"
#include "mercurial/tmc.h"

namespace desword {
class ThreadPool;
}

namespace desword::mercurial {

/// Accumulates verification equations from many openings ("units") and
/// checks them all with O(1) folded product equations. A unit is the
/// granularity of the verdict — typically one proof chain, or one proof in
/// a many-proof batch. Not thread safe; build one per verification task.
class BatchVerifier {
 public:
  struct Result {
    bool all_ok = false;
    std::vector<bool> unit_ok;  // one verdict per begin_unit() call
  };

  /// `tmc` may be null when no leaf (TMC) equations will be added. Both
  /// schemes must outlive the verifier.
  explicit BatchVerifier(const QtmcScheme& qtmc, const TmcScheme* tmc = nullptr);

  /// Starts a new unit; subsequent add_* calls accumulate into it.
  /// Returns the unit's index into Result::unit_ok.
  std::size_t begin_unit();

  /// Accumulate a qTMC hard opening / tease into the current unit. Returns
  /// false — and marks the unit failed — when the structural checks reject;
  /// the equations are then not accumulated (matching the scalar verifier,
  /// which never evaluates them either). `origin` as in
  /// QtmcScheme::open_equations: a derived C1 adds no E1.
  bool add_open(const QtmcCommitment& com, const QtmcOpening& op,
                C1Origin origin = C1Origin::kReceived);
  bool add_tease(const QtmcCommitment& com, const QtmcTease& tease);

  /// Accumulate a TMC (leaf) opening / tease. Requires a non-null `tmc`.
  bool add_leaf_open(const TmcCommitment& com, const TmcOpening& op);
  bool add_leaf_tease(const TmcCommitment& com, const TmcTease& tease);

  /// Queues C1 = QtmcScheme::hard_c1(r1) of a commitment whose hard opening
  /// was added with C1Origin::kDerived — no equation reads that C1 — for
  /// verify()'s first pass, where it runs next to the fold's own jobs.
  /// Each verify() call writes it to `*c1`, once, before it returns, also
  /// when the fold bisects; `c1` must outlive the verify() calls. `r1` must
  /// be in QtmcScheme::exponent_in_range (add_open checked it).
  void derive_c1(const Bignum& r1, Bignum* c1);

  /// Marks the current unit rejected because of a caller-side check outside
  /// the equations (e.g. a chain digest mismatch). Its equations are
  /// excluded from the fold so they cannot trigger needless bisection.
  void fail_unit();

  std::size_t units() const { return units_.size(); }

  /// The Fiat–Shamir seed the batching multipliers are drawn from: the
  /// tagged digest of every accumulated equation, each field
  /// length-prefixed as TaggedHasher::add frames it (kind, position, base
  /// and exponent of each term, then the right-hand side).
  Bytes transcript_digest() const;

  /// Folds and checks everything accumulated so far. On fold failure,
  /// bisects to per-unit verdicts (scalar-exact at the leaves). Idempotent:
  /// multipliers are transcript-derived, so repeated calls agree. `pool`
  /// (null = this thread) runs each fold's jobs; verdicts and bisection
  /// steps are the same with or without it.
  Result verify(ThreadPool* pool = nullptr) const;

 private:
  struct UnitRange {
    std::size_t rsa_begin = 0, rsa_end = 0;
    std::size_t ec_begin = 0, ec_end = 0;
    bool failed = false;  // structural rejection at add_* time
  };

  struct C1Derivation {
    Bignum r1;
    Bignum* c1;
  };

  /// The fold's RSA terms, exponents merged per base, h's apart.
  struct MergedRsa;
  MergedRsa merge_rsa(const std::vector<std::size_t>& unit_idxs,
                      const std::vector<Bignum>& rsa_r) const;
  /// One fold as one pass of jobs; `derive` adds the queued C1s to it.
  bool fold(const std::vector<std::size_t>& unit_idxs,
            const std::vector<Bignum>& rsa_r, const std::vector<Bignum>& ec_r,
            ThreadPool* pool, bool derive) const;
  bool fold_ec(const std::vector<std::size_t>& unit_idxs,
               const std::vector<Bignum>& ec_r) const;
  bool scalar_unit(std::size_t unit) const;
  void derive_multipliers(std::vector<Bignum>& rsa_r,
                          std::vector<Bignum>& ec_r) const;

  const QtmcScheme* qtmc_;
  const TmcScheme* tmc_;
  std::vector<RsaEquation> rsa_eqs_;
  std::vector<EcEquation> ec_eqs_;
  std::vector<UnitRange> units_;
  std::vector<C1Derivation> c1s_;
};

/// Cuts `live` — a product's live terms, widest exponent first
/// (ModExpContext::multi_exp_terms) — into at most `parts` contiguous runs
/// of about equal total exponent bits, so each run's squaring chain serves
/// terms of similar width. Returns the run boundaries: 0, each cut, then
/// live.size() ({0}, no run, when `live` is empty). The runs'
/// ModExpContext::multi_exp_part products multiply to the whole product.
std::vector<std::size_t> cut_multi_exp(
    const std::vector<const ModExpContext::ExpTerm*>& live, std::size_t parts);

}  // namespace desword::mercurial
