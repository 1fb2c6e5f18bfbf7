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
// multi-exponentiation through h's fixed-base table. Given a thread pool,
// each side of the RSA fold is evaluated as concurrent multi-exponentiation
// chunks (ModExpContext::multi_exp) whose partial products multiply to the
// same group element, so chunking changes wall time only — never a fold's
// outcome.
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

  /// Marks the current unit rejected because of a caller-side check outside
  /// the equations (e.g. a chain digest mismatch). Its equations are
  /// excluded from the fold so they cannot trigger needless bisection.
  void fail_unit();

  std::size_t units() const { return units_.size(); }

  /// Folds and checks everything accumulated so far. On fold failure,
  /// bisects to per-unit verdicts (scalar-exact at the leaves). Idempotent:
  /// multipliers are transcript-derived, so repeated calls agree. `pool`
  /// (null = this thread) evaluates each RSA fold in chunks; verdicts and
  /// bisection steps are the same with or without it.
  Result verify(ThreadPool* pool = nullptr) const;

 private:
  struct UnitRange {
    std::size_t rsa_begin = 0, rsa_end = 0;
    std::size_t ec_begin = 0, ec_end = 0;
    bool failed = false;  // structural rejection at add_* time
  };

  bool fold(const std::vector<std::size_t>& unit_idxs,
            const std::vector<Bignum>& rsa_r, const std::vector<Bignum>& ec_r,
            ThreadPool* pool) const;
  bool fold_rsa(const std::vector<std::size_t>& unit_idxs,
                const std::vector<Bignum>& rsa_r, ThreadPool* pool) const;
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
};

}  // namespace desword::mercurial
