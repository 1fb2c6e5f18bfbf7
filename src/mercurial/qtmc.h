// Trapdoor q-Mercurial Commitment (qTMC) from the strong-RSA assumption.
//
// This plays the role of the paper's internal-node primitive [11]. The
// paper's implementation uses the pairing-based Libert–Yung scheme; offline
// we instantiate the *same interface and asymptotics* in the style of the
// paper's other cited ZK-EDB construction (Catalano–Fiore–Messina,
// EUROCRYPT 2008), which is RSA-based — see DESIGN.md §2/§5.2.
//
// Public key (CRS): RSA modulus N, generators g, h = g^a ∈ QR_N (trapdoor
// a), and q deterministic 136-bit primes e_1..e_q derived from a public
// seed. Derived values: P = ∏_j e_j, P_i = P / e_i, S_i = g^{P_i},
// h̃ = g^P.
//
//   Hard commit to (m_1..m_q):  C1 = h^{r1},
//                               C0 = h̃^z · ∏_i S_i^{m_i} · C1^{r0}
//     - hard open at i -> (m_i, τ=r0, Λ_i, r1) where
//         Λ_i = g^{(z·P + Σ_{j≠i} m_j·P_j)/e_i}   (exactly divisible)
//       check:  C1 = h^{r1}  and  Λ^{e_i} · S_i^{m_i} · C1^{τ} = C0
//     - soft open (tease) at i -> same without r1.
//   Soft commit:  C1 = g^{r1} (gcd(r1, P) = 1),  C0 = g^{r0}
//     - tease at any i to ANY m: pick τ ≡ (r0 − m·ρ_i)·r1^{-1} (mod e_i)
//       with ρ_i = P_i mod e_i, then
//         Λ = g^{(r0 − τ·r1 − m·ρ_i)/e_i} · U_i^{−m},  U_i = g^{P_i div e_i}
//     - can never be hard opened (requires dlog_h C1).
//
// Group elements live in the quotient group Z_N*/{±1}: every element the
// scheme emits (C0, C1, Λ) is the canonical representative min(x, N−x),
// verifiers structurally reject non-canonical proof elements, and the
// verification equations compare canonical representatives. The quotient
// removes the publicly-known order-2 element −1, which would otherwise
// break small-exponent batch verification (DESIGN.md §5.5); binding is
// unaffected, since a relation g^a = −g^b still yields g^{2(a−b)} = 1.
//
// Cost profile (matches the paper's Figure 4): qKGen / qHCom / qHOpen /
// qSOpen-of-hard grow linearly with q (exponent sizes are Θ(q·|e|));
// soft-commitment algorithms are constant in q (U_i values are cached per
// key); verification is constant in q.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "crypto/bignum.h"
#include "crypto/modexp.h"
#include "crypto/randsource.h"
#include "mercurial/equation.h"
#include "mercurial/message.h"

namespace desword::mercurial {

/// Serializable public key material (derived values are recomputed).
struct QtmcPublicKey {
  Bignum n;          // RSA modulus
  Bignum g;          // generator of (a large subgroup of) QR_N
  Bignum h;          // g^a, a = trapdoor
  Bytes prime_seed;  // seed deriving e_1..e_q
  std::uint32_t q = 0;  // vector arity

  Bytes serialize() const;
  static QtmcPublicKey deserialize(BytesView data);
};

struct QtmcKeyPair {
  QtmcPublicKey pk;
  Bignum trapdoor;  // a; retained only by the CRS generator / simulator
};

struct QtmcCommitment {
  Bignum c0;
  Bignum c1;

  bool operator==(const QtmcCommitment&) const = default;
  Bytes serialize(const Bignum& modulus) const;
  static QtmcCommitment deserialize(const Bignum& modulus, BytesView data);
};

struct QtmcHardDecommit {
  std::vector<Bytes> messages;  // exactly q 16-byte messages
  Bignum z;
  Bignum r0;
  Bignum r1;
};

struct QtmcSoftDecommit {
  Bignum r0;
  Bignum r1;
};

/// Hard opening at one position.
struct QtmcOpening {
  std::uint32_t pos = 0;
  Bytes message;
  Bignum tau;
  Bignum lambda;
  Bignum r1;

  Bytes serialize(const Bignum& modulus) const;
  static QtmcOpening deserialize(const Bignum& modulus, BytesView data);
};

/// Soft opening (tease) at one position.
struct QtmcTease {
  std::uint32_t pos = 0;
  Bytes message;
  Bignum tau;
  Bignum lambda;

  Bytes serialize(const Bignum& modulus) const;
  static QtmcTease deserialize(const Bignum& modulus, BytesView data);
};

class QtmcScheme {
 public:
  /// qKGen: fresh CRS with arity `q` over a new RSA modulus of `rsa_bits`.
  static QtmcKeyPair keygen(std::uint32_t q, int rsa_bits);

  /// Builds the scheme from a public key, deriving the primes and the
  /// S_i / h̃ tables (the dominant keygen cost; linear in q via a
  /// divide-and-conquer power tree).
  explicit QtmcScheme(QtmcPublicKey pk);

  const QtmcPublicKey& public_key() const { return pk_; }
  std::uint32_t arity() const { return pk_.q; }

  /// qHCom. `messages.size()` must be <= q; missing tail positions commit
  /// the null message. The RandomSource overload draws the randomizers
  /// from `rng` (deterministic replay); the default uses the CSPRNG.
  std::pair<QtmcCommitment, QtmcHardDecommit> hard_commit(
      const std::vector<Bytes>& messages) const;
  std::pair<QtmcCommitment, QtmcHardDecommit> hard_commit(
      const std::vector<Bytes>& messages, RandomSource& rng) const;

  /// qHOpen at `pos`.
  QtmcOpening hard_open(const QtmcHardDecommit& dec, std::uint32_t pos) const;

  /// qSOpen of a hard commitment at `pos` (teases to the committed value).
  QtmcTease tease_hard(const QtmcHardDecommit& dec, std::uint32_t pos) const;

  /// qSCom.
  std::pair<QtmcCommitment, QtmcSoftDecommit> soft_commit() const;
  std::pair<QtmcCommitment, QtmcSoftDecommit> soft_commit(
      RandomSource& rng) const;

  /// The soft commitment (C0, C1) = (g^{r0}, g^{r1}) that `dec` opens: lets
  /// a holder of many soft decommitments store them without their
  /// commitments and recompute one on demand (two fixed-base powers).
  QtmcCommitment soft_commitment(const QtmcSoftDecommit& dec) const;

  /// qSOpen of a soft commitment: tease position `pos` to arbitrary `msg`.
  QtmcTease tease_soft(const QtmcSoftDecommit& dec, std::uint32_t pos,
                       BytesView msg) const;

  /// Verifies a hard opening. Never throws on bad input. Equivalent to
  /// emitting open_equations and checking each equation scalar-wise.
  bool verify_open(const QtmcCommitment& com, const QtmcOpening& op) const;

  /// Verifies a tease. Never throws on bad input.
  bool verify_tease(const QtmcCommitment& com, const QtmcTease& tease) const;

  /// Equation-accumulator flavour of verify_open: runs the structural
  /// checks (position/message/exponent ranges, elements canonical in
  /// [1, (N−1)/2]) and, when they pass, appends the two product equations
  /// `h^{r1} == C1` and `Λ^{e_pos}·S_pos^m·C1^τ == C0` — both compared in
  /// Z_N*/{±1} — to `out`. Returns false (appending nothing) on
  /// structural failure. Coprimality of the proof-supplied
  /// elements with N is NOT checked here — consumers enforce it in
  /// aggregate via elements_coprime (one gcd per opening in the scalar
  /// verifiers, one per fold in BatchVerifier). The opening is valid iff
  /// this returns true AND elements_coprime holds AND every appended
  /// equation holds.
  bool open_equations(const QtmcCommitment& com, const QtmcOpening& op,
                      std::vector<RsaEquation>& out) const;

  /// Equation-accumulator flavour of verify_tease (one equation).
  bool tease_equations(const QtmcCommitment& com, const QtmcTease& tease,
                       std::vector<RsaEquation>& out) const;

  /// Resolves a term's base: the CRS base it names, or its generic payload.
  const Bignum& term_base(const RsaTerm& term) const;

  /// Evaluates one term exactly as the scalar verifier would (CRS bases go
  /// through the fixed-base tables when built).
  Bignum eval_term(const RsaTerm& term) const;

  /// Evaluates one emitted equation exactly as verify_open/verify_tease
  /// would (term-by-term, unfolded, compared in Z_N*/{±1}). May throw on
  /// internal crypto errors; never on well-formed emitted equations.
  bool check_scalar(const RsaEquation& eq) const;

  /// Canonical representative of `x` in Z_N*/{±1}: min(x, N−x) for
  /// x ∈ [0, N). All emitted elements are canonical and all verification
  /// equations (scalar and folded) compare canonical representatives.
  Bignum canonical(const Bignum& x) const;

  /// Folds every untrusted element of eqs[begin..end) — generic term bases
  /// and equation RHS values — into `acc` (mod N). Together with
  /// product_coprime this enforces gcd(x, N) = 1 for all of them at the
  /// cost of ONE gcd: gcd(∏ x mod N, N) = 1 iff every factor is coprime
  /// (any prime divisor of N dividing some x divides the product). A gcd
  /// is ~50× a modular multiplication, so verifiers aggregate the check —
  /// per opening in verify_open/verify_tease, per fold in BatchVerifier —
  /// instead of paying it per element.
  void accumulate_elements(const std::vector<RsaEquation>& eqs,
                           std::size_t begin, std::size_t end,
                           Bignum& acc) const;

  /// gcd(acc, N) == 1 — the single-gcd tail of accumulate_elements.
  bool product_coprime(const Bignum& acc) const;

  /// accumulate_elements + product_coprime over one contiguous range.
  bool elements_coprime(const std::vector<RsaEquation>& eqs,
                        std::size_t begin, std::size_t end) const;

  /// The shared Montgomery/multi-exponentiation context for the modulus N.
  const ModExpContext& modexp_context() const { return *mexp_; }

  /// Simulator (requires trapdoor): fake hard-lookalike commitment that can
  /// later be hard-opened to arbitrary messages. Test/analysis only.
  std::pair<QtmcCommitment, QtmcSoftDecommit> fake_commit(
      const Bignum& trapdoor) const;
  QtmcOpening fake_open(const QtmcSoftDecommit& dec, const Bignum& trapdoor,
                        std::uint32_t pos, BytesView msg) const;

  /// Warms the per-position U_i cache (used by benchmarks to measure the
  /// steady-state constant cost of soft openings).
  void precompute_soft_bases() const;

  /// Builds fixed-base windowed tables for the CRS bases — g (sized for
  /// the full λ-exponent width), h, h̃, and optionally every S_i — turning
  /// each fixed-base exponentiation into ~len/4 Montgomery multiplications
  /// with no squarings. One-time cost: a few plain exponentiations' worth
  /// of work; memory: ~(P_bits/4)·16 residues for g plus ~512 residues per
  /// S_i (≈2.5 MiB + q·128 KiB at RSA-2048, q=16). Idempotent and safe to
  /// race; commits/opens/verifies pick the tables up once built.
  ///
  /// Tables live in a process-wide registry keyed by the public key, so
  /// every QtmcScheme instance built from the same CRS (proxy sessions,
  /// participants, cached EdbCrs copies) shares ONE table set — the
  /// Montgomery representation depends only on the modulus. The registry
  /// is a small LRU (peers presenting many distinct CRSs cannot grow it
  /// without bound; an evicted set stays alive while instances hold it),
  /// and concurrent builders only serialize per CRS, never across
  /// unrelated CRSs.
  void precompute_fixed_bases(bool position_bases = true) const;

  /// Identity of the adopted shared table set (nullptr until
  /// precompute_fixed_bases ran). Diagnostics/tests: equal pointers mean
  /// two instances share the same registry entry.
  const void* fixed_base_tables_id() const;

  /// Serialized size of the modulus in bytes (element width on the wire).
  std::size_t element_len() const { return n_len_; }

 private:
  Bignum pow_g(const Bignum& exponent) const;
  Bignum pow_g_signed(const Bignum& exponent) const;
  Bignum pow_h(const Bignum& exponent) const;
  Bignum pow_h_tilde(const Bignum& exponent) const;
  Bignum pow_s(std::uint32_t pos, const Bignum& exponent) const;
  const Bignum& u_base(std::uint32_t pos) const;
  // Lock-free fast-path readers for the adopted fixed-base tables; nullptr
  // until published. Analysis opt-out is sound: each pointer is written
  // exactly once, under fb_mu_, BEFORE the release store of fb_*_ready_;
  // the acquire load in these accessors orders the pointer read after that
  // publication, and the pointed-to tables are immutable from then on.
  // Every unlocked fb_* access in the scheme funnels through these four.
  const ModExpContext::FixedBaseTable* fb_g_table() const
      DESWORD_NO_THREAD_SAFETY_ANALYSIS;
  const ModExpContext::FixedBaseTable* fb_h_table() const
      DESWORD_NO_THREAD_SAFETY_ANALYSIS;
  const ModExpContext::FixedBaseTable* fb_h_tilde_table() const
      DESWORD_NO_THREAD_SAFETY_ANALYSIS;
  const std::vector<ModExpContext::FixedBaseTable>* fb_s_tables() const
      DESWORD_NO_THREAD_SAFETY_ANALYSIS;
  Bignum lambda_exponent(const QtmcHardDecommit& dec, std::uint32_t pos) const;
  /// Structural checks + emission of the main equation
  /// Λ^{e_pos}·S_pos^m·C1^τ == C0 shared by hard and soft openings.
  bool main_equation(const QtmcCommitment& com, std::uint32_t pos,
                     BytesView msg, const Bignum& tau, const Bignum& lambda,
                     std::vector<RsaEquation>& out) const;
  /// x ∈ [1, (N−1)/2]: a nonzero canonical representative of Z_N*/{±1}.
  bool element_canonical(const Bignum& x) const;

  QtmcPublicKey pk_;
  std::size_t n_len_ = 0;
  Bignum n_half_;  // (N−1)/2: canonical representatives are ≤ this
  std::unique_ptr<ModExpContext> mexp_;  // Montgomery context for N
  std::vector<Bignum> e_;      // primes e_1..e_q
  Bignum prod_all_;            // P = ∏ e_j
  std::vector<Bignum> s_;      // S_i = g^{P/e_i}
  Bignum h_tilde_;             // g^P
  std::vector<Bignum> rho_;    // ρ_i = (P/e_i) mod e_i

  mutable Mutex u_mutex_;
  // U_i = g^{(P/e_i) div e_i}
  mutable std::vector<std::optional<Bignum>> u_ DESWORD_GUARDED_BY(u_mutex_);

  // Fixed-base tables (precompute_fixed_bases), adopted from the process-
  // wide per-public-key registry. Written once under fb_mu_, then
  // read-only; fb_*_ready_ gate the lock-free fast paths (the fb_*_table()
  // accessors above) with acquire loads.
  mutable Mutex fb_mu_;
  mutable std::atomic<bool> fb_ready_{false};
  mutable std::atomic<bool> fb_pos_ready_{false};
  mutable std::shared_ptr<const ModExpContext::FixedBaseTable> fb_g_
      DESWORD_GUARDED_BY(fb_mu_);
  mutable std::shared_ptr<const ModExpContext::FixedBaseTable> fb_h_
      DESWORD_GUARDED_BY(fb_mu_);
  mutable std::shared_ptr<const ModExpContext::FixedBaseTable> fb_h_tilde_
      DESWORD_GUARDED_BY(fb_mu_);
  mutable std::shared_ptr<const std::vector<ModExpContext::FixedBaseTable>>
      fb_s_ DESWORD_GUARDED_BY(fb_mu_);
};

}  // namespace desword::mercurial
