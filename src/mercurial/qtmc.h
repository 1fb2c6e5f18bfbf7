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
//       (verified as the equivalent C1 = h^{r1} and
//        Λ^{e_i} · S_i^{m_i} · h^{r1·τ} = C0; see open_equations)
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
// Prover-side constants (all derived from the public key in the
// constructor, all powers of g): T_i = g^{Σ_{j≠i} P/(e_i·e_j)},
// W = ∏_i S_i, and the inverses S_i^{-1}, U_i^{-1}, g^{-1}. With them the
// prover's exponents are short wherever the message vector repeats:
//   Λ_i   = S_i^z · T_i^{m*} when every j≠i holds the same message m*;
//           otherwise the direct power g^{z·P_i + Σ_{j≠i} m_j·P/(e_i·e_j)};
//   C0    = h̃^z · W^{m*} · ∏_{m_i≠m*} S_i^{±|m_i−m*|} · h^{r1·r0}, m* the
//           most frequent message (canonical() absorbs C1's sign);
//   tease = g^{k0} · (U_i^{-1})^m, k0 signed (g^{-1} for k0 < 0).
//
// Cost profile (matches the paper's Figure 4): qHCom and qHOpen/qSOpen-of-
// hard on vectors of distinct messages grow linearly with q (one 128-bit
// power per distinct message; an opening is one Θ(q·|e|)-bit power). On a
// ZK-EDB trie node (one real child, the shared soft digest everywhere
// else) a commitment is two 128-bit powers plus the randomizer powers
// h̃^z, h^{r1}, h^{r1·r0}, and an opening at the real child is a 256-bit
// plus a 128-bit power: flat in q. qKGen's power tree is Θ(q log q)
// squarings. Soft-commitment algorithms and verification are constant in
// q.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
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

/// Width of the randomizers z, r0, r1 (hard) and r0, r1 (soft): drawn with
/// rand_bits, so exactly this many bits.
inline constexpr int kRandomizerBits = 256;

/// Cap on the proof-supplied exponents τ and r1 a verifier accepts (honest
/// ones are ~256 bits). It bounds verification work, not security: wider
/// values are rejected before any power is taken.
inline constexpr int kMaxExponentBits = 1024;

/// Where the C1 of a commitment being hard-opened came from.
///   kReceived: next to C0, from the committer (a POC's root), so the
///     verifier checks E1 `h^{r1} == C1`.
///   kDerived: the verifier computed C1 = hard_c1(op.r1) from the opening
///     itself, so E1 holds by construction and is not checked again. A
///     ZK-EDB membership proof ships only C0 for its inner nodes
///     (DESIGN.md §5.5).
enum class C1Origin : std::uint8_t { kReceived, kDerived };

struct QtmcHardDecommit {
  Bytes messages;  // the q committed messages, kMessageBytes each, packed
  Bignum z;
  Bignum r0;
  Bignum r1;

  std::size_t size() const { return messages.size() / kMessageBytes; }
  /// The message committed at position `i` (< size()).
  BytesView message(std::size_t i) const {
    return BytesView(messages).subspan(i * kMessageBytes, kMessageBytes);
  }
};

/// A hard commitment between QtmcScheme::hard_commit_draft and
/// hard_commit_bind: the randomizers are drawn and every factor of C0 that
/// does not wait on a pending position's message is multiplied in.
struct QtmcCommitDraft {
  QtmcHardDecommit dec;                // null at the pending positions
  std::vector<std::uint32_t> pending;  // positions hard_commit_bind fills
  Bignum m_star;  // each S_i factor is S_i^{m_i − m*}, m* over the known m_i
  Bignum acc;     // C0 but for the pending positions' factors; not canonical
  Bignum c1;      // final (canonical) C1
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

// Fixed-base table sets (precompute_fixed_bases); defined in qtmc.cpp.
struct QtmcBaseTables;      // g, h, h̃
struct QtmcPositionTables;  // S_i, S_i^{-1}, T_i, U_i^{-1}, W, g^{-1}

class QtmcScheme {
 public:
  /// qKGen: fresh CRS with arity `q` over a new RSA modulus of `rsa_bits`.
  static QtmcKeyPair keygen(std::uint32_t q, int rsa_bits);

  /// Builds the scheme from a public key, deriving the primes, S_i, T_i
  /// and U_i (one divide-and-conquer power tree, the dominant keygen cost),
  /// h̃, W and the inverses (one batched modular inverse).
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

  /// qHCom in two halves, for a committer that learns some messages late
  /// (a ZK-EDB node waits on its present children's digests; DESIGN.md
  /// §5.4). The draft validates `messages` as hard_commit does, except
  /// that the entries at the `pending` positions are ignored (they may be
  /// empty or missing), draws z, r0, r1 from `rng` in hard_commit's order
  /// and computes h̃^z, h^{r1·r0}, C1 and W^{m*}·∏ S_i^{m_i−m*} over the
  /// known positions, with m* their most frequent message. That is all of
  /// qHCom's randomizer work and all but one power per pending position.
  QtmcCommitDraft hard_commit_draft(const std::vector<Bytes>& messages,
                                    std::vector<std::uint32_t> pending,
                                    RandomSource& rng) const;

  /// Finishes a draft with `messages[k]` at draft.pending[k]: one
  /// S_i^{m_i−m*} power each, then canonical C0. The commitment and
  /// decommitment equal hard_commit's on the full vector with the same
  /// randomness: ∏ S_i^{m_i} = W^{m*}·∏ S_i^{m_i−m*} for any m*, so the
  /// residue does not depend on which m* the draft picked.
  std::pair<QtmcCommitment, QtmcHardDecommit> hard_commit_bind(
      QtmcCommitDraft draft, const std::vector<Bytes>& messages) const;

  /// C1 = h^{r1} of a hard commitment, canonical: what hard_commit put
  /// next to C0 for a decommitment with this r1. One fixed-base power, so
  /// a holder of many decommitments can keep C0 and rebuild the rest of
  /// the commitment on demand (zkedb::EdbProver).
  Bignum hard_c1(const Bignum& r1) const;

  /// Whether a proof-supplied exponent (τ, r1) is in the range
  /// open_equations and tease_equations accept: non-negative and at most
  /// kMaxExponentBits wide. A verifier that was sent only C0 checks an
  /// opening's r1 with it before taking hard_c1(r1).
  static bool exponent_in_range(const Bignum& x);

  /// qHOpen at `pos`.
  QtmcOpening hard_open(const QtmcHardDecommit& dec, std::uint32_t pos) const;

  /// qSOpen of a hard commitment at `pos` (teases to the committed value).
  QtmcTease tease_hard(const QtmcHardDecommit& dec, std::uint32_t pos) const;

  /// qSCom.
  std::pair<QtmcCommitment, QtmcSoftDecommit> soft_commit() const;
  std::pair<QtmcCommitment, QtmcSoftDecommit> soft_commit(
      RandomSource& rng) const;

  /// qSOpen of a soft commitment: tease position `pos` to arbitrary `msg`.
  /// τ's lift (so soft teases are distributed like hard ones) is drawn from
  /// `rng`: a DRBG makes the tease a function of (dec, pos, msg, seed).
  QtmcTease tease_soft(const QtmcSoftDecommit& dec, std::uint32_t pos,
                       BytesView msg, RandomSource& rng) const;

  /// Verifies a hard opening. Never throws on bad input. Equivalent to
  /// emitting open_equations and checking each equation scalar-wise.
  bool verify_open(const QtmcCommitment& com, const QtmcOpening& op,
                   C1Origin origin = C1Origin::kReceived) const;

  /// Verifies a tease. Never throws on bad input.
  bool verify_tease(const QtmcCommitment& com, const QtmcTease& tease) const;

  /// Equation-accumulator flavour of verify_open: runs the structural
  /// checks (position/message/exponent ranges, elements canonical in
  /// [1, (N−1)/2]) and, when they pass, appends the product equations
  /// E1 `h^{r1} == C1` and E2' `Λ^{e_pos}·S_pos^m·h^{r1·τ} == C0` — both
  /// compared in Z_N*/{±1} — to `out`. E2' stands in for the scheme's
  /// `Λ^{e_pos}·S_pos^m·C1^τ == C0`: under E1, C1^τ and h^{r1·τ} name the
  /// same quotient element, so E1 ∧ E2' holds exactly when the textbook
  /// pair does, and the τ power runs on h's fixed-base table instead of a
  /// proof-supplied base (DESIGN.md §5.5). With C1Origin::kDerived the
  /// caller guarantees com.c1 == hard_c1(op.r1), so E1 holds already and
  /// only E2' is appended; com.c1 is not read, so it may be derived after
  /// emission (BatchVerifier::derive_c1). Returns false (appending
  /// nothing) on structural failure. Coprimality of the proof-supplied
  /// elements with N is NOT checked here — consumers enforce it in
  /// aggregate via elements_coprime (one test per opening in the scalar
  /// verifiers, one per fold in BatchVerifier). The opening is valid iff this returns true AND
  /// elements_coprime holds AND every appended equation holds.
  bool open_equations(const QtmcCommitment& com, const QtmcOpening& op,
                      std::vector<RsaEquation>& out,
                      C1Origin origin = C1Origin::kReceived) const;

  /// Equation-accumulator flavour of verify_tease: the one equation
  /// `Λ^{e_pos}·S_pos^m·C1^τ == C0`. A tease reveals no r1, so C1 stays a
  /// generic base.
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

  /// Appends every untrusted element of eqs[begin..end) — generic term
  /// bases and equation RHS values — to `out`, for one aggregated
  /// coprimality test (ModExpContext::all_coprime): a prime divisor of N
  /// divides their product iff it divides some element. Verifiers
  /// aggregate the check — per opening in verify_open/verify_tease, per
  /// fold in BatchVerifier — instead of paying it per element. The
  /// pointers alias `eqs`.
  void collect_elements(const std::vector<RsaEquation>& eqs,
                        std::size_t begin, std::size_t end,
                        std::vector<const Bignum*>& out) const;

  /// collect_elements + ModExpContext::all_coprime over one contiguous
  /// range.
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

  /// Builds fixed-base windowed tables for the CRS bases, turning each
  /// fixed-base exponentiation into ~len/4 Montgomery multiplications with
  /// no squarings. Always: g (sized for the full Λ-exponent width), h and
  /// h̃ — ~14k residues, ≈4.2 MiB at RSA-2048, q=16. With
  /// `position_bases`, every prover constant too: S_i (256-bit exponents),
  /// S_i^{-1}, T_i, U_i^{-1}, W (128-bit) and g^{-1} (tease-width) —
  /// ~41k residues, ≈12 MiB at RSA-2048, q=16. Without a table each power
  /// is a plain exponentiation of the same base, so results never depend
  /// on whether (or when) tables exist. Idempotent and safe to race;
  /// commits/opens/verifies pick the tables up once built.
  ///
  /// Tables live in a process-wide registry keyed by the public key, so
  /// every QtmcScheme instance built from the same CRS (proxy sessions,
  /// participants, cached EdbCrs copies) shares ONE table set — the
  /// Montgomery representation depends only on the modulus. The registry
  /// holds weak references, so a set lives exactly as long as some
  /// instance that adopted it (a CRS no instance holds costs no memory,
  /// however many distinct CRSs a process has seen), and concurrent
  /// builders only serialize per CRS, never across unrelated CRSs.
  void precompute_fixed_bases(bool position_bases = true) const;

  /// Identity of the adopted shared table set (nullptr until
  /// precompute_fixed_bases ran). Diagnostics/tests: equal pointers mean
  /// two instances share the same registry entry.
  const void* fixed_base_tables_id() const;

  /// Serialized size of the modulus in bytes (element width on the wire).
  std::size_t element_len() const { return n_len_; }

 private:
  /// base^exponent through `table` when built, else a plain power.
  Bignum pow(const Bignum& base, const ModExpContext::FixedBaseTable* table,
             const Bignum& exponent) const;
  Bignum pow_g(const Bignum& exponent) const;
  /// g^exponent for a signed exponent: negative ones power g^{-1}.
  Bignum pow_g_signed(const Bignum& exponent) const;
  Bignum pow_h(const Bignum& exponent) const;
  Bignum pow_h_tilde(const Bignum& exponent) const;
  Bignum pow_s(std::uint32_t pos, const Bignum& exponent) const;
  /// S_pos^d for a signed d: negative ones power S_pos^{-1}.
  Bignum pow_s_signed(std::uint32_t pos, const Bignum& d) const;
  /// Λ_pos of a hard decommitment (shared by hard_open and tease_hard).
  Bignum hard_lambda(const QtmcHardDecommit& dec, std::uint32_t pos) const;
  /// Λ = g^{k0}·U_pos^{-m} of a soft tease (shared by tease_soft and the
  /// simulator's fake_open).
  Bignum soft_lambda(std::uint32_t pos, const Bignum& k0,
                     const Bignum& m) const;
  // Lock-free fast-path readers for the adopted fixed-base tables; nullptr
  // until published. Analysis opt-out is sound: each pointer is written
  // exactly once, under fb_mu_, BEFORE the release store of fb_*_ready_;
  // the acquire load in these accessors orders the pointer read after that
  // publication, and the pointed-to tables are immutable from then on.
  // Every unlocked fb_* access in the scheme funnels through these two.
  const QtmcBaseTables* fb_base() const DESWORD_NO_THREAD_SAFETY_ANALYSIS;
  const QtmcPositionTables* fb_pos() const DESWORD_NO_THREAD_SAFETY_ANALYSIS;
  /// Structural checks + emission of the main equation
  /// Λ^{e_pos}·S_pos^m·C1^τ == C0 shared by hard and soft openings. With a
  /// hard opening's `r1` the C1^τ factor is emitted as h^{r1·τ} (E2'); a
  /// tease passes null.
  bool main_equation(const QtmcCommitment& com, std::uint32_t pos,
                     BytesView msg, const Bignum& tau, const Bignum& lambda,
                     const Bignum* r1, std::vector<RsaEquation>& out) const;
  /// x ∈ [1, (N−1)/2]: a nonzero canonical representative of Z_N*/{±1}.
  bool element_canonical(const Bignum& x) const;
  /// gcd(r1, P) == 1, tested as "no e_i divides r1": a soft C1 = g^{r1}
  /// must be invertible in every position's exponent group.
  bool coprime_to_primes(const Bignum& r1) const;

  QtmcPublicKey pk_;
  std::size_t n_len_ = 0;
  Bignum n_half_;  // (N−1)/2: canonical representatives are ≤ this
  std::unique_ptr<ModExpContext> mexp_;  // Montgomery context for N
  std::vector<Bignum> e_;      // primes e_1..e_q
  Bignum prod_all_;            // P = ∏ e_j
  std::vector<Bignum> p_;      // P_i = P/e_i
  std::vector<Bignum> rho_;    // ρ_i = P_i mod e_i
  std::vector<Bignum> s_;      // S_i = g^{P_i}
  std::vector<Bignum> s_inv_;  // S_i^{-1}
  std::vector<Bignum> t_;      // T_i = g^{Σ_{j≠i} P/(e_i·e_j)}
  std::vector<Bignum> u_inv_;  // U_i^{-1}, U_i = g^{P_i div e_i}
  Bignum w_;                   // W = ∏ S_i
  Bignum g_inv_;               // g^{-1}
  Bignum h_tilde_;             // g^P

  // Fixed-base tables (precompute_fixed_bases), adopted from the process-
  // wide per-public-key registry. Written once under fb_mu_, then
  // read-only; fb_*_ready_ gate the lock-free fast paths (the fb_*_table()
  // accessors above) with acquire loads.
  mutable Mutex fb_mu_;
  mutable std::atomic<bool> fb_ready_{false};
  mutable std::atomic<bool> fb_pos_ready_{false};
  mutable std::shared_ptr<const QtmcBaseTables> fb_base_
      DESWORD_GUARDED_BY(fb_mu_);
  mutable std::shared_ptr<const QtmcPositionTables> fb_pos_
      DESWORD_GUARDED_BY(fb_mu_);
};

}  // namespace desword::mercurial
