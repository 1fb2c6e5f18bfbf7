#include "crypto/modexp.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/error.h"
#include "obs/metrics.h"

namespace desword {

namespace {

/// Call counters for the two modexp paths (DESIGN.md §8). Function-local
/// statics would retake the registry lock-free scan per TU anyway; these
/// file-level references bind once at static-init time.
obs::Counter& modexp_calls() {
  static obs::Counter& c = obs::metric("crypto.modexp.calls");
  return c;
}

obs::Counter& fixed_base_hits() {
  static obs::Counter& c = obs::metric("crypto.modexp.fixed_base_hits");
  return c;
}

obs::Counter& multi_exp_calls() {
  static obs::Counter& c = obs::metric("crypto.multi_exp.calls");
  return c;
}

BN_CTX* scratch() {
  // Owned, so a thread that exits (a local ThreadPool's worker) frees it.
  thread_local const std::unique_ptr<BN_CTX, decltype(&BN_CTX_free)> c(
      BN_CTX_new(), &BN_CTX_free);
  if (c == nullptr) throw CryptoError("BN_CTX_new failed");
  return c.get();
}

}  // namespace


namespace {

/// Bits [w·j, w·j + w) of `e` as an unsigned digit.
unsigned window_digit(const BIGNUM* e, int j, int window) {
  unsigned digit = 0;
  for (int b = 0; b < window; ++b) {
    if (BN_is_bit_set(e, j * window + b)) digit |= 1u << b;
  }
  return digit;
}

// The Montgomery-arithmetic interface the algorithms below are written
// over. A backend provides a buffer of residues (`Buf`), handles to one
// residue (`Ref`, `CRef`), and to_mont / mul / copy / from_mont. `mul` may
// alias its output with either input; residues between to_mont and
// from_mont are only ever fed back into mul. load / store move a plain
// residue in and out unconverted (the coprimality fold needs no
// Montgomery form: each product leaves a unit factor R^{-1}).

/// OpenSSL's Montgomery product: one BIGNUM per residue, R = 2^{64·words}.
class BnArith {
 public:
  using Buf = std::vector<Bignum>;
  using Ref = Bignum*;
  using CRef = const Bignum*;

  explicit BnArith(BN_MONT_CTX* mont) : mont_(mont), ctx_(scratch()) {}

  static Buf alloc(std::size_t count) { return Buf(count); }
  static Ref at(Buf& buf, std::size_t i) { return &buf[i]; }
  static CRef at(const Buf& buf, std::size_t i) { return &buf[i]; }
  static void copy(Ref r, CRef a) { *r = *a; }

  /// r ← x in Montgomery form, for x in [0, N).
  void to_mont(Ref r, const Bignum& x) const {
    if (BN_to_montgomery(r->raw(), x.raw(), mont_, ctx_) != 1) {
      throw CryptoError("BN_to_montgomery failed");
    }
  }
  void mul(Ref r, CRef a, CRef b) const {
    if (BN_mod_mul_montgomery(r->raw(), a->raw(), b->raw(), mont_, ctx_) !=
        1) {
      throw CryptoError("BN_mod_mul_montgomery failed");
    }
  }
  Bignum from_mont(CRef a) const {
    Bignum out;
    if (BN_from_montgomery(out.raw(), a->raw(), mont_, ctx_) != 1) {
      throw CryptoError("BN_from_montgomery failed");
    }
    return out;
  }
  /// r ← x, for x in [0, N).
  static void load(Ref r, const Bignum& x) { *r = x; }
  /// The residue a holds, in [0, N).
  static Bignum store(CRef a) { return *a; }

 private:
  BN_MONT_CTX* mont_;
  BN_CTX* ctx_;
};

/// The AVX-512 IFMA product: L limbs per residue in one flat aligned
/// array, R = 2^{52·L}.
class IfmaArith {
 public:
  using Buf = LimbBuffer;
  using Ref = std::uint64_t*;
  using CRef = const std::uint64_t*;

  explicit IfmaArith(const IfmaMontgomery& m) : m_(m), limbs_(m.limbs()) {}

  Buf alloc(std::size_t count) const { return LimbBuffer(count * limbs_); }
  Ref at(Buf& buf, std::size_t i) const { return buf.data() + i * limbs_; }
  CRef at(const Buf& buf, std::size_t i) const {
    return buf.data() + i * limbs_;
  }
  void copy(Ref r, CRef a) const { std::copy_n(a, limbs_, r); }

  void to_mont(Ref r, const Bignum& x) const { m_.to_mont(r, x); }
  void mul(Ref r, CRef a, CRef b) const { m_.mul(r, a, b); }
  Bignum from_mont(CRef a) const { return m_.from_mont(a); }
  /// r ← x, for x in [0, N).
  void load(Ref r, const Bignum& x) const { m_.load(r, x); }
  /// The value a holds, in [0, 2N): the residue or the residue plus N.
  Bignum store(CRef a) const { return m_.store(a); }

 private:
  const IfmaMontgomery& m_;
  std::size_t limbs_;
};

/// Fixed-base rows: entry [j][k−1] = base^(k·2^{wj}) for k in [1, 2^w).
template <class A>
typename A::Buf fixed_base_rows(const A& ar, const Bignum& reduced_base,
                                int blocks, int window, std::size_t row) {
  typename A::Buf table = ar.alloc(static_cast<std::size_t>(blocks) * row);
  // cur = base^(2^{w·j}), advanced block by block.
  typename A::Buf cur = ar.alloc(1);
  const auto c = ar.at(cur, 0);
  ar.to_mont(c, reduced_base);
  for (int j = 0; j < blocks; ++j) {
    const std::size_t first = static_cast<std::size_t>(j) * row;
    ar.copy(ar.at(table, first), c);
    for (std::size_t k = 2; k <= row; ++k) {
      // [j][k−1] = [j][k−2] · cur.
      ar.mul(ar.at(table, first + k - 1), ar.at(table, first + k - 2), c);
    }
    if (j + 1 < blocks) {
      for (int s = 0; s < window; ++s) ar.mul(c, c, c);
    }
  }
  return table;
}

/// base^e from the rows: one product per non-zero w-bit digit of e > 0.
template <class A>
Bignum fixed_base_exp(const A& ar, const typename A::Buf& table,
                      std::size_t row, int window, const Bignum& e) {
  const int blocks = (e.bits() + window - 1) / window;
  typename A::Buf acc_buf = ar.alloc(1);
  const auto acc = ar.at(acc_buf, 0);
  typename A::CRef so_far = nullptr;  // the first entry, until a product
  for (int j = 0; j < blocks; ++j) {
    const unsigned digit = window_digit(e.raw(), j, window);
    if (digit == 0) continue;
    const auto entry =
        ar.at(table, static_cast<std::size_t>(j) * row + (digit - 1));
    if (so_far == nullptr) {
      so_far = entry;
      continue;
    }
    ar.mul(acc, so_far, entry);
    so_far = acc;
  }
  return ar.from_mont(so_far);
}

/// Sliding-window recoding of `e` at width w, scanned from the top bit:
/// each window starts at a set bit, spans at most w bits and is trimmed to
/// end on a set bit, so its value d is odd. Writes d at the window's lowest
/// bit position b — digits[b · stride] — and leaves every other position
/// untouched (the caller zero-fills), so that e = Σ d_b · 2^b.
void sliding_digits(const BIGNUM* e, int window, std::uint8_t* digits,
                    std::size_t stride) {
  for (int top = BN_num_bits(e) - 1; top >= 0;) {
    if (BN_is_bit_set(e, top) == 0) {
      --top;
      continue;
    }
    int low = std::max(top - window + 1, 0);
    while (BN_is_bit_set(e, low) == 0) ++low;
    unsigned d = 0;
    for (int b = top; b >= low; --b) {
      d = (d << 1) | static_cast<unsigned>(BN_is_bit_set(e, b));
    }
    digits[static_cast<std::size_t>(low) * stride] =
        static_cast<std::uint8_t>(d);
    top = low - 1;
  }
}

/// Multiplication-count estimate for sliding-window Straus at window w:
/// per-base odd-power tables (2^{w−1} products each: one squaring, then
/// 2^{w−1} − 1 multiplies) + the shared squaring chain + one multiply per
/// window (≈ L/(w+1) per base: a window covers w bits plus, on average,
/// the one zero bit that separates it from the next).
double straus_cost(std::size_t n, int bits, int w) {
  const double nd = static_cast<double>(n);
  return nd * static_cast<double>(1 << (w - 1)) + bits + nd * bits / (w + 1);
}

/// Pippenger at window w: no per-base tables; every window pays one bucket
/// multiply per base plus ~2·(2^w − 1) multiplies for the suffix-product
/// collapse, on top of the shared squaring chain.
double pippenger_cost(std::size_t n, int bits, int w) {
  const double nd = static_cast<double>(n);
  const double blocks = static_cast<double>((bits + w - 1) / w);
  return nd + bits + blocks * (nd + 2.0 * static_cast<double>((1 << w) - 1));
}

using Terms = std::span<const ModExpContext::ExpTerm* const>;

/// Sliding-window Straus: per-base odd-power tables and one shared
/// squaring chain over the widest exponent.
template <class A>
Bignum multi_exp_straus(const A& ar, const Bignum& modulus,
                        const Terms& terms, int max_bits, int window) {
  const std::size_t n = terms.size();
  const std::size_t row = std::size_t{1} << (window - 1);
  // Per-base odd-power tables: table[i][k] = base_i^{2k+1} (Montgomery).
  typename A::Buf table = ar.alloc(n * row);
  typename A::Buf temps = ar.alloc(2);
  const auto square = ar.at(temps, 0);
  const auto acc = ar.at(temps, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = ar.at(table, i * row);
    ar.to_mont(t0, terms[i]->base.mod(modulus));
    if (row == 1) continue;
    ar.mul(square, t0, t0);
    for (std::size_t k = 1; k < row; ++k) {
      ar.mul(ar.at(table, i * row + k), ar.at(table, i * row + k - 1),
             square);
    }
  }

  // digits[b·n + i]: the odd window of exponent i that ends at bit b, or 0.
  // Bit-major, so the chain's scan over one bit reads a contiguous row.
  std::vector<std::uint8_t> digits(static_cast<std::size_t>(max_bits) * n);
  for (std::size_t i = 0; i < n; ++i) {
    sliding_digits(terms[i]->exponent.raw(), window, &digits[i], n);
  }

  // One squaring chain over the widest exponent, all bases interleaved:
  // each window multiplies in at its lowest set bit.
  bool have_acc = false;
  for (int b = max_bits - 1; b >= 0; --b) {
    if (have_acc) ar.mul(acc, acc, acc);
    const std::uint8_t* at = &digits[static_cast<std::size_t>(b) * n];
    for (std::size_t i = 0; i < n; ++i) {
      if (at[i] == 0) continue;
      const auto entry = ar.at(table, i * row + (at[i] >> 1));
      if (!have_acc) {
        ar.copy(acc, entry);
        have_acc = true;
        continue;
      }
      ar.mul(acc, acc, entry);
    }
  }
  if (!have_acc) return Bignum(1);  // unreachable: exponents are non-zero
  return ar.from_mont(acc);
}

/// Pippenger: per-window digit buckets, collapsed by suffix products.
template <class A>
Bignum multi_exp_pippenger(const A& ar, const Bignum& modulus,
                           const Terms& terms, int max_bits, int window) {
  // Montgomery form of each base, converted once.
  typename A::Buf bases = ar.alloc(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    ar.to_mont(ar.at(bases, i), terms[i]->base.mod(modulus));
  }

  const std::size_t buckets = (std::size_t{1} << window) - 1;
  typename A::Buf bucket = ar.alloc(buckets);
  std::vector<bool> bucket_set(buckets);
  typename A::Buf temps = ar.alloc(3);
  const auto acc = ar.at(temps, 0);
  const auto suffix = ar.at(temps, 1);
  const auto window_sum = ar.at(temps, 2);
  const int blocks = (max_bits + window - 1) / window;
  bool have_acc = false;
  for (int j = blocks - 1; j >= 0; --j) {
    if (have_acc) {
      for (int s = 0; s < window; ++s) ar.mul(acc, acc, acc);
    }
    // bucket[d-1] = product of every base whose j-th window digit is d.
    std::fill(bucket_set.begin(), bucket_set.end(), false);
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const unsigned digit = window_digit(terms[i]->exponent.raw(), j, window);
      if (digit == 0) continue;
      const auto b = ar.at(bucket, digit - 1);
      if (!bucket_set[digit - 1]) {
        ar.copy(b, ar.at(bases, i));
        bucket_set[digit - 1] = true;
      } else {
        ar.mul(b, b, ar.at(bases, i));
      }
    }
    // ∑ d·bucket[d] via running suffix products: S = ∏_{k>=d} bucket[k],
    // T = ∏_d S_d = ∏_d bucket[d]^d, both with plain multiplies.
    bool have_suffix = false;
    bool have_sum = false;
    for (std::size_t d = buckets; d >= 1; --d) {
      if (bucket_set[d - 1]) {
        if (!have_suffix) {
          ar.copy(suffix, ar.at(bucket, d - 1));
          have_suffix = true;
        } else {
          ar.mul(suffix, suffix, ar.at(bucket, d - 1));
        }
      }
      if (have_suffix) {
        if (!have_sum) {
          ar.copy(window_sum, suffix);
          have_sum = true;
        } else {
          ar.mul(window_sum, window_sum, suffix);
        }
      }
    }
    if (have_sum) {
      if (!have_acc) {
        ar.copy(acc, window_sum);
        have_acc = true;
      } else {
        ar.mul(acc, acc, window_sum);
      }
    }
  }
  if (!have_acc) return Bignum(1);  // unreachable: exponents are non-zero
  return ar.from_mont(acc);
}

}  // namespace

template <class F>
decltype(auto) ModExpContext::with_arith(F&& f) const {
  if (ifma_) return f(IfmaArith(*ifma_));
  return f(BnArith(mont_.get()));
}

bool ModExpContext::available(Backend backend, const Bignum& modulus) {
  return backend == Backend::kBn || (IfmaMontgomery::cpu_supported() &&
                                     IfmaMontgomery::zmm_for(modulus) != 0);
}

const char* ModExpContext::backend_name(Backend backend) {
  return backend == Backend::kIfma ? "ifma" : "bn";
}

ModExpContext::ModExpContext(const Bignum& modulus)
    : ModExpContext(modulus, available(Backend::kIfma, modulus)
                                 ? Backend::kIfma
                                 : Backend::kBn) {}

ModExpContext::ModExpContext(const Bignum& modulus, Backend backend)
    : modulus_(modulus) {
  if (!modulus.is_odd() || modulus <= Bignum(1)) {
    throw CryptoError("ModExpContext requires an odd modulus > 1");
  }
  mont_.reset(BN_MONT_CTX_new());
  if (mont_ == nullptr ||
      BN_MONT_CTX_set(mont_.get(), modulus_.raw(), scratch()) != 1) {
    throw CryptoError("BN_MONT_CTX_set failed");
  }
  if (backend == Backend::kIfma) {
    ifma_ = IfmaMontgomery::create(modulus_);
    if (ifma_ == nullptr) {
      throw CryptoError(
          "ModExpContext: the AVX-512 IFMA backend is not available for "
          "this CPU or modulus");
    }
  }
}

ModExpContext::~ModExpContext() = default;

void ModExpContext::MontFree::operator()(BN_MONT_CTX* m) const {
  BN_MONT_CTX_free(m);
}

Bignum ModExpContext::exp(const Bignum& base, const Bignum& exponent) const {
  if (exponent.is_negative()) {
    throw CryptoError("ModExpContext::exp: negative exponent");
  }
  modexp_calls().add();
  if (ifma_) {
    // On the kernel a plain power is a one-term multi-exp: the cost model
    // picks sliding-window Straus (w = 5 for a 256-bit exponent).
    if (exponent.is_zero()) return Bignum(1);
    const ExpTerm term{base, exponent};
    const ExpTerm* const one = &term;
    return multi_exp_live({&one, 1}, exponent.bits());
  }
  Bignum out;
  // Reduce the base first: BN_mod_exp_mont requires base < modulus.
  const Bignum reduced = base.mod(modulus_);
  if (BN_mod_exp_mont(out.raw(), reduced.raw(), exponent.raw(),
                      modulus_.raw(), scratch(), mont_.get()) != 1) {
    throw CryptoError("BN_mod_exp_mont failed");
  }
  return out;
}

Bignum ModExpContext::exp_signed(const Bignum& base,
                                 const Bignum& exponent) const {
  if (!exponent.is_negative()) return exp(base, exponent);
  return Bignum::mod_inverse(exp(base, exponent.negated()), modulus_);
}

ModExpContext::FixedBaseTable ModExpContext::precompute(const Bignum& base,
                                                        int max_bits,
                                                        int window) const {
  if (max_bits <= 0) {
    throw CryptoError("ModExpContext::precompute: max_bits must be > 0");
  }
  if (window < 1 || window > 8) {
    throw CryptoError("ModExpContext::precompute: window out of [1, 8]");
  }
  FixedBaseTable t;
  t.base_ = base.mod(modulus_);
  t.window_ = window;
  t.max_bits_ = max_bits;
  t.row_ = (std::size_t{1} << window) - 1;
  const int blocks = (max_bits + window - 1) / window;
  with_arith([&](const auto& ar) {
    t.entries_ = fixed_base_rows(ar, t.base_, blocks, window, t.row_);
  });
  return t;
}

Bignum ModExpContext::exp(const FixedBaseTable& table,
                          const Bignum& exponent) const {
  if (exponent.is_negative()) {
    throw CryptoError("ModExpContext::exp: negative exponent");
  }
  DESWORD_CHECK(table.backend() == backend(),
                "fixed-base table used under another ModExpContext backend");
  if (exponent.bits() > table.max_bits_) {
    return exp(table.base_, exponent);  // oversized: plain path (counted there)
  }
  modexp_calls().add();
  fixed_base_hits().add();
  if (exponent.is_zero()) return Bignum(1);
  return with_arith([&](const auto& ar) {
    using Buf = typename std::decay_t<decltype(ar)>::Buf;
    return fixed_base_exp(ar, std::get<Buf>(table.entries_), table.row_,
                          table.window_, exponent);
  });
}

Bignum ModExpContext::exp_signed(const FixedBaseTable& table,
                                 const Bignum& exponent) const {
  if (!exponent.is_negative()) return exp(table, exponent);
  return Bignum::mod_inverse(exp(table, exponent.negated()), modulus_);
}

bool ModExpContext::all_coprime(const std::vector<const Bignum*>& xs) const {
  if (xs.empty()) return true;
  const Bignum fold = with_arith([&](const auto& ar) {
    auto buf = ar.alloc(2);
    const auto acc = ar.at(buf, 0);
    const auto next = ar.at(buf, 1);
    // Both backends' products want operands in [0, N).
    const auto load = [&](auto r, const Bignum& x) {
      if (x.is_negative() || x >= modulus_) {
        ar.load(r, x.mod(modulus_));
      } else {
        ar.load(r, x);
      }
    };
    load(acc, *xs[0]);
    for (std::size_t k = 1; k < xs.size(); ++k) {
      load(next, *xs[k]);
      ar.mul(acc, acc, next);
    }
    return ar.store(acc);
  });
  // The kernel leaves the fold in [0, 2N); N and 0 name the same residue.
  const int symbol = BN_kronecker(fold.raw(), modulus_.raw(), scratch());
  if (symbol == -2) throw CryptoError("BN_kronecker failed");
  return symbol != 0;
}

namespace {

/// The live (non-zero-exponent) terms of a product, in input order;
/// throws on a negative exponent.
std::vector<const ModExpContext::ExpTerm*> live_terms(
    const std::vector<ModExpContext::ExpTerm>& terms) {
  std::vector<const ModExpContext::ExpTerm*> live;
  live.reserve(terms.size());
  for (const ModExpContext::ExpTerm& t : terms) {
    if (t.exponent.is_negative()) {
      throw CryptoError("ModExpContext::multi_exp: negative exponent");
    }
    if (!t.exponent.is_zero()) live.push_back(&t);  // b^0 = 1
  }
  return live;
}

int widest(std::span<const ModExpContext::ExpTerm* const> terms) {
  int max_bits = 0;
  for (const ModExpContext::ExpTerm* t : terms) {
    max_bits = std::max(max_bits, t->exponent.bits());
  }
  return max_bits;
}

}  // namespace

Bignum ModExpContext::multi_exp(const std::vector<ExpTerm>& terms) const {
  const std::vector<const ExpTerm*> live = live_terms(terms);
  if (live.empty()) return Bignum(1);
  if (live.size() == 1) return exp(live[0]->base, live[0]->exponent);
  multi_exp_calls().add();
  return multi_exp_live(live, widest(live));
}

std::vector<const ModExpContext::ExpTerm*> ModExpContext::multi_exp_terms(
    const std::vector<ExpTerm>& terms) const {
  std::vector<const ExpTerm*> live = live_terms(terms);
  if (live.size() == 1) modexp_calls().add();
  if (live.size() > 1) multi_exp_calls().add();
  std::stable_sort(live.begin(), live.end(),
                   [](const ExpTerm* a, const ExpTerm* b) {
                     return a->exponent.bits() > b->exponent.bits();
                   });
  return live;
}

Bignum ModExpContext::multi_exp_part(
    std::span<const ExpTerm* const> part) const {
  DESWORD_CHECK(!part.empty(), "ModExpContext::multi_exp_part: empty part");
  return multi_exp_live(part, widest(part));
}

namespace {

/// The algorithm and window multi_exp evaluates a product with.
struct MultiExpPlan {
  double cost;  // estimated multiplications
  int window;
  bool pippenger;
};

/// The algorithm/window pair with the lowest estimated multiplication
/// count. Straus windows are capped at 8 (table memory is n·2^w residues);
/// Pippenger buckets at 12 (2^w residues, amortized over many bases).
MultiExpPlan cheapest_plan(std::size_t n, int max_bits) {
  MultiExpPlan best{straus_cost(n, max_bits, 1), 1, false};
  for (int w = 1; w <= 12; ++w) {
    if (w <= 8) {
      const double c = straus_cost(n, max_bits, w);
      if (c < best.cost) best = {c, w, false};
    }
    const double c = pippenger_cost(n, max_bits, w);
    if (c < best.cost) best = {c, w, true};
  }
  return best;
}

}  // namespace

double ModExpContext::multi_exp_cost(std::size_t n, int max_bits) {
  return cheapest_plan(n, max_bits).cost;
}

Bignum ModExpContext::multi_exp_live(std::span<const ExpTerm* const> terms,
                                     int max_bits) const {
  const MultiExpPlan plan = cheapest_plan(terms.size(), max_bits);
  return with_arith([&](const auto& ar) {
    return plan.pippenger
               ? multi_exp_pippenger(ar, modulus_, terms, max_bits, plan.window)
               : multi_exp_straus(ar, modulus_, terms, max_bits, plan.window);
  });
}

}  // namespace desword
