#include "crypto/modexp.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/error.h"
#include "common/thread_pool.h"
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

ModExpContext::ModExpContext(const Bignum& modulus)
    : modulus_(modulus), mont_(BN_MONT_CTX_new()) {
  if (!modulus.is_odd() || modulus <= Bignum(1)) {
    BN_MONT_CTX_free(mont_);
    throw CryptoError("ModExpContext requires an odd modulus > 1");
  }
  if (mont_ == nullptr ||
      BN_MONT_CTX_set(mont_, modulus_.raw(), scratch()) != 1) {
    BN_MONT_CTX_free(mont_);
    throw CryptoError("BN_MONT_CTX_set failed");
  }
}

ModExpContext::~ModExpContext() { BN_MONT_CTX_free(mont_); }

Bignum ModExpContext::exp(const Bignum& base, const Bignum& exponent) const {
  if (exponent.is_negative()) {
    throw CryptoError("ModExpContext::exp: negative exponent");
  }
  modexp_calls().add();
  Bignum out;
  // Reduce the base first: BN_mod_exp_mont requires base < modulus.
  const Bignum reduced = base.mod(modulus_);
  if (BN_mod_exp_mont(out.raw(), reduced.raw(), exponent.raw(),
                      modulus_.raw(), scratch(), mont_) != 1) {
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
  t.table_.resize(static_cast<std::size_t>(blocks) * t.row_);

  BN_CTX* ctx = scratch();
  // cur = base^(2^{w·j}) in Montgomery form, advanced block by block.
  Bignum cur;
  if (BN_to_montgomery(cur.raw(), t.base_.raw(), mont_, ctx) != 1) {
    throw CryptoError("BN_to_montgomery failed");
  }
  for (int j = 0; j < blocks; ++j) {
    Bignum* row = &t.table_[static_cast<std::size_t>(j) * t.row_];
    row[0] = cur;
    for (std::size_t k = 2; k <= t.row_; ++k) {
      // row[k-1] = base^(k·2^{wj}) = row[k-2] · cur.
      if (BN_mod_mul_montgomery(row[k - 1].raw(), row[k - 2].raw(), cur.raw(),
                                mont_, ctx) != 1) {
        throw CryptoError("BN_mod_mul_montgomery failed");
      }
    }
    if (j + 1 < blocks) {
      for (int s = 0; s < window; ++s) {
        if (BN_mod_mul_montgomery(cur.raw(), cur.raw(), cur.raw(), mont_,
                                  ctx) != 1) {
          throw CryptoError("BN_mod_mul_montgomery failed");
        }
      }
    }
  }
  return t;
}

Bignum ModExpContext::exp(const FixedBaseTable& table,
                          const Bignum& exponent) const {
  if (exponent.is_negative()) {
    throw CryptoError("ModExpContext::exp: negative exponent");
  }
  if (exponent.bits() > table.max_bits_) {
    return exp(table.base_, exponent);  // oversized: plain path (counted there)
  }
  modexp_calls().add();
  fixed_base_hits().add();
  if (exponent.is_zero()) return Bignum(1);

  BN_CTX* ctx = scratch();
  const int window = table.window_;
  const int blocks = (exponent.bits() + window - 1) / window;
  Bignum acc;
  bool have_acc = false;
  for (int j = 0; j < blocks; ++j) {
    unsigned digit = 0;
    for (int b = 0; b < window; ++b) {
      if (BN_is_bit_set(exponent.raw(), j * window + b)) digit |= 1u << b;
    }
    if (digit == 0) continue;
    const Bignum& entry =
        table.table_[static_cast<std::size_t>(j) * table.row_ + (digit - 1)];
    if (!have_acc) {
      acc = entry;
      have_acc = true;
      continue;
    }
    if (BN_mod_mul_montgomery(acc.raw(), acc.raw(), entry.raw(), mont_,
                              ctx) != 1) {
      throw CryptoError("BN_mod_mul_montgomery failed");
    }
  }
  Bignum out;
  if (BN_from_montgomery(out.raw(), acc.raw(), mont_, ctx) != 1) {
    throw CryptoError("BN_from_montgomery failed");
  }
  return out;
}

Bignum ModExpContext::exp_signed(const FixedBaseTable& table,
                                 const Bignum& exponent) const {
  if (!exponent.is_negative()) return exp(table, exponent);
  return Bignum::mod_inverse(exp(table, exponent.negated()), modulus_);
}

void ModExpContext::mont_mul_into(Bignum& acc, const Bignum& x) const {
  // BN_mod_mul_montgomery wants both operands in [0, N); acc stays there.
  Bignum reduced;
  const BIGNUM* y = x.raw();
  if (x.is_negative() || x >= modulus_) {
    reduced = x.mod(modulus_);
    y = reduced.raw();
  }
  if (BN_mod_mul_montgomery(acc.raw(), acc.raw(), y, mont_, scratch()) != 1) {
    throw CryptoError("BN_mod_mul_montgomery failed");
  }
}

bool ModExpContext::coprime(const Bignum& x) const {
  const int symbol = BN_kronecker(x.raw(), modulus_.raw(), scratch());
  if (symbol == -2) throw CryptoError("BN_kronecker failed");
  return symbol != 0;
}

namespace {

/// Bits [w·j, w·j + w) of `e` as an unsigned digit.
unsigned window_digit(const BIGNUM* e, int j, int window) {
  unsigned digit = 0;
  for (int b = 0; b < window; ++b) {
    if (BN_is_bit_set(e, j * window + b)) digit |= 1u << b;
  }
  return digit;
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

}  // namespace

Bignum ModExpContext::multi_exp(const std::vector<ExpTerm>& terms,
                                ThreadPool* pool) const {
  std::vector<const ExpTerm*> live;
  live.reserve(terms.size());
  int max_bits = 0;
  for (const ExpTerm& t : terms) {
    if (t.exponent.is_negative()) {
      throw CryptoError("ModExpContext::multi_exp: negative exponent");
    }
    if (t.exponent.is_zero()) continue;  // b^0 = 1
    max_bits = std::max(max_bits, t.exponent.bits());
    live.push_back(&t);
  }
  if (live.empty()) return Bignum(1);
  if (live.size() == 1) return exp(live[0]->base, live[0]->exponent);
  multi_exp_calls().add();

  // Below kMinChunkTerms terms per chunk the duplicated squaring chains
  // and table set-ups outweigh the parallel speedup.
  constexpr std::size_t kMinChunkTerms = 8;
  const std::size_t chunks =
      pool == nullptr
          ? 1
          : std::min<std::size_t>(pool->concurrency(),
                                  live.size() / kMinChunkTerms);
  if (chunks <= 1) return multi_exp_live(live, max_bits);

  // Widest exponents first, so each chunk's squaring chain serves terms of
  // similar width; cut where the running bit total crosses the next
  // multiple of total / chunks.
  std::stable_sort(live.begin(), live.end(),
                   [](const ExpTerm* a, const ExpTerm* b) {
                     return a->exponent.bits() > b->exponent.bits();
                   });
  std::uint64_t total_bits = 0;
  for (const ExpTerm* t : live) {
    total_bits += static_cast<std::uint64_t>(t->exponent.bits());
  }
  std::vector<std::size_t> cut{0};
  std::uint64_t running = 0;
  for (std::size_t i = 0; i + 1 < live.size() && cut.size() < chunks; ++i) {
    running += static_cast<std::uint64_t>(live[i]->exponent.bits());
    if (running * chunks >= total_bits * cut.size()) cut.push_back(i + 1);
  }
  cut.push_back(live.size());

  std::vector<Bignum> partial(cut.size() - 1);
  parallel_for(pool, partial.size(), [&](std::size_t c) {
    const std::vector<const ExpTerm*> part(
        live.begin() + static_cast<std::ptrdiff_t>(cut[c]),
        live.begin() + static_cast<std::ptrdiff_t>(cut[c + 1]));
    partial[c] = multi_exp_live(part, part.front()->exponent.bits());
  });
  Bignum out = std::move(partial[0]);
  for (std::size_t c = 1; c < partial.size(); ++c) {
    out = Bignum::mod_mul(out, partial[c], modulus_);
  }
  return out;
}

Bignum ModExpContext::multi_exp_live(const std::vector<const ExpTerm*>& terms,
                                     int max_bits) const {
  // Pick the algorithm/window pair with the lowest estimated multiplication
  // count. Straus windows are capped at 8 (table memory is n·2^w residues);
  // Pippenger buckets at 12 (2^w residues, amortized over many bases).
  double best_cost = straus_cost(terms.size(), max_bits, 1);
  bool use_pippenger = false;
  int best_w = 1;
  for (int w = 1; w <= 12; ++w) {
    if (w <= 8) {
      const double c = straus_cost(terms.size(), max_bits, w);
      if (c < best_cost) {
        best_cost = c;
        best_w = w;
        use_pippenger = false;
      }
    }
    const double c = pippenger_cost(terms.size(), max_bits, w);
    if (c < best_cost) {
      best_cost = c;
      best_w = w;
      use_pippenger = true;
    }
  }
  return use_pippenger ? multi_exp_pippenger(terms, max_bits, best_w)
                       : multi_exp_straus(terms, max_bits, best_w);
}

Bignum ModExpContext::multi_exp_straus(const std::vector<const ExpTerm*>& terms,
                                       int max_bits, int window) const {
  BN_CTX* ctx = scratch();
  const std::size_t n = terms.size();
  const std::size_t row = std::size_t{1} << (window - 1);
  // Per-base odd-power tables: table[i][k] = base_i^{2k+1} (Montgomery).
  std::vector<Bignum> table(n * row);
  Bignum square;
  for (std::size_t i = 0; i < n; ++i) {
    Bignum* t = &table[i * row];
    const Bignum reduced = terms[i]->base.mod(modulus_);
    if (BN_to_montgomery(t[0].raw(), reduced.raw(), mont_, ctx) != 1) {
      throw CryptoError("BN_to_montgomery failed");
    }
    if (row == 1) continue;
    if (BN_mod_mul_montgomery(square.raw(), t[0].raw(), t[0].raw(), mont_,
                              ctx) != 1) {
      throw CryptoError("BN_mod_mul_montgomery failed");
    }
    for (std::size_t k = 1; k < row; ++k) {
      if (BN_mod_mul_montgomery(t[k].raw(), t[k - 1].raw(), square.raw(),
                                mont_, ctx) != 1) {
        throw CryptoError("BN_mod_mul_montgomery failed");
      }
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
  Bignum acc;
  bool have_acc = false;
  for (int b = max_bits - 1; b >= 0; --b) {
    if (have_acc && BN_mod_mul_montgomery(acc.raw(), acc.raw(), acc.raw(),
                                          mont_, ctx) != 1) {
      throw CryptoError("BN_mod_mul_montgomery failed");
    }
    const std::uint8_t* at = &digits[static_cast<std::size_t>(b) * n];
    for (std::size_t i = 0; i < n; ++i) {
      if (at[i] == 0) continue;
      const Bignum& entry = table[i * row + (at[i] >> 1)];
      if (!have_acc) {
        acc = entry;
        have_acc = true;
        continue;
      }
      if (BN_mod_mul_montgomery(acc.raw(), acc.raw(), entry.raw(), mont_,
                                ctx) != 1) {
        throw CryptoError("BN_mod_mul_montgomery failed");
      }
    }
  }
  if (!have_acc) return Bignum(1);  // unreachable: exponents are non-zero
  Bignum out;
  if (BN_from_montgomery(out.raw(), acc.raw(), mont_, ctx) != 1) {
    throw CryptoError("BN_from_montgomery failed");
  }
  return out;
}

Bignum ModExpContext::multi_exp_pippenger(
    const std::vector<const ExpTerm*>& terms, int max_bits, int window) const {
  BN_CTX* ctx = scratch();
  // Montgomery form of each base, converted once.
  std::vector<Bignum> bases(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const Bignum reduced = terms[i]->base.mod(modulus_);
    if (BN_to_montgomery(bases[i].raw(), reduced.raw(), mont_, ctx) != 1) {
      throw CryptoError("BN_to_montgomery failed");
    }
  }

  const std::size_t buckets = (std::size_t{1} << window) - 1;
  std::vector<Bignum> bucket(buckets);
  std::vector<bool> bucket_set(buckets);
  const int blocks = (max_bits + window - 1) / window;
  Bignum acc;
  bool have_acc = false;
  auto mont_mul_into = [&](Bignum& dst, const Bignum& a, const Bignum& b) {
    if (BN_mod_mul_montgomery(dst.raw(), a.raw(), b.raw(), mont_, ctx) != 1) {
      throw CryptoError("BN_mod_mul_montgomery failed");
    }
  };
  for (int j = blocks - 1; j >= 0; --j) {
    if (have_acc) {
      for (int s = 0; s < window; ++s) mont_mul_into(acc, acc, acc);
    }
    // bucket[d-1] = product of every base whose j-th window digit is d.
    std::fill(bucket_set.begin(), bucket_set.end(), false);
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const unsigned digit = window_digit(terms[i]->exponent.raw(), j, window);
      if (digit == 0) continue;
      Bignum& b = bucket[digit - 1];
      if (!bucket_set[digit - 1]) {
        b = bases[i];
        bucket_set[digit - 1] = true;
      } else {
        mont_mul_into(b, b, bases[i]);
      }
    }
    // ∑ d·bucket[d] via running suffix products: S = ∏_{k>=d} bucket[k],
    // T = ∏_d S_d = ∏_d bucket[d]^d, both with plain multiplies.
    Bignum suffix, window_sum;
    bool have_suffix = false, have_sum = false;
    for (std::size_t d = buckets; d >= 1; --d) {
      if (bucket_set[d - 1]) {
        if (!have_suffix) {
          suffix = bucket[d - 1];
          have_suffix = true;
        } else {
          mont_mul_into(suffix, suffix, bucket[d - 1]);
        }
      }
      if (have_suffix) {
        if (!have_sum) {
          window_sum = suffix;
          have_sum = true;
        } else {
          mont_mul_into(window_sum, window_sum, suffix);
        }
      }
    }
    if (have_sum) {
      if (!have_acc) {
        acc = window_sum;
        have_acc = true;
      } else {
        mont_mul_into(acc, acc, window_sum);
      }
    }
  }
  if (!have_acc) return Bignum(1);  // unreachable: exponents are non-zero
  Bignum out;
  if (BN_from_montgomery(out.raw(), acc.raw(), mont_, ctx) != 1) {
    throw CryptoError("BN_from_montgomery failed");
  }
  return out;
}

}  // namespace desword
