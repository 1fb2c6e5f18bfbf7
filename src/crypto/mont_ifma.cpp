#include "crypto/mont_ifma.h"

#include <openssl/bn.h>

#include <new>
#include <vector>

#include "common/error.h"

#if defined(__x86_64__)
#include <cpuid.h>
// GCC 12's AVX-512 headers seed some intrinsics' pass-through operand
// with a self-initialized "undefined" vector, which -W(maybe-)uninitialized
// flags wherever they inline (GCC PR 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#if !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#pragma GCC diagnostic pop
#define DESWORD_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))
// The register-array loops below must unroll fully, or the arrays spill.
#if defined(__clang__)
#define DESWORD_UNROLL _Pragma("unroll")
#else
#define DESWORD_UNROLL _Pragma("GCC unroll 8")
#endif
#endif

namespace desword {

namespace {

constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;
constexpr std::align_val_t kLimbAlign{64};

#if defined(__x86_64__)

/// AMM(a, b) for L = 8·Z limbs (see mont_ifma.h). The running sum is split
/// over two sets of Z registers with lanes of up to 64 bits: `xa` takes the
/// a·b_i limb products, which do not wait on the reduction, and `xn` the
/// N·y_i ones, so each set's loop-carried chain is one madd, one lane shift
/// and one madd. A lane takes at most 4·L madds (≤ 256·2^52 at Z = 8), so
/// nothing overflows and carries wait for the end. Lane 0 is owned by the
/// scalar `acc0`: it takes the full 104-bit limb products and the low
/// halves that move into it, so both sets' lane 0 is scratch, and a step's
/// reduction factor y depends on the vectors only through lane 1, read
/// before that step's madds.
template <std::size_t Z>
DESWORD_IFMA_TARGET void amm52(std::uint64_t* res, const std::uint64_t* a,
                               const std::uint64_t* b, const std::uint64_t* n,
                               std::uint64_t k0) {
  constexpr std::size_t kLimbs = 8 * Z;
  const __m512i zero = _mm512_setzero_si512();
  __m512i va[Z];
  __m512i vn[Z];
  __m512i xa[Z];
  __m512i xn[Z];
DESWORD_UNROLL
  for (std::size_t z = 0; z < Z; ++z) {
    va[z] = _mm512_loadu_si512(a + 8 * z);
    vn[z] = _mm512_loadu_si512(n + 8 * z);
    xa[z] = zero;
    xn[z] = zero;
  }
  const std::uint64_t a0 = a[0];
  const std::uint64_t a1 = a[1];
  const std::uint64_t n0 = n[0];
  const std::uint64_t n1 = n[1];
  std::uint64_t acc0 = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    // Lane 1 as it stands before this step's madds: it becomes lane 0.
    const auto lane1 = static_cast<std::uint64_t>(
        _mm_extract_epi64(_mm512_castsi512_si128(xa[0]), 1) +
        _mm_extract_epi64(_mm512_castsi512_si128(xn[0]), 1));
    const std::uint64_t bi = b[i];
    unsigned __int128 t = static_cast<unsigned __int128>(a0) * bi + acc0;
    const std::uint64_t y = (static_cast<std::uint64_t>(t) * k0) & kMask52;
    t += static_cast<unsigned __int128>(n0) * y;
    // t ≡ 0 mod 2^52: its carry plus the new lane 0's low halves.
    acc0 = static_cast<std::uint64_t>(t >> 52) + lane1 +
           ((a1 * bi) & kMask52) + ((n1 * y) & kMask52);
    const __m512i vb = _mm512_set1_epi64(static_cast<long long>(bi));
    const __m512i vy = _mm512_set1_epi64(static_cast<long long>(y));
DESWORD_UNROLL
    for (std::size_t z = 0; z < Z; ++z) {
      xa[z] = _mm512_madd52lo_epu64(xa[z], va[z], vb);
      xn[z] = _mm512_madd52lo_epu64(xn[z], vn[z], vy);
    }
    // Divide by 2^52: every lane moves down one.
DESWORD_UNROLL
    for (std::size_t z = 0; z + 1 < Z; ++z) {
      xa[z] = _mm512_alignr_epi64(xa[z + 1], xa[z], 1);
      xn[z] = _mm512_alignr_epi64(xn[z + 1], xn[z], 1);
    }
    xa[Z - 1] = _mm512_alignr_epi64(zero, xa[Z - 1], 1);
    xn[Z - 1] = _mm512_alignr_epi64(zero, xn[Z - 1], 1);
    // High halves weigh 2^52 more than their limbs: after the shift they
    // land on the limb's own lane.
DESWORD_UNROLL
    for (std::size_t z = 0; z < Z; ++z) {
      xa[z] = _mm512_madd52hi_epu64(xa[z], va[z], vb);
      xn[z] = _mm512_madd52hi_epu64(xn[z], vn[z], vy);
    }
  }
  __m512i acc[Z];
DESWORD_UNROLL
  for (std::size_t z = 0; z < Z; ++z) acc[z] = _mm512_add_epi64(xa[z], xn[z]);
  acc[0] = _mm512_mask_set1_epi64(acc[0], 1, static_cast<long long>(acc0));

  // Normalize. One pass moves every lane's bits above 52 up a lane; lanes
  // are then at most 2^52 + 2^12, so what is left is a one-bit ripple:
  // lane i takes a carry when lane i−1 overflows (g) or is all ones (p)
  // and took one itself — the carries of the integer sum (g << 1) + p.
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  __m512i carry[Z];
DESWORD_UNROLL
  for (std::size_t z = 0; z < Z; ++z) {
    carry[z] = _mm512_srli_epi64(acc[z], 52);
    acc[z] = _mm512_and_si512(acc[z], mask);
  }
  acc[0] = _mm512_add_epi64(acc[0], _mm512_alignr_epi64(carry[0], zero, 7));
DESWORD_UNROLL
  for (std::size_t z = 1; z < Z; ++z) {
    acc[z] = _mm512_add_epi64(acc[z],
                              _mm512_alignr_epi64(carry[z], carry[z - 1], 7));
  }
  std::uint64_t g = 0;
  std::uint64_t p = 0;
DESWORD_UNROLL
  for (std::size_t z = 0; z < Z; ++z) {
    g |= static_cast<std::uint64_t>(_mm512_cmpgt_epu64_mask(acc[z], mask))
         << (8 * z);
    p |= static_cast<std::uint64_t>(_mm512_cmpeq_epu64_mask(acc[z], mask))
         << (8 * z);
  }
  const std::uint64_t ripple = ((g << 1) + p) ^ p;
  const __m512i one = _mm512_set1_epi64(1);
DESWORD_UNROLL
  for (std::size_t z = 0; z < Z; ++z) {
    const auto lanes = static_cast<__mmask8>(ripple >> (8 * z));
    acc[z] = _mm512_and_si512(_mm512_mask_add_epi64(acc[z], lanes, acc[z], one),
                              mask);
    _mm512_storeu_si512(res + 8 * z, acc[z]);
  }
}

IfmaMontgomery::MulFn kernel_for(int zmm) {
  switch (zmm) {
    case 1: return &amm52<1>;
    case 2: return &amm52<2>;
    case 3: return &amm52<3>;
    case 4: return &amm52<4>;
    case 5: return &amm52<5>;
    case 6: return &amm52<6>;
    case 7: return &amm52<7>;
    case 8: return &amm52<8>;
    default: return nullptr;
  }
}

bool detect_ifma() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kOsxsave = 1U << 27;
  if ((ecx & kOsxsave) == 0) return false;
  unsigned xcr0 = 0;
  unsigned xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
  (void)xcr0_hi;  // the state bits checked here all sit in the low word
  // SSE, AVX, opmask, ZMM0–15 upper halves and ZMM16–31 state.
  constexpr unsigned kZmmState = 0xe6;
  if ((xcr0 & kZmmState) != kZmmState) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kAvx512f = 1U << 16;
  constexpr unsigned kAvx512ifma = 1U << 21;
  return (ebx & kAvx512f) != 0 && (ebx & kAvx512ifma) != 0;
}

#else

IfmaMontgomery::MulFn kernel_for(int /*zmm*/) { return nullptr; }
bool detect_ifma() { return false; }

#endif

/// −n0^{−1} mod 2^52 for odd n0 (Newton: each step doubles the bits).
std::uint64_t neg_inverse52(std::uint64_t n0) {
  std::uint64_t inv = n0;  // correct to 3 bits for odd n0
  for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;
  return (0 - inv) & kMask52;
}

}  // namespace

LimbBuffer::LimbBuffer(std::size_t limbs)
    : limbs_(static_cast<std::uint64_t*>(::operator new(
          limbs * sizeof(std::uint64_t), kLimbAlign))),
      size_(limbs) {
  for (std::size_t i = 0; i < limbs; ++i) limbs_[i] = 0;
}

void LimbBuffer::Free::operator()(std::uint64_t* p) const {
  ::operator delete(p, kLimbAlign);
}

bool IfmaMontgomery::cpu_supported() {
  static const bool supported = detect_ifma();
  return supported;
}

int IfmaMontgomery::zmm_for(const Bignum& modulus) {
  constexpr int kBitsPerZmm = 8 * 52;
  const int zmm = (modulus.bits() + 2 + kBitsPerZmm - 1) / kBitsPerZmm;
  return zmm <= kMaxZmm ? zmm : 0;
}

std::unique_ptr<const IfmaMontgomery> IfmaMontgomery::create(
    const Bignum& modulus) {
  const int zmm = zmm_for(modulus);
  if (!cpu_supported() || zmm == 0 || kernel_for(zmm) == nullptr) {
    return nullptr;
  }
  // NOLINTNEXTLINE(modernize-make-unique): the constructor is private.
  return std::unique_ptr<const IfmaMontgomery>(
      new IfmaMontgomery(modulus, zmm));
}

IfmaMontgomery::IfmaMontgomery(const Bignum& modulus, int zmm)
    : zmm_(zmm),
      limbs_(static_cast<std::size_t>(8 * zmm)),
      mul_(kernel_for(zmm)),
      n_(limbs_),
      rr_(limbs_),
      one_(limbs_) {
  if (!modulus.is_odd() || modulus <= Bignum(1)) {
    throw CryptoError("IfmaMontgomery requires an odd modulus > 1");
  }
  load(n_.data(), modulus);
  k0_ = neg_inverse52(n_.data()[0]);
  Bignum r2;  // 2^{2·52L}
  if (BN_set_bit(r2.raw(), static_cast<int>(2 * 52 * limbs_)) != 1) {
    throw CryptoError("BN_set_bit failed");
  }
  load(rr_.data(), r2.mod(modulus));
  one_.data()[0] = 1;
}

void IfmaMontgomery::load(std::uint64_t* r, const Bignum& x) const {
  // Little-endian bytes with 8 bytes of slack, so every limb is one
  // unaligned 8-byte read shifted by 0 or 4 bits.
  const std::size_t len = limbs_ * 52 / 8;
  std::vector<unsigned char> bytes(len + 8, 0);
  if (BN_bn2lebinpad(x.raw(), bytes.data(), static_cast<int>(len)) < 0) {
    throw CryptoError("IfmaMontgomery::load: value does not fit");
  }
  for (std::size_t i = 0; i < limbs_; ++i) {
    const std::size_t bit = 52 * i;
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      word |= static_cast<std::uint64_t>(bytes[bit / 8 + k]) << (8 * k);
    }
    r[i] = (word >> (bit % 8)) & kMask52;
  }
}

Bignum IfmaMontgomery::store(const std::uint64_t* a) const {
  std::vector<unsigned char> bytes(limbs_ * 52 / 8, 0);
  std::uint64_t window = 0;  // pending bits, least significant first
  int pending = 0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < limbs_; ++i) {
    // pending < 8 here, so 52 more bits fit in the 64-bit window.
    window |= (a[i] & kMask52) << pending;
    pending += 52;
    while (pending >= 8) {
      bytes[out++] = static_cast<unsigned char>(window);
      window >>= 8;
      pending -= 8;
    }
  }
  Bignum x;
  if (BN_lebin2bn(bytes.data(), static_cast<int>(bytes.size()), x.raw()) ==
      nullptr) {
    throw CryptoError("BN_lebin2bn failed");
  }
  return x;
}

void IfmaMontgomery::to_mont(std::uint64_t* r, const Bignum& x) const {
  load(r, x);
  mul(r, r, rr_.data());
}

Bignum IfmaMontgomery::from_mont(const std::uint64_t* a) const {
  LimbBuffer t(limbs_);
  mul(t.data(), a, one_.data());  // in [0, N]
  // t − N with a borrow chain; keep it unless it borrowed out (t < N).
  LimbBuffer d(limbs_);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_; ++i) {
    const std::uint64_t diff = t.data()[i] - n_.data()[i] - borrow;
    borrow = diff >> 63;
    d.data()[i] = diff & kMask52;
  }
  const std::uint64_t keep_t = 0 - borrow;  // all ones iff t < N
  for (std::size_t i = 0; i < limbs_; ++i) {
    t.data()[i] = (t.data()[i] & keep_t) | (d.data()[i] & ~keep_t);
  }
  return store(t.data());
}

}  // namespace desword
