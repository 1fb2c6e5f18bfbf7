// Figure 4 — running time of the qTMC scheme with a sequence of q messages.
//
//   Fig. 4(a): algorithms touching hard commitments — qKGen, qHCom, qHOpen
//              and qSOpen-of-a-hard-commitment — grow linearly with q on
//              vectors of distinct messages. The `_trie` cases commit the
//              vector a ZK-EDB trie node holds (one real child digest, the
//              shared soft digest elsewhere): those are flat in q.
//   Fig. 4(b): algorithms touching soft commitments — qSCom and
//              qSOpen-of-a-soft-commitment — are constant in q, as is
//              verification (Fig4x, on the fixed-base tables every
//              deployment builds).
//   MultiExp:  one single-threaded ModExpContext::multi_exp at the shapes
//              a membership fold evaluates (bases × exponent bits).
//   MontMul, FixedBaseExp: one Montgomery product, and one fixed-base power
//              at the S_i (256-bit) and g (2440-bit, q = 16) widths, on
//              each ModExpContext backend (OpenSSL BN, AVX-512 IFMA).
//
// The paper runs the pairing-based Libert–Yung scheme on jPBC; this build
// runs the strong-RSA instantiation (DESIGN.md §2), so absolute numbers
// differ while the q-scaling shape is the comparison target.
#include <benchmark/benchmark.h>
#include <openssl/bn.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "crypto/modexp.h"
#include "crypto/mont_ifma.h"

namespace {

using desword::Bytes;
using desword::benchutil::bench_messages;
using desword::benchutil::q_sweep;
using desword::benchutil::qtmc_for;
using desword::benchutil::rsa_bits;
using desword::mercurial::QtmcScheme;

void BM_qKGen(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  // Key generation = RSA modulus sampling + deterministic derivation of
  // the e_i primes and S_i power tables. The derivation dominates and is
  // what scales with q.
  for (auto _ : state) {
    auto keys = QtmcScheme::keygen(q, rsa_bits());
    QtmcScheme scheme(std::move(keys.pk));
    benchmark::DoNotOptimize(scheme.arity());
  }
}

void BM_qHCom(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  QtmcScheme& scheme = qtmc_for(q);
  const auto msgs = bench_messages(q);
  for (auto _ : state) {
    auto pair = scheme.hard_commit(msgs);
    benchmark::DoNotOptimize(pair.first.c0);
  }
}

void BM_qHOpen(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  QtmcScheme& scheme = qtmc_for(q);
  const auto msgs = bench_messages(q);
  const auto [com, dec] = scheme.hard_commit(msgs);
  std::uint32_t pos = 0;
  for (auto _ : state) {
    auto op = scheme.hard_open(dec, pos);
    pos = (pos + 1) % q;
    benchmark::DoNotOptimize(op.lambda);
  }
}

/// A trie node's vector: the real child at position 0, the shared soft
/// backing digest at every other position.
std::vector<Bytes> trie_messages(std::uint32_t q) {
  std::vector<Bytes> msgs(q, desword::hash_to_128("bench-backing", {}));
  msgs[0] = desword::hash_to_128("bench-child", {});
  return msgs;
}

void BM_qHCom_trie(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  QtmcScheme& scheme = qtmc_for(q);
  const auto msgs = trie_messages(q);
  for (auto _ : state) {
    auto pair = scheme.hard_commit(msgs);
    benchmark::DoNotOptimize(pair.first.c0);
  }
}

void BM_qHOpen_trie(benchmark::State& state) {
  // A membership proof opens every trie node at its real child.
  const auto q = static_cast<std::uint32_t>(state.range(0));
  QtmcScheme& scheme = qtmc_for(q);
  const auto [com, dec] = scheme.hard_commit(trie_messages(q));
  for (auto _ : state) {
    auto op = scheme.hard_open(dec, 0);
    benchmark::DoNotOptimize(op.lambda);
  }
}

void BM_qSOpen_hard(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  QtmcScheme& scheme = qtmc_for(q);
  const auto msgs = bench_messages(q);
  const auto [com, dec] = scheme.hard_commit(msgs);
  std::uint32_t pos = 0;
  for (auto _ : state) {
    auto tease = scheme.tease_hard(dec, pos);
    pos = (pos + 1) % q;
    benchmark::DoNotOptimize(tease.lambda);
  }
}

void BM_qSCom(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  QtmcScheme& scheme = qtmc_for(q);
  for (auto _ : state) {
    auto pair = scheme.soft_commit();
    benchmark::DoNotOptimize(pair.first.c0);
  }
}

void BM_qSOpen_soft(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  QtmcScheme& scheme = qtmc_for(q);
  const auto [com, dec] = scheme.soft_commit();
  const auto msgs = bench_messages(q);
  std::uint32_t pos = 0;
  for (auto _ : state) {
    auto tease = scheme.tease_soft(dec, pos, msgs[pos], desword::system_random());
    pos = (pos + 1) % q;
    benchmark::DoNotOptimize(tease.lambda);
  }
}

void BM_qVerOpen(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  QtmcScheme& scheme = qtmc_for(q);
  scheme.precompute_fixed_bases();
  const auto msgs = bench_messages(q);
  const auto [com, dec] = scheme.hard_commit(msgs);
  const auto op = scheme.hard_open(dec, q / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.verify_open(com, op));
  }
}

void BM_qVerTease(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  QtmcScheme& scheme = qtmc_for(q);
  scheme.precompute_fixed_bases();
  const auto msgs = bench_messages(q);
  const auto [com, dec] = scheme.hard_commit(msgs);
  const auto tease = scheme.tease_hard(dec, q / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.verify_tease(com, tease));
  }
}

/// n random bases under the benchmark modulus, each with a random
/// exponent of exactly `bits` bits: 47 × 264 and 64 × 128 are the LHS and
/// RHS of a q = 16, h = 32 ownership fold, 80 × 384 a wider fold.
void BM_MultiExp(benchmark::State& state, std::size_t n, int bits) {
  const desword::ModExpContext& mexp = qtmc_for(8).modexp_context();
  std::vector<desword::ModExpContext::ExpTerm> terms;
  for (std::size_t i = 0; i < n; ++i) {
    terms.push_back({desword::Bignum::rand_range(mexp.modulus()),
                     desword::Bignum::rand_bits(bits)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mexp.multi_exp(terms));
  }
}

using Backend = desword::ModExpContext::Backend;

/// A chain of Montgomery products x ← x·y at the benchmark modulus, each
/// waiting on the one before: OpenSSL's BN_mod_mul_montgomery, or the IFMA
/// kernel on its limb arrays.
void BM_MontMul(benchmark::State& state, Backend backend) {
  const desword::Bignum& n = qtmc_for(8).modexp_context().modulus();
  if (!desword::ModExpContext::available(backend, n)) {
    state.SkipWithError("AVX-512 IFMA unavailable on this CPU");
    return;
  }
  const desword::Bignum x = desword::Bignum::rand_range(n);
  const desword::Bignum y = desword::Bignum::rand_range(n);
  if (backend == Backend::kIfma) {
    const auto m = desword::IfmaMontgomery::create(n);
    desword::LimbBuffer acc(m->limbs());
    desword::LimbBuffer mul(m->limbs());
    m->to_mont(acc.data(), x);
    m->to_mont(mul.data(), y);
    for (auto _ : state) {
      m->mul(acc.data(), acc.data(), mul.data());
      benchmark::DoNotOptimize(acc.data());
    }
    return;
  }
  // OpenSSL's own product is the measurement here, so this cell builds
  // the context ModExpContext would otherwise own.
  using MontCtx = std::unique_ptr<BN_MONT_CTX, decltype(&BN_MONT_CTX_free)>;
  const MontCtx mont(BN_MONT_CTX_new(),  // desword-lint: allow(modexp)
                     &BN_MONT_CTX_free);
  const std::unique_ptr<BN_CTX, decltype(&BN_CTX_free)> bn_ctx(
      BN_CTX_new(), &BN_CTX_free);
  BN_MONT_CTX_set(mont.get(), n.raw(),  // desword-lint: allow(modexp)
                  bn_ctx.get());
  desword::Bignum acc = x;
  for (auto _ : state) {
    BN_mod_mul_montgomery(acc.raw(), acc.raw(), y.raw(), mont.get(),
                          bn_ctx.get());
    benchmark::DoNotOptimize(acc.raw());
  }
}

/// One fixed-base power through a 4-bit table at `bits`-bit exponents.
void BM_FixedBaseExp(benchmark::State& state, Backend backend, int bits) {
  const desword::Bignum& n = qtmc_for(8).modexp_context().modulus();
  if (!desword::ModExpContext::available(backend, n)) {
    state.SkipWithError("AVX-512 IFMA unavailable on this CPU");
    return;
  }
  const desword::ModExpContext ctx(n, backend);
  const auto table = ctx.precompute(desword::Bignum::rand_range(n), bits);
  std::vector<desword::Bignum> exps;
  for (int i = 0; i < 16; ++i) exps.push_back(desword::Bignum::rand_bits(bits));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.exp(table, exps[i++ % exps.size()]));
  }
}

void register_all() {
  for (const Backend backend : {Backend::kBn, Backend::kIfma}) {
    const std::string name = desword::ModExpContext::backend_name(backend);
    benchmark::RegisterBenchmark(("MontMul/" + name).c_str(), BM_MontMul,
                                 backend);
    for (const int bits : {256, 2440}) {
      benchmark::RegisterBenchmark(
          ("FixedBaseExp/" + std::to_string(bits) + "/" + name).c_str(),
          BM_FixedBaseExp, backend, bits)
          ->Unit(benchmark::kMicrosecond);
    }
  }
  for (const auto& [n, bits] : std::vector<std::pair<std::size_t, int>>{
           {47, 264}, {64, 128}, {80, 384}}) {
    benchmark::RegisterBenchmark(
        ("MultiExp/" + std::to_string(n) + "x" + std::to_string(bits)).c_str(),
        BM_MultiExp, n, bits)
        ->Unit(benchmark::kMillisecond);
  }
  for (const std::uint32_t q : q_sweep()) {
    const auto arg = static_cast<long>(q);
    // Fig 4(a): hard-commitment algorithms (linear in q).
    benchmark::RegisterBenchmark("Fig4a/qKGen", BM_qKGen)
        ->Arg(arg)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark("Fig4a/qHCom", BM_qHCom)
        ->Arg(arg)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("Fig4a/qHOpen", BM_qHOpen)
        ->Arg(arg)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("Fig4a/qHCom_trie", BM_qHCom_trie)
        ->Arg(arg)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("Fig4a/qHOpen_trie", BM_qHOpen_trie)
        ->Arg(arg)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("Fig4a/qSOpen_hard", BM_qSOpen_hard)
        ->Arg(arg)
        ->Unit(benchmark::kMillisecond);
    // Fig 4(b): soft-commitment algorithms (constant in q).
    benchmark::RegisterBenchmark("Fig4b/qSCom", BM_qSCom)
        ->Arg(arg)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("Fig4b/qSOpen_soft", BM_qSOpen_soft)
        ->Arg(arg)
        ->Unit(benchmark::kMillisecond);
    // Verification is constant in q (context for Fig. 5).
    benchmark::RegisterBenchmark("Fig4x/qVerOpen", BM_qVerOpen)
        ->Arg(arg)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("Fig4x/qVerTease", BM_qVerTease)
        ->Arg(arg)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return desword::benchutil::run_benchmarks(argc, argv, "bench_qtmc_micro");
}
