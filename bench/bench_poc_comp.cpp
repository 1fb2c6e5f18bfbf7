// Figure 5 — computation overhead of ownership / non-ownership proofs.
//
// Measures, for every Table II (q, h) configuration:
//   * ownership proof generation   (grows with q and h)
//   * ownership proof verification (grows with h only)
//   * non-ownership proof generation / verification ("similar" per the
//     paper — included for completeness). Generation proves a fresh absent
//     id per iteration; a repeat of one id does the same work, since every
//     fabricated soft node is re-derived from the prover key.
//   * POC aggregation (extension: the distribution-phase commit cost)
//
// The proof cases take a third argument: the prover / verifier thread
// count (EdbProverOptions / EdbVerifyOptions::threads). The threads = 1
// rows are the paper-figure anchors; the default_threads() rows show the
// per-proof fan-out.
//
// Expected shape (paper): generation is far more expensive than
// verification, generation increases with both q and h, verification only
// with h.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "poc/poc.h"
#include "supplychain/rfid.h"

namespace {

using namespace desword;

struct PocFixture {
  zkedb::EdbCrsPtr crs;
  std::unique_ptr<poc::PocScheme> scheme;
  poc::Poc poc;
  std::unique_ptr<poc::PocDecommitment> dpoc;
  Bytes owned_id;
  Bytes ghost_id;
  Bytes own_proof;
  Bytes nown_proof;
  std::uint64_t next_ghost = 0;  // serial of the next never-proven id
};

/// One fixture per (q, h, threads): `threads` sizes both the prover's and
/// the verifier's per-proof fan-out.
PocFixture& fixture_for(std::uint32_t q, std::uint32_t h, unsigned threads) {
  static std::map<std::tuple<std::uint32_t, std::uint32_t, unsigned>,
                  std::unique_ptr<PocFixture>>
      cache;
  const auto key = std::make_tuple(q, h, threads);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto fx = std::make_unique<PocFixture>();
    fx->crs = benchutil::crs_for(q, h);
    fx->crs->qtmc().precompute_fixed_bases();
    fx->crs->tmc().precompute_fixed_bases();
    zkedb::EdbVerifyOptions verify_opts;
    verify_opts.threads = threads;
    fx->scheme = std::make_unique<poc::PocScheme>(fx->crs, verify_opts);
    std::map<Bytes, Bytes> traces;
    for (std::uint64_t i = 0; i < 4; ++i) {
      traces[supplychain::make_epc(1, 1, i)] = bytes_of("production-data");
    }
    zkedb::EdbProverOptions prover_opts;
    prover_opts.threads = threads;
    auto [p, dpoc] = fx->scheme->aggregate("v1", traces, prover_opts);
    fx->poc = p;
    fx->dpoc = std::move(dpoc);
    fx->owned_id = supplychain::make_epc(1, 1, 0);
    fx->ghost_id = supplychain::make_epc(9, 9, 9);
    fx->own_proof = fx->scheme->prove(*fx->dpoc, fx->owned_id).serialize();
    fx->nown_proof = fx->scheme->prove(*fx->dpoc, fx->ghost_id).serialize();
    it = cache.emplace(key, std::move(fx)).first;
  }
  return *it->second;
}

/// Fixture of a proof case: Args {q, h, threads}.
PocFixture& proof_fixture(const benchmark::State& state) {
  return fixture_for(static_cast<std::uint32_t>(state.range(0)),
                     static_cast<std::uint32_t>(state.range(1)),
                     static_cast<unsigned>(state.range(2)));
}

void BM_OwnProofGen(benchmark::State& state) {
  PocFixture& fx = proof_fixture(state);
  for (auto _ : state) {
    auto proof = fx.scheme->prove(*fx.dpoc, fx.owned_id);
    benchmark::DoNotOptimize(proof.zk_proof);
  }
}

void BM_OwnProofVerify(benchmark::State& state) {
  PocFixture& fx = proof_fixture(state);
  const poc::PocProof proof = poc::PocProof::deserialize(fx.own_proof);
  for (auto _ : state) {
    auto result = fx.scheme->verify(fx.poc, fx.owned_id, proof);
    if (result.verdict != poc::PocVerdict::kTrace) {
      state.SkipWithError("ownership proof did not verify");
      return;
    }
  }
}

void BM_NOwnProofGen(benchmark::State& state) {
  PocFixture& fx = proof_fixture(state);
  for (auto _ : state) {
    // A never-proven id: the proof fabricates its soft nodes in situ.
    state.PauseTiming();
    const Bytes ghost = supplychain::make_epc(9, 10, fx.next_ghost++);
    state.ResumeTiming();
    auto proof = fx.scheme->prove(*fx.dpoc, ghost);
    benchmark::DoNotOptimize(proof.zk_proof);
  }
}

void BM_NOwnProofVerify(benchmark::State& state) {
  PocFixture& fx = proof_fixture(state);
  const poc::PocProof proof = poc::PocProof::deserialize(fx.nown_proof);
  for (auto _ : state) {
    auto result = fx.scheme->verify(fx.poc, fx.ghost_id, proof);
    if (result.verdict != poc::PocVerdict::kValid) {
      state.SkipWithError("non-ownership proof did not verify");
      return;
    }
  }
}

void BM_PocAggregate(benchmark::State& state) {
  PocFixture& fx = fixture_for(static_cast<std::uint32_t>(state.range(0)),
                               static_cast<std::uint32_t>(state.range(1)), 1);
  std::map<Bytes, Bytes> traces;
  for (std::uint64_t i = 0; i < 4; ++i) {
    traces[supplychain::make_epc(1, 1, i)] = bytes_of("production-data");
  }
  for (auto _ : state) {
    auto pair = fx.scheme->aggregate("v1", traces);
    benchmark::DoNotOptimize(pair.first.commitment);
  }
}

// Distribution-phase commit with a bigger trace set, swept over the thread
// count: range(2) = workers for the parallel trie build (1 = sequential
// baseline).
void BM_PocAggregateThreads(benchmark::State& state) {
  PocFixture& fx = fixture_for(static_cast<std::uint32_t>(state.range(0)),
                               static_cast<std::uint32_t>(state.range(1)), 1);
  zkedb::EdbProverOptions opts;
  opts.threads = static_cast<unsigned>(state.range(2));
  std::map<Bytes, Bytes> traces;
  for (std::uint64_t i = 0; i < 16; ++i) {
    traces[supplychain::make_epc(1, 1, i)] = bytes_of("production-data");
  }
  for (auto _ : state) {
    auto pair = fx.scheme->aggregate("v1", traces, opts);
    benchmark::DoNotOptimize(pair.first.commitment);
  }
}

void register_all() {
  // threads = 1 rows are the paper-figure anchors.
  std::vector<long> proof_threads{1};
  const long hw = static_cast<long>(ThreadPool::default_threads());
  if (hw > 1) proof_threads.push_back(hw);
  for (const auto& [q, h] : desword::benchutil::qh_sweep()) {
    const auto add = [](const char* name, auto* fn, int iterations,
                        const std::vector<std::int64_t>& args) {
      benchmark::RegisterBenchmark(name, fn)
          ->Args(args)
          ->Unit(benchmark::kMillisecond)
          ->Iterations(iterations);
    };
    const long ql = static_cast<long>(q);
    const long hl = static_cast<long>(h);
    for (const long t : proof_threads) {
      add("Fig5/OwnProofGen", BM_OwnProofGen, 5, {ql, hl, t});
      add("Fig5/OwnProofVerify", BM_OwnProofVerify, 20, {ql, hl, t});
      add("Fig5/NOwnProofGen", BM_NOwnProofGen, 5, {ql, hl, t});
      add("Fig5/NOwnProofVerify", BM_NOwnProofVerify, 20, {ql, hl, t});
    }
    add("Ext/PocAggregate", BM_PocAggregate, 3, {ql, hl});
  }
  // Thread sweep on one representative configuration.
  const auto [q, h] = desword::benchutil::qh_sweep().front();
  std::vector<long> thread_counts{1, 4};
  if (hw > 4) thread_counts.push_back(hw);
  for (const long t : thread_counts) {
    benchmark::RegisterBenchmark("Ext/PocAggregateThreads",
                                 BM_PocAggregateThreads)
        ->Args({static_cast<long>(q), static_cast<long>(h), t})
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return desword::benchutil::run_benchmarks(argc, argv, "bench_poc_comp");
}
