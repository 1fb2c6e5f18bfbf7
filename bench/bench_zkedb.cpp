// ZK-EDB scaling micro-benchmark (extension) — cost vs database size n.
//
// Validates the compactness claims behind the POC design:
//   * EDB-commit time grows ~linearly in n (n·h tree nodes),
//   * commitment size is CONSTANT in n,
//   * proof generation/verification and proof size are independent of n
//     (they only walk one root-to-leaf path),
//   * incremental insert costs ~one path recommit, not a rebuild.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "supplychain/rfid.h"
#include "zkedb/prover.h"
#include "zkedb/verifier.h"

namespace {

using namespace desword;
using namespace desword::zkedb;

EdbCrsPtr bench_crs() {
  static const EdbCrsPtr crs = [] {
    EdbCrsPtr c = benchutil::quick_mode() ? benchutil::crs_for(4, 8)
                                          : benchutil::crs_for(16, 32);
    c->qtmc().precompute_fixed_bases();
    c->tmc().precompute_fixed_bases();
    return c;
  }();
  return crs;
}

std::map<Bytes, Bytes> entries_of(const EdbCrs& crs, std::size_t n) {
  std::map<Bytes, Bytes> entries;
  for (std::size_t i = 0; entries.size() < n; ++i) {
    entries[key_for_identifier(crs, be64(i))] = bytes_of("value");
  }
  return entries;
}

/// Prover over n entries; `threads` is its EdbProverOptions::threads
/// (0 = default), which also sizes each proof's per-level fan-out.
EdbProver& prover_for(std::size_t n, unsigned threads = 0) {
  static std::map<std::pair<std::size_t, unsigned>, std::unique_ptr<EdbProver>>
      cache;
  const auto key = std::make_pair(n, threads);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const EdbCrsPtr crs = bench_crs();
    EdbProverOptions opts;
    opts.threads = threads;
    it = cache
             .emplace(key, std::make_unique<EdbProver>(
                               crs, entries_of(*crs, n), opts))
             .first;
  }
  return *it->second;
}

/// The parameters the per-key and per-proof byte counts scale with: q, h
/// and the qTMC modulus width in bytes (tools/run_bench.sh normalizes its
/// byte bounds by them).
void report_parameters(benchmark::State& state, const EdbCrs& crs) {
  state.counters["q"] = crs.params().q;
  state.counters["h"] = crs.height();
  state.counters["modulus_bytes"] =
      static_cast<double>(crs.qtmc().element_len());
}

// Also reports KiB_per_key: the heap a prover keeps per committed key,
// the live-bytes delta around its construction (tools/run_bench.sh gates
// it).
void BM_Commit(benchmark::State& state) {
  const EdbCrsPtr crs = bench_crs();
  const auto entries = entries_of(*crs, static_cast<std::size_t>(state.range(0)));
  EdbProverOptions opts;
  opts.threads = static_cast<unsigned>(state.range(1));
  double kib_per_key = 0;
  for (auto _ : state) {
    const std::size_t before = benchutil::heap_bytes();
    EdbProver prover(crs, entries, opts);
    kib_per_key = (static_cast<double>(benchutil::heap_bytes()) -
                   static_cast<double>(before)) /
                  1024.0 / static_cast<double>(entries.size());
    benchmark::DoNotOptimize(prover.commitment_bytes());
  }
  state.counters["KiB_per_key"] = kib_per_key;
  report_parameters(state, *crs);
}

void BM_ProveMember(benchmark::State& state) {
  EdbProver& prover = prover_for(static_cast<std::size_t>(state.range(0)),
                                 static_cast<unsigned>(state.range(1)));
  const EdbKey key = key_for_identifier(prover.crs(), be64(0));
  for (auto _ : state) {
    auto proof = prover.prove_membership(key);
    benchmark::DoNotOptimize(proof.value);
  }
  state.counters["proof_KB"] = static_cast<double>(
      prover.prove_membership(key).serialize(prover.crs()).size()) / 1024.0;
  state.counters["com_B"] =
      static_cast<double>(prover.commitment_bytes().size());
  report_parameters(state, prover.crs());
}

void BM_VerifyMember(benchmark::State& state) {
  EdbProver& prover = prover_for(static_cast<std::size_t>(state.range(0)));
  const EdbKey key = key_for_identifier(prover.crs(), be64(0));
  const auto proof = prover.prove_membership(key);
  EdbVerifyOptions opts;
  opts.threads = static_cast<unsigned>(state.range(1));
  benchutil::spread_pool(opts.threads);
  for (auto _ : state) {
    auto value = edb_verify_membership(prover.crs(), prover.commitment(), key,
                                       proof, opts);
    if (!value.has_value()) {
      state.SkipWithError("verification failed");
      return;
    }
  }
}

// The bad-product scan's verify: a non-membership proof for an absent
// key. Proofs for kAbsent fresh absent keys are built up front and
// verified in turn.
void BM_VerifyNonMember(benchmark::State& state) {
  constexpr std::uint64_t kAbsent = 8;
  EdbProver& prover = prover_for(static_cast<std::size_t>(state.range(0)));
  std::vector<std::pair<EdbKey, EdbNonMembershipProof>> proofs;
  for (std::uint64_t i = 0; proofs.size() < kAbsent; ++i) {
    const EdbKey key = key_for_identifier(prover.crs(), be64(~i));
    if (prover.contains(key)) continue;
    proofs.emplace_back(key, prover.prove_non_membership(key));
  }
  EdbVerifyOptions opts;
  opts.threads = static_cast<unsigned>(state.range(1));
  benchutil::spread_pool(opts.threads);
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& [key, proof] = proofs[next++ % proofs.size()];
    if (!edb_verify_non_membership(prover.crs(), prover.commitment(), key,
                                   proof, opts)
             .ok) {
      state.SkipWithError("verification failed");
      return;
    }
  }
}

// Verification throughput over a pile of independent proofs, each checked
// by its own edb_verify_membership call as the proxy checks a walk hop.
// `batched` selects the strategy (one fold per proof vs 3–4
// exponentiations per opening); verdicts are identical (see
// zkedb/verifier.h). The pooled cases spread their workers first, as
// BM_VerifyMember does.
void BM_VerifyMany(benchmark::State& state, bool batched) {
  const std::size_t pile = static_cast<std::size_t>(state.range(0));
  EdbProver& prover = prover_for(pile);
  std::vector<std::pair<EdbKey, EdbMembershipProof>> proofs;
  proofs.reserve(pile);
  for (std::uint64_t i = 0; i < pile; ++i) {
    const EdbKey key = key_for_identifier(prover.crs(), be64(i));
    proofs.emplace_back(key, prover.prove_membership(key));
  }
  EdbVerifyOptions opts;
  opts.batched = batched;
  opts.threads = static_cast<unsigned>(state.range(1));
  benchutil::spread_pool(opts.threads);
  for (auto _ : state) {
    for (const auto& [key, proof] : proofs) {
      if (!edb_verify_membership(prover.crs(), prover.commitment(), key,
                                 proof, opts)
               .has_value()) {
        state.SkipWithError("verification failed");
        return;
      }
    }
  }
  state.counters["proofs_per_sec"] = benchmark::Counter(
      static_cast<double>(pile),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_IncrementalInsert(benchmark::State& state) {
  const EdbCrsPtr crs = bench_crs();
  EdbProver prover(crs, entries_of(*crs, static_cast<std::size_t>(state.range(0))));
  std::uint64_t serial = 1u << 20;
  for (auto _ : state) {
    const EdbKey key = key_for_identifier(*crs, be64(serial++));
    if (prover.contains(key)) continue;
    prover.insert(key, bytes_of("value"));
  }
}

void register_all() {
  const std::vector<long> sizes =
      benchutil::quick_mode() ? std::vector<long>{2, 8}
                              : std::vector<long>{2, 8, 32};
  // threads = 1 is the sequential baseline; the others exercise the pool.
  std::vector<long> thread_counts{1, 4};
  const long hw = static_cast<long>(ThreadPool::default_threads());
  if (hw > 4) thread_counts.push_back(hw);
  std::vector<long> proof_threads{1};
  if (hw > 1) proof_threads.push_back(hw);
  for (const long n : sizes) {
    for (const long t : thread_counts) {
      // Five repetitions: one two-iteration sample is too noisy to decide
      // a cell, so the record keeps their mean, median and spread.
      benchmark::RegisterBenchmark("ZkEdb/Commit", BM_Commit)
          ->Args({n, t})
          ->Unit(benchmark::kMillisecond)
          ->Iterations(2)
          ->Repetitions(5)
          ->ReportAggregatesOnly(true);
    }
    // Per-proof fan-out: threads = 1 is the sequential anchor. Five
    // repetitions each, as for ZkEdb/Commit.
    for (const long t : proof_threads) {
      benchmark::RegisterBenchmark("ZkEdb/ProveMember", BM_ProveMember)
          ->Args({n, t})
          ->Unit(benchmark::kMillisecond)
          ->Iterations(5)
          ->Repetitions(5)
          ->ReportAggregatesOnly(true);
      benchmark::RegisterBenchmark("ZkEdb/VerifyMember", BM_VerifyMember)
          ->Args({n, t})
          ->Unit(benchmark::kMillisecond)
          ->Iterations(10)
          ->Repetitions(5)
          ->ReportAggregatesOnly(true);
      benchmark::RegisterBenchmark("ZkEdb/VerifyNonMember", BM_VerifyNonMember)
          ->Args({n, t})
          ->Unit(benchmark::kMillisecond)
          ->Iterations(10)
          ->Repetitions(5)
          ->ReportAggregatesOnly(true);
    }
    benchmark::RegisterBenchmark("ZkEdb/IncrementalInsert",
                                 BM_IncrementalInsert)
        ->Arg(n)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(5);
  }
  // Scalar vs batched verification throughput over identical proof piles
  // (tools/run_bench.sh pairs the medians of the matching cases into
  // BENCH_zkedb.json). Five repetitions, as for the cells above.
  const long many_n = benchutil::quick_mode() ? 32 : 64;
  for (const long t : thread_counts) {
    benchmark::RegisterBenchmark("ZkEdb/VerifyManyScalar", BM_VerifyMany,
                                 /*batched=*/false)
        ->Args({many_n, t})
        ->Unit(benchmark::kMillisecond)
        ->Iterations(2)
        ->Repetitions(5)
        ->ReportAggregatesOnly(true);
    benchmark::RegisterBenchmark("ZkEdb/VerifyManyBatched", BM_VerifyMany,
                                 /*batched=*/true)
        ->Args({many_n, t})
        ->Unit(benchmark::kMillisecond)
        ->Iterations(2)
        ->Repetitions(5)
        ->ReportAggregatesOnly(true);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return desword::benchutil::run_benchmarks(argc, argv, "bench_zkedb");
}
