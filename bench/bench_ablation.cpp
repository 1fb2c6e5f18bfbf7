// Ablation (extension) — design choices called out in DESIGN.md.
//
//   1. Soft backing: every trie node backs all its absent children with ONE
//      shared soft commitment (DESIGN.md §5.3). The `shared` cells record
//      its aggregation and ownership-proof cost.
//   2. TMC group backend: P-256 vs RFC 3526 MODP-2048 as the leaf-level
//      commitment group inside the full ZK-EDB.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "poc/poc.h"
#include "supplychain/rfid.h"

namespace {

using namespace desword;

zkedb::EdbCrsPtr ablation_crs(const char* group) {
  static std::map<std::string, zkedb::EdbCrsPtr> cache;
  const std::string key = group;
  auto it = cache.find(key);
  if (it == cache.end()) {
    zkedb::EdbConfig cfg;
    cfg.q = benchutil::quick_mode() ? 4 : 16;
    cfg.height = benchutil::quick_mode() ? 8 : 32;
    cfg.rsa_bits = benchutil::quick_mode() ? 512 : benchutil::rsa_bits();
    cfg.group_name = group;
    it = cache.emplace(key, zkedb::generate_crs(cfg)).first;
  }
  return it->second;
}

std::map<Bytes, Bytes> traces_of(std::size_t n) {
  std::map<Bytes, Bytes> traces;
  for (std::size_t i = 0; i < n; ++i) {
    traces[supplychain::make_epc(1, 1, static_cast<std::uint64_t>(i))] =
        bytes_of("production-data");
  }
  return traces;
}

void BM_Aggregate(benchmark::State& state) {
  const zkedb::EdbCrsPtr crs = ablation_crs("p256");
  poc::PocScheme scheme(crs);
  const auto traces = traces_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto pair = scheme.aggregate("v1", traces);
    benchmark::DoNotOptimize(pair.first.commitment);
  }
}

void BM_OwnProofGen(benchmark::State& state) {
  const zkedb::EdbCrsPtr crs = ablation_crs("p256");
  poc::PocScheme scheme(crs);
  auto [p, dpoc] =
      scheme.aggregate("v1", traces_of(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto proof = scheme.prove(*dpoc, supplychain::make_epc(1, 1, 0));
    benchmark::DoNotOptimize(proof.zk_proof);
  }
}

void BM_AggregateGroup(benchmark::State& state, const char* group) {
  const zkedb::EdbCrsPtr crs = ablation_crs(group);
  poc::PocScheme scheme(crs);
  const auto traces = traces_of(8);
  for (auto _ : state) {
    auto pair = scheme.aggregate("v1", traces);
    benchmark::DoNotOptimize(pair.first.commitment);
  }
}

void register_all() {
  // Three repetitions with aggregates only, as ZkEdb/Commit: a single run
  // of the first cell would also time the process's one-time warm-up.
  const auto cell = [](benchmark::internal::Benchmark* b, int iterations) {
    b->Unit(benchmark::kMillisecond)
        ->Iterations(iterations)
        ->Repetitions(3)
        ->ReportAggregatesOnly(true);
  };
  cell(benchmark::RegisterBenchmark("Ablation/Aggregate/shared", BM_Aggregate)
           ->Arg(4)
           ->Arg(16),
       3);
  cell(benchmark::RegisterBenchmark("Ablation/OwnProofGen/shared",
                                    BM_OwnProofGen)
           ->Arg(8),
       5);
  cell(benchmark::RegisterBenchmark(
           "Ablation/Aggregate/leaf_p256",
           [](benchmark::State& st) { BM_AggregateGroup(st, "p256"); }),
       3);
  cell(benchmark::RegisterBenchmark(
           "Ablation/Aggregate/leaf_modp2048",
           [](benchmark::State& st) {
             BM_AggregateGroup(st, desword::benchutil::quick_mode()
                                       ? "modp512-test"
                                       : "modp2048");
           }),
       3);
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return desword::benchutil::run_benchmarks(argc, argv, "bench_ablation");
}
