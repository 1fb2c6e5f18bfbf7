// Ablation (extension) — design choices called out in DESIGN.md.
//
//   1. SoftMode: kShared backs all absent children of a trie node with ONE
//      soft commitment; kPerChild (the literal CFM/CHLMR construction)
//      creates one per absent child. Measures the commit-time cost of
//      faithfulness and confirms proof costs are unchanged.
//   2. TMC group backend: P-256 vs RFC 3526 MODP-2048 as the leaf-level
//      commitment group inside the full ZK-EDB.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "poc/poc.h"
#include "supplychain/rfid.h"

namespace {

using namespace desword;

zkedb::EdbCrsPtr ablation_crs(zkedb::SoftMode mode, const char* group) {
  static std::map<std::pair<int, std::string>, zkedb::EdbCrsPtr> cache;
  const auto key = std::make_pair(static_cast<int>(mode), std::string(group));
  auto it = cache.find(key);
  if (it == cache.end()) {
    zkedb::EdbConfig cfg;
    cfg.q = benchutil::quick_mode() ? 4 : 16;
    cfg.height = benchutil::quick_mode() ? 8 : 32;
    cfg.rsa_bits = benchutil::quick_mode() ? 512 : benchutil::rsa_bits();
    cfg.group_name = group;
    cfg.soft_mode = mode;
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

void BM_AggregateSoftMode(benchmark::State& state, zkedb::SoftMode mode) {
  const zkedb::EdbCrsPtr crs = ablation_crs(mode, "p256");
  poc::PocScheme scheme(crs);
  const auto traces = traces_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto pair = scheme.aggregate("v1", traces);
    benchmark::DoNotOptimize(pair.first.commitment);
  }
}

void BM_ProveSoftMode(benchmark::State& state, zkedb::SoftMode mode) {
  const zkedb::EdbCrsPtr crs = ablation_crs(mode, "p256");
  poc::PocScheme scheme(crs);
  auto [p, dpoc] =
      scheme.aggregate("v1", traces_of(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto proof = scheme.prove(*dpoc, supplychain::make_epc(1, 1, 0));
    benchmark::DoNotOptimize(proof.zk_proof);
  }
}

void BM_AggregateGroup(benchmark::State& state, const char* group) {
  const zkedb::EdbCrsPtr crs =
      ablation_crs(zkedb::SoftMode::kShared, group);
  poc::PocScheme scheme(crs);
  const auto traces = traces_of(8);
  for (auto _ : state) {
    auto pair = scheme.aggregate("v1", traces);
    benchmark::DoNotOptimize(pair.first.commitment);
  }
}

void register_all() {
  for (const long n : {4L, 16L}) {
    benchmark::RegisterBenchmark(
        "Ablation/Aggregate/shared",
        [](benchmark::State& st) {
          BM_AggregateSoftMode(st, zkedb::SoftMode::kShared);
        })
        ->Arg(n)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
    benchmark::RegisterBenchmark(
        "Ablation/Aggregate/per_child",
        [](benchmark::State& st) {
          BM_AggregateSoftMode(st, zkedb::SoftMode::kPerChild);
        })
        ->Arg(n)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
  }
  benchmark::RegisterBenchmark(
      "Ablation/OwnProofGen/shared",
      [](benchmark::State& st) {
        BM_ProveSoftMode(st, zkedb::SoftMode::kShared);
      })
      ->Arg(8)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(5);
  benchmark::RegisterBenchmark(
      "Ablation/OwnProofGen/per_child",
      [](benchmark::State& st) {
        BM_ProveSoftMode(st, zkedb::SoftMode::kPerChild);
      })
      ->Arg(8)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(5);
  benchmark::RegisterBenchmark(
      "Ablation/Aggregate/leaf_p256",
      [](benchmark::State& st) { BM_AggregateGroup(st, "p256"); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(3);
  benchmark::RegisterBenchmark(
      "Ablation/Aggregate/leaf_modp2048",
      [](benchmark::State& st) {
        BM_AggregateGroup(
            st, desword::benchutil::quick_mode() ? "modp512-test"
                                                 : "modp2048");
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(3);
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return desword::benchutil::run_benchmarks(argc, argv, "bench_ablation");
}
