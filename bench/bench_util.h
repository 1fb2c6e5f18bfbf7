// Shared helpers for the DE-Sword benchmark suite.
//
// Environment knobs:
//   DESWORD_BENCH_RSA_BITS   qTMC modulus size (default 2048; set 1024 or
//                            512 for quick runs)
//   DESWORD_BENCH_QUICK      if set (non-empty), benchmarks shrink their
//                            parameter sweeps for smoke testing
//   DESWORD_THREADS          worker count for the parallel stages (see
//                            common/thread_pool.h); also lands in the
//                            "threads" field of the JSON result lines
#pragma once

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/thread_pool.h"
#include "crypto/hash.h"
#include "mercurial/qtmc.h"
#include "obs/metrics.h"
#include "zkedb/params.h"

namespace desword::benchutil {

inline int rsa_bits() {
  if (const char* env = std::getenv("DESWORD_BENCH_RSA_BITS")) {
    const int bits = std::atoi(env);
    if (bits >= 256) return bits;
  }
  return 2048;
}

/// Bytes the process heap holds allocated right now (all malloc arenas).
inline std::size_t heap_bytes() { return mallinfo2().uordblks; }

inline bool quick_mode() {
  const char* env = std::getenv("DESWORD_BENCH_QUICK");
  return env != nullptr && env[0] != '\0';
}

/// The paper's Figure 4 arity sweep.
inline std::vector<std::uint32_t> q_sweep() {
  if (quick_mode()) return {8, 32};
  return {8, 16, 32, 64, 128};
}

/// The paper's Table II / Figure 5 (q, h) sweep with q^h >= 2^128.
inline std::vector<std::pair<std::uint32_t, std::uint32_t>> qh_sweep() {
  if (quick_mode()) return {{8, 43}, {32, 26}};
  return {{8, 43}, {16, 32}, {32, 26}, {64, 22}, {128, 19}};
}

/// Deterministic 16-byte messages.
inline std::vector<Bytes> bench_messages(std::uint32_t count) {
  std::vector<Bytes> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.push_back(hash_to_128("bench-msg", {be64(i)}));
  }
  return out;
}

/// Caches one qTMC scheme per arity so every benchmark in a binary shares
/// the (expensive) key material.
inline mercurial::QtmcScheme& qtmc_for(std::uint32_t q) {
  static std::map<std::uint32_t, std::unique_ptr<mercurial::QtmcScheme>> cache;
  auto it = cache.find(q);
  if (it == cache.end()) {
    auto keys = mercurial::QtmcScheme::keygen(q, rsa_bits());
    it = cache
             .emplace(q, std::make_unique<mercurial::QtmcScheme>(
                             std::move(keys.pk)))
             .first;
  }
  return *it->second;
}

/// Caches one ZK-EDB CRS per (q, h) configuration.
inline zkedb::EdbCrsPtr crs_for(std::uint32_t q, std::uint32_t h) {
  static std::map<std::pair<std::uint32_t, std::uint32_t>, zkedb::EdbCrsPtr>
      cache;
  const auto key = std::make_pair(q, h);
  auto it = cache.find(key);
  if (it == cache.end()) {
    zkedb::EdbConfig cfg;
    cfg.q = q;
    cfg.height = h;
    cfg.rsa_bits = rsa_bits();
    cfg.group_name = "p256";
    it = cache.emplace(key, zkedb::generate_crs(cfg)).first;
  }
  return it->second;
}

/// Keeps every thread of the pool `threads` selects busy for ~0.3 s, so
/// the scheduler has spread them over the cores before a cell times short
/// fork-joins on them. Under a cpuset that does not load-balance, a worker
/// that only ever runs sub-millisecond bursts stays on the core it was
/// created on — its creator's — and a pooled cell would time one core.
inline void spread_pool(unsigned threads) {
  ThreadPool* pool = ThreadPool::for_threads(threads);
  if (pool == nullptr) return;
  parallel_for(pool, pool->concurrency(), [](std::size_t) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (std::chrono::steady_clock::now() < until) {
    }
  });
}

/// Worker count the parallel stages will use (the JSON "threads" field).
inline unsigned bench_threads() { return ThreadPool::default_threads(); }

/// The observability work (obs/metrics.h) the process recorded since the
/// previous call, as a JSON object for the "metrics" field of a case's
/// result lines: counters and histogram count/sum_ms as deltas, gauges as
/// read now, each only when non-zero. The first call covers everything
/// since the process started. A histogram's max is a process-lifetime
/// figure, not a delta, so it is left out. Call it once a case's work is
/// done, on one thread, and pass the result to each of that case's lines.
inline std::string case_metrics_json() {
  using obs::MetricsRegistry;
  constexpr auto kCounters = static_cast<std::size_t>(obs::CounterId::kCount);
  constexpr auto kGauges = static_cast<std::size_t>(obs::GaugeId::kCount);
  constexpr auto kHistograms =
      static_cast<std::size_t>(obs::HistogramId::kCount);
  static std::array<std::uint64_t, kCounters> counted{};
  static std::array<std::uint64_t, kHistograms> observed{};
  static std::array<std::uint64_t, kHistograms> observed_us{};
  const MetricsRegistry& registry = MetricsRegistry::global();
  json::Object root;
  for (std::size_t i = 0; i < kCounters; ++i) {
    const auto id = static_cast<obs::CounterId>(i);
    const std::uint64_t now = registry.counter(id).value();
    if (now != counted[i]) {
      root[MetricsRegistry::name_of(id)] =
          json::Value(static_cast<std::int64_t>(now - counted[i]));
    }
    counted[i] = now;
  }
  for (std::size_t i = 0; i < kGauges; ++i) {
    const auto id = static_cast<obs::GaugeId>(i);
    const std::int64_t now = registry.gauge(id).value();
    if (now != 0) root[MetricsRegistry::name_of(id)] = json::Value(now);
  }
  for (std::size_t i = 0; i < kHistograms; ++i) {
    const auto id = static_cast<obs::HistogramId>(i);
    const obs::Histogram& h = registry.histogram(id);
    const std::uint64_t count = h.count();
    const std::uint64_t sum_us = h.sum_us();
    if (count != observed[i]) {
      json::Object o;
      o["count"] = json::Value(static_cast<std::int64_t>(count - observed[i]));
      o["sum_ms"] =
          json::Value(static_cast<double>(sum_us - observed_us[i]) / 1000.0);
      root[MetricsRegistry::name_of(id)] = json::Value(std::move(o));
    }
    observed[i] = count;
    observed_us[i] = sum_us;
  }
  return json::Value(std::move(root)).dump();
}

/// Emits one machine-readable result line on stdout. The schema is stable
/// — scripts grep for lines starting with '{"bench"':
///   {"bench":"<binary>","case":"<case>","ns_per_op":<num>,"threads":<n>,
///    "counters":{...},"metrics":{...}}
/// "counters" carries the per-benchmark user counters (rates such as
/// proofs_per_sec; omitted when a run defines none). "metrics" is the
/// case's case_metrics_json(): the work the case drove, not the process's
/// running totals.
inline void emit_json_line(
    const std::string& bench, const std::string& case_name, double ns_per_op,
    const std::string& metrics,
    const std::map<std::string, double>& counters = {}) {
  const auto escaped = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };
  std::string counters_json;
  if (!counters.empty()) {
    counters_json = ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s\"%s\":%.3f", first ? "" : ",",
                    escaped(name).c_str(), value);
      counters_json += buf;
      first = false;
    }
    counters_json += "}";
  }
  std::printf("{\"bench\":\"%s\",\"case\":\"%s\",\"ns_per_op\":%.1f,"
              "\"threads\":%u%s,\"metrics\":%s}\n",
              escaped(bench).c_str(), escaped(case_name).c_str(), ns_per_op,
              bench_threads(), counters_json.c_str(), metrics.c_str());
}

/// Console reporter that additionally emits one JSON line per finished
/// benchmark run (google-benchmark binaries).
class JsonLineReporter final : public benchmark::ConsoleReporter {
 public:
  explicit JsonLineReporter(std::string bench) : bench_(std::move(bench)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    // Read even when no line is emitted, so a failed case's work is not
    // charged to the next one. A repeated case's aggregate lines all carry
    // the work of its repetitions.
    const std::string metrics = case_metrics_json();
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations == 0) continue;
      // A repeated case's coefficient of variation is a ratio, not a time.
      if (run.run_type == Run::RT_Aggregate &&
          run.aggregate_unit == benchmark::kPercentage) {
        continue;
      }
      const double ns_per_op = run.real_accumulated_time /
                               static_cast<double>(run.iterations) * 1e9;
      // Flatten user counters with rate semantics already applied, the
      // same numbers the console shows.
      std::map<std::string, double> counters;
      for (const auto& [name, counter] : run.counters) {
        counters.emplace(name, static_cast<double>(counter));
      }
      emit_json_line(bench_, run.benchmark_name(), ns_per_op, metrics,
                     counters);
    }
  }

 private:
  std::string bench_;
};

/// Standard main body for google-benchmark binaries: console output plus
/// JSON result lines.
inline int run_benchmarks(int argc, char** argv, const std::string& bench) {
  benchmark::Initialize(&argc, argv);
  JsonLineReporter reporter(bench);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace desword::benchutil
