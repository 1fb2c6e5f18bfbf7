// Baseline comparison (extension) — ZK-EDB POC vs the §II-C signature
// strawman.
//
// For growing trace-database sizes n, compares:
//   * credential size          ZK-EDB: O(1)      baseline: O(n)
//   * aggregation time         ZK-EDB: O(n·h)    baseline: O(n)
//   * ids leaked to the proxy  ZK-EDB: none      baseline: all n
//
// The baseline is faster to build and query — the point of the comparison
// is what it gives up: privacy and, more fundamentally, any security
// against a dishonest data owner (see tests/baseline_test.cpp).
#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "common/timing.h"
#include "desword/baseline.h"
#include "poc/poc.h"
#include "supplychain/rfid.h"

namespace {

using namespace desword;

supplychain::TraceDatabase make_db(std::size_t n) {
  supplychain::TraceDatabase db;
  for (std::size_t i = 0; i < n; ++i) {
    supplychain::TraceInfo info;
    info.participant = "v1";
    info.operation = "process";
    info.timestamp = i;
    db.record(supplychain::RfidTrace{
        supplychain::make_epc(1, 1, static_cast<std::uint64_t>(i)), info});
  }
  return db;
}

}  // namespace

int main() {
  const bool quick = benchutil::quick_mode();
  const std::uint32_t q = quick ? 4 : 16;
  const std::uint32_t h = quick ? 8 : 32;
  const zkedb::EdbCrsPtr crs = benchutil::crs_for(q, h);
  poc::PocScheme zk_scheme(crs);
  baseline::BaselineScheme sig_scheme(make_p256_group());

  std::printf("ZK-EDB POC (q=%u, h=%u, RSA-%d) vs signature-list baseline\n\n",
              q, h, benchutil::rsa_bits());
  std::printf("%-8s %-14s %-14s %-12s %-12s %-10s\n", "traces", "zk POC size",
              "base POC size", "zk agg(ms)", "base agg(ms)", "ids leaked");

  for (const std::size_t n : quick ? std::vector<std::size_t>{8, 32}
                                   : std::vector<std::size_t>{8, 64, 256}) {
    const supplychain::TraceDatabase db = make_db(n);

    Stopwatch sw;
    auto [zk_poc, zk_dpoc] = zk_scheme.aggregate("v1", db.as_poc_input());
    const double zk_ms = sw.elapsed_ms();
    const std::string zk_metrics = benchutil::case_metrics_json();

    sw.reset();
    auto [sig_poc, sig_keys] = sig_scheme.aggregate("v1", db);
    const double sig_ms = sw.elapsed_ms();
    const std::string sig_metrics = benchutil::case_metrics_json();

    std::printf("%-8zu %-11zuB   %-11zuB   %-12.1f %-12.1f %zu/%zu\n", n,
                zk_poc.serialize().size(), sig_poc.serialize().size(), zk_ms,
                sig_ms, sig_poc.entries.size(), n);
    const std::string suffix = "/n:" + std::to_string(n);
    benchutil::emit_json_line("bench_baseline", "ZkAggregate" + suffix,
                              zk_ms * 1e6, zk_metrics);
    benchutil::emit_json_line("bench_baseline", "BaselineAggregate" + suffix,
                              sig_ms * 1e6, sig_metrics);
  }

  std::printf("\nThe ZK-EDB credential stays constant-size and leaks no\n"
              "product ids; the baseline grows linearly and exposes every\n"
              "id it commits — and a dishonest owner can sign fabricated\n"
              "traces, which is exactly the failure DE-Sword's incentive\n"
              "mechanism addresses.\n");
  return 0;
}
