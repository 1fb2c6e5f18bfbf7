#!/usr/bin/env bash
# Runs the core benchmark trio (bench_qtmc_micro, bench_zkedb,
# bench_poc_comp), collects their machine-readable '{"bench"...}' result
# lines, and assembles a consolidated BENCH_zkedb.json at the repo root.
#
# The consolidated file records every result line plus two summaries:
#
#   * "verify_throughput" pairs the ZkEdb/VerifyManyScalar and
#     ZkEdb/VerifyManyBatched cases (same proof pile, same thread count)
#     into per-configuration speedups — the acceptance metric for the
#     batch verification engine;
#   * "query_throughput" pairs Macro/QueryThroughputSerial with every
#     Macro/QueryThroughputConcurrent configuration (workers x sessions
#     in flight) on queries_per_sec — the acceptance metric for the
#     executor/scheduler concurrency layer;
#   * "fault_resilience" pairs every lossy Macro/FaultedQuery case with
#     its loss=0 baseline: latency overhead, retransmits per query and
#     success rate under injected frame loss — the acceptance metric for
#     the fault injection / adaptive recovery layer;
#   * "repeat_query" pairs Macro/RepeatQueryCold (verification cache off)
#     with Macro/RepeatQueryWarm (cache on, warmed) on queries_per_sec
#     and carries the warm hit_rate — the acceptance metric for the
#     proxy's hop memo;
#   * "prover_memory" carries every ZkEdb/Commit case's KiB_per_key (the
#     heap a ZK-EDB prover keeps per committed key, median of the
#     repetitions) — the acceptance metric for trie-node storage;
#   * "proof_size" carries every ZkEdb/ProveMember case's proof_KB (the
#     wire size of one membership proof) — the acceptance metric for the
#     proof layout.
#   Both also carry their figure per level per modulus byte: bytes
#   divided by h times the qTMC modulus width, the parameters (with q)
#   that bench_zkedb reports next to it. Per-key storage and proof bytes
#   are one C0 and about one opening per trie level, so the normalized
#   figure is about the same at any parameters, and the gates bound it.
#
# Usage: tools/run_bench.sh [--build-dir DIR] [--out FILE] [--check]
#   --build-dir DIR  where the bench binaries live (default: build)
#   --out FILE       consolidated JSON path (default: BENCH_zkedb.json)
#   --check          exit non-zero if any batched configuration is slower
#                    than its scalar counterpart, if the warm repeat-
#                    query cache hit rate drops below 0.8, or if a prover
#                    keeps more than PROVER_BYTES_PER_LEVEL_MAX bytes per
#                    key per level per modulus byte in the largest
#                    ZkEdb/Commit cases, or if a membership proof exceeds
#                    PROOF_BYTES_PER_LEVEL_MAX bytes per level per modulus
#                    byte (CI perf smoke, at any parameters).
#                    Refuses up front, running and writing nothing, when the
#                    existing --out file records a different cpu_count than
#                    this host: re-baseline with a plain run first.
#
# Env: DESWORD_BENCH_QUICK / DESWORD_BENCH_RSA_BITS shrink the run
# (see bench/bench_util.h).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build"
OUT="$ROOT/BENCH_zkedb.json"
CHECK=0

while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --check) CHECK=1; shift ;;
    *) echo "run_bench.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

# Numbers recorded on a different core count are not comparable (the
# query_throughput gate depends on it), so --check refuses them before
# spending a bench run.
if [ "$CHECK" = 1 ] && [ -f "$OUT" ]; then
  python3 - "$OUT" <<'PY' || exit 1
import json
import os
import sys

path = sys.argv[1]
with open(path, encoding="utf-8") as fh:
    recorded = json.load(fh).get("cpu_count")
here = os.cpu_count() or 1
if recorded is not None and recorded != here:
    print(f"run_bench.sh: --check refused: {path} records cpu_count "
          f"{recorded}, this host has {here}; re-baseline without --check",
          file=sys.stderr)
    sys.exit(1)
PY
fi

# Bound on ZkEdb/Commit KiB_per_key at the largest database size, per
# trie level per modulus byte: KiB_per_key · 1024 / (h · modulus bytes).
# A prover keeps 1.85 there at the CI's reduced parameters
# (DESWORD_BENCH_QUICK=1, RSA-1024: q = 4, h = 8, 8 keys; 3.49 before trie
# nodes kept C0 and derived their randomizers) and 1.36 at full ones
# (q = 16, h = 32, RSA-2048: 10.9 KiB per key); the per-node constant
# weighs less against a wider C0. Heap bytes do not depend on the host's
# speed, so the bound holds on any machine.
PROVER_BYTES_PER_LEVEL_MAX=2.5

# Bound on ZkEdb/ProveMember proof_KB, normalized the same way: a
# membership proof is 2.73 at the reduced parameters (2.73 KiB) and 2.34
# at full ones (18.72 KiB); 3.64 and 3.32 while it shipped each inner
# child's C1 next to its C0. Proof bytes depend only on q, h and the
# modulus width.
PROOF_BYTES_PER_LEVEL_MAX=3.2

BENCHES=(bench_qtmc_micro bench_zkedb bench_poc_comp bench_macro)
LINES="$(mktemp)"
trap 'rm -f "$LINES"' EXIT

for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "run_bench.sh: $bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
  echo "== $bench ==" >&2
  # --benchmark_color=false keeps ANSI escapes out of the result lines;
  # grep -o still strips any console-reporter prefix on the same line.
  "$bin" --benchmark_color=false | tee /dev/stderr |
      grep -o '{"bench".*}' >> "$LINES" || {
    echo "run_bench.sh: $bench emitted no result lines" >&2
    exit 1
  }
done

python3 - "$LINES" "$OUT" "$CHECK" "$PROVER_BYTES_PER_LEVEL_MAX" \
    "$PROOF_BYTES_PER_LEVEL_MAX" <<'PY'
import json
import os
import sys

lines_path, out_path, check = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
prover_per_level_max = float(sys.argv[4])
proof_per_level_max = float(sys.argv[5])
cpu_count = os.cpu_count() or 1
results = []
with open(lines_path, encoding="utf-8") as fh:
    for line in fh:
        line = line.strip()
        if line:
            results.append(json.loads(line))

# Pair ZkEdb/VerifyManyScalar/<batch>/<threads> with the matching
# ...Batched case on proofs_per_sec.
scalar, batched = {}, {}
for r in results:
    case = r.get("case", "")
    pps = r.get("counters", {}).get("proofs_per_sec")
    if pps is None:
        continue
    if case.startswith("ZkEdb/VerifyManyScalar/"):
        scalar[case.split("VerifyManyScalar/", 1)[1]] = pps
    elif case.startswith("ZkEdb/VerifyManyBatched/"):
        batched[case.split("VerifyManyBatched/", 1)[1]] = pps

configs = []
for cfg in sorted(scalar.keys() & batched.keys()):
    configs.append({
        "config": cfg,  # "<batch>/<threads>"
        "scalar_proofs_per_sec": scalar[cfg],
        "batched_proofs_per_sec": batched[cfg],
        "speedup": batched[cfg] / scalar[cfg] if scalar[cfg] else None,
    })

# Pair Macro/QueryThroughputSerial with every ...Concurrent/<workers>/
# <in_flight> configuration on queries_per_sec.
serial_qps = None
concurrent_qps = {}
for r in results:
    case = r.get("case", "")
    qps = r.get("counters", {}).get("queries_per_sec")
    if qps is None:
        continue
    if case.startswith("Macro/QueryThroughputSerial"):
        serial_qps = qps
    elif case.startswith("Macro/QueryThroughputConcurrent/"):
        concurrent_qps[case.split("QueryThroughputConcurrent/", 1)[1]] = qps

query_configs = []
if serial_qps:
    for cfg in sorted(concurrent_qps):
        query_configs.append({
            "config": cfg,  # "<workers>/<in_flight>"
            "serial_queries_per_sec": serial_qps,
            "concurrent_queries_per_sec": concurrent_qps[cfg],
            "speedup": concurrent_qps[cfg] / serial_qps,
        })

# Pair each lossy Macro/FaultedQuery/<loss_permille> case with the
# loss=0 baseline on latency; carry the recovery counters through.
faulted = {}
for r in results:
    case = r.get("case", "")
    if case.startswith("Macro/FaultedQuery/"):
        arg = case.split("FaultedQuery/", 1)[1].split("/", 1)[0]
        faulted[int(arg)] = r

fault_configs = []
baseline = faulted.get(0)
if baseline:
    base_ns = baseline.get("ns_per_op") or 0
    for loss in sorted(faulted):
        if loss == 0:
            continue
        r = faulted[loss]
        counters = r.get("counters", {})
        ns = r.get("ns_per_op") or 0
        fault_configs.append({
            "loss_pct": counters.get("loss_pct", loss / 10.0),
            "baseline_ms_per_query": base_ns / 1e6,
            "faulted_ms_per_query": ns / 1e6,
            "latency_overhead": ns / base_ns if base_ns else None,
            "retransmits_per_query": counters.get("retransmits_per_query"),
            "success_rate": counters.get("success_rate"),
        })

# Pair Macro/RepeatQueryCold (cache off) with Macro/RepeatQueryWarm
# (cache on, warmed) on queries_per_sec; carry the warm hit rate.
cold_repeat, warm_repeat = None, None
for r in results:
    case = r.get("case", "")
    if case.startswith("Macro/RepeatQueryCold"):
        cold_repeat = r
    elif case.startswith("Macro/RepeatQueryWarm"):
        warm_repeat = r

repeat_query = None
if cold_repeat and warm_repeat:
    cold_qps = cold_repeat.get("counters", {}).get("queries_per_sec") or 0
    warm_qps = warm_repeat.get("counters", {}).get("queries_per_sec") or 0
    repeat_query = {
        "cold_queries_per_sec": cold_qps,
        "warm_queries_per_sec": warm_qps,
        "speedup": warm_qps / cold_qps if cold_qps else None,
        "warm_hit_rate": warm_repeat.get("counters", {}).get("hit_rate"),
    }

def per_level(kib, counters):
    """KiB as bytes per trie level per qTMC modulus byte, or None when the
    case did not report its parameters."""
    h = counters.get("h")
    width = counters.get("modulus_bytes")
    if not h or not width:
        return None
    return round(kib * 1024 / (h * width), 3)


def median_cases(prefix, counter):
    """(keys, threads, value, counters) of every <prefix><n>/<threads>
    case's median aggregate that reports `counter`."""
    out = []
    for r in results:
        case = r.get("case", "")
        counters = r.get("counters", {})
        value = counters.get(counter)
        if case.startswith(prefix) and case.endswith("_median") \
                and value is not None:
            n, threads = case[len(prefix):].split("/")[0:2]
            out.append((int(n), int(threads), value, counters))
    return out


# Every ZkEdb/Commit/<n>/<threads> case's KiB_per_key.
prover_memory = [
    {"keys": n, "threads": threads, "kib_per_key": kib,
     "bytes_per_level_per_modulus_byte": per_level(kib, counters)}
    for n, threads, kib, counters in median_cases("ZkEdb/Commit/",
                                                  "KiB_per_key")]

# Every ZkEdb/ProveMember/<n>/<threads> case's proof_KB.
proof_size = [
    {"keys": n, "threads": threads, "proof_kb": kb,
     "bytes_per_level_per_modulus_byte": per_level(kb, counters)}
    for n, threads, kb, counters in median_cases("ZkEdb/ProveMember/",
                                                 "proof_KB")]

summary = {
    "generated_by": "tools/run_bench.sh",
    "cpu_count": cpu_count,
    "benches": sorted({r.get("bench", "?") for r in results}),
    "verify_throughput": configs,
    "query_throughput": query_configs,
    "fault_resilience": fault_configs,
    "repeat_query": repeat_query,
    "prover_memory": prover_memory,
    "proof_size": proof_size,
    "results": results,
}
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump(summary, fh, indent=1, sort_keys=False)
    fh.write("\n")

print(f"run_bench.sh: wrote {out_path} ({len(results)} result lines)")
for c in configs:
    print("  verify_many {config}: scalar {scalar_proofs_per_sec:.2f}/s "
          "batched {batched_proofs_per_sec:.2f}/s speedup {speedup:.2f}x"
          .format(**c))
for c in query_configs:
    print("  query_throughput {config}: serial "
          "{serial_queries_per_sec:.2f}/s concurrent "
          "{concurrent_queries_per_sec:.2f}/s speedup {speedup:.2f}x"
          .format(**c))
for c in fault_configs:
    print("  fault_resilience {loss_pct:.0f}% loss: "
          "{baseline_ms_per_query:.2f}ms -> {faulted_ms_per_query:.2f}ms "
          "({latency_overhead:.2f}x), {retransmits_per_query:.1f} "
          "retransmits/query, success {success_rate:.2f}".format(**c))
for c in prover_memory:
    print("  prover_memory {keys} keys, {threads} thread(s): "
          "{kib_per_key:.2f} KiB/key, {bytes_per_level_per_modulus_byte} "
          "per level per modulus byte".format(**c))
for c in proof_size:
    print("  proof_size {keys} keys, {threads} thread(s): "
          "{proof_kb:.2f} KiB, {bytes_per_level_per_modulus_byte} "
          "per level per modulus byte".format(**c))
if repeat_query:
    print("  repeat_query: cold {cold_queries_per_sec:.2f}/s warm "
          "{warm_queries_per_sec:.2f}/s speedup {speedup:.2f}x "
          "hit_rate {warm_hit_rate:.2f}".format(**repeat_query))

if check:
    if not configs:
        print("run_bench.sh: --check but no VerifyMany pairs found",
              file=sys.stderr)
        sys.exit(1)
    slow = [c for c in configs if c["speedup"] is None or c["speedup"] < 1.0]
    if slow:
        for c in slow:
            print(f"run_bench.sh: batched slower than scalar for "
                  f"{c['config']} (speedup {c['speedup']})", file=sys.stderr)
        sys.exit(1)
    # Worker threads can only win wall-clock when they have real cores to
    # run on; on a starved box the inline path is strictly cheaper, so only
    # enforce the speedup for configurations the machine can parallelize.
    eligible = [c for c in query_configs
                if int(c["config"].split("/")[0]) < cpu_count]
    skipped = [c for c in query_configs if c not in eligible]
    for c in skipped:
        print(f"run_bench.sh: note: query_throughput {c['config']} not "
              f"enforced ({cpu_count} CPU(s) cannot host the workers)",
              file=sys.stderr)
    slow_q = [c for c in eligible if c["speedup"] < 1.0]
    if slow_q:
        for c in slow_q:
            print(f"run_bench.sh: concurrent queries slower than serial for "
                  f"{c['config']} (speedup {c['speedup']:.2f})",
                  file=sys.stderr)
        sys.exit(1)
    # Recovery must actually recover: with retransmission backoff in play a
    # query only fails when every retry of some hop is dropped, so even at
    # 30% loss the vast majority of queries must still complete.
    fragile = [c for c in fault_configs
               if c["success_rate"] is None or c["success_rate"] < 0.9]
    if fragile:
        for c in fragile:
            print(f"run_bench.sh: faulted queries failing at "
                  f"{c['loss_pct']:.0f}% loss "
                  f"(success rate {c['success_rate']})", file=sys.stderr)
        sys.exit(1)
    # The warm repeat-query pass must actually run out of the cache. The
    # hit rate is machine-independent (unlike the warm/cold wall-clock
    # ratio, which collapses on a starved box), so it is the gated metric.
    if repeat_query is None:
        print("run_bench.sh: --check but no RepeatQuery pair found",
              file=sys.stderr)
        sys.exit(1)
    hit_rate = repeat_query["warm_hit_rate"]
    if hit_rate is None or hit_rate < 0.8:
        print(f"run_bench.sh: warm repeat-query hit rate too low "
              f"({hit_rate})", file=sys.stderr)
        sys.exit(1)
    # A prover's heap per committed key, at the largest database size
    # (the smaller ones carry the per-prover constant).
    if not prover_memory:
        print("run_bench.sh: --check but no ZkEdb/Commit KiB_per_key found",
              file=sys.stderr)
        sys.exit(1)
    largest = max(c["keys"] for c in prover_memory)
    heavy = [c for c in prover_memory if c["keys"] == largest and (
        c["bytes_per_level_per_modulus_byte"] is None
        or c["bytes_per_level_per_modulus_byte"] > prover_per_level_max)]
    if heavy:
        for c in heavy:
            print(f"run_bench.sh: prover keeps {c['kib_per_key']:.2f} KiB "
                  f"per key at {c['keys']} keys, {c['threads']} thread(s): "
                  f"{c['bytes_per_level_per_modulus_byte']} bytes per level "
                  f"per modulus byte (bound {prover_per_level_max})",
                  file=sys.stderr)
        sys.exit(1)
    # Membership proof bytes on the wire.
    if not proof_size:
        print("run_bench.sh: --check but no ZkEdb/ProveMember proof_KB found",
              file=sys.stderr)
        sys.exit(1)
    large = [c for c in proof_size if (
        c["bytes_per_level_per_modulus_byte"] is None
        or c["bytes_per_level_per_modulus_byte"] > proof_per_level_max)]
    if large:
        for c in large:
            print(f"run_bench.sh: membership proof is {c['proof_kb']:.2f} "
                  f"KiB at {c['keys']} keys, {c['threads']} thread(s): "
                  f"{c['bytes_per_level_per_modulus_byte']} bytes per level "
                  f"per modulus byte (bound {proof_per_level_max})",
                  file=sys.stderr)
        sys.exit(1)
PY
