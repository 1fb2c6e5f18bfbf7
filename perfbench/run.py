#!/usr/bin/env python3
"""Path-query benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload audit_walk --seed 1 --seconds 25 --trace 0

builds the `perfbench` package (DE-Sword libraries plus the benchmark) with
CMake on first use, runs one workload, and prints the metrics by name with
their units. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The full record (host,
parameters, notes, registry deltas) is written under the build directory's
`results/`, and a traced run's spans under `traces/`.

    python3 perfbench/run.py compare BASE NEW

compares two sets of result records (files or directories) metric by
metric. It refuses to compare results whose host or parameters differ.

Build directory: $CARGO_TARGET_DIR/perfbench if that variable is set,
else .bench_build/perfbench, relative to the current directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
# Parameters that must match for two results to be comparable.
COMPARABLE = ("workload", "trace", "cpu_count", "build_type", "q", "h",
              "rsa_bits", "group", "depth", "width", "fanout", "workers",
              "outstanding", "tasks", "task_weights", "products_per_task",
              "wave_products", "setups", "seconds")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return Path(root).resolve() / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(log_path, "a") as log:
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if done.returncode != 0:
                if cmd[1] == "-S":
                    (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"build step failed ({' '.join(cmd[:2])}); see {log_path}")
    binary = out / "perfbench"
    if not binary.exists():
        fail(f"build produced no binary; see {log_path}")
    return binary


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    spec = HERE.parent / "BENCHMARK.json"
    if not spec.exists():
        return None
    bench = json.loads(spec.read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run(args):
    binary = build()
    out = build_dir()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.reduced:
        cmd.append("--reduced")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "-reduced" if args.reduced else "")
    if args.trace:
        (out / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out / "traces" / f"{tag}.jsonl")]
    # One process at a time, waited for: the child is killed on timeout.
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with {done.returncode}")
    record = json.loads(lines[-1])

    expected = expected_metrics(args.trace)
    metrics = record["metrics"]
    if expected is not None:
        missing = sorted(set(expected) - set(metrics))
        if missing:
            fail(f"metrics missing from the run: {', '.join(missing)}")
        for name, unit in expected.items():
            if metrics[name]["unit"] != unit:
                fail(f"{name}: unit {metrics[name]['unit']} != {unit}")
        metrics = {name: metrics[name] for name in expected}

    (out / "results").mkdir(exist_ok=True)
    (out / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    params, notes = record["params"], record["notes"]
    print(f"# workload {params['workload']} seed {params['seed']} "
          f"trace {params['trace']} | cpu_count {params['cpu_count']} "
          f"q={params['q']} h={params['h']} rsa_bits={params['rsa_bits']} "
          f"depth {params['depth']} workers {params['workers']} "
          f"outstanding {params['outstanding']} build {params['build_type']}")
    print(f"# queries {notes['queries']} (traced {notes['traced_queries']}) "
          f"in {notes['timed_s']:.2f} s timed; failed {record['failed']}, "
          f"query_fail_ratio {record['failed'] / max(1, record['attempted']):g}"
          + (f" ({notes['first_failure']})" if notes["first_failure"] else ""))
    if args.trace:
        print(f"# largest uncovered gap: {notes['largest_uncovered_gap']}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0 if done.returncode == 0 else 1


def load_records(target):
    path = Path(target)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        fail(f"no result records under {target}")
    return [json.loads(f.read_text()) for f in files]


def compare(args):
    base, new = load_records(args.base), load_records(args.new)
    reference = base[0]["params"]
    for record in base + new:
        for key in COMPARABLE:
            if record["params"].get(key) != reference.get(key):
                fail(f"refusing to compare: {key} differs "
                     f"({reference.get(key)} vs {record['params'].get(key)})")
    bounds = {}
    spec = HERE.parent / "BENCHMARK.json"
    if spec.exists():
        for m in json.loads(spec.read_text())["end_to_end"]:
            bounds[m["name"]] = (m["bound"], m["better"])
    print(f"# {reference['workload']} trace {reference['trace']} "
          f"cpu_count {reference['cpu_count']}: "
          f"{len(base)} base vs {len(new)} new runs")
    for name in base[0]["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (n - b) / b if b else 0.0
        verdict = ""
        if name in bounds:
            bound, better = bounds[name]
            worse = change > bound if better == "lower" else change < -bound
            verdict = "REGRESSION" if worse else "ok"
        print(f"{name:45s} {b:14.6g} -> {n:14.6g} {change:+8.2%} {verdict}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        return compare(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["audit_walk", "recall_scan", "campaign"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="smoke parameters: q=4, h=8, RSA-512")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
