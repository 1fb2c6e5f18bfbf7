// perfbench: the path-query benchmark program.
//
//   perfbench --workload audit_walk|recall_scan|campaign --seed N
//             --seconds S --trace 0|1 [--reduced] [--trace-out FILE]
//
// Prints one JSON object on its last line: the verdict check ("correct",
// "attempted", "failed"), the metrics (end-to-end with --trace 0, per-layer
// with --trace 1), the run's parameters and host, and notes. Exits 1 when
// any verdict disagrees with ground truth, 2 on a usage or set-up error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "layers.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metrics;
using perfbench::Params;
using perfbench::RunResult;

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string params_json(const Params& p) {
  std::ostringstream o;
  o << "{\"workload\":" << quoted(p.workload) << ",\"seed\":" << p.seed
    << ",\"seconds\":" << number(p.seconds) << ",\"trace\":" << (p.trace ? 1 : 0)
    << ",\"cpu_count\":" << p.cpu_count << ",\"build_type\":"
    << quoted(PERFBENCH_BUILD_TYPE) << ",\"q\":" << p.edb.q
    << ",\"h\":" << p.edb.height << ",\"rsa_bits\":" << p.edb.rsa_bits
    << ",\"group\":" << quoted(p.edb.group_name) << ",\"depth\":" << p.depth
    << ",\"width\":" << p.width << ",\"fanout\":" << p.fanout
    << ",\"workers\":" << p.workers << ",\"outstanding\":" << p.outstanding
    << ",\"tasks\":" << p.tasks << ",\"task_weights\":[";
  for (std::size_t i = 0; i < p.task_weights.size(); ++i) {
    o << (i ? "," : "") << p.task_weights[i];
  }
  o << "],\"products_per_task\":"
    << p.products_per_task << ",\"wave_products\":" << p.wave_products
    << ",\"setups\":" << p.setups << "}";
  return o.str();
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    o << (first ? "" : ",") << quoted(name) << ":{\"value\":"
      << number(metric.value) << ",\"unit\":" << quoted(metric.unit) << "}";
    first = false;
  }
  return o.str() + "}";
}

std::string registry_json(const perfbench::RegistryDelta& d) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  const auto emit = [&](const std::string& name, double v) {
    if (v == 0) return;
    o << (first ? "" : ",") << quoted(name) << ":" << number(v);
    first = false;
  };
  for (const auto& [name, v] : d.counters) emit(name, v);
  for (const auto& [name, v] : d.gauges) emit(name, v);
  for (const auto& [name, v] : d.hist_count) emit(name + ".count", v);
  for (const auto& [name, v] : d.hist_ms) emit(name + ".sum_ms", v);
  return o.str() + "}";
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload audit_walk|recall_scan|campaign"
               " --seed N --seconds S --trace 0|1 [--reduced]"
               " [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool reduced = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        seed = std::stoull(value());
      } else if (arg == "--seconds") {
        seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace = value() != "0";
      } else if (arg == "--reduced") {
        reduced = true;
      } else if (arg == "--trace-out") {
        trace_out = value();
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (seconds <= 0) return usage("--seconds must be positive");

  try {
    Params params = perfbench::make_params(workload, seed, seconds, trace, reduced);
    params.trace_out = trace_out;
    perfbench::Tracer tracer;
    const RunResult run = perfbench::run_workload(params, tracer);
    std::string largest_gap;
    const Metrics metrics =
        trace ? perfbench::per_layer_metrics(params, run, &largest_gap)
              : perfbench::end_to_end_metrics(params, run);
    const std::size_t failed = run.failed();
    bool finite = true;
    for (const auto& [name, metric] : metrics) {
      finite = finite && std::isfinite(metric.value);
    }
    const bool correct = failed == 0 && !run.queries.empty() && finite;
    std::string first_failure;
    std::size_t traced = 0;
    for (const auto& q : run.queries) {
      if (!q.ok && first_failure.empty()) first_failure = q.failure;
      traced += q.traced ? 1 : 0;
    }
    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << run.queries.size()
              << ",\"failed\":" << failed
              << ",\"metrics\":" << metrics_json(metrics)
              << ",\"params\":" << params_json(params)
              << ",\"notes\":{\"queries\":" << run.queries.size()
              << ",\"traced_queries\":" << traced
              << ",\"timed_s\":"
              << number(static_cast<double>(run.timed_end_ns - run.timed_start_ns) / 1e9)
              << ",\"setup_s_each\":[";
    for (std::size_t i = 0; i < run.setup_s.size(); ++i) {
      std::cout << (i ? "," : "") << number(run.setup_s[i]);
    }
    std::cout << "],\"query_ms\":[";
    std::string kinds;
    for (std::size_t i = 0; i < run.queries.size(); ++i) {
      std::cout << (i ? "," : "") << number(run.queries[i].ms());
      kinds += run.queries[i].kind;
    }
    std::cout << "],\"query_kinds\":" << quoted(kinds)
              << ",\"largest_uncovered_gap\":" << quoted(largest_gap)
              << ",\"first_failure\":" << quoted(first_failure)
              << ",\"registry_delta\":" << registry_json(run.timed) << "}}"
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
