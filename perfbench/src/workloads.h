// The three benchmark workloads, their seeded inputs, the verdict oracle,
// and the raw measurements a run produces.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"
#include "zkedb/params.h"

namespace perfbench {

/// Everything that shapes a run. Recorded with every result; runs whose
/// parameters differ are not comparable.
struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  desword::zkedb::EdbConfig edb;
  std::size_t depth = 3;
  std::size_t width = 3;
  std::size_t fanout = 2;
  unsigned workers = 0;
  std::size_t outstanding = 1;  // closed-loop queries in flight
  bool good = true;             // product quality (audit_walk/recall_scan)
  bool task_hint = true;
  std::size_t tasks = 1;  // tasks distributed in set-up
  /// Per set-up task: it ships `weight * products_per_task` products and
  /// gets that share of the queries.
  std::vector<std::size_t> task_weights;
  std::size_t products_per_task = 1;
  std::size_t wave_products = 0;      // campaign: new products per write
  std::size_t setups = 1;             // set-up repetitions (setup_s median)
  unsigned cpu_count = 1;
  std::string trace_out;  // JSON-lines span artefact ("" = none)
};

/// Resolves a workload's parameters. Throws std::invalid_argument for an
/// unknown workload name.
Params make_params(const std::string& workload, std::uint64_t seed,
                   double seconds, bool trace, bool reduced);

/// Difference of every registry instrument between two points.
struct RegistryDelta {
  std::map<std::string, double> counters;   // name -> delta
  std::map<std::string, double> gauges;     // name -> change of level
  std::map<std::string, double> hist_count;  // name -> observations
  std::map<std::string, double> hist_ms;     // name -> summed ms
  double counter(const std::string& name) const;
  double count(const std::string& name) const;
  double ms(const std::string& name) const;
};

struct RegistrySnapshot {
  std::vector<std::uint64_t> counters;
  std::vector<std::int64_t> gauges;
  std::vector<std::uint64_t> hist_count;
  std::vector<std::uint64_t> hist_sum_us;
  static RegistrySnapshot take();
  RegistryDelta operator-(const RegistrySnapshot& before) const;
};

struct QueryRecord {
  std::uint64_t qid = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  bool traced = false;
  bool ok = false;
  /// 'g'/'b': first query of a good/bad product; 'G'/'B': a re-audit.
  char kind = 'g';
  std::string failure;  // oracle mismatch description when !ok
  // From the proxy's transcript and query trace, read at completion.
  std::size_t frames = 0;
  std::size_t round_trips = 0;
  std::size_t scan_candidates = 0;
  double ms() const { return static_cast<double>(end_ns - begin_ns) / 1e6; }
};

/// Per-operation costs measured by calling PocScheme directly, outside the
/// deployment, on the same parameters.
struct Replay {
  double prove_ownership_ms = 0;
  double verify_ownership_ms = 0;
  double prove_non_ownership_ms = 0;
  double verify_non_ownership_ms = 0;
  double codec_ms_total = 0;  // serialize+deserialize of captured frames
  double proof_kb_ownership = 0;      // mean size of captured proofs
  double proof_kb_non_ownership = 0;
};

struct RunResult {
  std::vector<double> setup_s;
  std::vector<QueryRecord> queries;  // completion order
  std::vector<double> task_commit_ms;
  std::uint64_t timed_start_ns = 0;
  std::uint64_t timed_end_ns = 0;
  std::uint64_t bytes_timed = 0;
  RegistryDelta timed;  // registry delta over the timed region
  // Set-up + timed distribution totals of the measured deployment.
  double commit_ms_total = 0;
  std::size_t tasks_total = 0;
  double distribution_ms_total = 0;
  double proofs_generated = 0;  // timed region
  long peak_rss_kb = 0;
  // Traced runs only.
  std::vector<Span> spans;
  std::map<std::string, std::uint64_t> bytes_by_type;  // traced queries
  std::map<std::uint64_t, std::uint64_t> first_send_ns;  // qid -> ns
  Replay replay;

  std::size_t failed() const;
};

/// Builds the deployment(s), runs the timed region, checks every verdict.
RunResult run_workload(const Params& params, Tracer& tracer);

}  // namespace perfbench
