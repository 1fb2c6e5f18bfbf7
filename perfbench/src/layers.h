// Turns a run's raw measurements into the named metrics: the end-to-end
// set (untraced runs) and the per-layer attribution (traced runs).
#pragma once

#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

Metrics end_to_end_metrics(const Params& params, const RunResult& run);

/// `largest_gap` receives the label of the uncovered stretch of query wall
/// time with the largest total ("<span before> -> <span after>").
Metrics per_layer_metrics(const Params& params, const RunResult& run,
                          std::string* largest_gap);

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);

}  // namespace perfbench
