// Figure 3 (qualitative) — the double-edged reputation incentive.
//
// The paper argues (without numbers) that deletion and addition yield no
// definite reputation benefit because participants cannot predict which
// products will be queried or their quality. This harness quantifies that
// argument with a Monte-Carlo simulation over the proxy's scoring model:
//
//   * honest       — every processed product is committed;
//   * deletion     — a fraction of processed products is deleted;
//   * addition     — fake traces are committed for unprocessed products.
//
// Per queried product the proxy awards +positive (good) or -negative
// (bad); a detected walk inconsistency caused by a fake trace costs the
// violation penalty (DE-Sword detects the adder's dead ends, §III-B).
//
// Output: expected reputation per period and its standard deviation (the
// "risk" that constitutes the second edge), per strategy and bad-product
// probability.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "desword/reputation.h"

namespace {

using desword::SimRng;

struct StrategyResult {
  double mean = 0.0;
  double stddev = 0.0;
};

struct Model {
  double p_bad;        // probability a queried product is bad
  double query_rate;   // probability any product is queried in the period
  int processed = 50;  // products processed per period
  int deleted = 0;     // of which deleted from the POC
  int added = 0;       // fake traces added
  desword::protocol::ScorePolicy scores;
  // Probability the proxy's walk exposes the adder's inconsistency (it
  // cannot name a consistent next hop for a product it never shipped).
  double addition_detection = 0.5;
};

StrategyResult simulate(const Model& model, int periods, std::uint64_t seed) {
  SimRng rng(seed);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(periods));
  for (int t = 0; t < periods; ++t) {
    double score = 0.0;
    const int committed = model.processed - model.deleted;
    for (int i = 0; i < committed; ++i) {
      if (!rng.chance(model.query_rate)) continue;
      if (rng.chance(model.p_bad)) {
        score -= model.scores.negative;
      } else {
        score += model.scores.positive;
      }
    }
    // Deleted products: never identified, no score either way.
    for (int i = 0; i < model.added; ++i) {
      if (!rng.chance(model.query_rate)) continue;
      if (rng.chance(model.p_bad)) {
        score -= model.scores.negative;
      } else {
        score += model.scores.positive;
      }
      if (rng.chance(model.addition_detection)) {
        score -= model.scores.violation_penalty;
      }
    }
    samples.push_back(score);
  }
  StrategyResult out;
  for (const double s : samples) out.mean += s;
  out.mean /= static_cast<double>(samples.size());
  for (const double s : samples) {
    out.stddev += (s - out.mean) * (s - out.mean);
  }
  out.stddev = std::sqrt(out.stddev / static_cast<double>(samples.size()));
  return out;
}

}  // namespace

int main() {
  constexpr int kPeriods = 20000;
  constexpr double kQueryRate = 0.2;

  std::printf("Figure 3 (qualitative): double-edged reputation incentive\n");
  std::printf("50 products/period, query rate %.2f, scores +%.0f/-%.0f, "
              "violation penalty %.0f\n\n",
              kQueryRate, 1.0, 2.0, 5.0);
  std::printf("%-8s | %-22s | %-22s | %-22s\n", "p(bad)",
              "honest mean+-sd", "delete-20% mean+-sd", "add-10 mean+-sd");
  std::printf("---------+------------------------+------------------------+"
              "----------------------\n");

  for (const double p_bad : {0.01, 0.05, 0.10, 0.20, 0.30, 0.50}) {
    Model honest{};
    honest.p_bad = p_bad;
    honest.query_rate = kQueryRate;
    Model deleter = honest;
    deleter.deleted = 10;  // 20% of 50
    Model adder = honest;
    adder.added = 10;

    const StrategyResult h = simulate(honest, kPeriods, 1);
    const std::string h_metrics = desword::benchutil::case_metrics_json();
    const StrategyResult d = simulate(deleter, kPeriods, 2);
    const std::string d_metrics = desword::benchutil::case_metrics_json();
    const StrategyResult a = simulate(adder, kPeriods, 3);
    const std::string a_metrics = desword::benchutil::case_metrics_json();
    std::printf("%-8.2f | %8.3f +- %-10.3f | %8.3f +- %-10.3f | "
                "%8.3f +- %-10.3f\n",
                p_bad, h.mean, h.stddev, d.mean, d.stddev, a.mean, a.stddev);
    // Mean reputation per period is the measurement; it rides in the
    // schema's numeric slot under explicit case names.
    const std::string suffix = "/pbad:" + std::to_string(p_bad);
    desword::benchutil::emit_json_line(
        "bench_incentive", "HonestMean" + suffix, h.mean, h_metrics);
    desword::benchutil::emit_json_line(
        "bench_incentive", "DeleteMean" + suffix, d.mean, d_metrics);
    desword::benchutil::emit_json_line("bench_incentive", "AddMean" + suffix,
                                       a.mean, a_metrics);
  }

  std::printf(
      "\nReading: while products are overwhelmingly good (small p(bad)),\n"
      "honesty strictly dominates deletion (foregone positive scores) and\n"
      "addition (violation penalties from inconsistent walks), matching\n"
      "the paper's double-edged argument. Deletion only pays once products\n"
      "turn bad more than ~1/3 of the time, far outside the paper's\n"
      "\"overwhelmingly good\" operating regime.\n");
  return 0;
}
