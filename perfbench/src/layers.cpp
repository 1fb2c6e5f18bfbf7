#include "layers.h"

#include <algorithm>
#include <cmath>

#include "desword/messages.h"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Query latencies (ms); `which` = -1 all, 0 untraced only, 1 traced only.
std::vector<double> latencies(const RunResult& r, int which) {
  std::vector<double> out;
  for (const QueryRecord& q : r.queries) {
    if (which < 0 || q.traced == (which == 1)) out.push_back(q.ms());
  }
  return out;
}

double timed_seconds(const RunResult& r) {
  return static_cast<double>(r.timed_end_ns - r.timed_start_ns) / 1e9;
}

/// Union of span intervals, each remembering the span names at its two
/// edges so an uncovered gap can be named by its neighbours.
struct Covered {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::string_view first;
  std::string_view last;
};

std::vector<Covered> union_of(const std::vector<Span>& spans) {
  std::vector<Covered> ivs;
  for (const Span& s : spans) {
    if (s.end_ns > s.start_ns) ivs.push_back({s.start_ns, s.end_ns, s.name, s.name});
  }
  std::sort(ivs.begin(), ivs.end(),
            [](const Covered& a, const Covered& b) { return a.start < b.start; });
  std::vector<Covered> merged;
  for (const Covered& iv : ivs) {
    if (!merged.empty() && iv.start <= merged.back().end) {
      if (iv.end >= merged.back().end) {
        merged.back().end = iv.end;
        merged.back().last = iv.last;
      }
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

/// Uncovered time of traced queries, total and by gap label.
double uncovered_ns(const RunResult& r, const std::vector<Covered>& merged,
                    std::map<std::string, double>& by_label) {
  double total = 0;
  const auto gap = [&](std::uint64_t from, std::uint64_t to,
                       std::string_view before, std::string_view after) {
    if (to <= from) return;
    const double ns = static_cast<double>(to - from);
    total += ns;
    by_label[std::string(before) + " -> " + std::string(after)] += ns;
  };
  for (const QueryRecord& q : r.queries) {
    if (!q.traced) continue;
    auto it = std::lower_bound(
        merged.begin(), merged.end(), q.begin_ns,
        [](const Covered& c, std::uint64_t t) { return c.end <= t; });
    std::uint64_t cursor = q.begin_ns;
    std::string_view before = "query start";
    for (; it != merged.end() && it->start < q.end_ns; ++it) {
      gap(cursor, std::min(it->start, q.end_ns), before, it->first);
      cursor = std::max(cursor, it->end);
      before = it->last;
    }
    gap(cursor, q.end_ns, before, "query end");
  }
  return total;
}

/// Time traced queries spent with off-loop crypto owed to the loop (the
/// executor-busy intervals are disjoint: one pending count drives them).
double executor_inflight_ns(const RunResult& r) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> busy;
  for (const Span& s : r.spans) {
    if (s.thread == 1) busy.emplace_back(s.start_ns, s.end_ns);
  }
  std::sort(busy.begin(), busy.end());
  double total = 0;
  for (const QueryRecord& q : r.queries) {
    if (!q.traced) continue;
    auto it = std::lower_bound(
        busy.begin(), busy.end(), q.begin_ns,
        [](const auto& iv, std::uint64_t t) { return iv.second <= t; });
    for (; it != busy.end() && it->first < q.end_ns; ++it) {
      total += static_cast<double>(std::min(it->second, q.end_ns) -
                                   std::max(it->first, q.begin_ns));
    }
  }
  return total;
}

}  // namespace

Metrics end_to_end_metrics(const Params&, const RunResult& r) {
  const double n = static_cast<double>(r.queries.size());
  const std::vector<double> all = latencies(r, -1);
  Metrics m;
  m["setup_s"] = {percentile(r.setup_s, 0.5), "s"};
  m["query_ms_p50"] = {percentile(all, 0.5), "ms"};
  m["query_ms_p90"] = {percentile(all, 0.9), "ms"};
  m["queries_per_s"] = {ratio(n, timed_seconds(r)), "1/s"};
  m["wire_kb_per_query"] = {
      ratio(static_cast<double>(r.bytes_timed) / 1024.0, n), "KiB"};
  m["task_commit_ms_p50"] = {percentile(r.task_commit_ms, 0.5), "ms"};
  m["peak_rss_mb"] = {static_cast<double>(r.peak_rss_kb) / 1024.0, "MiB"};
  return m;
}

Metrics per_layer_metrics(const Params& p, const RunResult& r,
                          std::string* largest_gap) {
  namespace msg = desword::protocol::msg;
  const RegistryDelta& c = r.timed;
  const double n = static_cast<double>(r.queries.size());
  std::size_t traced_count = 0;
  double frames = 0, round_trips = 0, scans = 0;
  for (const QueryRecord& q : r.queries) {
    traced_count += q.traced ? 1 : 0;
    frames += static_cast<double>(q.frames);
    round_trips += static_cast<double>(q.round_trips);
    scans += static_cast<double>(q.scan_candidates);
  }
  const double nt = static_cast<double>(traced_count);

  // Self time per loop-thread span, leaving out the distribution phase
  // (campaign writes), which is not query time.
  const std::vector<Span>& spans = r.spans;
  std::vector<char> in_distribution(spans.size(), 0);
  std::vector<double> child_ns(spans.size(), 0);
  std::vector<Span> query_spans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto parent = static_cast<std::size_t>(s.parent);
    if (s.thread == 0) {
      in_distribution[i] = s.name == spans::kDistribute ||
                           (s.parent >= 0 && in_distribution[parent]);
      if (s.parent >= 0) child_ns[parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
    if (!in_distribution[i]) query_spans.push_back(s);
  }
  double poll_self = 0, send = 0, proxy_self = 0, participant_self = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.thread != 0 || in_distribution[i]) continue;
    const double self = static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
    const double crypto = static_cast<double>(s.prove_us + s.verify_us) * 1000.0;
    if (s.name == spans::kPoll) {
      poll_self += self;
    } else if (s.name == spans::kSend) {
      send += self;
    } else if (s.name == spans::kBeginQuery || s.name == spans::kPump ||
               s.name == spans::kProxyHandle ||
               s.name == spans::kProxyCompletion) {
      proxy_self += std::max(0.0, self - crypto);
    } else if (s.name == spans::kParticipantHandle ||
               s.name == spans::kParticipantCompletion) {
      participant_self += std::max(0.0, self - crypto);
    }
  }
  const auto per_traced_ms = [&](double ns) { return ratio(ns / 1e6, nt); };

  Metrics m;
  // net
  m["net.frames_per_query"] = {ratio(frames, n), "count"};
  std::uint64_t query_bytes = 0;
  std::uint64_t all_bytes = 0;
  for (const char* type : {msg::kQueryRequest, msg::kQueryResponse,
                           msg::kRevealRequest, msg::kRevealResponse,
                           msg::kNextHopRequest, msg::kNextHopResponse}) {
    const auto it = r.bytes_by_type.find(type);
    const std::uint64_t bytes = it == r.bytes_by_type.end() ? 0 : it->second;
    query_bytes += bytes;
    m[std::string("net.kb_per_query.") + type] = {
        ratio(static_cast<double>(bytes) / 1024.0, nt), "KiB"};
  }
  for (const auto& [type, bytes] : r.bytes_by_type) all_bytes += bytes;
  m["net.kb_per_query.distribution"] = {
      ratio(static_cast<double>(all_bytes - query_bytes) / 1024.0, nt), "KiB"};
  m["net.poll_self_ms_per_query"] = {per_traced_ms(poll_self), "ms"};
  m["net.send_ms_per_query"] = {per_traced_ms(send), "ms"};
  m["net.codec_ms_per_query"] = {ratio(r.replay.codec_ms_total, nt), "ms"};
  m["net.retransmits_per_query"] = {
      ratio(c.counter("net.retransmit.fired"), n), "count"};

  // desword
  m["desword.proxy.self_ms_per_query"] = {per_traced_ms(proxy_self), "ms"};
  m["desword.participant.self_ms_per_query"] = {
      per_traced_ms(participant_self), "ms"};
  m["desword.round_trips_per_query"] = {ratio(round_trips, n), "count"};
  m["desword.scan_candidates_per_query"] = {ratio(scans, n), "count"};
  std::vector<double> sched_wait;
  for (const QueryRecord& q : r.queries) {
    const auto it = r.first_send_ns.find(q.qid);
    if (q.traced && it != r.first_send_ns.end() && it->second >= q.begin_ns) {
      sched_wait.push_back(static_cast<double>(it->second - q.begin_ns) / 1e6);
    }
  }
  m["desword.scheduler.wait_ms_p50"] = {percentile(sched_wait, 0.5), "ms"};
  const double memo_hits = c.counter("protocol.proof.memo_hits");
  m["desword.proof_memo_hit_ratio"] = {
      ratio(memo_hits, memo_hits + r.proofs_generated), "ratio"};
  const std::vector<double> in_order = latencies(r, -1);
  const std::size_t tenth = std::max<std::size_t>(1, in_order.size() / 10);
  const std::vector<double> head(in_order.begin(),
                                 in_order.begin() + static_cast<std::ptrdiff_t>(
                                                        std::min(tenth, in_order.size())));
  const std::vector<double> tail(
      in_order.end() - static_cast<std::ptrdiff_t>(std::min(tenth, in_order.size())),
      in_order.end());
  m["desword.latency_drift_ratio"] = {
      ratio(percentile(tail, 0.5), percentile(head, 0.5)), "ratio"};
  m["query_fail_ratio"] = {ratio(static_cast<double>(r.failed()), n), "ratio"};

  // common (executor)
  const double exec_tasks = c.count("exec.task.run_ms");
  m["common.executor.wait_ms_per_task"] = {
      ratio(c.ms("exec.task.wait_ms"), c.count("exec.task.wait_ms")), "ms"};
  m["common.executor.run_ms_per_task"] = {ratio(c.ms("exec.task.run_ms"), exec_tasks),
                                          "ms"};
  m["common.executor.busy_ratio"] = {
      ratio(c.ms("exec.task.run_ms"),
            static_cast<double>(p.workers) * timed_seconds(r) * 1000.0),
      "ratio"};
  m["common.executor.tasks_per_query"] = {
      ratio(c.counter("exec.task.completed"), n), "count"};
  m["common.executor.inflight_ms_per_query"] = {
      per_traced_ms(executor_inflight_ns(r)), "ms"};

  // poc (replayed on the deployment's CRS; sizes from captured frames)
  m["poc.prove_ms.ownership"] = {r.replay.prove_ownership_ms, "ms"};
  m["poc.verify_ms.ownership"] = {r.replay.verify_ownership_ms, "ms"};
  m["poc.prove_ms.non_ownership"] = {r.replay.prove_non_ownership_ms, "ms"};
  m["poc.verify_ms.non_ownership"] = {r.replay.verify_non_ownership_ms, "ms"};
  m["poc.proof_kb.ownership"] = {r.replay.proof_kb_ownership, "KiB"};
  m["poc.proof_kb.non_ownership"] = {r.replay.proof_kb_non_ownership, "KiB"};

  // zkedb (in-situ histogram deltas)
  const double prove_ms = ratio(c.ms("zkedb.prove.wall_ms"), n);
  const double verify_ms = ratio(c.ms("zkedb.verify.wall_ms"), n);
  double mean_query_ms = 0;
  for (double ms : in_order) mean_query_ms += ms;
  mean_query_ms = ratio(mean_query_ms, n);
  m["zkedb.prove_ms_per_query"] = {prove_ms, "ms"};
  m["zkedb.verify_ms_per_query"] = {verify_ms, "ms"};
  m["zkedb.prove_verify_share"] = {ratio(prove_ms + verify_ms, mean_query_ms),
                                   "ratio"};
  m["zkedb.commit_ms_per_task"] = {
      ratio(r.commit_ms_total, static_cast<double>(r.tasks_total)), "ms"};
  const double hits = c.counter("zkedb.cache.hit");
  m["zkedb.cache_hit_ratio"] = {ratio(hits, hits + c.counter("zkedb.cache.miss")),
                                "ratio"};
  m["zkedb.cache_joined_per_query"] = {ratio(c.counter("zkedb.cache.joined"), n),
                                       "count"};
  m["zkedb.cache_evictions"] = {c.counter("zkedb.cache.evict"), "count"};

  // crypto
  const double modexp = c.counter("crypto.modexp.calls");
  m["crypto.modexp_calls_per_query"] = {ratio(modexp, n), "count"};
  m["crypto.fixed_base_hit_ratio"] = {
      ratio(c.counter("crypto.modexp.fixed_base_hits"), modexp), "ratio"};
  m["crypto.multi_exp_calls_per_query"] = {
      ratio(c.counter("crypto.multi_exp.calls"), n), "count"};
  m["crypto.batch_folds_per_query"] = {
      ratio(c.counter("crypto.batch_verify.folds"), n), "count"};
  m["crypto.bisect_steps_per_query"] = {
      ratio(c.counter("crypto.batch_verify.bisect_steps"), n), "count"};

  // supplychain
  m["supplychain.distribution_ms_per_task"] = {
      ratio(r.distribution_ms_total, static_cast<double>(r.tasks_total)), "ms"};

  // trace quality
  const std::vector<Covered> merged = union_of(query_spans);
  std::map<std::string, double> gaps;
  const double uncovered = uncovered_ns(r, merged, gaps);
  double traced_wall = 0;
  for (const QueryRecord& q : r.queries) {
    if (q.traced) traced_wall += static_cast<double>(q.end_ns - q.begin_ns);
  }
  m["trace.unaccounted_ratio"] = {ratio(uncovered, traced_wall), "ratio"};
  m["trace.overhead_ratio"] = {
      ratio(percentile(latencies(r, 1), 0.5), percentile(latencies(r, 0), 0.5)),
      "ratio"};
  if (largest_gap != nullptr) {
    const auto top = std::max_element(
        gaps.begin(), gaps.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    *largest_gap = top == gaps.end() ? "none" : top->first;
  }
  return m;
}

}  // namespace perfbench
