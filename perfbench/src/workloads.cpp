#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "deployment.h"
#include "desword/messages.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "poc/poc.h"
#include "supplychain/rfid.h"

namespace perfbench {

namespace obs = desword::obs;
namespace protocol = desword::protocol;
namespace supplychain = desword::supplychain;
using protocol::ProductQuality;

// --- Parameters --------------------------------------------------------------

Params make_params(const std::string& workload, std::uint64_t seed,
                   double seconds, bool trace, bool reduced) {
  Params p;
  p.workload = workload;
  p.seed = seed;
  p.seconds = seconds;
  p.trace = trace;
  p.edb = reduced ? desword::zkedb::EdbConfig{4, 8, 512, "p256",
                                              desword::zkedb::SoftMode::kShared}
                  : desword::zkedb::EdbConfig{16, 32, 2048, "p256",
                                              desword::zkedb::SoftMode::kShared};
  p.cpu_count = std::max(1u, std::thread::hardware_concurrency());
  const unsigned spare = p.cpu_count - 1;  // executor workers + loop thread
  // Products a one-outstanding run can consume: each is queried once, so
  // set-up distributes enough for the fastest plausible query rate.
  const auto enough = [&](double min_query_s) {
    return static_cast<std::size_t>(std::ceil(seconds / min_query_s)) + 1;
  };
  if (workload == "audit_walk") {
    p.depth = 7;
    p.workers = spare;
    p.outstanding = 1;
    p.good = true;
    p.task_hint = true;
    p.tasks = 4;
    p.task_weights = {1, 1, 1, 1};
    p.products_per_task = (enough(reduced ? 0.005 : 0.28) + 3) / 4;
    p.setups = 1;
  } else if (workload == "recall_scan") {
    p.depth = 3;
    p.workers = 0;
    p.outstanding = 1;
    p.good = false;
    p.task_hint = false;
    // Eight queue positions; positions 5 and 8 are queried twice as often,
    // so the median and the 90th percentile fall mid-way through one
    // position's latency band instead of on the step between two.
    p.tasks = 8;
    p.task_weights = {1, 1, 1, 1, 2, 1, 1, 2};
    p.products_per_task = (enough(reduced ? 0.005 : 0.2) + 9) / 10;
    p.setups = 1;
  } else if (workload == "campaign") {
    p.depth = 4;
    p.workers = spare;
    p.outstanding = 16;
    p.tasks = 1;
    p.task_weights = {1};
    p.products_per_task = 16;
    p.wave_products = 16;
    p.setups = 3;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  if (reduced) p.products_per_task = std::min<std::size_t>(p.products_per_task, 24);
  return p;
}

// --- Registry deltas -------------------------------------------------------------

namespace {

double lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

double RegistryDelta::counter(const std::string& name) const {
  return lookup(counters, name);
}
double RegistryDelta::count(const std::string& name) const {
  return lookup(hist_count, name);
}
double RegistryDelta::ms(const std::string& name) const {
  return lookup(hist_ms, name);
}

RegistrySnapshot RegistrySnapshot::take() {
  const auto& reg = obs::MetricsRegistry::global();
  RegistrySnapshot s;
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::CounterId::kCount);
       ++i) {
    s.counters.push_back(reg.counter(static_cast<obs::CounterId>(i)).value());
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::GaugeId::kCount);
       ++i) {
    s.gauges.push_back(reg.gauge(static_cast<obs::GaugeId>(i)).value());
  }
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(obs::HistogramId::kCount); ++i) {
    const auto& h = reg.histogram(static_cast<obs::HistogramId>(i));
    s.hist_count.push_back(h.count());
    s.hist_sum_us.push_back(h.sum_us());
  }
  return s;
}

RegistryDelta RegistrySnapshot::operator-(const RegistrySnapshot& before) const {
  RegistryDelta d;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    d.counters[obs::MetricsRegistry::name_of(static_cast<obs::CounterId>(i))] =
        static_cast<double>(counters[i] - before.counters[i]);
  }
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    d.gauges[obs::MetricsRegistry::name_of(static_cast<obs::GaugeId>(i))] =
        static_cast<double>(gauges[i] - before.gauges[i]);
  }
  for (std::size_t i = 0; i < hist_count.size(); ++i) {
    const std::string name =
        obs::MetricsRegistry::name_of(static_cast<obs::HistogramId>(i));
    d.hist_count[name] = static_cast<double>(hist_count[i] - before.hist_count[i]);
    d.hist_ms[name] =
        static_cast<double>(hist_sum_us[i] - before.hist_sum_us[i]) / 1000.0;
  }
  return d;
}

std::size_t RunResult::failed() const {
  return static_cast<std::size_t>(
      std::count_if(queries.begin(), queries.end(),
                    [](const QueryRecord& q) { return !q.ok; }));
}

namespace {

// --- Seeded inputs ---------------------------------------------------------------

struct Product {
  supplychain::ProductId id;
  ProductQuality quality = ProductQuality::kGood;
  bool reaudit = false;
};

/// Generates every input of a run from the seed: product serials, their
/// quality, query order and the re-audit schedule.
class Inputs {
 public:
  explicit Inputs(std::uint64_t seed)
      : rng_(seed),
        manager_(1 + static_cast<std::uint32_t>(rng_() % 50000)),
        next_serial_((rng_() % 1000000) * 1000) {}

  /// `count` fresh products; with `mixed`, exactly half are bad (in a
  /// seeded order), otherwise all have `quality`. Serials whose ZK-EDB key
  /// (under `crs`) an earlier product already took are skipped: a tiny key
  /// space, as in the reduced smoke parameters, would otherwise make two
  /// products indistinguishable to the proofs.
  std::vector<Product> products(std::size_t count, bool mixed,
                                ProductQuality quality,
                                const desword::zkedb::EdbCrs& crs) {
    std::vector<Product> out;
    while (out.size() < count) {
      supplychain::ProductId id =
          supplychain::make_epc(manager_, /*object_class=*/1, next_serial_++);
      if (used_keys_.insert(desword::zkedb::key_for_identifier(crs, id)).second) {
        out.push_back(Product{std::move(id), quality});
      }
    }
    if (mixed) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].quality = i % 2 == 0 ? ProductQuality::kGood : ProductQuality::kBad;
      }
      shuffle(out);
    }
    return out;
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), rng_);
  }

  /// `count` distinct elements of `pool`, in seeded order.
  std::vector<Product> sample(const std::vector<Product>& pool,
                              std::size_t count) {
    std::vector<Product> copy = pool;
    shuffle(copy);
    copy.resize(std::min(count, copy.size()));
    for (Product& p : copy) p.reaudit = true;
    return copy;
  }

  std::uint64_t routing_seed() { return rng_(); }

 private:
  std::mt19937_64 rng_;
  std::uint32_t manager_;
  std::uint64_t next_serial_;
  std::set<desword::zkedb::EdbKey> used_keys_;
};

std::vector<supplychain::ProductId> ids_of(const std::vector<Product>& v) {
  std::vector<supplychain::ProductId> out;
  for (const Product& p : v) out.push_back(p.id);
  return out;
}

// --- Verdict oracle ----------------------------------------------------------------

/// Collects reputation events per query id from the proxy's ledger history
/// as they are applied.
class ReputationTracker {
 public:
  /// Ignores every event applied before now.
  explicit ReputationTracker(const protocol::ReputationLedger& ledger)
      : seen_(ledger.events_applied()) {}

  void absorb(const protocol::ReputationLedger& ledger) {
    const std::uint64_t applied = ledger.events_applied();
    const std::uint64_t fresh = applied - seen_;
    const auto& history = ledger.history();
    if (fresh > history.size()) {
      throw std::runtime_error("reputation history overflowed between checks");
    }
    for (auto it = history.end() - static_cast<std::ptrdiff_t>(fresh);
         it != history.end(); ++it) {
      deltas_[it->query_id][it->participant] += it->delta;
    }
    seen_ = applied;
  }

  std::map<std::string, double> take(std::uint64_t qid) {
    auto node = deltas_.extract(qid);
    return node.empty() ? std::map<std::string, double>{}
                        : std::move(node.mapped());
  }

 private:
  std::uint64_t seen_ = 0;
  std::map<std::uint64_t, std::map<std::string, double>> deltas_;
};

/// Compares an outcome with the distribution's ground truth and the
/// ScorePolicy award; returns "" when they agree, else what differs.
std::string check_verdict(const protocol::QueryOutcome& outcome,
                          const Product& product, const Deployment& d,
                          const std::map<std::string, double>& deltas) {
  const std::vector<std::string>& path = d.path_of(product.id);
  if (!outcome.complete) return "incomplete";
  if (outcome.path != path) return "path differs from ground truth";
  if (!outcome.violations.empty()) return "unexpected violations";
  if (outcome.task_id != d.task_of(product.id)) return "wrong task";
  const protocol::ScorePolicy policy;
  const double award = product.quality == ProductQuality::kGood
                           ? policy.positive
                           : -policy.negative;
  std::map<std::string, double> expected;
  for (const std::string& p : path) expected[p] += award;
  if (deltas != expected) return "reputation delta differs from award";
  return "";
}

// --- Closed-loop runner ------------------------------------------------------------

class Runner {
 public:
  Runner(Deployment& d, Tracer& tracer, const Params& params)
      : d_(d),
        tracer_(tracer),
        params_(params),
        reputation_(d.proxy().ledger()) {
    d_.proxy().set_completion_callback(
        [this](const protocol::QueryOutcome& o) {
          done_.emplace_back(o.query_id, now_ns());
        });
  }

  ~Runner() { d_.proxy().set_completion_callback(nullptr); }

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Runs `products` as a closed loop with params.outstanding queries in
  /// flight. Appends one record per finished query, in completion order.
  void run(const std::vector<Product>& products, bool traced,
           std::vector<QueryRecord>& out) {
    tracer_.set_enabled(traced);
    struct Pending {
      std::size_t index;
      QueryRecord record;
    };
    std::map<std::uint64_t, Pending> inflight;
    std::size_t next = 0;
    const auto may_start = [&] {
      return next < products.size() && inflight.size() < params_.outstanding;
    };
    const auto start = [&] {
      const Product& p = products[next];
      QueryRecord rec;
      rec.traced = traced;
      rec.kind = p.quality == ProductQuality::kGood ? 'g' : 'b';
      if (p.reaudit) rec.kind = static_cast<char>(rec.kind - 'a' + 'A');
      rec.begin_ns = now_ns();
      {
        Scope scope(tracer_, spans::kBeginQuery);
        rec.qid = d_.proxy().begin_query(
            p.id, p.quality,
            params_.task_hint ? std::optional<std::string>(d_.task_of(p.id))
                              : std::nullopt);
      }
      inflight.emplace(rec.qid, Pending{next++, rec});
    };
    while (may_start()) start();
    std::size_t idle_polls = 0;
    while (!inflight.empty()) {
      std::size_t events = 1;
      if (params_.outstanding == 1) {
        Scope scope(tracer_, spans::kPump);
        d_.proxy().pump();
      } else {
        events = d_.transport().poll(/*timeout_ms=*/10);
      }
      idle_polls = events == 0 && done_.empty() ? idle_polls + 1 : 0;
      if (idle_polls > 1000000) throw std::runtime_error("closed loop stalled");
      for (const auto& [qid, at] : done_) {
        const auto it = inflight.find(qid);
        if (it == inflight.end()) continue;
        QueryRecord rec = it->second.record;
        rec.end_ns = at;
        finish(rec, products[it->second.index]);
        out.push_back(std::move(rec));
        inflight.erase(it);
      }
      done_.clear();
      while (may_start()) start();
    }
    tracer_.set_enabled(false);
  }

 private:
  void finish(QueryRecord& rec, const Product& product) {
    protocol::Proxy& proxy = d_.proxy();
    reputation_.absorb(proxy.ledger());
    const protocol::QueryOutcome* outcome = proxy.outcome(rec.qid);
    rec.failure = outcome == nullptr
                      ? "no outcome"
                      : check_verdict(*outcome, product, d_,
                                      reputation_.take(rec.qid));
    rec.ok = rec.failure.empty();
    if (const auto* transcript = proxy.transcript(rec.qid)) {
      rec.frames = transcript->size();
      rec.round_trips = static_cast<std::size_t>(std::count_if(
          transcript->begin(), transcript->end(),
          [](const protocol::Proxy::TranscriptEntry& e) { return e.outgoing; }));
    }
    if (!params_.task_hint) {
      // Candidates the initial scan examined: every non-owning POC-queue
      // entry answers with a verified non-ownership proof, then the owner.
      std::size_t non_owners = 0;
      if (const auto* trace = proxy.query_trace(rec.qid)) {
        for (const auto& span : trace->spans()) {
          if (span.event == obs::span::kVerifyOk &&
              span.detail == "non_ownership") {
            ++non_owners;
          }
        }
      }
      rec.scan_candidates = non_owners + 1;
    }
  }

  Deployment& d_;
  Tracer& tracer_;
  const Params& params_;
  ReputationTracker reputation_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> done_;
};

// --- Set-up --------------------------------------------------------------------------

DeploymentConfig deployment_config(const Params& p) {
  DeploymentConfig c;
  c.edb = p.edb;
  c.depth = p.depth;
  c.width = p.width;
  c.fanout = p.fanout;
  c.workers = p.workers;
  c.max_in_flight = p.outstanding;
  return c;
}

struct Prepared {
  std::unique_ptr<Deployment> deployment;
  std::vector<Product> fresh;    // distributed, never queried
  std::vector<Product> queried;  // queried during set-up (warm-up)
};

std::string task_name(const std::string& prefix, std::size_t i) {
  return prefix + "-" + std::to_string(i);
}

/// One full set-up: deployment, CRS and table warm-up, pre-loaded tasks,
/// and a warm-up pass that exercises every code path the timed region uses.
Prepared prepare(const Params& p, Tracer& tracer, Inputs& inputs) {
  Prepared out;
  out.deployment =
      std::make_unique<Deployment>(deployment_config(p), tracer, p.trace);
  Deployment& d = *out.deployment;
  const bool mixed = p.workload == "campaign";
  const ProductQuality quality =
      p.good ? ProductQuality::kGood : ProductQuality::kBad;
  std::vector<std::vector<Product>> by_task;
  for (std::size_t t = 0; t < p.tasks; ++t) {
    // One extra product in the last task: the warm-up query (for an
    // unhinted scan, the last task is the deepest POC-queue entry).
    const std::size_t count = p.products_per_task * p.task_weights[t] +
                              (!mixed && t + 1 == p.tasks ? 1 : 0);
    std::vector<Product> batch =
        inputs.products(count, mixed, quality, *d.proxy().crs());
    d.distribute(task_name("task", t), ids_of(batch), inputs.routing_seed());
    if (!mixed && t + 1 == p.tasks) {
      out.queried.push_back(batch.back());
      batch.pop_back();
    }
    inputs.shuffle(batch);
    by_task.push_back(std::move(batch));
  }
  if (mixed) {
    out.queried = by_task.front();  // the first wave's re-audit pool
  } else {
    // Query order: rounds that take `weight` products of every task, in a
    // fresh seeded order each round, so any prefix of the run sees the
    // POC-queue positions in about their weighted proportions.
    std::vector<std::size_t> order;
    for (std::size_t t = 0; t < p.tasks; ++t) {
      order.insert(order.end(), p.task_weights[t], t);
    }
    std::vector<std::size_t> taken(p.tasks, 0);
    for (std::size_t round = 0; round < p.products_per_task; ++round) {
      inputs.shuffle(order);
      for (const std::size_t t : order) {
        out.fresh.push_back(by_task[t][taken[t]++]);
      }
    }
  }
  std::vector<QueryRecord> warm;
  Runner(d, tracer, p).run(out.queried, false, warm);
  for (const QueryRecord& q : warm) {
    if (!q.ok) throw std::runtime_error("warm-up query failed: " + q.failure);
  }
  return out;
}

// --- Replay ----------------------------------------------------------------------------

template <typename F>
double time_ms(F&& f) {
  const std::uint64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) / 1e6;
}

template <typename M>
void codec_round_trip(const desword::Bytes& payload) {
  const M m = M::deserialize(payload);
  const desword::Bytes again = m.serialize();
  if (again != payload) throw std::runtime_error("codec round trip differs");
}

Replay replay(Deployment& d, const std::vector<Product>& owned,
              const std::vector<desword::net::Envelope>& frames,
              Inputs& inputs) {
  namespace msg = protocol::msg;
  Replay r;
  // Codec: the captured query-phase payloads, decoded and re-encoded.
  std::vector<double> own_kb;
  std::vector<double> non_kb;
  for (const desword::net::Envelope& f : frames) {
    r.codec_ms_total += time_ms([&] {
      if (f.type == msg::kQueryRequest) codec_round_trip<protocol::QueryRequest>(f.payload);
      if (f.type == msg::kQueryResponse) codec_round_trip<protocol::QueryResponse>(f.payload);
      if (f.type == msg::kRevealRequest) codec_round_trip<protocol::RevealRequest>(f.payload);
      if (f.type == msg::kRevealResponse) codec_round_trip<protocol::RevealResponse>(f.payload);
      if (f.type == msg::kNextHopRequest) codec_round_trip<protocol::NextHopRequest>(f.payload);
      if (f.type == msg::kNextHopResponse) codec_round_trip<protocol::NextHopResponse>(f.payload);
    });
    std::optional<desword::Bytes> proof;
    if (f.type == msg::kQueryResponse) {
      proof = protocol::QueryResponse::deserialize(f.payload).proof;
    } else if (f.type == msg::kRevealResponse) {
      proof = protocol::RevealResponse::deserialize(f.payload).proof;
    }
    if (proof) {
      const bool ownership = desword::poc::PocProof::deserialize(*proof).ownership;
      (ownership ? own_kb : non_kb).push_back(static_cast<double>(proof->size()) / 1024.0);
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  r.proof_kb_ownership = mean(own_kb);
  r.proof_kb_non_ownership = mean(non_kb);

  // POC prove/verify on the deployment's CRS, outside the deployment: a
  // small committed database, one owned and one absent product.
  const desword::poc::PocScheme scheme(d.proxy().crs());
  std::map<desword::Bytes, desword::Bytes> traces;
  for (std::size_t i = 0; i < std::min<std::size_t>(4, owned.size()); ++i) {
    traces[owned[i].id] = desword::Bytes{static_cast<std::uint8_t>(i), 1, 2, 3};
  }
  auto [poc, dpoc] = scheme.aggregate("replay", traces);
  const desword::Bytes absent =
      inputs.products(1, false, ProductQuality::kGood, *d.proxy().crs())[0].id;
  const desword::Bytes present = traces.begin()->first;
  std::vector<double> po, vo, pn, vn;
  for (int rep = 0; rep < 3; ++rep) {
    desword::poc::PocProof own;
    desword::poc::PocProof non;
    po.push_back(time_ms([&] { own = scheme.prove(*dpoc, present); }));
    vo.push_back(time_ms([&] {
      if (scheme.verify(poc, present, own).verdict != desword::poc::PocVerdict::kTrace) {
        throw std::runtime_error("replayed ownership proof rejected");
      }
    }));
    pn.push_back(time_ms([&] { non = scheme.prove(*dpoc, absent); }));
    vn.push_back(time_ms([&] {
      if (scheme.verify(poc, absent, non).verdict != desword::poc::PocVerdict::kValid) {
        throw std::runtime_error("replayed non-ownership proof rejected");
      }
    }));
  }
  r.prove_ownership_ms = percentile(po, 0.5);
  r.verify_ownership_ms = percentile(vo, 0.5);
  r.prove_non_ownership_ms = percentile(pn, 0.5);
  r.verify_non_ownership_ms = percentile(vn, 0.5);
  return r;
}

}  // namespace

// --- Run ---------------------------------------------------------------------------------

RunResult run_workload(const Params& p, Tracer& tracer) {
  RunResult r;
  Inputs inputs(p.seed);
  Prepared prep;
  RegistrySnapshot deployment_start;
  for (std::size_t i = 0; i < p.setups; ++i) {
    prep = Prepared{};  // tear the previous deployment down first
    deployment_start = RegistrySnapshot::take();
    Inputs attempt = inputs;  // every set-up builds the same inputs
    const std::uint64_t t0 = now_ns();
    prep = prepare(p, tracer, attempt);
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (i + 1 == p.setups) inputs = attempt;
  }
  Deployment& d = *prep.deployment;
  Runner runner(d, tracer, p);

  const RegistrySnapshot before = RegistrySnapshot::take();
  const std::uint64_t bytes_before = d.bytes_sent();
  const std::uint64_t proofs_before = d.proofs_generated();
  r.timed_start_ns = now_ns();
  const std::uint64_t deadline =
      r.timed_start_ns + static_cast<std::uint64_t>(p.seconds * 1e9);
  if (p.workload != "campaign") {
    // One query outstanding; in a traced run every other query is traced
    // so the untraced ones give the overhead baseline.
    for (std::size_t i = 0; i < prep.fresh.size() && now_ns() < deadline; ++i) {
      runner.run({prep.fresh[i]}, p.trace && i % 2 == 0, r.queries);
    }
  } else {
    // Whole rounds only (a write, then its wave), so every round
    // contributes the same mix of distribution and query traffic.
    std::vector<Product> pool = prep.queried;
    for (std::size_t round = 0; now_ns() < deadline; ++round) {
      const bool traced = p.trace && round % 2 == 0;
      std::vector<Product> fresh =
          inputs.products(p.wave_products, /*mixed=*/true, ProductQuality::kGood,
                          *d.proxy().crs());
      tracer.set_enabled(traced);
      d.distribute(task_name("wave", round), ids_of(fresh),
                   inputs.routing_seed());
      r.task_commit_ms.push_back(d.task_wall_ms().back());
      tracer.set_enabled(false);
      // About half of each wave re-audits products already queried.
      std::vector<Product> wave = inputs.sample(pool, fresh.size());
      pool.insert(pool.end(), fresh.begin(), fresh.end());
      wave.insert(wave.end(), fresh.begin(), fresh.end());
      inputs.shuffle(wave);
      runner.run(wave, traced, r.queries);
    }
  }
  r.timed_end_ns = now_ns();
  const RegistrySnapshot after = RegistrySnapshot::take();
  r.timed = after - before;
  r.bytes_timed = d.bytes_sent() - bytes_before;
  r.proofs_generated = static_cast<double>(d.proofs_generated() - proofs_before);
  const RegistryDelta whole = after - deployment_start;
  r.commit_ms_total = whole.ms("zkedb.commit.wall_ms");
  r.tasks_total = p.tasks + r.task_commit_ms.size();
  r.distribution_ms_total = static_cast<double>(d.distribution_ns()) / 1e6;
  if (p.workload != "campaign") {
    // Read-only workloads distribute nothing while timed: their set-up
    // tasks stand in.
    r.task_commit_ms = d.task_wall_ms();
  }

  if (p.trace) {
    r.spans = tracer.snapshot();
    if (TracingTransport* t = d.tracing()) {
      r.bytes_by_type = t->bytes_by_type();
      r.first_send_ns.insert(t->first_send_ns().begin(), t->first_send_ns().end());
      std::vector<Product> owned = prep.queried;
      owned.insert(owned.end(), prep.fresh.begin(), prep.fresh.end());
      r.replay = replay(d, owned, t->captured(), inputs);
    }
    if (!p.trace_out.empty()) tracer.write_jsonl(p.trace_out);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  r.peak_rss_kb = usage.ru_maxrss;
  return r;
}

}  // namespace perfbench
