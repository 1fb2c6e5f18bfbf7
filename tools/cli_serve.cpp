#include "cli_serve.h"

#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "desword/messages.h"
#include "desword/participant.h"
#include "desword/proxy.h"
#include "net/fault_injector.h"
#include "net/socket_transport.h"
#include "obs/metrics.h"
#include "supplychain/distribution.h"
#include "supplychain/graph.h"
#include "zkedb/params.h"

namespace desword::cli {

namespace {

namespace fs = std::filesystem;
using namespace desword::protocol;

// ---------------------------------------------------------------------------
// Stats dumping (--stats-json + SIGUSR1)
// ---------------------------------------------------------------------------

/// Set by SIGUSR1; the serve loops poll it and dump a stats snapshot.
volatile std::sig_atomic_t g_dump_stats = 0;

extern "C" void on_sigusr1(int) { g_dump_stats = 1; }

/// Observability snapshot of a participant daemon: the process-wide
/// metrics registry plus the participant's own counters.
std::string participant_stats_json(const Participant& participant) {
  json::Object o;
  o["metrics"] = obs::MetricsRegistry::global().snapshot_value();
  json::Object ps;
  ps["duplicate_requests_served"] = json::Value(
      static_cast<std::int64_t>(participant.stats().duplicate_requests_served));
  ps["proofs_generated"] = json::Value(
      static_cast<std::int64_t>(participant.stats().proofs_generated));
  ps["reply_cache_size"] = json::Value(
      static_cast<std::int64_t>(participant.reply_cache_size()));
  o["participant"] = json::Value(std::move(ps));
  return json::Value(std::move(o)).dump_pretty();
}

// ---------------------------------------------------------------------------
// Plan file
// ---------------------------------------------------------------------------

struct PlanParticipant {
  std::string id;
  std::vector<std::string> parents;
  std::vector<std::string> children;
  std::map<supplychain::ProductId, std::string> shipments;
  supplychain::TraceDatabase traces;
};

struct Plan {
  std::string addr_dir;
  std::string proxy_id;
  zkedb::EdbConfig edb;
  int max_retries = 3;
  std::uint64_t retransmit_ms = 250;
  std::string task_id;
  std::string initial;
  std::vector<supplychain::ProductId> products;
  std::vector<std::string> involved;  // all participant ids, in order
  std::map<std::string, PlanParticipant> participants;
  std::map<supplychain::ProductId, std::vector<std::string>> paths;
};

json::Array string_array(const std::vector<std::string>& v) {
  json::Array a;
  for (const auto& s : v) a.push_back(json::Value(s));
  return a;
}

std::vector<std::string> parse_string_array(const json::Value& v) {
  std::vector<std::string> out;
  for (const json::Value& s : v.as_array()) out.push_back(s.as_string());
  return out;
}

Plan load_plan(const std::string& path) {
  const json::Value doc = json::parse(string_of(read_file(path)));
  Plan plan;
  plan.addr_dir = doc.at("addr_dir").as_string();
  plan.proxy_id = doc.at("proxy").as_string();
  const json::Value& edb = doc.at("edb");
  plan.edb.q = static_cast<std::uint32_t>(edb.at("q").as_int());
  plan.edb.height = static_cast<std::uint32_t>(edb.at("height").as_int());
  plan.edb.rsa_bits = static_cast<int>(edb.at("rsa_bits").as_int());
  plan.edb.group_name = edb.at("group").as_string();
  plan.max_retries = static_cast<int>(doc.at("max_retries").as_int());
  plan.retransmit_ms =
      static_cast<std::uint64_t>(doc.at("retransmit_ms").as_int());
  const json::Value& task = doc.at("task");
  plan.task_id = task.at("id").as_string();
  plan.initial = task.at("initial").as_string();
  for (const json::Value& p : task.at("products").as_array()) {
    plan.products.push_back(parse_product(p.as_string()));
  }
  for (const json::Value& pj : doc.at("participants").as_array()) {
    PlanParticipant p;
    p.id = pj.at("id").as_string();
    p.parents = parse_string_array(pj.at("parents"));
    p.children = parse_string_array(pj.at("children"));
    for (const json::Value& sj : pj.at("shipments").as_array()) {
      p.shipments[parse_product(sj.at("product").as_string())] =
          sj.at("next").as_string();
    }
    p.traces = traces_from_json(pj, p.id);
    plan.involved.push_back(p.id);
    plan.participants.emplace(p.id, std::move(p));
  }
  for (const json::Value& pj : doc.at("paths").as_array()) {
    plan.paths[parse_product(pj.at("product").as_string())] =
        parse_string_array(pj.at("path"));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Fault plans (--fault-plan)
// ---------------------------------------------------------------------------

/// Fault-rate fields of one JSON object, over `base` defaults. Rates are
/// probabilities in [0,1]; `delay` is in transport clock units (ms here).
net::LinkFaults parse_link_faults(const json::Value& v, net::LinkFaults base) {
  if (v.has("drop_rate")) base.drop_rate = v.at("drop_rate").as_double();
  if (v.has("reset_rate")) base.reset_rate = v.at("reset_rate").as_double();
  if (v.has("delay_rate")) base.delay_rate = v.at("delay_rate").as_double();
  if (v.has("delay")) {
    base.delay = static_cast<std::uint64_t>(v.at("delay").as_int());
  }
  if (v.has("duplicate_rate")) {
    base.duplicate_rate = v.at("duplicate_rate").as_double();
  }
  return base;
}

net::FaultWindow parse_fault_window(const json::Value& v) {
  net::FaultWindow w;
  if (v.has("from")) w.from = static_cast<std::uint64_t>(v.at("from").as_int());
  if (v.has("until")) {
    w.until = static_cast<std::uint64_t>(v.at("until").as_int());
  }
  return w;
}

/// Parses a fault-plan file (see DESIGN.md §11 for the schema):
///
///   {"seed": 42,
///    "default": {"drop_rate": 0.1, "delay_rate": 0.05, "delay": 40},
///    "rules": [{"from": "v0", "to": "proxy", "drop_rate": 0.3}],
///    "partitions": [{"group_a": ["v0"], "group_b": ["proxy"],
///                    "from": 1000, "until": 2000}],
///    "crashes": [{"node": "v1", "from": 0, "until": 500}]}
///
/// Every field is optional; rule objects inherit unset rates from
/// "default"; a missing/zero "until" means the window never heals.
net::FaultPlan load_fault_plan(const std::string& path) {
  const json::Value doc = json::parse(string_of(read_file(path)));
  net::FaultPlan plan;
  if (doc.has("seed")) {
    plan.seed = static_cast<std::uint64_t>(doc.at("seed").as_int());
  }
  if (doc.has("default")) {
    plan.default_faults = parse_link_faults(doc.at("default"), {});
  }
  if (doc.has("rules")) {
    for (const json::Value& rj : doc.at("rules").as_array()) {
      net::FaultRule rule;
      if (rj.has("from")) rule.from = rj.at("from").as_string();
      if (rj.has("to")) rule.to = rj.at("to").as_string();
      rule.faults = parse_link_faults(rj, plan.default_faults);
      plan.rules.push_back(std::move(rule));
    }
  }
  if (doc.has("partitions")) {
    for (const json::Value& pj : doc.at("partitions").as_array()) {
      net::Partition part;
      part.group_a = parse_string_array(pj.at("group_a"));
      part.group_b = parse_string_array(pj.at("group_b"));
      part.window = parse_fault_window(pj);
      plan.partitions.push_back(std::move(part));
    }
  }
  if (doc.has("crashes")) {
    for (const json::Value& cj : doc.at("crashes").as_array()) {
      net::CrashWindow crash;
      crash.node = cj.at("node").as_string();
      crash.window = parse_fault_window(cj);
      plan.crashes.push_back(std::move(crash));
    }
  }
  return plan;
}

/// The TaskSetup a daemon hands to its Participant, straight from the plan.
TaskSetup setup_for(const Plan& plan, const PlanParticipant& p) {
  TaskSetup setup;
  setup.task_id = plan.task_id;
  setup.initial = plan.initial;
  setup.parents.assign(p.parents.begin(), p.parents.end());
  setup.children.assign(p.children.begin(), p.children.end());
  setup.involved = plan.involved;
  for (const auto& [product, next] : p.shipments) {
    setup.shipments[product] = next;
  }
  return setup;
}

// ---------------------------------------------------------------------------
// Address files
// ---------------------------------------------------------------------------

std::string addr_path(const std::string& dir, const std::string& node) {
  return (fs::path(dir) / (node + ".addr")).string();
}

/// Writes `<dir>/<node>.addr` atomically (tmp + rename) so a concurrent
/// reader never observes a half-written address.
void write_addr_file(const std::string& dir, const std::string& node,
                     const std::string& address) {
  const std::string final_path = addr_path(dir, node);
  const std::string tmp_path = final_path + ".tmp";
  write_file(tmp_path, bytes_of(address));
  fs::rename(tmp_path, final_path);
}

/// Resolver over the addr-file directory. Missing files simply mean "not
/// up yet": the message is dropped and a retransmission retries later.
net::SocketTransportOptions transport_options(const std::string& addr_dir) {
  net::SocketTransportOptions options;
  options.resolve =
      [addr_dir](const net::NodeId& node) -> std::optional<std::string> {
    const std::string path = addr_path(addr_dir, node);
    std::error_code ec;
    if (!fs::exists(path, ec)) return std::nullopt;
    try {
      std::string address = string_of(read_file(path));
      while (!address.empty() &&
             (address.back() == '\n' || address.back() == '\r')) {
        address.pop_back();
      }
      if (address.empty()) return std::nullopt;
      return address;
    } catch (const Error&) {
      return std::nullopt;
    }
  };
  return options;
}

// ---------------------------------------------------------------------------
// plan
// ---------------------------------------------------------------------------

int plan_impl(const Flags& flags, std::ostream& out) {
  const std::string out_path = flags.require("out");
  const std::string addr_dir = flags.require("addr-dir");
  const int n = flags.get_int("participants", 4);
  const int product_count = flags.get_int("products", 3);
  const std::string task_id = flags.get("task", "task-1");
  zkedb::EdbConfig edb;
  edb.q = static_cast<std::uint32_t>(flags.get_int("q", 4));
  edb.height = static_cast<std::uint32_t>(flags.get_int("height", 8));
  edb.rsa_bits = flags.get_int("rsa-bits", 512);
  edb.group_name = flags.get("group", "p256");
  const int seed = flags.get_int("seed", 7);
  flags.reject_unknown();
  if (n < 2) throw UsageError("--participants must be >= 2");
  if (product_count < 1) throw UsageError("--products must be >= 1");

  fs::create_directories(addr_dir);

  // Chain supply chain v0 -> v1 -> ... -> v{n-1}: every product traverses
  // every participant, which makes ground truth trivial to pin in tests.
  supplychain::SupplyChainGraph graph;
  for (int i = 0; i + 1 < n; ++i) {
    graph.add_edge("v" + std::to_string(i), "v" + std::to_string(i + 1));
  }

  supplychain::DistributionConfig dist;
  dist.initial = "v0";
  dist.products = supplychain::make_products(
      1, 1, static_cast<std::size_t>(product_count));
  dist.seed = static_cast<std::uint64_t>(seed);
  const supplychain::DistributionResult result =
      supplychain::run_distribution(graph, dist);

  json::Object doc;
  doc["addr_dir"] = json::Value(addr_dir);
  doc["proxy"] = json::Value("proxy");
  json::Object edbj;
  edbj["q"] = json::Value(static_cast<std::int64_t>(edb.q));
  edbj["height"] = json::Value(static_cast<std::int64_t>(edb.height));
  edbj["rsa_bits"] = json::Value(static_cast<std::int64_t>(edb.rsa_bits));
  edbj["group"] = json::Value(edb.group_name);
  doc["edb"] = json::Value(std::move(edbj));
  doc["max_retries"] = json::Value(static_cast<std::int64_t>(3));
  doc["retransmit_ms"] = json::Value(static_cast<std::int64_t>(250));

  json::Object task;
  task["id"] = json::Value(task_id);
  task["initial"] = json::Value(dist.initial);
  json::Array products;
  for (const auto& p : dist.products) products.push_back(json::Value(to_hex(p)));
  task["products"] = json::Value(std::move(products));
  doc["task"] = json::Value(std::move(task));

  json::Array participants;
  for (const auto& id : result.involved) {
    json::Object pj;
    pj["id"] = json::Value(id);
    std::vector<std::string> parents;
    std::vector<std::string> children;
    for (const auto& [parent, kids] : result.used_edges) {
      if (parent == id) children.assign(kids.begin(), kids.end());
      if (kids.count(id) > 0) parents.push_back(parent);
    }
    pj["parents"] = json::Value(string_array(parents));
    pj["children"] = json::Value(string_array(children));
    json::Array shipments;
    for (const auto& [product, path] : result.paths) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (path[i] != id) continue;
        json::Object s;
        s["product"] = json::Value(to_hex(product));
        s["next"] = json::Value(path[i + 1]);
        shipments.push_back(json::Value(std::move(s)));
      }
    }
    pj["shipments"] = json::Value(std::move(shipments));
    json::Array traces;
    for (const supplychain::RfidTrace& t :
         result.databases.at(id).all()) {
      json::Object tj;
      tj["id"] = json::Value(to_hex(t.id));
      tj["operation"] = json::Value(t.da.operation);
      tj["timestamp"] =
          json::Value(static_cast<std::int64_t>(t.da.timestamp));
      tj["ingredients"] = json::Value(string_array(t.da.ingredients));
      tj["parameters"] = json::Value(string_array(t.da.parameters));
      traces.push_back(json::Value(std::move(tj)));
    }
    pj["traces"] = json::Value(std::move(traces));
    participants.push_back(json::Value(std::move(pj)));
  }
  doc["participants"] = json::Value(std::move(participants));

  json::Array paths;
  for (const auto& [product, path] : result.paths) {
    json::Object pj;
    pj["product"] = json::Value(to_hex(product));
    pj["path"] = json::Value(string_array(path));
    paths.push_back(json::Value(std::move(pj)));
  }
  doc["paths"] = json::Value(std::move(paths));

  const std::string text = json::Value(std::move(doc)).dump_pretty();
  write_file(out_path, bytes_of(text));
  out << "plan: " << result.involved.size() << " participants, "
      << dist.products.size() << " products, task " << task_id << " -> "
      << out_path << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// serve-proxy
// ---------------------------------------------------------------------------

/// QueryOutcome -> the JSON summary returned to query clients. Includes the
/// public reputation board so clients see the double-edged scores applied.
std::string outcome_json(const QueryOutcome& outcome, const Proxy& proxy) {
  json::Object o;
  o["query_id"] = json::Value(static_cast<std::int64_t>(outcome.query_id));
  o["product"] = json::Value(to_hex(outcome.product));
  o["quality"] = json::Value(to_string(outcome.quality));
  o["task"] = json::Value(outcome.task_id);
  o["complete"] = json::Value(outcome.complete);
  json::Array path;
  for (const auto& hop : outcome.path) path.push_back(json::Value(hop));
  o["path"] = json::Value(std::move(path));
  json::Array violations;
  for (const Violation& v : outcome.violations) {
    json::Object vo;
    vo["participant"] = json::Value(v.participant);
    vo["type"] = json::Value(to_string(v.type));
    violations.push_back(json::Value(std::move(vo)));
  }
  o["violations"] = json::Value(std::move(violations));
  json::Object reputation;
  for (const auto& [id, score] : proxy.reputation_snapshot()) {
    reputation[id] = json::Value(score);
  }
  o["reputation"] = json::Value(std::move(reputation));
  return json::Value(std::move(o)).dump();
}

int serve_proxy_impl(const Flags& flags, std::ostream& out) {
  const std::string plan_path = flags.require("plan");
  const std::string stats_path = flags.get("stats-json", "");
  const std::string fault_path = flags.get("fault-plan", "");
  const int workers = flags.get_int("workers", 0);
  const int query_concurrency = flags.get_int("query-concurrency", 8);
  const int query_deadline = flags.get_int("query-deadline", 0);
  const int verify_cache = flags.get_int("verify-cache", 1);
  const int cache_capacity = flags.get_int("cache-capacity", 4096);
  flags.reject_unknown();
  if (workers < 0) throw UsageError("--workers must be >= 0");
  if (query_concurrency < 1) {
    throw UsageError("--query-concurrency must be >= 1");
  }
  if (query_deadline < 0) throw UsageError("--query-deadline must be >= 0");
  if (cache_capacity < 1) throw UsageError("--cache-capacity must be >= 1");
  const Plan plan = load_plan(plan_path);

  net::SocketTransport socket(transport_options(plan.addr_dir));
  std::optional<net::FaultInjector> fault;
  if (!fault_path.empty()) fault.emplace(socket, load_fault_plan(fault_path));
  net::Transport& transport =
      fault ? static_cast<net::Transport&>(*fault) : socket;

  ProxyConfig config;
  config.edb = plan.edb;
  config.max_retries = plan.max_retries;
  config.retransmit_base = plan.retransmit_ms;
  config.query_deadline = static_cast<std::uint64_t>(query_deadline);
  config.verify.worker_threads = static_cast<unsigned>(workers);
  config.verify.cache = verify_cache != 0;
  config.verify.cache_capacity = static_cast<std::size_t>(cache_capacity);
  config.max_concurrent_queries = static_cast<std::size_t>(query_concurrency);
  ProxyDeps deps;
  deps.crs_cache = std::make_shared<CrsCache>();
  Proxy proxy(plan.proxy_id, transport, std::move(deps), std::move(config));

  bool running = true;
  struct PendingClient {
    net::NodeId node;
    std::uint64_t client_ref = 0;
  };
  std::map<std::uint64_t, PendingClient> pending;

  proxy.set_completion_callback([&](const QueryOutcome& outcome) {
    const auto it = pending.find(outcome.query_id);
    if (it == pending.end()) return;  // locally-driven query
    ClientQueryResponse resp;
    resp.client_ref = it->second.client_ref;
    resp.ok = true;
    resp.report_json = outcome_json(outcome, proxy);
    transport.send(plan.proxy_id, it->second.node, msg::kClientQueryResponse,
                   resp.serialize());
    pending.erase(it);
  });

  proxy.set_fallback_handler([&](const net::Envelope& env) {
    if (env.type == msg::kStatusRequest) {
      const StatusRequest m = StatusRequest::deserialize(env.payload);
      StatusResponse resp{m.task_id, proxy.task_list(m.task_id) != nullptr};
      transport.send(plan.proxy_id, env.from, msg::kStatusResponse,
                     resp.serialize());
    } else if (env.type == msg::kClientQueryRequest) {
      const ClientQueryRequest m =
          ClientQueryRequest::deserialize(env.payload);
      try {
        const std::uint64_t qid =
            proxy.begin_query(m.product, m.quality, m.task_hint);
        if (const QueryOutcome* done = proxy.outcome(qid)) {
          // Resolved synchronously (no candidates at all).
          ClientQueryResponse resp;
          resp.client_ref = m.client_ref;
          resp.ok = true;
          resp.report_json = outcome_json(*done, proxy);
          transport.send(plan.proxy_id, env.from, msg::kClientQueryResponse,
                         resp.serialize());
        } else {
          pending[qid] = PendingClient{env.from, m.client_ref};
        }
      } catch (const Error& e) {
        ClientQueryResponse resp;
        resp.client_ref = m.client_ref;
        resp.ok = false;
        resp.error = e.what();
        transport.send(plan.proxy_id, env.from, msg::kClientQueryResponse,
                       resp.serialize());
      }
    } else if (env.type == msg::kClientReportRequest) {
      const ClientReportRequest m =
          ClientReportRequest::deserialize(env.payload);
      ClientQueryResponse resp;
      resp.client_ref = m.client_ref;
      resp.ok = true;
      resp.report_json = proxy.export_report_json();
      transport.send(plan.proxy_id, env.from, msg::kClientQueryResponse,
                     resp.serialize());
    } else if (env.type == msg::kStatsRequest) {
      const StatsRequest m = StatsRequest::deserialize(env.payload);
      ClientQueryResponse resp;
      resp.client_ref = m.client_ref;
      resp.ok = true;
      resp.report_json = proxy.export_stats_json();
      transport.send(plan.proxy_id, env.from, msg::kClientQueryResponse,
                     resp.serialize());
    } else if (env.type == msg::kAdminShutdown) {
      running = false;
    }
  });

  write_addr_file(plan.addr_dir, plan.proxy_id, socket.local_address());
  out << "proxy " << plan.proxy_id << " listening on "
      << socket.local_address() << "\n";
  out.flush();

  if (!stats_path.empty()) std::signal(SIGUSR1, on_sigusr1);
  while (running) {
    transport.poll(/*timeout_ms=*/50);
    if (g_dump_stats != 0 && !stats_path.empty()) {
      g_dump_stats = 0;
      write_file(stats_path, bytes_of(proxy.export_stats_json()));
    }
  }
  socket.flush(/*timeout_ms=*/1000);  // drain in-flight client replies
  if (!stats_path.empty()) {
    write_file(stats_path, bytes_of(proxy.export_stats_json()));
    out << "stats -> " << stats_path << "\n";
  }
  out << "proxy " << plan.proxy_id << " shut down\n";
  return 0;
}

// ---------------------------------------------------------------------------
// serve-participant
// ---------------------------------------------------------------------------

int serve_participant_impl(const Flags& flags, std::ostream& out) {
  const std::string plan_path = flags.require("plan");
  const std::string id = flags.require("id");
  const std::string stats_path = flags.get("stats-json", "");
  const std::string fault_path = flags.get("fault-plan", "");
  const int workers = flags.get_int("workers", 0);
  flags.reject_unknown();
  if (workers < 0) throw UsageError("--workers must be >= 0");
  const Plan plan = load_plan(plan_path);
  const auto it = plan.participants.find(id);
  if (it == plan.participants.end()) {
    throw UsageError("participant " + id + " is not in the plan");
  }
  const PlanParticipant& me = it->second;

  net::SocketTransport socket(transport_options(plan.addr_dir));
  std::optional<net::FaultInjector> fault;
  if (!fault_path.empty()) fault.emplace(socket, load_fault_plan(fault_path));
  net::Transport& transport =
      fault ? static_cast<net::Transport&>(*fault) : socket;
  Participant participant(
      id, transport, plan.proxy_id,
      ParticipantDeps{.crs_cache = std::make_shared<CrsCache>()});
  if (workers > 0) {
    obs::install_executor_metrics();
    participant.set_executor(
        std::make_shared<Executor>(static_cast<unsigned>(workers)));
  }
  participant.load_database(me.traces);
  participant.begin_task(setup_for(plan, me));

  bool running = true;
  participant.set_fallback_handler([&](const net::Envelope& env) {
    if (env.type == msg::kStatsRequest) {
      const StatsRequest m = StatsRequest::deserialize(env.payload);
      ClientQueryResponse resp;
      resp.client_ref = m.client_ref;
      resp.ok = true;
      resp.report_json = participant_stats_json(participant);
      transport.send(id, env.from, msg::kClientQueryResponse,
                     resp.serialize());
    } else if (env.type == msg::kAdminShutdown) {
      running = false;
    }
  });

  write_addr_file(plan.addr_dir, id, socket.local_address());
  out << "participant " << id << " listening on "
      << socket.local_address() << "\n";
  out.flush();

  if (plan.initial == id) {
    // Kick off the distribution phase. The proxy may not be up yet: the
    // ps-retry timer keeps re-requesting until the list is submitted.
    participant.initiate_task(plan.task_id);
  }

  if (!stats_path.empty()) std::signal(SIGUSR1, on_sigusr1);
  while (running) {
    transport.poll(/*timeout_ms=*/50);
    if (g_dump_stats != 0 && !stats_path.empty()) {
      g_dump_stats = 0;
      write_file(stats_path, bytes_of(participant_stats_json(participant)));
    }
  }
  socket.flush(/*timeout_ms=*/1000);
  if (!stats_path.empty()) {
    write_file(stats_path, bytes_of(participant_stats_json(participant)));
    out << "stats -> " << stats_path << "\n";
  }
  out << "participant " << id << " shut down\n";
  return 0;
}

// ---------------------------------------------------------------------------
// query (client)
// ---------------------------------------------------------------------------

struct Client {
  explicit Client(const Plan& plan, const std::string& fault_path = "")
      : socket(transport_options(plan.addr_dir)),
        node_id("client-" + std::to_string(::getpid())) {
    if (!fault_path.empty()) {
      fault.emplace(socket, load_fault_plan(fault_path));
    }
    transport().register_node(node_id, [this](const net::Envelope& env) {
      try {
        if (env.type == msg::kStatusResponse) {
          status = StatusResponse::deserialize(env.payload);
        } else if (env.type == msg::kClientQueryResponse) {
          response = ClientQueryResponse::deserialize(env.payload);
        }
      } catch (const SerializationError&) {
        // Corrupt reply: keep waiting; the deadline bounds the damage.
      }
    });
  }

  /// The transport requests go through: the fault injector when a
  /// --fault-plan was given (lets operators rehearse a lossy client link
  /// against live daemons), the raw socket otherwise.
  net::Transport& transport() {
    return fault ? static_cast<net::Transport&>(*fault) : socket;
  }

  net::SocketTransport socket;
  std::optional<net::FaultInjector> fault;
  net::NodeId node_id;
  std::optional<StatusResponse> status;
  std::optional<ClientQueryResponse> response;
};

/// Pulls `node`'s observability snapshot (kStatsRequest) and writes it to
/// `path`. Returns 0 on success, 1 on timeout/error reply.
int fetch_stats_to_file(Client& client, const net::NodeId& node,
                        const std::string& path, int timeout_ms,
                        std::ostream& err) {
  client.response.reset();
  client.transport().send(client.node_id, node, msg::kStatsRequest,
                        StatsRequest{2}.serialize());
  const std::uint64_t deadline =
      client.transport().now() + static_cast<std::uint64_t>(timeout_ms);
  while (!client.response.has_value() && client.transport().now() < deadline) {
    client.transport().poll(/*timeout_ms=*/50);
  }
  if (!client.response.has_value() || !client.response->ok) {
    err << "error: no stats response from " << node << " within "
        << timeout_ms << " ms\n";
    return 1;
  }
  write_file(path, bytes_of(client.response->report_json));
  return 0;
}

int query_impl(const Flags& flags, std::ostream& out, std::ostream& err) {
  const std::string plan_path = flags.require("plan");
  const int timeout_ms = flags.get_int("timeout-ms", 30000);
  const std::string stats_path = flags.get("stats-json", "");
  const std::string fault_path = flags.get("fault-plan", "");
  const Plan plan = load_plan(plan_path);

  if (flags.has("wait-ready")) {
    const int deadline_ms = flags.get_int("wait-ready", timeout_ms);
    flags.reject_unknown();
    Client client(plan, fault_path);
    const std::uint64_t deadline =
        client.transport().now() + static_cast<std::uint64_t>(deadline_ms);
    std::uint64_t next_probe = 0;
    while (client.transport().now() < deadline) {
      if (client.transport().now() >= next_probe) {
        // Re-probe on a cadence: early probes are dropped while the proxy
        // is still coming up (no addr file / no listener yet).
        client.transport().send(client.node_id, plan.proxy_id,
                              msg::kStatusRequest,
                              StatusRequest{plan.task_id}.serialize());
        next_probe = client.transport().now() + 200;
      }
      client.transport().poll(/*timeout_ms=*/50);
      if (client.status.has_value() && client.status->ready) {
        out << "ready: task " << plan.task_id << "\n";
        return 0;
      }
      if (client.status.has_value()) client.status.reset();  // not yet: re-ask
    }
    err << "error: task " << plan.task_id << " not ready after "
        << deadline_ms << " ms\n";
    return 1;
  }

  if (flags.has("shutdown")) {
    const std::string scope = flags.get("shutdown", "all");
    flags.reject_unknown();
    if (scope != "all") throw UsageError("--shutdown only supports 'all'");
    Client client(plan, fault_path);
    client.transport().send(client.node_id, plan.proxy_id, msg::kAdminShutdown,
                          {});
    for (const auto& id : plan.involved) {
      client.transport().send(client.node_id, id, msg::kAdminShutdown, {});
    }
    client.socket.flush(/*timeout_ms=*/2000);
    out << "shutdown sent to proxy and " << plan.involved.size()
        << " participants\n";
    return 0;
  }

  const bool want_report = flags.has("report");
  if (!want_report && !flags.has("product")) {
    throw UsageError(
        "query needs --wait-ready, --product, --report or --shutdown");
  }

  Client client(plan, fault_path);
  if (want_report) {
    const std::string report_dest = flags.get("report", "-");
    flags.reject_unknown();
    client.transport().send(client.node_id, plan.proxy_id,
                          msg::kClientReportRequest,
                          ClientReportRequest{1}.serialize());
    const std::uint64_t deadline =
        client.transport().now() + static_cast<std::uint64_t>(timeout_ms);
    while (!client.response.has_value() &&
           client.transport().now() < deadline) {
      client.transport().poll(/*timeout_ms=*/50);
    }
    if (!client.response.has_value()) {
      err << "error: no report response within " << timeout_ms << " ms\n";
      return 1;
    }
    if (report_dest == "-") {
      out << client.response->report_json << "\n";
    } else {
      write_file(report_dest, bytes_of(client.response->report_json));
      out << "report -> " << report_dest << "\n";
    }
    const bool ok = client.response->ok;
    if (!stats_path.empty() &&
        fetch_stats_to_file(client, plan.proxy_id, stats_path, timeout_ms,
                            err) != 0) {
      return 1;
    }
    return ok ? 0 : 1;
  }

  ClientQueryRequest request;
  request.client_ref = 1;
  request.product = parse_product(flags.require("product"));
  const std::string quality = flags.get("quality", "good");
  if (quality == "good") {
    request.quality = ProductQuality::kGood;
  } else if (quality == "bad") {
    request.quality = ProductQuality::kBad;
  } else {
    throw UsageError("--quality must be good or bad");
  }
  if (flags.has("task")) request.task_hint = flags.require("task");
  // How long this client waits for the verdict. The proxy enforces its own
  // budget (serve-proxy --query-deadline) and always answers; this bound
  // only catches a dead/unreachable proxy.
  const int query_deadline = flags.get_int("query-deadline", timeout_ms);
  if (query_deadline < 0) throw UsageError("--query-deadline must be >= 0");
  flags.reject_unknown();

  client.transport().send(client.node_id, plan.proxy_id,
                        msg::kClientQueryRequest, request.serialize());
  const std::uint64_t deadline =
      client.transport().now() + static_cast<std::uint64_t>(query_deadline);
  while (!client.response.has_value() && client.transport().now() < deadline) {
    client.transport().poll(/*timeout_ms=*/50);
  }
  if (!client.response.has_value()) {
    err << "error: no query response within " << query_deadline << " ms\n";
    return 1;
  }
  const ClientQueryResponse resp = *client.response;
  if (!resp.ok) {
    err << "error: " << resp.error << "\n";
    return 1;
  }
  out << resp.report_json << "\n";
  if (!stats_path.empty() &&
      fetch_stats_to_file(client, plan.proxy_id, stats_path, timeout_ms,
                          err) != 0) {
    return 1;
  }
  const json::Value outcome = json::parse(resp.report_json);
  return outcome.at("complete").as_bool() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// stats (client)
// ---------------------------------------------------------------------------

int stats_impl(const Flags& flags, std::ostream& out, std::ostream& err) {
  const std::string plan_path = flags.require("plan");
  const int timeout_ms = flags.get_int("timeout-ms", 30000);
  const std::string node = flags.get("node", "");  // default: the proxy
  const std::string dest = flags.get("out", "-");
  const std::string fault_path = flags.get("fault-plan", "");
  flags.reject_unknown();
  const Plan plan = load_plan(plan_path);

  Client client(plan, fault_path);
  const net::NodeId target = node.empty() ? plan.proxy_id : node;
  client.transport().send(client.node_id, target, msg::kStatsRequest,
                        StatsRequest{1}.serialize());
  const std::uint64_t deadline =
      client.transport().now() + static_cast<std::uint64_t>(timeout_ms);
  while (!client.response.has_value() && client.transport().now() < deadline) {
    client.transport().poll(/*timeout_ms=*/50);
  }
  if (!client.response.has_value()) {
    err << "error: no stats response from " << target << " within "
        << timeout_ms << " ms\n";
    return 1;
  }
  if (dest == "-") {
    out << client.response->report_json << "\n";
  } else {
    write_file(dest, bytes_of(client.response->report_json));
    out << "stats -> " << dest << "\n";
  }
  return client.response->ok ? 0 : 1;
}

}  // namespace

int cmd_plan(const Flags& flags, std::ostream& out) {
  return plan_impl(flags, out);
}

int cmd_serve_proxy(const Flags& flags, std::ostream& out) {
  return serve_proxy_impl(flags, out);
}

int cmd_serve_participant(const Flags& flags, std::ostream& out) {
  return serve_participant_impl(flags, out);
}

int cmd_query(const Flags& flags, std::ostream& out, std::ostream& err) {
  return query_impl(flags, out, err);
}

int cmd_stats(const Flags& flags, std::ostream& out, std::ostream& err) {
  return stats_impl(flags, out, err);
}

}  // namespace desword::cli
