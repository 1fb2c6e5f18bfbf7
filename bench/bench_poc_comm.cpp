// Table II — communication overhead of the POC scheme.
//
// Reproduces the paper's table: ownership and non-ownership proof sizes
// for (q, h) ∈ {(8,43), (16,32), (32,26), (64,22), (128,19)} with
// q^h >= 2^128. Sizes are measured on the actual serialized proofs.
//
// Expected shape (paper): size grows with h, is independent of q, and the
// ownership proof is slightly larger than the non-ownership proof.
// Absolute bytes are larger here than in the paper because RSA-2048 group
// elements (256 B) replace pairing-group elements (see DESIGN.md §2).
// The ownership proof is sized twice: as sent, with C0 alone for each
// inner child (the verifier derives C1 from the child's opening), and in
// Table II's layout, with every child commitment whole. The paper's shape
// is checked on the latter; the program exits non-zero if it fails.
// Additionally measures END-TO-END query cost (latency and wire bytes of
// one verified good-product path query, distribution excluded) over both
// transports: the in-process simulator and the real TCP SocketTransport on
// loopback. Byte counts use the same logical-payload accounting on both,
// so the pair isolates the transport's latency contribution.
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "desword/scenario.h"
#include "net/socket_transport.h"
#include "poc/poc.h"
#include "supplychain/rfid.h"
#include "zkedb/proof.h"

namespace {

using namespace desword;

struct Row {
  std::uint32_t q;
  std::uint32_t h;
  std::size_t own_bytes;        // as sent
  std::size_t own_paper_bytes;  // Table II layout: C0 and C1 per child
  std::size_t nown_bytes;
};

/// The serialized ownership proof `own` with each inner child's derived
/// C1 = h^{r1} re-inserted next to its C0, as Table II's layout sends it.
std::size_t paper_layout_bytes(const zkedb::EdbCrs& crs, const Bytes& own) {
  poc::PocProof proof = poc::PocProof::deserialize(own);
  zkedb::EdbMembershipProof zk =
      zkedb::EdbMembershipProof::deserialize(crs, proof.zk_proof);
  for (std::size_t d = 0; d + 1 < zk.child_commitments.size(); ++d) {
    zk.child_commitments[d] =
        mercurial::QtmcCommitment{
            Bignum::from_bytes(zk.child_commitments[d]),
            crs.qtmc().hard_c1(zk.openings[d + 1].r1)}
            .serialize(crs.params().qtmc_pk.n);
  }
  proof.zk_proof = zk.serialize(crs);
  return proof.serialize().size();
}

Row measure(std::uint32_t q, std::uint32_t h) {
  const zkedb::EdbCrsPtr crs = benchutil::crs_for(q, h);
  poc::PocScheme scheme(crs);

  // A small trace database; proof size does not depend on it.
  std::map<Bytes, Bytes> traces;
  for (std::uint64_t i = 0; i < 4; ++i) {
    traces[supplychain::make_epc(1, 1, i)] = bytes_of("production-data");
  }
  auto [p, dpoc] = scheme.aggregate("v1", traces);

  const Bytes own =
      scheme.prove(*dpoc, supplychain::make_epc(1, 1, 0)).serialize();
  const Bytes nown =
      scheme.prove(*dpoc, supplychain::make_epc(9, 9, 9)).serialize();

  // Sanity: both proofs must verify before their size counts.
  if (scheme.verify(p, supplychain::make_epc(1, 1, 0),
                    poc::PocProof::deserialize(own))
          .verdict != poc::PocVerdict::kTrace ||
      scheme.verify(p, supplychain::make_epc(9, 9, 9),
                    poc::PocProof::deserialize(nown))
          .verdict != poc::PocVerdict::kValid) {
    std::fprintf(stderr, "proof verification failed at q=%u h=%u\n", q, h);
    std::exit(1);
  }
  return Row{q, h, own.size(), paper_layout_bytes(*crs, own), nown.size()};
}

// ---------------------------------------------------------------------------
// End-to-end query cost over SimTransport vs SocketTransport
// ---------------------------------------------------------------------------

using namespace desword::protocol;
using namespace desword::supplychain;

zkedb::EdbConfig e2e_edb() {
  return zkedb::EdbConfig{4, 8, benchutil::rsa_bits(), "p256"};
}

DistributionConfig e2e_dist() {
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = make_products(1, 1, 4);
  dist.seed = 42;
  return dist;
}

struct E2eResult {
  double latency_ns = 0;
  std::uint64_t bytes = 0;
  std::size_t hops = 0;
};

/// One good-product query through the Scenario harness (SimTransport).
E2eResult e2e_sim() {
  ScenarioConfig config;
  config.proxy.edb = e2e_edb();
  Scenario scenario(SupplyChainGraph::paper_example(), config);
  const DistributionConfig dist = e2e_dist();
  scenario.run_task("bench-task", dist);

  scenario.network().reset_stats();
  const auto t0 = std::chrono::steady_clock::now();
  const QueryOutcome outcome =
      scenario.proxy().run_query(dist.products[0], ProductQuality::kGood);
  const auto t1 = std::chrono::steady_clock::now();
  if (!outcome.complete) {
    std::fprintf(stderr, "sim e2e query did not complete\n");
    std::exit(1);
  }
  E2eResult r;
  r.latency_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  r.bytes = scenario.network().total_stats().bytes_sent;
  r.hops = outcome.path.size();
  return r;
}

/// Same deployment as separate SocketTransport endpoints on TCP loopback:
/// the proxy and every participant own their own transport (one listening
/// socket each), exactly like the multi-process `desword serve-*` daemons,
/// but pumped in-process so the bench stays self-contained.
E2eResult e2e_socket() {
  const auto addresses = std::make_shared<std::map<net::NodeId, std::string>>();
  const auto options = [&] {
    net::SocketTransportOptions o;
    o.resolve = [addresses](const net::NodeId& id)
        -> std::optional<std::string> {
      const auto it = addresses->find(id);
      if (it == addresses->end()) return std::nullopt;
      return it->second;
    };
    return o;
  };

  const SupplyChainGraph graph = SupplyChainGraph::paper_example();
  std::vector<std::unique_ptr<net::SocketTransport>> transports;
  const auto new_transport = [&](const net::NodeId& id) {
    transports.push_back(std::make_unique<net::SocketTransport>(options()));
    (*addresses)[id] = transports.back()->local_address();
    return transports.back().get();
  };
  const auto pump = [&](const std::function<bool()>& done) {
    for (int i = 0; i < 1000000 && !done(); ++i) {
      for (const auto& t : transports) t->poll(1);
    }
    if (!done()) {
      std::fprintf(stderr, "socket e2e deployment stalled\n");
      std::exit(1);
    }
  };

  const auto crs_cache = std::make_shared<CrsCache>();
  ProxyConfig proxy_config;
  proxy_config.edb = e2e_edb();
  ProxyDeps deps;
  deps.crs_cache = crs_cache;
  Proxy proxy("proxy", *new_transport("proxy"), std::move(deps),
              std::move(proxy_config));
  std::map<ParticipantId, std::unique_ptr<Participant>> participants;
  for (const ParticipantId& id : graph.participants()) {
    participants.emplace(
        id, std::make_unique<Participant>(
                id, *new_transport(id), "proxy",
                ParticipantDeps{.crs_cache = crs_cache}));
  }

  // Distribution phase across the sockets (wiring as in Scenario).
  const DistributionConfig dist = e2e_dist();
  const DistributionResult result = run_distribution(graph, dist);
  for (const ParticipantId& id : result.involved) {
    Participant& p = *participants.at(id);
    p.load_database(result.databases.at(id));
    TaskSetup setup;
    setup.task_id = "bench-task";
    setup.initial = dist.initial;
    setup.involved = result.involved;
    for (const auto& [parent, children] : result.used_edges) {
      if (parent == id) setup.children.assign(children.begin(), children.end());
      if (children.count(id) > 0) setup.parents.push_back(parent);
    }
    for (const auto& [product, path] : result.paths) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (path[i] == id) setup.shipments[product] = path[i + 1];
      }
    }
    p.begin_task(setup);
  }
  participants.at(dist.initial)->initiate_task("bench-task");
  pump([&] { return proxy.task_list("bench-task") != nullptr; });

  const auto bytes_now = [&] {
    std::uint64_t total = 0;
    for (const auto& t : transports) total += t->total_stats().bytes_sent;
    return total;
  };
  const std::uint64_t bytes_before = bytes_now();
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t qid =
      proxy.begin_query(dist.products[0], ProductQuality::kGood);
  pump([&] { return proxy.outcome(qid) != nullptr; });
  const auto t1 = std::chrono::steady_clock::now();
  const QueryOutcome& outcome = *proxy.outcome(qid);
  if (!outcome.complete) {
    std::fprintf(stderr, "socket e2e query did not complete\n");
    std::exit(1);
  }
  E2eResult r;
  r.latency_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  r.bytes = bytes_now() - bytes_before;
  r.hops = outcome.path.size();
  return r;
}

void run_e2e() {
  std::printf("\nEnd-to-end good-product query (paper Fig. 1 chain, %d-bit"
              " RSA)\n", benchutil::rsa_bits());
  const E2eResult sim = e2e_sim();
  const E2eResult sock = e2e_socket();
  std::printf("%-22s %-12s %-14s %s\n", "Transport", "Path hops", "Latency",
              "Wire bytes");
  std::printf("%-22s %-12zu %-11.2fms  %9llu\n", "SimTransport", sim.hops,
              sim.latency_ns / 1e6,
              static_cast<unsigned long long>(sim.bytes));
  std::printf("%-22s %-12zu %-11.2fms  %9llu\n", "SocketTransport (TCP)",
              sock.hops, sock.latency_ns / 1e6,
              static_cast<unsigned long long>(sock.bytes));
  benchutil::emit_json_line("bench_poc_comm", "E2EQueryLatencySim",
                            sim.latency_ns);
  benchutil::emit_json_line("bench_poc_comm", "E2EQueryBytesSim",
                            static_cast<double>(sim.bytes));
  benchutil::emit_json_line("bench_poc_comm", "E2EQueryLatencySocket",
                            sock.latency_ns);
  benchutil::emit_json_line("bench_poc_comm", "E2EQueryBytesSocket",
                            static_cast<double>(sock.bytes));
}

}  // namespace

int main() {
  std::printf("Table II: communication overhead of the POC scheme\n");
  std::printf("(RSA modulus: %d bits; paper used pairing-group elements)\n\n",
              benchutil::rsa_bits());
  std::printf("%-18s %-13s %-16s %-16s %-16s\n", "Breaching factor q",
              "Tree height h", "Own proof", "Own (Table II)", "N-Own proof");
  bool shape_holds = true;
  for (const auto& [q, h] : benchutil::qh_sweep()) {
    const Row row = measure(q, h);
    std::printf("%-18u %-13u %-10.2fKB     %-10.2fKB     %-10.2fKB\n", row.q,
                row.h, static_cast<double>(row.own_bytes) / 1024.0,
                static_cast<double>(row.own_paper_bytes) / 1024.0,
                static_cast<double>(row.nown_bytes) / 1024.0);
    shape_holds = shape_holds && row.own_paper_bytes > row.nown_bytes;
    const std::string suffix =
        "/q:" + std::to_string(row.q) + "/h:" + std::to_string(row.h);
    // Proof sizes are the measurement here; report bytes in the ns_per_op
    // slot (the schema's one numeric field) under explicit case names.
    benchutil::emit_json_line("bench_poc_comm", "OwnProofBytes" + suffix,
                              static_cast<double>(row.own_bytes));
    benchutil::emit_json_line("bench_poc_comm", "OwnProofPaperBytes" + suffix,
                              static_cast<double>(row.own_paper_bytes));
    benchutil::emit_json_line("bench_poc_comm", "NonOwnProofBytes" + suffix,
                              static_cast<double>(row.nown_bytes));
  }
  if (!shape_holds) {
    std::fprintf(stderr,
                 "Table II shape broken: an ownership proof in the paper's "
                 "layout is not larger than the non-ownership proof\n");
    return 1;
  }
  std::printf("\npaper (jPBC):       43 -> 8.94/8.08KB ... 19 -> 3.97/3.58KB"
              " (same h-proportional shape)\n");
  run_e2e();
  return 0;
}
