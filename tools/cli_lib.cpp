#include "cli_lib.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "cli_serve.h"
#include "cli_util.h"
#include "common/error.h"
#include "common/json.h"
#include "desword/scenario.h"
#include "poc/poc.h"
#include "supplychain/trace.h"
#include "zkedb/params.h"

namespace desword::cli {

namespace {

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

int cmd_ps_gen(const Flags& flags, std::ostream& out) {
  zkedb::EdbConfig cfg;
  cfg.q = static_cast<std::uint32_t>(flags.get_int("q", 16));
  cfg.height = static_cast<std::uint32_t>(flags.get_int("height", 32));
  cfg.rsa_bits = flags.get_int("rsa-bits", 2048);
  cfg.group_name = flags.get("group", "p256");
  const std::string path = flags.require("out");
  flags.reject_unknown();

  const zkedb::EdbCrsPtr crs = zkedb::generate_crs(cfg);
  write_file(path, crs->params().serialize());
  out << "wrote public parameters: q=" << cfg.q << " height=" << cfg.height
      << " rsa=" << cfg.rsa_bits << " group=" << cfg.group_name << " -> "
      << path << "\n";
  return 0;
}

int cmd_aggregate(const Flags& flags, std::ostream& out) {
  const std::string ps_path = flags.require("ps");
  const std::string participant = flags.require("participant");
  const std::string traces_path = flags.require("traces");
  const std::string poc_path = flags.require("poc");
  const std::string dpoc_path = flags.require("dpoc");
  flags.reject_unknown();

  const auto crs = std::make_shared<zkedb::EdbCrs>(
      zkedb::EdbPublicParams::deserialize(read_file(ps_path)));
  const json::Value doc =
      json::parse(string_of(read_file(traces_path)));
  const supplychain::TraceDatabase db = traces_from_json(doc, participant);

  poc::PocScheme scheme(crs);
  auto [p, dpoc] = scheme.aggregate(participant, db.as_poc_input());
  write_file(poc_path, p.serialize());
  write_file(dpoc_path, dpoc->serialize());
  out << "aggregated " << db.size() << " traces for " << participant
      << "\n  POC  (" << p.serialize().size() << " B) -> " << poc_path
      << "\n  DPOC (" << dpoc->serialize().size() << " B) -> " << dpoc_path
      << "\n";
  return 0;
}

int cmd_prove(const Flags& flags, std::ostream& out) {
  const std::string ps_path = flags.require("ps");
  const std::string dpoc_path = flags.require("dpoc");
  const supplychain::ProductId product =
      parse_product(flags.require("product"));
  const std::string out_path = flags.require("out");
  flags.reject_unknown();

  const auto crs = std::make_shared<zkedb::EdbCrs>(
      zkedb::EdbPublicParams::deserialize(read_file(ps_path)));
  auto dpoc = poc::PocDecommitment::load(crs, read_file(dpoc_path));
  poc::PocScheme scheme(crs);
  const poc::PocProof proof = scheme.prove(*dpoc, product);
  write_file(out_path, proof.serialize());
  out << (proof.ownership ? "ownership" : "non-ownership") << " proof for "
      << supplychain::epc_to_string(product) << " ("
      << proof.serialize().size() << " B) -> " << out_path << "\n";
  return 0;
}

int cmd_verify(const Flags& flags, std::ostream& out) {
  const std::string ps_path = flags.require("ps");
  const std::string poc_path = flags.require("poc");
  const supplychain::ProductId product =
      parse_product(flags.require("product"));
  const std::string proof_path = flags.require("proof");
  flags.reject_unknown();

  const auto crs = std::make_shared<zkedb::EdbCrs>(
      zkedb::EdbPublicParams::deserialize(read_file(ps_path)));
  const poc::Poc p = poc::Poc::deserialize(read_file(poc_path));
  const poc::PocProof proof =
      poc::PocProof::deserialize(read_file(proof_path));
  poc::PocScheme scheme(crs);
  const poc::PocVerifyResult result = scheme.verify(p, product, proof);
  switch (result.verdict) {
    case poc::PocVerdict::kTrace: {
      out << "VALID ownership proof: " << p.participant << " processed "
          << supplychain::epc_to_string(product) << "\n";
      try {
        const auto info =
            supplychain::TraceInfo::deserialize(*result.trace_info);
        out << "  operation=" << info.operation
            << " timestamp=" << info.timestamp << "\n";
      } catch (const Error&) {
        out << "  (committed value is not a decodable TraceInfo)\n";
      }
      return 0;
    }
    case poc::PocVerdict::kValid:
      out << "VALID non-ownership proof: " << p.participant
          << " did not process " << supplychain::epc_to_string(product)
          << "\n";
      return 0;
    case poc::PocVerdict::kBad:
      out << "BAD proof\n";
      return 1;
  }
  return 1;
}

int cmd_inspect(const Flags& flags, std::ostream& out) {
  const std::string ps_path = flags.get("ps", "");
  const std::string poc_path = flags.get("poc", "");
  flags.reject_unknown();
  if (!ps_path.empty()) {
    const zkedb::EdbPublicParams params =
        zkedb::EdbPublicParams::deserialize(read_file(ps_path));
    out << "public parameters:\n  q=" << params.q
        << " height=" << params.height << " group=" << params.group_name
        << "\n  rsa bits=" << params.qtmc_pk.n.bits() << "\n";
    return 0;
  }
  if (!poc_path.empty()) {
    const poc::Poc p = poc::Poc::deserialize(read_file(poc_path));
    out << "POC of participant " << p.participant << "\n  commitment ("
        << p.commitment.size() << " B): " << to_hex(p.commitment).substr(0, 64)
        << "...\n  (no product ids are derivable from this credential)\n";
    return 0;
  }
  throw UsageError("inspect needs --ps or --poc");
}

int cmd_demo(std::ostream& out) {
  using namespace desword::protocol;
  ScenarioConfig config;
  config.proxy.edb = zkedb::EdbConfig{4, 8, 512, "p256"};
  Scenario scenario(supplychain::SupplyChainGraph::paper_example(), config);

  supplychain::DistributionConfig dist;
  dist.initial = "v0";
  dist.products = supplychain::make_products(1, 1, 4);
  scenario.run_task("demo-task", dist);
  out << "demo: distributed 4 products through the paper's Figure 1 "
         "supply chain\n";

  const QueryOutcome good =
      scenario.proxy().run_query(dist.products[0], ProductQuality::kGood);
  out << "good product query -> path:";
  for (const auto& hop : good.path) out << " " << hop;
  out << (good.complete ? "  [complete]\n" : "  [incomplete]\n");

  const QueryOutcome bad =
      scenario.proxy().run_query(dist.products[1], ProductQuality::kBad);
  out << "bad product query  -> path:";
  for (const auto& hop : bad.path) out << " " << hop;
  out << (bad.complete ? "  [complete]\n" : "  [incomplete]\n");

  out << "reputation:";
  for (const auto& [id, score] : scenario.proxy().reputation_snapshot()) {
    out << " " << id << "=" << score;
  }
  out << "\n";
  return good.complete && bad.complete ? 0 : 1;
}

void print_usage(std::ostream& err) {
  err << "usage: desword <command> [flags]\n"
         "commands:\n"
         "  ps-gen     generate ZK-EDB public parameters\n"
         "  aggregate  build a POC + DPOC from a traces JSON file\n"
         "  prove      produce an ownership / non-ownership proof\n"
         "  verify     verify a proof against a POC\n"
         "  inspect    describe a ps / poc file\n"
         "  demo       run an end-to-end in-process demonstration\n"
         "distributed deployment (TCP loopback):\n"
         "  plan               generate a deployment plan + ground truth\n"
         "  serve-proxy        run the proxy daemon of a plan\n"
         "                     [--workers N crypto worker threads,\n"
         "                      --query-concurrency N sessions in flight,\n"
         "                      --verify-cache 0|1 verification cache,\n"
         "                      --cache-capacity N cached verdicts]\n"
         "  serve-participant  run one participant daemon of a plan\n"
         "                     [--workers N crypto worker threads]\n"
         "  query              drive a running deployment (wait-ready /\n"
         "                     product query / report / shutdown)\n"
         "                     [--stats-json PATH fetches a metrics snapshot]\n"
         "  stats              fetch an observability snapshot (metrics,\n"
         "                     traces, reputation) from a running node\n";
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  try {
    if (args.empty()) {
      print_usage(err);
      return 2;
    }
    const std::string& cmd = args[0];
    const Flags flags(args, 1);
    if (cmd == "ps-gen") return cmd_ps_gen(flags, out);
    if (cmd == "aggregate") return cmd_aggregate(flags, out);
    if (cmd == "prove") return cmd_prove(flags, out);
    if (cmd == "verify") return cmd_verify(flags, out);
    if (cmd == "inspect") return cmd_inspect(flags, out);
    if (cmd == "demo") {
      flags.reject_unknown();
      return cmd_demo(out);
    }
    if (cmd == "plan") return cmd_plan(flags, out);
    if (cmd == "serve-proxy") return cmd_serve_proxy(flags, out);
    if (cmd == "serve-participant") return cmd_serve_participant(flags, out);
    if (cmd == "query") return cmd_query(flags, out, err);
    if (cmd == "stats") return cmd_stats(flags, out, err);
    err << "unknown command: " << cmd << "\n";
    print_usage(err);
    return 2;
  } catch (const UsageError& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace desword::cli
