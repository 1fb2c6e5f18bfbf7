// Seed-corpus generator for the fuzz harnesses.
//
//   desword_gen_corpus <output_dir>
//
// Writes fuzz/corpus/{serial,wire,messages,persist}/ plus the fixed CRS
// blob (persist_crs.bin) the persist harness decodes against. Every seed
// is derived from a handful of valid encodings plus deterministic
// truncation and bit-flip mutants (fixed mt19937 seed), so regenerating
// the corpus is reproducible except for the randomness inside fresh
// commitments — which is itself pinned by EdbProverOptions::seed and the
// checked-in CRS. The persist seeds are built over the CRS already in
// <output_dir>/persist_crs.bin when there is one (a fresh small CRS
// otherwise), so regenerating them after a format change rewrites only
// the seeds whose encoding changed.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "common/serial.h"
#include "desword/messages.h"
#include "net/wire.h"
#include "poc/poc.h"
#include "poc/poc_list.h"
#include "zkedb/params.h"
#include "zkedb/prover.h"

namespace fs = std::filesystem;
using namespace desword;
using namespace desword::protocol;

namespace {

void write_file(const fs::path& dir, const std::string& name,
                BytesView data) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) {
    std::cerr << "failed to write " << (dir / name) << "\n";
    std::exit(1);
  }
}

/// Writes `base` plus deterministic mutants: two truncations and two
/// single-bit flips. Five corpus files per seed value.
void write_with_mutants(const fs::path& dir, const std::string& stem,
                        const Bytes& base, std::mt19937& rng) {
  write_file(dir, stem + ".bin", base);
  if (base.empty()) return;
  write_file(dir, stem + "_trunc1.bin",
             BytesView(base.data(), base.size() / 2));
  write_file(dir, stem + "_trunc2.bin",
             BytesView(base.data(), base.size() - 1));
  for (int i = 0; i < 2; ++i) {
    Bytes flipped = base;
    std::size_t pos = rng() % flipped.size();
    flipped[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    write_file(dir, stem + "_flip" + std::to_string(i) + ".bin", flipped);
  }
}

Bytes tagged(MessageType type, const Bytes& payload) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(type));
  append(out, payload);
  return out;
}

void gen_serial(const fs::path& dir, std::mt19937& rng) {
  // Op-streams understood by run_serial: selector byte then one encoded
  // primitive per iteration (see harness_serial.cpp).
  struct Sample {
    std::string stem;
    Bytes data;
  };
  std::vector<Sample> samples;
  auto add = [&samples](const std::string& stem, BinaryWriter& w) {
    samples.push_back({stem, w.take()});
  };

  BinaryWriter w;
  w.u8(0), w.u8(0x7f);
  add("u8", w);
  w.u8(1), w.u16(0xbeef);
  add("u16", w);
  w.u8(2), w.u32(0xdeadbeef);
  add("u32", w);
  w.u8(3), w.u64(0x0123456789abcdefULL);
  add("u64", w);
  w.u8(4), w.varint(0);
  add("varint_zero", w);
  w.u8(4), w.varint(300);
  add("varint_two_byte", w);
  w.u8(4), w.varint(~0ULL);
  add("varint_max", w);
  w.u8(5), w.bytes(bytes_of("hello fuzz"));
  add("bytes", w);
  w.u8(6), w.str("de-sword");
  add("str", w);
  w.u8(7), w.boolean(true);
  add("bool", w);
  // A longer mixed stream.
  w.u8(2), w.u32(7), w.u8(6), w.str("task-1"), w.u8(4), w.varint(12345),
      w.u8(5), w.bytes(bytes_of("payload")), w.u8(7), w.boolean(false);
  add("mixed", w);
  // Hand-built malformed seeds the mutator can grow from.
  samples.push_back({"nonminimal_varint", {4, 0x80, 0x00}});   // 0 in 2 bytes
  samples.push_back({"varint_overflow",
                     {4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                      0xff, 0xff, 0x7f}});                     // > 64 bits
  samples.push_back({"length_overflow", {5, 0xff, 0xff, 0x03}});  // len 64k

  for (const auto& s : samples) write_with_mutants(dir, s.stem, s.data, rng);
}

void gen_wire(const fs::path& dir, std::mt19937& rng) {
  auto frame = [](const std::string& from, const std::string& to,
                  const std::string& type, const Bytes& payload) {
    net::Envelope env;
    env.from = from;
    env.to = to;
    env.type = type;
    env.payload = payload;
    return net::encode_frame(env);
  };
  write_with_mutants(dir, "ps_request",
                     frame("v1", "proxy", msg::kPsRequest,
                           PsRequest{"task-1"}.serialize()),
                     rng);
  write_with_mutants(dir, "empty_payload",
                     frame("proxy", "v2", msg::kAdminShutdown, {}), rng);
  write_with_mutants(
      dir, "query",
      frame("proxy", "v3", msg::kQueryRequest,
            QueryRequest{7, bytes_of("prod-1"), ProductQuality::kBad,
                         bytes_of("poc-bytes")}
                .serialize()),
      rng);
  write_with_mutants(dir, "big_payload",
                     frame("a", "b", "x", Bytes(512, 0xa5)), rng);
  // Length prefix lies: claims more than the body that follows.
  const Bytes whole = frame("v1", "proxy", msg::kPsRequest,
                           PsRequest{"task-2"}.serialize());
  if (whole.size() <= 3) {
    std::cerr << "frame too short to cut its body\n";
    std::exit(1);
  }
  write_file(dir, "short_body.bin", BytesView(whole.data(), whole.size() - 3));
  // Oversized length prefix (> kMaxFrameBytes): must throw, not allocate.
  write_file(dir, "huge_len.bin", Bytes{0xff, 0xff, 0xff, 0xff, 0x00});
  // Zero-length frame (empty envelope body is malformed).
  write_file(dir, "zero_len.bin", Bytes{0x00, 0x00, 0x00, 0x00});
}

void gen_messages(const fs::path& dir, std::mt19937& rng) {
  const Bytes product = bytes_of("prod-42");
  const Bytes poc = bytes_of("fake-poc");
  write_with_mutants(dir, "ps_request",
                     tagged(MessageType::kPsRequest,
                            PsRequest{"task-1"}.serialize()),
                     rng);
  write_with_mutants(dir, "ps_response",
                     tagged(MessageType::kPsResponse,
                            PsResponse{"task-1", bytes_of("ps")}.serialize()),
                     rng);
  write_with_mutants(dir, "poc_to_parent",
                     tagged(MessageType::kPocToParent,
                            PocToParent{"task-1", poc}.serialize()),
                     rng);
  PocPairsToInitial pairs{"task-1", poc, {{poc, bytes_of("child-poc")}}};
  write_with_mutants(dir, "poc_pairs",
                     tagged(MessageType::kPocPairsToInitial,
                            pairs.serialize()),
                     rng);
  write_with_mutants(dir, "poc_list_submit",
                     tagged(MessageType::kPocListSubmit,
                            PocListSubmit{"task-1", bytes_of("list")}
                                .serialize()),
                     rng);
  write_with_mutants(
      dir, "query_request",
      tagged(MessageType::kQueryRequest,
             QueryRequest{1, product, ProductQuality::kGood, poc}.serialize()),
      rng);
  write_with_mutants(
      dir, "query_response",
      tagged(MessageType::kQueryResponse,
             QueryResponse{1, true, bytes_of("proof")}.serialize()),
      rng);
  write_with_mutants(
      dir, "query_response_no_proof",
      tagged(MessageType::kQueryResponse,
             QueryResponse{2, false, std::nullopt}.serialize()),
      rng);
  write_with_mutants(
      dir, "reveal_request",
      tagged(MessageType::kRevealRequest,
             RevealRequest{3, product, poc}.serialize()),
      rng);
  write_with_mutants(dir, "reveal_response",
                     tagged(MessageType::kRevealResponse,
                            RevealResponse{3, bytes_of("proof")}.serialize()),
                     rng);
  write_with_mutants(dir, "next_hop_request",
                     tagged(MessageType::kNextHopRequest,
                            NextHopRequest{4, product}.serialize()),
                     rng);
  write_with_mutants(dir, "next_hop_response",
                     tagged(MessageType::kNextHopResponse,
                            NextHopResponse{4, "v5"}.serialize()),
                     rng);
  write_with_mutants(
      dir, "client_query_request",
      tagged(MessageType::kClientQueryRequest,
             ClientQueryRequest{9, product, ProductQuality::kBad, "task-1"}
                 .serialize()),
      rng);
  ClientQueryResponse cqr;
  cqr.client_ref = 9;
  cqr.ok = true;
  cqr.report_json = "{\"verdict\":\"ok\"}";
  write_with_mutants(dir, "client_query_response",
                     tagged(MessageType::kClientQueryResponse,
                            cqr.serialize()),
                     rng);
  write_with_mutants(dir, "status_request",
                     tagged(MessageType::kStatusRequest,
                            StatusRequest{"task-1"}.serialize()),
                     rng);
  write_with_mutants(dir, "status_response",
                     tagged(MessageType::kStatusResponse,
                            StatusResponse{"task-1", true}.serialize()),
                     rng);
  write_with_mutants(dir, "client_report_request",
                     tagged(MessageType::kClientReportRequest,
                            ClientReportRequest{11}.serialize()),
                     rng);
  write_with_mutants(dir, "stats_request",
                     tagged(MessageType::kStatsRequest,
                            StatsRequest{12}.serialize()),
                     rng);
}

void gen_persist(const fs::path& corpus_root, const fs::path& dir,
                 std::mt19937& rng) {
  zkedb::EdbCrsPtr crs;
  if (std::ifstream in(corpus_root / "persist_crs.bin", std::ios::binary);
      in) {
    const Bytes blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    crs = std::make_shared<zkedb::EdbCrs>(
        zkedb::EdbPublicParams::deserialize(blob));
  } else {
    zkedb::EdbConfig config;
    config.q = 4;
    config.height = 8;
    config.rsa_bits = 512;
    config.group_name = "modp512-test";
    crs = zkedb::generate_crs(config);
  }
  write_file(corpus_root, "persist_crs.bin", crs->params().serialize());

  auto sel = [](std::uint8_t selector, const Bytes& blob) {
    Bytes out;
    out.push_back(selector);
    append(out, blob);
    return out;
  };

  poc::PocScheme scheme(crs);
  std::map<Bytes, Bytes> traces{{bytes_of("prod-1"), bytes_of("da-1")},
                                {bytes_of("prod-2"), bytes_of("da-2")},
                                {bytes_of("prod-3"), bytes_of("da-3")}};
  zkedb::EdbProverOptions options;
  options.threads = 1;
  options.seed = bytes_of("desword-fuzz-corpus");
  auto [poc, dpoc] = scheme.aggregate("v1", traces, options);

  write_with_mutants(dir, "prover_state",
                     sel(0, dpoc->prover().serialize_state()), rng);
  write_with_mutants(dir, "dpoc", sel(1, dpoc->serialize()), rng);
  write_with_mutants(
      dir, "membership",
      sel(2, dpoc->prover()
                 .prove_membership(zkedb::key_for_identifier(
                     *crs, bytes_of("prod-1")))
                 .serialize(*crs)),
      rng);
  write_with_mutants(
      dir, "non_membership",
      sel(3, dpoc->prover()
                 .prove_non_membership(zkedb::key_for_identifier(
                     *crs, bytes_of("absent")))
                 .serialize(*crs)),
      rng);
  write_with_mutants(dir, "params", sel(4, crs->params().serialize()), rng);

  poc::PocList list(crs->params().serialize());
  list.add_poc(poc);
  poc::Poc other{"v2", poc.commitment};
  list.add_poc(other);
  list.add_edge("v1", "v2");
  write_with_mutants(dir, "poc_list", sel(5, list.serialize()), rng);

  write_with_mutants(
      dir, "ownership_proof",
      sel(6, scheme.prove(*dpoc, bytes_of("prod-2")).serialize()), rng);
  write_with_mutants(
      dir, "non_ownership_proof",
      sel(6, scheme.prove(*dpoc, bytes_of("absent")).serialize()), rng);
  write_with_mutants(dir, "poc", sel(7, poc.serialize()), rng);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: desword_gen_corpus <output_dir>\n";
    return 2;
  }
  const fs::path root = argv[1];
  std::mt19937 rng(0xde5140d);  // fixed: corpus generation is reproducible
  gen_serial(root / "serial", rng);
  gen_wire(root / "wire", rng);
  gen_messages(root / "messages", rng);
  gen_persist(root, root / "persist", rng);
  std::cout << "corpus written to " << root << "\n";
  return 0;
}
