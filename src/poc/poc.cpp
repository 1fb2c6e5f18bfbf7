#include "poc/poc.h"

#include "common/error.h"
#include "common/serial.h"

namespace desword::poc {

zkedb::EdbCrsPtr ps_gen(const zkedb::EdbConfig& config) {
  return zkedb::generate_crs(config);
}

Bytes Poc::serialize() const {
  BinaryWriter w;
  w.str(participant);
  w.bytes(commitment);
  return w.take();
}

Poc Poc::deserialize(BytesView data) {
  BinaryReader r(data);
  Poc poc{r.str(), r.bytes()};
  r.expect_done();
  if (poc.participant.empty()) {
    throw SerializationError("POC participant id empty");
  }
  return poc;
}

mercurial::QtmcCommitment Poc::parsed_commitment(
    const zkedb::EdbCrs& crs) const {
  return mercurial::QtmcCommitment::deserialize(crs.params().qtmc_pk.n,
                                                commitment);
}

PocDecommitment::PocDecommitment(zkedb::EdbCrsPtr crs,
                                 std::unique_ptr<zkedb::EdbProver> prover,
                                 std::map<Bytes, Bytes> traces)
    : crs_(std::move(crs)),
      prover_(std::move(prover)),
      traces_(std::move(traces)) {}

bool PocDecommitment::owns(BytesView product_id) const {
  return traces_.find(Bytes(product_id.begin(), product_id.end())) !=
         traces_.end();
}

Bytes PocDecommitment::serialize() const {
  BinaryWriter w;
  w.varint(traces_.size());
  for (const auto& [id, da] : traces_) {
    w.bytes(id);
    w.bytes(da);
  }
  w.bytes(prover_->serialize_state());
  return w.take();
}

std::unique_ptr<PocDecommitment> PocDecommitment::load(zkedb::EdbCrsPtr crs,
                                                       BytesView data) {
  BinaryReader r(data);
  std::map<Bytes, Bytes> traces;
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    Bytes id = r.bytes();
    Bytes da = r.bytes();
    traces.emplace(std::move(id), std::move(da));
  }
  const Bytes state = r.bytes();
  r.expect_done();
  auto prover = std::make_unique<zkedb::EdbProver>(
      zkedb::EdbProver::load(crs, state));
  return std::make_unique<PocDecommitment>(std::move(crs), std::move(prover),
                                           std::move(traces));
}

Bytes PocProof::serialize() const {
  BinaryWriter w;
  w.boolean(ownership);
  w.bytes(zk_proof);
  return w.take();
}

PocProof PocProof::deserialize(BytesView data) {
  BinaryReader r(data);
  PocProof p;
  p.ownership = r.boolean();
  p.zk_proof = r.bytes();
  r.expect_done();
  return p;
}

PocScheme::PocScheme(zkedb::EdbCrsPtr crs, zkedb::EdbVerifyOptions verify_opts)
    : crs_(std::move(crs)), verify_opts_(verify_opts) {}

std::pair<Poc, std::unique_ptr<PocDecommitment>> PocScheme::aggregate(
    const std::string& participant, const std::map<Bytes, Bytes>& traces,
    const zkedb::EdbProverOptions& options) const {
  if (participant.empty()) {
    throw ProtocolError("POC-Agg: participant id must be non-empty");
  }
  std::map<Bytes, Bytes> entries;
  for (const auto& [id, da] : traces) {
    const zkedb::EdbKey key = zkedb::key_for_identifier(*crs_, id);
    if (!entries.emplace(key, da).second) {
      throw ProtocolError("POC-Agg: product id key collision");
    }
  }
  auto prover = std::make_unique<zkedb::EdbProver>(crs_, entries, options);
  Poc poc{participant, prover->commitment_bytes()};
  auto dpoc =
      std::make_unique<PocDecommitment>(crs_, std::move(prover), traces);
  return {std::move(poc), std::move(dpoc)};
}

PocProof PocScheme::prove(const PocDecommitment& dpoc,
                          BytesView product_id) const {
  const zkedb::EdbKey key = zkedb::key_for_identifier(*crs_, product_id);
  PocProof proof;
  if (dpoc.owns(product_id)) {
    proof.ownership = true;
    proof.zk_proof = dpoc.prover().prove_membership(key).serialize(*crs_);
  } else {
    proof.ownership = false;
    proof.zk_proof = dpoc.prover().prove_non_membership(key).serialize(*crs_);
  }
  return proof;
}

PocVerifyResult PocScheme::verify(const Poc& poc, BytesView product_id,
                                  const PocProof& proof) const {
  try {
    const zkedb::EdbKey key = zkedb::key_for_identifier(*crs_, product_id);
    const mercurial::QtmcCommitment root = poc.parsed_commitment(*crs_);
    if (proof.ownership) {
      const auto zk =
          zkedb::EdbMembershipProof::deserialize(*crs_, proof.zk_proof);
      const auto value =
          zkedb::edb_verify_membership(*crs_, root, key, zk, verify_opts_);
      if (!value.has_value()) return {PocVerdict::kBad, std::nullopt};
      return {PocVerdict::kTrace, *value};
    }
    const auto zk =
        zkedb::EdbNonMembershipProof::deserialize(*crs_, proof.zk_proof);
    if (!zkedb::edb_verify_non_membership(*crs_, root, key, zk,
                                          verify_opts_)) {
      return {PocVerdict::kBad, std::nullopt};
    }
    return {PocVerdict::kValid, std::nullopt};
  } catch (const Error&) {
    return {PocVerdict::kBad, std::nullopt};
  }
}

}  // namespace desword::poc
