// Product Ownership Credential (POC) scheme — the paper's Table I.
//
//   PS-Gen(λ)      -> ps                (here: the ZK-EDB CRS)
//   POC-Agg        -> (POC_v, DPOC_v)   commit a participant's RFID-traces
//   POC-Proof      -> oπ / noπ          ownership / non-ownership proof
//   POC-Verify     -> t / valid / bad
//
// A POC is `v || Com`: the participant identity plus the compact ZK-EDB
// commitment of its trace database. DPOC is the decommitment state the
// participant keeps to answer queries.
//
// Product identifiers are arbitrary byte strings; they are mapped into the
// ZK-EDB key space by hashing (key_for_identifier). The committed value for
// a product id is the information part `da` of its RFID-trace; POC-Verify
// reconstitutes the full trace t = (id, da).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "zkedb/prover.h"
#include "zkedb/verifier.h"

namespace desword::poc {

/// PS-Gen: generate the public parameter ps (ZK-EDB CRS).
zkedb::EdbCrsPtr ps_gen(const zkedb::EdbConfig& config);

/// A participant's product ownership credential (public).
struct Poc {
  std::string participant;  // v_i
  Bytes commitment;         // serialized ZK-EDB root commitment

  bool operator==(const Poc&) const = default;
  Bytes serialize() const;
  static Poc deserialize(BytesView data);

  /// Parses the embedded commitment. Throws SerializationError if invalid.
  mercurial::QtmcCommitment parsed_commitment(const zkedb::EdbCrs& crs) const;
};

/// DPOC: the private decommitment state (wraps the ZK-EDB prover tree).
class PocDecommitment {
 public:
  PocDecommitment(zkedb::EdbCrsPtr crs, std::unique_ptr<zkedb::EdbProver> prover,
                  std::map<Bytes, Bytes> traces);

  bool owns(BytesView product_id) const;
  std::size_t trace_count() const { return traces_.size(); }
  const zkedb::EdbProver& prover() const { return *prover_; }
  const std::map<Bytes, Bytes>& traces() const { return traces_; }
  const zkedb::EdbCrs& crs() const { return *crs_; }

  /// Durable form of the DPOC: participants persist this between the
  /// distribution phase and (possibly much later) queries.
  Bytes serialize() const;
  static std::unique_ptr<PocDecommitment> load(zkedb::EdbCrsPtr crs,
                                               BytesView data);

 private:
  zkedb::EdbCrsPtr crs_;
  std::unique_ptr<zkedb::EdbProver> prover_;
  std::map<Bytes, Bytes> traces_;  // product id -> da (trace info)
};

/// Ownership or non-ownership proof ("Ow-proof || ZK-π" / "Now-proof || ZK-π").
struct PocProof {
  bool ownership = false;
  Bytes zk_proof;  // serialized EdbMembershipProof or EdbNonMembershipProof

  Bytes serialize() const;
  static PocProof deserialize(BytesView data);
};

/// Result of POC-Verify.
enum class PocVerdict : std::uint8_t {
  kTrace,  // ownership proof valid; `trace_info` holds da with t = (id, da)
  kValid,  // non-ownership proof valid
  kBad,    // proof invalid
};

struct PocVerifyResult {
  PocVerdict verdict = PocVerdict::kBad;
  std::optional<Bytes> trace_info;  // set iff verdict == kTrace
};

class PocScheme {
 public:
  /// `verify_opts` picks the ZK-proof verification strategy (batched
  /// multi-exponentiation by default); it never changes verdicts.
  explicit PocScheme(zkedb::EdbCrsPtr crs,
                     zkedb::EdbVerifyOptions verify_opts = {});

  const zkedb::EdbCrs& crs() const { return *crs_; }

  /// POC-Agg: commits `traces` (product id -> da) for `participant`.
  /// `options` tunes the underlying EDB-commit (thread count, seeded
  /// randomness for reproducible commitments).
  std::pair<Poc, std::unique_ptr<PocDecommitment>> aggregate(
      const std::string& participant, const std::map<Bytes, Bytes>& traces,
      const zkedb::EdbProverOptions& options = {}) const;

  /// POC-Proof: ownership proof if the participant holds a trace for
  /// `product_id`, otherwise a non-ownership proof. Read-only: a repeat is
  /// byte-identical, and calls on one DPOC may overlap.
  PocProof prove(const PocDecommitment& dpoc, BytesView product_id) const;

  /// POC-Verify.
  PocVerifyResult verify(const Poc& poc, BytesView product_id,
                         const PocProof& proof) const;

 private:
  zkedb::EdbCrsPtr crs_;
  zkedb::EdbVerifyOptions verify_opts_;
};

}  // namespace desword::poc
