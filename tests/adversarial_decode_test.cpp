// Negative-path decoding tests: every reader that consumes untrusted bytes
// must classify malformed input with SerializationError (or a sibling
// desword::Error) — never undefined behaviour, never a foreign exception
// type, never an over-read.
//
// Three attack shapes per decoder:
//   * truncation sweep: every strict prefix of a valid encoding,
//   * bit flips: each byte of a valid encoding perturbed,
//   * trailing garbage: a valid encoding with bytes appended.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/serial.h"
#include "desword/messages.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "poc/poc.h"
#include "zkedb/params.h"
#include "zkedb/proof.h"
#include "zkedb/prover.h"
#include "zkedb/verifier.h"

namespace desword {
namespace {

using namespace desword::protocol;

/// Runs `decode`; passes if it succeeds or throws a desword::Error.
/// Anything else (std::bad_alloc, std::out_of_range, a crash) escapes and
/// fails the test.
void expect_decode_or_error(const std::function<void()>& decode) {
  try {
    decode();
  } catch (const Error&) {
    // Classified as malformed: acceptable.
  }
}

/// Every strict prefix of `valid` must throw SerializationError: no
/// message encoding has a complete message as a strict prefix (all fields
/// are fixed-width or length-prefixed, and decoders check expect_done).
void truncation_sweep(const Bytes& valid,
                      const std::function<void(BytesView)>& decode) {
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    EXPECT_THROW(decode(BytesView(valid.data(), cut)), SerializationError);
  }
}

/// Each single-byte perturbation must decode or throw a desword::Error.
void bitflip_sweep(const Bytes& valid,
                   const std::function<void(BytesView)>& decode,
                   std::size_t stride = 1) {
  for (std::size_t pos = 0; pos < valid.size(); pos += stride) {
    SCOPED_TRACE("flip=" + std::to_string(pos));
    Bytes mutated = valid;
    mutated[pos] ^= 0x41;
    expect_decode_or_error([&] { decode(mutated); });
  }
}

/// Appending garbage must throw (decoders reject trailing bytes).
void trailing_garbage(const Bytes& valid,
                      const std::function<void(BytesView)>& decode) {
  Bytes padded = valid;
  padded.push_back(0x00);
  EXPECT_THROW(decode(padded), SerializationError);
}

template <typename Message>
void exercise_message(const Message& sample) {
  const Bytes valid = sample.serialize();
  auto decode = [](BytesView data) { (void)Message::deserialize(data); };
  // The valid encoding round-trips.
  EXPECT_EQ(Message::deserialize(valid).serialize(), valid);
  truncation_sweep(valid, decode);
  bitflip_sweep(valid, decode);
  trailing_garbage(valid, decode);
}

TEST(AdversarialMessages, AllMessageTypesSurviveMutation) {
  const Bytes product = bytes_of("prod-1");
  const Bytes poc = bytes_of("poc-bytes");
  exercise_message(PsRequest{"task-1"});
  exercise_message(PsResponse{"task-1", bytes_of("ps-blob")});
  exercise_message(PocToParent{"task-1", poc});
  exercise_message(
      PocPairsToInitial{"task-1", poc, {{poc, bytes_of("child")}}});
  exercise_message(PocListSubmit{"task-1", bytes_of("list")});
  exercise_message(QueryRequest{1, product, ProductQuality::kBad, poc});
  exercise_message(QueryResponse{1, true, bytes_of("proof")});
  exercise_message(QueryResponse{2, false, std::nullopt});
  exercise_message(RevealRequest{3, product, poc});
  exercise_message(RevealResponse{3, bytes_of("proof")});
  exercise_message(RevealResponse{4, std::nullopt});
  exercise_message(NextHopRequest{5, product});
  exercise_message(NextHopResponse{5, "v2"});
  exercise_message(NextHopResponse{6, std::nullopt});
  exercise_message(
      ClientQueryRequest{7, product, ProductQuality::kGood, "task-1"});
  ClientQueryResponse cqr;
  cqr.client_ref = 7;
  cqr.ok = false;
  cqr.error = "nope";
  exercise_message(cqr);
  exercise_message(StatusRequest{"task-1"});
  exercise_message(StatusResponse{"task-1", true});
  exercise_message(ClientReportRequest{8});
}

TEST(AdversarialWire, EnvelopeBodyMutation) {
  net::Envelope env;
  env.from = "v1";
  env.to = "proxy";
  env.type = msg::kQueryRequest;
  env.payload = bytes_of("payload-bytes");
  const Bytes body = net::encode_envelope(env);
  auto decode = [](BytesView data) { (void)net::decode_envelope(data); };
  truncation_sweep(body, decode);
  bitflip_sweep(body, decode);
  trailing_garbage(body, decode);
}

TEST(AdversarialWire, FramePrefixesAreIncompleteNotErrors) {
  net::Envelope env;
  env.from = "v1";
  env.to = "proxy";
  env.type = msg::kPsRequest;
  env.payload = PsRequest{"task-1"}.serialize();
  const Bytes frame = net::encode_frame(env);
  // A strict prefix is an incomplete frame: decode must wait for more
  // bytes (nullopt, consumed == 0), not throw.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::size_t consumed = 0xdead;
    const auto decoded =
        net::try_decode_frame(BytesView(frame.data(), cut), consumed);
    EXPECT_FALSE(decoded.has_value()) << "cut=" << cut;
    EXPECT_EQ(consumed, 0u) << "cut=" << cut;
  }
  // Flipping bytes of a complete frame either still decodes (payload
  // flips), throws, or reports the frame incomplete (length-prefix grew).
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    Bytes mutated = frame;
    mutated[pos] ^= 0x41;
    expect_decode_or_error([&] {
      std::size_t consumed = 0;
      (void)net::try_decode_frame(mutated, consumed);
    });
  }
}

TEST(AdversarialWire, HostileLengthPrefixes) {
  // Length prefix beyond kMaxFrameBytes: must throw, not allocate.
  const Bytes huge{0xff, 0xff, 0xff, 0xff, 0x00};
  std::size_t consumed = 0;
  EXPECT_THROW((void)net::try_decode_frame(huge, consumed),
               SerializationError);
  // Length prefix whose frame_len wraps 32 bits must not be treated as
  // complete (0xffffffff + 4 overflows u32).
  const Bytes wrap{0xff, 0xff, 0xff, 0xfb, 0x01, 0x02, 0x03};
  consumed = 0;
  EXPECT_THROW((void)net::try_decode_frame(wrap, consumed),
               SerializationError);
  // Zero-length frame: empty envelope body is malformed, not a wait state.
  const Bytes zero{0x00, 0x00, 0x00, 0x00};
  consumed = 0;
  EXPECT_THROW((void)net::try_decode_frame(zero, consumed),
               SerializationError);
}

TEST(AdversarialSerial, MalformedPrimitives) {
  // Non-minimal varint (0 encoded in two bytes) is rejected: serialized
  // bytes feed digests, so each value must have exactly one spelling.
  {
    const Bytes nonminimal{0x80, 0x00};
    BinaryReader r(nonminimal);
    EXPECT_THROW((void)r.varint(), SerializationError);
  }
  // Varint wider than 64 bits.
  {
    const Bytes overlong{0xff, 0xff, 0xff, 0xff, 0xff,
                         0xff, 0xff, 0xff, 0xff, 0x7f};
    BinaryReader r(overlong);
    EXPECT_THROW((void)r.varint(), SerializationError);
  }
  // Length prefix larger than the remaining buffer.
  {
    const Bytes hungry{0xff, 0xff, 0x03, 0x01};
    BinaryReader r(hungry);
    EXPECT_THROW((void)r.bytes(), SerializationError);
  }
  // Boolean bytes other than 0/1 are rejected.
  {
    const Bytes notbool{0x02};
    BinaryReader r(notbool);
    EXPECT_THROW((void)r.boolean(), SerializationError);
  }
}

class AdversarialPersist : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zkedb::EdbConfig config;
    config.q = 4;
    config.height = 8;
    config.rsa_bits = 512;
    config.group_name = "modp512-test";
    crs_ = new zkedb::EdbCrsPtr(zkedb::generate_crs(config));
  }
  static void TearDownTestSuite() {
    delete crs_;
    crs_ = nullptr;
  }
  static const zkedb::EdbCrs& crs() { return **crs_; }
  static zkedb::EdbCrsPtr crs_ptr() { return *crs_; }

  static zkedb::EdbProver make_prover() {
    std::map<Bytes, Bytes> entries;
    for (int i = 0; i < 3; ++i) {
      const Bytes id = bytes_of("prod-" + std::to_string(i));
      entries[zkedb::key_for_identifier(crs(), id)] =
          bytes_of("da-" + std::to_string(i));
    }
    zkedb::EdbProverOptions options;
    options.threads = 1;
    options.seed = bytes_of("adversarial-decode-test");
    return zkedb::EdbProver(crs_ptr(), entries, options);
  }

 private:
  static zkedb::EdbCrsPtr* crs_;
};

zkedb::EdbCrsPtr* AdversarialPersist::crs_ = nullptr;

TEST_F(AdversarialPersist, ProverStateMutation) {
  zkedb::EdbProver prover = make_prover();
  const Bytes state = prover.serialize_state();
  auto decode = [&](BytesView data) {
    (void)zkedb::EdbProver::load(crs_ptr(), data);
  };
  // State blobs are a few KB; sweep a bounded set of cut/flip points so
  // the test stays fast while covering every region of the layout.
  const std::size_t stride = std::max<std::size_t>(1, state.size() / 64);
  for (std::size_t cut = 0; cut < state.size(); cut += stride) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    expect_decode_or_error([&] { decode(BytesView(state.data(), cut)); });
  }
  bitflip_sweep(state, decode, stride);
}

TEST_F(AdversarialPersist, MembershipProofMutation) {
  zkedb::EdbProver prover = make_prover();
  const zkedb::EdbKey key =
      zkedb::key_for_identifier(crs(), bytes_of("prod-1"));
  const Bytes proof = prover.prove_membership(key).serialize(crs());
  auto decode = [&](BytesView data) {
    (void)zkedb::EdbMembershipProof::deserialize(crs(), data);
  };
  const std::size_t stride = std::max<std::size_t>(1, proof.size() / 64);
  for (std::size_t cut = 0; cut < proof.size(); cut += stride) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    expect_decode_or_error([&] { decode(BytesView(proof.data(), cut)); });
  }
  bitflip_sweep(proof, decode, stride);
}

// A membership proof ships C0 alone for its inner children; the verifier
// derives each C1 = h^{r1} from the child's opening. An r1 past the
// exponent cap is refused before any power is taken, by both strategies.
TEST_F(AdversarialPersist, MembershipProofWideR1RejectedBeforeAnyPower) {
  zkedb::EdbProver prover = make_prover();
  const zkedb::EdbKey key =
      zkedb::key_for_identifier(crs(), bytes_of("prod-1"));
  zkedb::EdbMembershipProof proof = prover.prove_membership(key);
  // 2^kMaxExponentBits: one bit past the cap.
  proof.openings[1].r1 = Bignum::from_hex(
      "1" + std::string(mercurial::kMaxExponentBits / 4, '0'));
  ASSERT_FALSE(mercurial::QtmcScheme::exponent_in_range(proof.openings[1].r1));
  // The decoder carries it; the verifier refuses it.
  proof = zkedb::EdbMembershipProof::deserialize(crs(), proof.serialize(crs()));
  obs::Counter& powers = obs::metric("crypto.modexp.calls");
  obs::Counter& multi_exps = obs::metric("crypto.multi_exp.calls");
  for (const bool batched : {true, false}) {
    SCOPED_TRACE(batched ? "batched" : "scalar");
    zkedb::EdbVerifyOptions opts;
    opts.batched = batched;
    opts.threads = 1;
    const std::uint64_t powers_before = powers.value();
    const std::uint64_t multi_before = multi_exps.value();
    EXPECT_FALSE(zkedb::edb_verify_membership(crs(), prover.commitment(), key,
                                              proof, opts)
                     .ok);
    EXPECT_EQ(powers.value(), powers_before);
    EXPECT_EQ(multi_exps.value(), multi_before);
  }
}

// The layout with both halves of every inner child (C0‖C1, as Table II
// sizes it) is not a second accepted encoding: the decoder refuses it.
TEST_F(AdversarialPersist, MembershipProofWithC1IsASerializationError) {
  zkedb::EdbProver prover = make_prover();
  const zkedb::EdbKey key =
      zkedb::key_for_identifier(crs(), bytes_of("prod-2"));
  zkedb::EdbMembershipProof proof = prover.prove_membership(key);
  const Bignum& n = crs().params().qtmc_pk.n;
  for (std::size_t d = 0; d + 1 < proof.child_commitments.size(); ++d) {
    ASSERT_EQ(proof.child_commitments[d].size(), crs().qtmc().element_len());
    proof.child_commitments[d] =
        mercurial::QtmcCommitment{
            Bignum::from_bytes(proof.child_commitments[d]),
            crs().qtmc().hard_c1(proof.openings[d + 1].r1)}
            .serialize(n);
  }
  EXPECT_THROW((void)zkedb::EdbMembershipProof::deserialize(
                   crs(), proof.serialize(crs())),
               SerializationError);
}

// A flipped C0 byte, or r1 values swapped between two levels, still
// decode, and both strategies reject them.
TEST_F(AdversarialPersist, MembershipProofFlippedC0OrSwappedR1Rejected) {
  zkedb::EdbProver prover = make_prover();
  const zkedb::EdbKey key =
      zkedb::key_for_identifier(crs(), bytes_of("prod-0"));
  const zkedb::EdbMembershipProof proof = prover.prove_membership(key);
  const auto rejected = [&](const zkedb::EdbMembershipProof& p) {
    const zkedb::EdbMembershipProof decoded =
        zkedb::EdbMembershipProof::deserialize(crs(), p.serialize(crs()));
    zkedb::EdbVerifyOptions scalar;
    scalar.batched = false;
    return !zkedb::edb_verify_membership(crs(), prover.commitment(), key,
                                         decoded)
                .ok &&
           !zkedb::edb_verify_membership(crs(), prover.commitment(), key,
                                         decoded, scalar)
                .ok;
  };
  ASSERT_FALSE(rejected(proof));
  for (const std::size_t d : {std::size_t{0}, std::size_t{3}, std::size_t{6}}) {
    for (const std::size_t byte : {std::size_t{0}, std::size_t{17},
                                   crs().qtmc().element_len() - 1}) {
      zkedb::EdbMembershipProof flipped = proof;
      flipped.child_commitments[d][byte] ^= 0x10;
      EXPECT_TRUE(rejected(flipped)) << "C0 " << d << " byte " << byte;
    }
  }
  for (const std::size_t d : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    zkedb::EdbMembershipProof swapped = proof;
    ASSERT_NE(swapped.openings[d].r1, swapped.openings[d + 1].r1);
    std::swap(swapped.openings[d].r1, swapped.openings[d + 1].r1);
    EXPECT_TRUE(rejected(swapped)) << "r1 of levels " << d << ", " << d + 1;
  }
}

TEST_F(AdversarialPersist, NonMembershipProofMutation) {
  zkedb::EdbProver prover = make_prover();
  const zkedb::EdbKey key =
      zkedb::key_for_identifier(crs(), bytes_of("absent"));
  const Bytes proof = prover.prove_non_membership(key).serialize(crs());
  auto decode = [&](BytesView data) {
    (void)zkedb::EdbNonMembershipProof::deserialize(crs(), data);
  };
  const std::size_t stride = std::max<std::size_t>(1, proof.size() / 64);
  for (std::size_t cut = 0; cut < proof.size(); cut += stride) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    expect_decode_or_error([&] { decode(BytesView(proof.data(), cut)); });
  }
  bitflip_sweep(proof, decode, stride);
}

TEST_F(AdversarialPersist, PublicParamsMutation) {
  const Bytes params = crs().params().serialize();
  auto decode = [](BytesView data) {
    // Instantiating the runtime CRS validates group/key consistency; it
    // must classify hostile parameters, not crash.
    zkedb::EdbCrs runtime(zkedb::EdbPublicParams::deserialize(data));
  };
  truncation_sweep(params, [](BytesView data) {
    (void)zkedb::EdbPublicParams::deserialize(data);
  });
  bitflip_sweep(params, decode);
  // The soft-backing byte after the group name must be 0 (shared backing):
  // a blob that names any other backing is refused.
  BinaryWriter head;
  head.u32(crs().params().q);
  head.u32(crs().params().height);
  head.str(crs().params().group_name);
  const std::size_t mode_at = head.take().size();
  ASSERT_EQ(params.at(mode_at), 0);
  for (const std::uint8_t mode : {1, 2}) {
    Bytes mutated = params;
    mutated[mode_at] = mode;
    EXPECT_THROW((void)zkedb::EdbPublicParams::deserialize(mutated),
                 SerializationError)
        << int{mode};
  }
}

}  // namespace
}  // namespace desword
