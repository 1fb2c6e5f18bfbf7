#include <gtest/gtest.h>

#include "common/error.h"
#include "desword/crs_cache.h"
#include "desword/messages.h"
#include "supplychain/rfid.h"

namespace desword::protocol {
namespace {

using supplychain::make_epc;

/// Every serialized message must deserialize to an equal value, and every
/// strict prefix must throw SerializationError (never crash, never parse).
template <typename M>
void check_roundtrip_and_truncation(const M& msg) {
  const Bytes ser = msg.serialize();
  const M back = M::deserialize(ser);
  EXPECT_EQ(back.serialize(), ser);
  for (std::size_t len = 0; len < ser.size(); ++len) {
    const Bytes prefix(ser.begin(), ser.begin() + static_cast<long>(len));
    EXPECT_THROW((void)M::deserialize(prefix), SerializationError)
        << "prefix length " << len;
  }
  // Trailing garbage is rejected too.
  Bytes extended = ser;
  extended.push_back(0x00);
  EXPECT_THROW((void)M::deserialize(extended), SerializationError);
}

TEST(MessagesTest, PsRequestRoundTrip) {
  check_roundtrip_and_truncation(PsRequest{"task-1"});
}

TEST(MessagesTest, PsResponseRoundTrip) {
  check_roundtrip_and_truncation(PsResponse{"task-1", bytes_of("ps-bytes")});
}

TEST(MessagesTest, PocToParentRoundTrip) {
  check_roundtrip_and_truncation(PocToParent{"task-1", bytes_of("poc")});
}

TEST(MessagesTest, PocPairsToInitialRoundTrip) {
  PocPairsToInitial m;
  m.task_id = "task-9";
  m.own_poc = bytes_of("own");
  m.pairs.emplace_back(bytes_of("parent-1"), bytes_of("child-1"));
  m.pairs.emplace_back(bytes_of("parent-2"), bytes_of("child-2"));
  check_roundtrip_and_truncation(m);
}

TEST(MessagesTest, PocListSubmitRoundTrip) {
  check_roundtrip_and_truncation(PocListSubmit{"task-1", bytes_of("list")});
}

TEST(MessagesTest, QueryRequestRoundTrip) {
  QueryRequest m;
  m.query_id = 77;
  m.product = make_epc(1, 2, 3);
  m.quality = ProductQuality::kBad;
  m.poc = bytes_of("poc-bytes");
  check_roundtrip_and_truncation(m);
}

TEST(MessagesTest, QueryResponseVariants) {
  QueryResponse with_proof;
  with_proof.query_id = 1;
  with_proof.claims_processing = true;
  with_proof.proof = bytes_of("proof");
  check_roundtrip_and_truncation(with_proof);

  QueryResponse without_proof;
  without_proof.query_id = 2;
  without_proof.claims_processing = false;
  check_roundtrip_and_truncation(without_proof);
  EXPECT_FALSE(QueryResponse::deserialize(without_proof.serialize())
                   .proof.has_value());
}

TEST(MessagesTest, RevealMessagesRoundTrip) {
  RevealRequest req;
  req.query_id = 5;
  req.product = make_epc(4, 5, 6);
  req.poc = bytes_of("poc");
  check_roundtrip_and_truncation(req);

  RevealResponse refuse;
  refuse.query_id = 5;
  check_roundtrip_and_truncation(refuse);

  RevealResponse reveal;
  reveal.query_id = 5;
  reveal.proof = bytes_of("ownership-proof");
  check_roundtrip_and_truncation(reveal);
}

TEST(MessagesTest, NextHopMessagesRoundTrip) {
  NextHopRequest req;
  req.query_id = 8;
  req.product = make_epc(1, 1, 1);
  check_roundtrip_and_truncation(req);

  NextHopResponse last;
  last.query_id = 8;
  check_roundtrip_and_truncation(last);
  EXPECT_FALSE(NextHopResponse::deserialize(last.serialize())
                   .next.has_value());

  NextHopResponse onward;
  onward.query_id = 8;
  onward.next = "v7";
  check_roundtrip_and_truncation(onward);
  EXPECT_EQ(*NextHopResponse::deserialize(onward.serialize()).next, "v7");
}

TEST(MessagesTest, BadQualityByteRejected) {
  QueryRequest m;
  m.query_id = 1;
  m.product = make_epc(1, 1, 1);
  m.poc = bytes_of("p");
  Bytes ser = m.serialize();
  // Quality byte sits right after the length-prefixed product field.
  // Find and corrupt it via a targeted reserialize instead: flip through
  // all single-byte corruptions and require parse failure or equal parse.
  bool rejected_some = false;
  for (std::size_t i = 0; i < ser.size(); ++i) {
    Bytes mutated = ser;
    mutated[i] = 0x7f;
    try {
      (void)QueryRequest::deserialize(mutated);
    } catch (const SerializationError&) {
      rejected_some = true;
    }
  }
  EXPECT_TRUE(rejected_some);
}

TEST(MessagesTest, QualityToString) {
  EXPECT_EQ(to_string(ProductQuality::kGood), "good");
  EXPECT_EQ(to_string(ProductQuality::kBad), "bad");
}

TEST(CrsCacheTest, SameBytesYieldSameInstance) {
  CrsCache cache;
  zkedb::EdbConfig cfg{4, 6, 512, "p256"};
  const zkedb::EdbCrsPtr crs = zkedb::generate_crs(cfg);
  const Bytes ps = crs->params().serialize();
  const zkedb::EdbCrsPtr a = cache.get(ps);
  const zkedb::EdbCrsPtr b = cache.get(ps);
  EXPECT_EQ(a.get(), b.get());  // derived once, shared afterwards
  EXPECT_EQ(a->q(), 4u);
}

TEST(CrsCacheTest, PutPreseedsInstance) {
  CrsCache cache;
  zkedb::EdbConfig cfg{4, 6, 512, "p256"};
  const zkedb::EdbCrsPtr crs = zkedb::generate_crs(cfg);
  cache.put(crs);
  const zkedb::EdbCrsPtr got = cache.get(crs->params().serialize());
  EXPECT_EQ(got.get(), crs.get());
}

}  // namespace
}  // namespace desword::protocol
