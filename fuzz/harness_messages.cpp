// Fuzz harness for desword/messages protocol payload decoding.
//
// The first input byte selects the message type (mapped through the
// MessageType enum so new types automatically join the fuzz surface); the
// remaining bytes are the untrusted payload. A payload that decodes must
// re-encode byte-for-byte: message encodings are canonical (varints are
// minimal, deserializers reject trailing bytes), and reply deduplication
// keys on request digests, so two spellings of one message would be a bug.

#include <cstdlib>

#include "common/error.h"
#include "desword/messages.h"
#include "fuzz/harnesses.h"

namespace desword::fuzz {

namespace {

using namespace desword::protocol;

/// abort() on a decode/re-encode mismatch so it registers as a crash.
void require_canonical(BytesView payload, const Bytes& reencoded) {
  if (reencoded.size() != payload.size() ||
      !std::equal(reencoded.begin(), reencoded.end(), payload.begin())) {
    std::abort();
  }
}

void decode_one(MessageType type, BytesView payload) {
  switch (type) {
    case MessageType::kUnknown:
    case MessageType::kAdminShutdown:
      // No payload structure to decode.
      return;
    case MessageType::kPsRequest:
      require_canonical(payload, PsRequest::deserialize(payload).serialize());
      return;
    case MessageType::kPsResponse:
    case MessageType::kPsBroadcast:
      require_canonical(payload, PsResponse::deserialize(payload).serialize());
      return;
    case MessageType::kPocToParent:
      require_canonical(payload,
                        PocToParent::deserialize(payload).serialize());
      return;
    case MessageType::kPocPairsToInitial:
      require_canonical(payload,
                        PocPairsToInitial::deserialize(payload).serialize());
      return;
    case MessageType::kPocListSubmit:
      require_canonical(payload,
                        PocListSubmit::deserialize(payload).serialize());
      return;
    case MessageType::kQueryRequest:
      require_canonical(payload,
                        QueryRequest::deserialize(payload).serialize());
      return;
    case MessageType::kQueryResponse:
      require_canonical(payload,
                        QueryResponse::deserialize(payload).serialize());
      return;
    case MessageType::kRevealRequest:
      require_canonical(payload,
                        RevealRequest::deserialize(payload).serialize());
      return;
    case MessageType::kRevealResponse:
      require_canonical(payload,
                        RevealResponse::deserialize(payload).serialize());
      return;
    case MessageType::kNextHopRequest:
      require_canonical(payload,
                        NextHopRequest::deserialize(payload).serialize());
      return;
    case MessageType::kNextHopResponse:
      require_canonical(payload,
                        NextHopResponse::deserialize(payload).serialize());
      return;
    case MessageType::kClientQueryRequest:
      require_canonical(payload,
                        ClientQueryRequest::deserialize(payload).serialize());
      return;
    case MessageType::kClientQueryResponse:
      require_canonical(payload,
                        ClientQueryResponse::deserialize(payload).serialize());
      return;
    case MessageType::kStatusRequest:
      require_canonical(payload,
                        StatusRequest::deserialize(payload).serialize());
      return;
    case MessageType::kStatusResponse:
      require_canonical(payload,
                        StatusResponse::deserialize(payload).serialize());
      return;
    case MessageType::kClientReportRequest:
      require_canonical(payload,
                        ClientReportRequest::deserialize(payload).serialize());
      return;
    case MessageType::kStatsRequest:
      require_canonical(payload,
                        StatsRequest::deserialize(payload).serialize());
      return;
  }
}

}  // namespace

int run_messages(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  // Every enumerator, kUnknown .. the last one (kStatsRequest); a type
  // appended to the enum must move this bound.
  constexpr std::uint8_t kTypeCount =
      static_cast<std::uint8_t>(MessageType::kStatsRequest) + 1;
  const auto type = static_cast<MessageType>(data[0] % kTypeCount);
  BytesView payload(data + 1, size - 1);
  try {
    decode_one(type, payload);
  } catch (const SerializationError&) {
    // Malformed payload: expected classification.
  }
  return 0;
}

}  // namespace desword::fuzz
