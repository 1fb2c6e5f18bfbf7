// SHA-256 hashing with domain separation.
//
// Every hash in the system is tagged: H(tag || len(part_1) || part_1 || ...),
// with each part length-prefixed, so distinct protocol uses can never collide
// structurally. Digest values that feed the mercurial commitment message
// space are truncated to 128 bits (see `kMessageBits` in mercurial/).
#pragma once

#include <initializer_list>
#include <string_view>

#include "common/bytes.h"

namespace desword {

inline constexpr std::size_t kSha256Size = 32;

/// Raw SHA-256 of a single buffer.
Bytes sha256(BytesView data);

/// Domain-separated hash: SHA-256 over the tag and length-prefixed parts.
Bytes hash_tagged(std::string_view tag, std::initializer_list<BytesView> parts);

/// Incremental variant for callers assembling many parts.
class TaggedHasher {
 public:
  explicit TaggedHasher(std::string_view tag);
  TaggedHasher& add(BytesView part);
  /// Adds parts already framed as add() frames them — each a varint
  /// length and then the part, as BinaryWriter::bytes writes it — in one
  /// update: the digest adding each part would give.
  TaggedHasher& add_framed(BytesView framed);
  TaggedHasher& add_str(std::string_view part);
  TaggedHasher& add_u64(std::uint64_t v);
  /// Finalizes and returns the 32-byte digest. The hasher must not be
  /// reused afterwards.
  Bytes digest();

 private:
  void* md_ctx_;  // EVP_MD_CTX, kept opaque to avoid leaking openssl headers
};

/// First 16 bytes of a tagged hash — the 128-bit message domain used by the
/// mercurial commitments (messages must be < the 136-bit primes e_i).
Bytes hash_to_128(std::string_view tag, std::initializer_list<BytesView> parts);

}  // namespace desword
