#include "crypto/hash.h"

#include <openssl/evp.h>

#include "common/error.h"
#include "common/serial.h"

namespace desword {

Bytes sha256(BytesView data) {
  Bytes out(kSha256Size);
  unsigned int len = 0;
  if (EVP_Digest(data.data(), data.size(), out.data(), &len, EVP_sha256(),
                 nullptr) != 1 ||
      len != kSha256Size) {
    throw CryptoError("EVP_Digest(sha256) failed");
  }
  return out;
}

Bytes hash_tagged(std::string_view tag,
                  std::initializer_list<BytesView> parts) {
  TaggedHasher h(tag);
  for (const auto& p : parts) h.add(p);
  return h.digest();
}

TaggedHasher::TaggedHasher(std::string_view tag) {
  EVP_MD_CTX* ctx = EVP_MD_CTX_new();
  if (ctx == nullptr || EVP_DigestInit_ex(ctx, EVP_sha256(), nullptr) != 1) {
    EVP_MD_CTX_free(ctx);
    throw CryptoError("EVP_DigestInit_ex failed");
  }
  md_ctx_ = ctx;
  // The tag itself is length-prefixed so "ab"+"c" != "a"+"bc".
  add_str(tag);
}

TaggedHasher& TaggedHasher::add(BytesView part) {
  BinaryWriter w;
  w.varint(part.size());
  add_framed(w.view());
  return add_framed(part);
}

TaggedHasher& TaggedHasher::add_framed(BytesView framed) {
  auto* ctx = static_cast<EVP_MD_CTX*>(md_ctx_);
  if (EVP_DigestUpdate(ctx, framed.data(), framed.size()) != 1) {
    throw CryptoError("EVP_DigestUpdate failed");
  }
  return *this;
}

TaggedHasher& TaggedHasher::add_str(std::string_view part) {
  return add(BytesView(reinterpret_cast<const std::uint8_t*>(part.data()),
                       part.size()));
}

TaggedHasher& TaggedHasher::add_u64(std::uint64_t v) {
  const Bytes b = be64(v);
  return add(b);
}

Bytes TaggedHasher::digest() {
  auto* ctx = static_cast<EVP_MD_CTX*>(md_ctx_);
  Bytes out(kSha256Size);
  unsigned int len = 0;
  const int rc = EVP_DigestFinal_ex(ctx, out.data(), &len);
  EVP_MD_CTX_free(ctx);
  md_ctx_ = nullptr;
  if (rc != 1 || len != kSha256Size) {
    throw CryptoError("EVP_DigestFinal_ex failed");
  }
  return out;
}

Bytes hash_to_128(std::string_view tag,
                  std::initializer_list<BytesView> parts) {
  Bytes full = hash_tagged(tag, parts);
  full.resize(16);
  return full;
}

}  // namespace desword
