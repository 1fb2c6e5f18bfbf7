// Fixture: verification-cache keys that do not bind the proof bytes.
// A key missing the proof lets a tampered proof alias a cached
// acceptance (rule cache-key).
#include "zkedb/verify_cache.h"

namespace desword::zkedb {

Bytes lookup_keys(const Bytes& product, const Bytes& commitment,
                  const Bytes& proof_bytes) {
  // Clean: the proof bytes are part of the key.
  const Bytes good = VerifyCache::hop_key("t0", "p1", product, commitment,
                                          proof_bytes, "ownership");
  // Violation: commitment + product alone — any forgery for this slot
  // would hit the same entry.
  const Bytes bad =
      VerifyCache::hop_key("t0", "p1", product, commitment, {},
                           "non_ownership");
  // Violation: the commitment passed twice in place of the bytes.
  const Bytes bad_hop = VerifyCache::hop_key("t0", "p1", product, commitment,
                                             commitment, "ownership");
  // Waived: migration shim measured separately.
  const Bytes waived = VerifyCache::hop_key(  // desword-lint: allow(cache-key)
      "t0", "p1", product, commitment, {}, "ownership");
  // Clean: multi-line call with the proof bytes on a later line.
  const Bytes wrapped = VerifyCache::hop_key(
      "t0", "p1", product, commitment,
      proof_bytes, "ownership");
  (void)good;
  (void)bad_hop;
  (void)waived;
  return wrapped.empty() ? bad : wrapped;
}

}  // namespace desword::zkedb
