// Verification cache: the proxy's hop memo.
//
// Repeated audit traffic re-walks the same proof chains: recall campaigns
// and counterfeit audits query far more often than participants re-commit,
// so the exact same (commitment, product, proof bytes) triple is verified
// over and over. This cache memoizes the *verdict* of an accepted hop
// verification so a hop whose exact proof bytes were already admitted
// under the same commitment skips the multi-exponentiation entirely.
//
// Safety rests on the key: hop_key() binds the task, the participant, the
// product, the POC commitment, the FULL proof bytes and the check flavour
// through a domain-separated SHA-256. Those are every input the verdict
// depends on (the CRS is fixed per proxy), so an entry can never answer a
// different question: a tampered proof, however close to a cached one,
// hashes to a different key, and a replacement POC list that re-commits a
// participant produces new keys. The `cache-key` lint rule
// (tools/desword_lint.py) rejects key constructions that omit the proof
// bytes.
//
// Only *accepted* verdicts are stored. Negative caching would be sound —
// the key binds the exact rejected bytes — but every adversarial garbage
// proof would then occupy a distinct entry, letting a flooder evict the
// legitimate working set at zero crypto cost. Rejections stay expensive
// for the attacker and free for the cache. (DESIGN.md §12.)
#pragma once

#include <cstddef>
#include <list>
#include <map>
#include <optional>
#include <string_view>

#include "common/bytes.h"

namespace desword::zkedb {

/// Uniform result of a proof verification: `ok` is the verdict; `value`
/// carries the proven value for memberships (absent for non-memberships).
/// Replaces the historical std::optional<Bytes> / bare bool split so cache
/// entries and callers handle both proof flavours identically.
struct VerifyOutcome {
  bool ok = false;
  std::optional<Bytes> value;

  /// True iff the proof was accepted AND proves a value (membership).
  bool has_value() const { return ok && value.has_value(); }
  const Bytes& operator*() const { return *value; }
  const Bytes* operator->() const { return &*value; }
  explicit operator bool() const { return ok; }

  bool operator==(const VerifyOutcome&) const = default;

  static VerifyOutcome accept() { return VerifyOutcome{true, std::nullopt}; }
  static VerifyOutcome accept_value(Bytes v) {
    return VerifyOutcome{true, std::move(v)};
  }
  static VerifyOutcome reject() { return VerifyOutcome{}; }
};

/// Capacity-bounded LRU of accepted verification verdicts, holding at most
/// `capacity` entries.
///
/// Not thread safe: the proxy touches it from its loop thread only (the
/// lookup in verify_hop, the store in finish_hop_verify). Instrumented
/// with zkedb.cache.{hit,miss,evict}.
class VerifyCache {
 public:
  /// `capacity` is the exact entry bound (0 is treated as 1).
  explicit VerifyCache(std::size_t capacity);

  VerifyCache(const VerifyCache&) = delete;
  VerifyCache& operator=(const VerifyCache&) = delete;

  /// Returns the cached outcome iff `key` is present, refreshing its LRU
  /// position.
  std::optional<VerifyOutcome> lookup(const Bytes& key);

  /// Records an accepted outcome under `key`. Rejections are dropped (see
  /// file header on negative caching). Storing an existing key refreshes
  /// its LRU position.
  void store(const Bytes& key, const VerifyOutcome& outcome);

  /// Entries currently resident.
  std::size_t size() const { return entries_.size(); }

  /// Key for a proxy-level hop verdict. Binds the task, the responding
  /// participant, the queried product id, the hop's POC commitment bytes,
  /// the FULL proof bytes as received and the check flavour (`kind` =
  /// "ownership" / "non_ownership").
  static Bytes hop_key(std::string_view task_id, std::string_view participant,
                       BytesView product_id, BytesView commitment,
                       BytesView proof_bytes, std::string_view kind);

 private:
  struct Entry {
    VerifyOutcome outcome;
    std::list<Bytes>::iterator pos;  // position in lru_
  };

  std::size_t capacity_;
  std::map<Bytes, Entry> entries_;
  /// Most-recently-used first; back() is the eviction victim.
  std::list<Bytes> lru_;
};

}  // namespace desword::zkedb
