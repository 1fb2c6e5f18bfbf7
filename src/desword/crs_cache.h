// Shared cache of instantiated CRS objects.
//
// Deriving an EdbCrs from serialized public parameters recomputes the qTMC
// S_i power tables, which is the dominant keygen cost. Every in-process
// node (proxy + participants) would otherwise re-derive the same tables,
// so they share a cache keyed by the hash of the serialized parameters —
// mirroring how real deployments cache published CRS material.
#pragma once

#include <cstddef>
#include <map>
#include <memory>

#include "common/mutex.h"
#include "crypto/hash.h"
#include "zkedb/params.h"

namespace desword::protocol {

class CrsCache {
 public:
  /// Returns the CRS for serialized EdbPublicParams, deriving it on first
  /// use. Thread safe. Derivation and table warming run outside the cache
  /// lock (they dominate; a rare concurrent double-derivation is resolved
  /// keep-first).
  zkedb::EdbCrsPtr get(BytesView ps_serialized) {
    const Bytes key = sha256(ps_serialized);
    {
      MutexLock lock(mutex_);
      const auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
    }
    auto crs = std::make_shared<zkedb::EdbCrs>(
        zkedb::EdbPublicParams::deserialize(ps_serialized));
    zkedb::EdbCrsPtr canonical;
    {
      MutexLock lock(mutex_);
      canonical = cache_.emplace(key, std::move(crs)).first->second;
    }
    warm(*canonical);
    return canonical;
  }

  /// Pre-seeds the cache with an already-instantiated CRS and returns the
  /// canonical instance for those parameters: the cached one if the key is
  /// already present (keep-first — `crs` is NOT swapped in), else `crs`
  /// itself. Callers should adopt the return value so every node holding
  /// the same parameters shares one EdbCrs (and its power tables).
  zkedb::EdbCrsPtr put(const zkedb::EdbCrsPtr& crs) {
    const Bytes key = sha256(crs->params().serialize());
    zkedb::EdbCrsPtr canonical;
    {
      MutexLock lock(mutex_);
      canonical = cache_.emplace(key, crs).first->second;
    }
    warm(*canonical);
    return canonical;
  }

  /// Number of distinct parameter sets cached. Thread safe.
  std::size_t size() {
    MutexLock lock(mutex_);
    return cache_.size();
  }

 private:
  /// Warms the fixed-base exponentiation tables every cached-CRS consumer
  /// shares (the qTMC tables live in a process-wide per-public-key
  /// registry, so this is once per distinct CRS no matter how many nodes
  /// adopt it). The qTMC position tables are built too: every participant
  /// commits, opens and teases through them (~12 MiB at RSA-2048, q=16),
  /// and the proxy's scalar verification uses the S_i ones.
  static void warm(const zkedb::EdbCrs& crs) {
    crs.qtmc().precompute_fixed_bases(/*position_bases=*/true);
    crs.tmc().precompute_fixed_bases();
  }

  Mutex mutex_;
  std::map<Bytes, zkedb::EdbCrsPtr> cache_ DESWORD_GUARDED_BY(mutex_);
};

using CrsCachePtr = std::shared_ptr<CrsCache>;

}  // namespace desword::protocol
