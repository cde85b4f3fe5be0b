//===- core/MeasurementCache.h - (seed, DS) cycle memo ---------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase I measures the same (seed, DsKind) application run for every model
/// family that races that kind — and again when per-family phaseOne calls
/// revisit seeds phaseOneAll already raced. Those runs are pure functions
/// of (seed, config, machine), so their cycle counts can be memoised once
/// per TrainingFramework and shared across families, calls, and threads.
///
/// Concurrency model (executors read a frozen map, the frontier commits):
/// the cache itself takes no locks on the measurement path. A local Phase I
/// run (DESIGN.md §7) has executors that each evaluate one seed at a time
/// through a private Shard, and an ordered merge frontier that decides
/// which of those measurements the serial loop would have made. The
/// contract:
///
///   1. shards are created and used while the shared map is frozen —
///      nothing mutates it between the first shard() and the join, so the
///      executors' concurrent const reads are race-free;
///   2. an executor uses only its own Shard; what it measures stays in the
///      shard's overlay and reaches the frontier as a CycleRecord
///      (freshRecords());
///   3. after the join, the coordinator applies the frontier's verdict
///      with commit(): the kept records enter the map, the rest are
///      counted as speculative and dropped.
///
/// The committed set is therefore exactly what the serial loop measures,
/// whatever the executor count. freshMeasurements() still counts every
/// simulation performed, speculative ones included. A distributed worker
/// keeps the older per-chunk shape: evaluate a chunk into one Shard, then
/// merge() it. Because measurements are pure, two shards measuring the
/// same key record identical values and merge order cannot change any
/// result.
///
/// Remote-backed tier (distributed Phase I, DESIGN.md §10): a cache can be
/// given a RemoteFetchFn. A Shard whose local overlay and shared map both
/// miss then asks the remote tier — in practice the coordinator's cache,
/// served over the worker transport and keyed by (config, machine, seed,
/// kind) with config and machine fixed per connection — before paying for
/// a measurement. Remote hits land in the overlay but are excluded from
/// freshRecords(), so a worker never echoes the coordinator's own entries
/// back at it.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CORE_MEASUREMENTCACHE_H
#define BRAINY_CORE_MEASUREMENTCACHE_H

#include "adt/DsKind.h"
#include "support/FaultInjector.h"
#include "support/ThreadSafety.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <vector>

namespace brainy {

/// One seed's measured cycles, as exchanged with a remote cache tier and
/// as merged back from distributed workers. Mask bit i covers Cycles[i].
struct CycleRecord {
  uint64_t Seed = 0;
  unsigned Mask = 0;
  std::array<double, NumDsKinds> Cycles{};
};

/// Fetches every known measurement for a seed from a remote tier. Returns
/// false (and leaves \p Out.Mask zero) on a remote miss; transport errors
/// surface as exceptions and fail the seed like any evaluation fault.
using RemoteFetchFn = std::function<bool(uint64_t Seed, CycleRecord &Out)>;

/// Per-(seed, DsKind) cycle memo. Coordinator-side mutation (merge,
/// commit) is serialised by MapMutex; shard-side reads are lock-free and
/// rely on the contract described in the file comment (the shared map is
/// frozen while any shard is live).
class MeasurementCache {
  struct Entry {
    std::array<double, NumDsKinds> Cycles{};
    unsigned MeasuredMask = 0;
  };
  static_assert(NumDsKinds <= 32, "MeasuredMask holds one bit per kind");

public:
  /// One chunk's private view: shared-map reads are lock-free, fresh
  /// measurements land in a local overlay until merge().
  class Shard {
  public:
    /// The memoised cycles for (Seed, Kind), calling \p Measure on a miss.
    double cyclesOf(uint64_t Seed, DsKind Kind,
                    const std::function<double()> &Measure) {
      unsigned I = static_cast<unsigned>(Kind);
      unsigned Bit = 1u << I;
      auto It = Fresh.find(Seed);
      if (It != Fresh.end() && (It->second.MeasuredMask & Bit))
        return It->second.Cycles[I];
      double Cycles;
      // A `cache` fault on a shared-map hit models a corrupt entry being
      // detected: the hit is discarded and the key remeasured into the
      // local overlay. Measurements are pure, so recovery reproduces the
      // identical value and no downstream result can change.
      if (Parent->lookup(Seed, Kind, Cycles) &&
          !FaultInjector::instance().shouldFail(FaultSite::CacheLookup, Seed,
                                                /*Salt=*/I))
        return Cycles;
      // Remote tier: ask once per seed per shard. The remote map is frozen
      // for the shard's lifetime (the coordinator merges only between
      // waves), so a second query for the same seed could not learn more.
      if (Parent->Remote && RemoteTried.insert(Seed).second) {
        CycleRecord Rec;
        if (Parent->Remote(Seed, Rec) && Rec.Mask) {
          Entry &E = Fresh[Seed];
          for (unsigned K = 0; K != NumDsKinds; ++K)
            if ((Rec.Mask & (1u << K)) && !(E.MeasuredMask & (1u << K)))
              E.Cycles[K] = Rec.Cycles[K];
          E.MeasuredMask |= Rec.Mask;
          RemoteMask[Seed] |= Rec.Mask;
          if (E.MeasuredMask & Bit)
            return E.Cycles[I];
        }
      }
      Parent->FreshCount.fetch_add(1, std::memory_order_relaxed);
      Cycles = Measure();
      Entry &E = Fresh[Seed];
      E.Cycles[I] = Cycles;
      E.MeasuredMask |= Bit;
      return Cycles;
    }

    /// Whether every kind in \p Mask of \p Seed is known without
    /// measuring (overlay or shared map).
    bool cached(uint64_t Seed, unsigned Mask) const {
      auto It = Fresh.find(Seed);
      if (It != Fresh.end())
        Mask &= ~It->second.MeasuredMask;
      return (Mask & ~Parent->cachedMask(Seed)) == 0;
    }

    /// The measurements this shard performed itself for seeds in
    /// [\p BeginSeed, \p EndSeed), in seed order, excluding entries that
    /// were fetched from the remote tier. This is what a distributed
    /// worker streams back to the coordinator after a chunk.
    std::vector<CycleRecord> freshRecords(uint64_t BeginSeed,
                                          uint64_t EndSeed) const {
      std::vector<CycleRecord> Out;
      for (uint64_t Seed = BeginSeed; Seed != EndSeed; ++Seed) {
        auto It = Fresh.find(Seed);
        if (It == Fresh.end())
          continue;
        unsigned Mask = It->second.MeasuredMask;
        auto RIt = RemoteMask.find(Seed);
        if (RIt != RemoteMask.end())
          Mask &= ~RIt->second;
        if (!Mask)
          continue;
        CycleRecord Rec;
        Rec.Seed = Seed;
        Rec.Mask = Mask;
        Rec.Cycles = It->second.Cycles;
        Out.push_back(Rec);
      }
      return Out;
    }

  private:
    friend class MeasurementCache;
    explicit Shard(const MeasurementCache &Parent) : Parent(&Parent) {}

    const MeasurementCache *Parent;
    std::unordered_map<uint64_t, Entry> Fresh;
    /// Kind bits of Fresh entries that came from the remote tier, not from
    /// a local measurement.
    std::unordered_map<uint64_t, unsigned> RemoteMask;
    /// Seeds already asked of the remote tier (hit or miss).
    std::set<uint64_t> RemoteTried;
  };

  Shard shard() const { return Shard(*this); }

  /// Installs the remote tier consulted by shards on a shared-map miss.
  /// Setup-time only: call before any shard exists.
  void setRemoteTier(RemoteFetchFn Fn) { Remote = std::move(Fn); }

  /// Folds a shard's fresh measurements into the shared map. Coordinator
  /// only; no shard may be executing concurrently. Hash-order iteration is
  /// safe here: entries are combined with per-kind masks, so the merged
  /// map is identical for every visit order.
  void merge(Shard &&S) BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    // brainy-lint: allow(unordered-iter): mask-union merge is commutative;
    // no result depends on the visit order of S.Fresh.
    for (auto &KV : S.Fresh) {
      Entry &Dst = Map[KV.first];
      unsigned New = KV.second.MeasuredMask & ~Dst.MeasuredMask;
      for (unsigned I = 0; I != NumDsKinds; ++I)
        if (New & (1u << I))
          Dst.Cycles[I] = KV.second.Cycles[I];
      Dst.MeasuredMask |= KV.second.MeasuredMask;
    }
    S.Fresh.clear();
    S.RemoteMask.clear();
    S.RemoteTried.clear();
  }

  /// Applies the merge frontier's verdict after the executors joined:
  /// \p Records are the measurements the serial loop needs (mask-union,
  /// like merge()), \p Speculative counts the shard measurements the
  /// frontier discarded. Fresh accounting already happened in the shards.
  void commit(const std::vector<CycleRecord> &Records, uint64_t Speculative)
      BRAINY_EXCLUDES(MapMutex) {
    for (const CycleRecord &Rec : Records)
      restoreRecord(Rec);
    SpeculativeCount.fetch_add(Speculative, std::memory_order_relaxed);
  }

  /// Folds one record streamed back from a distributed worker. Same
  /// mask-union rule as merge(): first write wins, duplicates are
  /// identical by purity. Newly-learned kind bits count as fresh
  /// measurements — they were computed this run, just remotely.
  void mergeRecord(const CycleRecord &Rec) BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    Entry &Dst = Map[Rec.Seed];
    unsigned New = Rec.Mask & ~Dst.MeasuredMask;
    for (unsigned I = 0; I != NumDsKinds; ++I)
      if (New & (1u << I))
        Dst.Cycles[I] = Rec.Cycles[I];
    Dst.MeasuredMask |= Rec.Mask;
    FreshCount.fetch_add(__builtin_popcount(New), std::memory_order_relaxed);
  }

  /// mergeRecord without the fresh accounting — the load path for records
  /// restored from a persisted measurement cache (MeasurementStore), which
  /// were computed by an earlier run, and commit()'s per-record fold.
  void restoreRecord(const CycleRecord &Rec) BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    Entry &Dst = Map[Rec.Seed];
    unsigned New = Rec.Mask & ~Dst.MeasuredMask;
    for (unsigned I = 0; I != NumDsKinds; ++I)
      if (New & (1u << I))
        Dst.Cycles[I] = Rec.Cycles[I];
    Dst.MeasuredMask |= Rec.Mask;
  }

  /// Every cached record, sorted by seed — the persistence snapshot.
  /// Coordinator-side only (no shard may be live), like merge().
  std::vector<CycleRecord> records() const BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    std::vector<CycleRecord> Out;
    Out.reserve(Map.size());
    // brainy-lint: allow(unordered-iter): the snapshot is sorted by seed
    // below, so hash iteration order cannot reach any result.
    for (const auto &KV : Map) {
      if (!KV.second.MeasuredMask)
        continue;
      CycleRecord Rec;
      Rec.Seed = KV.first;
      Rec.Mask = KV.second.MeasuredMask;
      Rec.Cycles = KV.second.Cycles;
      Out.push_back(Rec);
    }
    std::sort(Out.begin(), Out.end(),
              [](const CycleRecord &A, const CycleRecord &B) {
                return A.Seed < B.Seed;
              });
    return Out;
  }

  /// Measurements actually computed since construction: Measure() calls by
  /// local shards plus new kind bits merged from distributed workers.
  /// Restored-from-disk records are excluded — a warm run that recomputes
  /// nothing reports 0.
  uint64_t freshMeasurements() const {
    return FreshCount.load(std::memory_order_relaxed);
  }

  /// The fresh measurements a local Phase I performed but did not commit:
  /// seeds raced against a stale fullness snapshot, or past the stopping
  /// seed. Always at most freshMeasurements().
  uint64_t speculativeMeasurements() const {
    return SpeculativeCount.load(std::memory_order_relaxed);
  }

  /// Everything known about \p Seed, for serving a remote tier. Returns
  /// false when no kind of the seed is cached. Thread-safe: the
  /// coordinator answers worker lookups concurrently during a wave (the
  /// map is read-only between merges, but the lock keeps the contract
  /// simple and checkable).
  bool lookupAll(uint64_t Seed, CycleRecord &Out) const
      BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    auto It = Map.find(Seed);
    if (It == Map.end() || !It->second.MeasuredMask)
      return false;
    Out.Seed = Seed;
    Out.Mask = It->second.MeasuredMask;
    Out.Cycles = It->second.Cycles;
    return true;
  }

  /// Number of seeds with at least one cached measurement.
  size_t seeds() const BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    return Map.size();
  }

private:
  /// Shard-side read path. Deliberately unlocked: per the frozen-map
  /// contract the coordinator never mutates Map while a shard is live, so
  /// concurrent const reads are race-free; taking MapMutex here would put
  /// a lock on the hot measurement path for no exclusion.
  bool lookup(uint64_t Seed, DsKind Kind,
              double &Cycles) const BRAINY_NO_THREAD_SAFETY_ANALYSIS {
    auto It = Map.find(Seed);
    if (It == Map.end())
      return false;
    unsigned I = static_cast<unsigned>(Kind);
    if (!(It->second.MeasuredMask & (1u << I)))
      return false;
    Cycles = It->second.Cycles[I];
    return true;
  }

  /// Kind bits of \p Seed in the shared map, for Shard::cached(). Unlocked
  /// under the same frozen-map contract as lookup().
  unsigned cachedMask(uint64_t Seed) const BRAINY_NO_THREAD_SAFETY_ANALYSIS {
    auto It = Map.find(Seed);
    return It == Map.end() ? 0 : It->second.MeasuredMask;
  }

  /// Serialises coordinator-side mutation. Shard reads stay outside it by
  /// design (see lookup()).
  mutable Mutex MapMutex;
  std::unordered_map<uint64_t, Entry> Map BRAINY_GUARDED_BY(MapMutex);
  /// Optional remote tier; set at setup time, immutable afterwards.
  RemoteFetchFn Remote;
  /// Fresh-measurement tally (see freshMeasurements()). A relaxed atomic,
  /// not MapMutex state: shards bump it lock-free from worker threads and
  /// it feeds only diagnostics, never a training result.
  mutable std::atomic<uint64_t> FreshCount{0};
  /// Speculative tally (see speculativeMeasurements()); diagnostics only.
  std::atomic<uint64_t> SpeculativeCount{0};
};

} // namespace brainy

#endif // BRAINY_CORE_MEASUREMENTCACHE_H
