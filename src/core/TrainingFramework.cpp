//===- core/TrainingFramework.cpp -----------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
//
// Phase I's parallel structure. Evaluating a seed touches only pure inputs
// — the spec, the machine, and a private MeasurementCache shard — so its
// outcome never depends on scheduling. What does depend on order is the
// win-count bookkeeping (early stopping, margin rejects, SeedsScanned): a
// Ledger applies it one seed at a time, in seed order, and therefore stops
// at exactly the seed where the serial loop stops.
//
// Locally, a SeedStream feeds the ledger. jobs() executors claim single
// seeds in order from a shared cursor and race the families that are
// still unfilled as of the latest merged prefix — a superset of what the
// serial loop races there, since fullness is monotone. An ordered merge
// frontier takes each finished seed as soon as every earlier seed is in,
// and keeps only the measurements the serial loop would have made at that
// seed; the rest are speculative and dropped. So what runs is
// speculative, but what is kept is serial, at any executor count. With
// one executor the frontier is always current and nothing is speculative.
//
// Distributed runs (Options.Distribution) keep lock-step waves of
// width() * PhaseOneChunk seeds, with the same ledger replaying each wave.
//
//===----------------------------------------------------------------------===//

#include "core/TrainingFramework.h"

#include "core/Checkpoint.h"
#include "core/MeasurementStore.h"
#include "support/Env.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>

using namespace brainy;

namespace {

/// Salt offset separating Phase II eval-fault decisions from Phase I's
/// (which use Salt = attempt index). Keeps `BRAINY_FAULT=eval:...` able to
/// hit both phases without one phase's survival implying the other's.
constexpr uint64_t PhaseTwoSalt = uint64_t(1) << 16;

/// Matches an already-derived spec against a family (the seed-taking
/// public specMatchesModel wraps this).
bool specMatches(const AppSpec &Spec, ModelKind Model) {
  switch (Model) {
  case ModelKind::Vector:
  case ModelKind::List:
    return !Spec.OrderOblivious;
  case ModelKind::VectorOO:
  case ModelKind::ListOO:
    return Spec.OrderOblivious;
  case ModelKind::Set:
  case ModelKind::Map:
    // The set/map models serve both usages; the candidate list narrows to
    // order-preserving replacements for order-sensitive apps.
    return true;
  }
  return false;
}

struct RaceOutcome {
  DsKind Best = DsKind::Vector;
  double Margin = 0;
};

/// Winner and footnote-2 margin over \p Candidates measured through
/// \p CyclesOf — the single source of truth for the margin/winner logic
/// shared by phaseOne, phaseOneAll, and their parallel paths. Ties keep the
/// earliest candidate, matching raceCandidates.
template <typename CyclesFn>
RaceOutcome raceWith(const std::vector<DsKind> &Candidates,
                     CyclesFn &&CyclesOf) {
  assert(!Candidates.empty() && "racing requires at least one candidate");
  RaceOutcome Out;
  Out.Best = Candidates.front();
  double BestCycles = CyclesOf(Out.Best);
  double Second = 0;
  bool HaveSecond = false;
  for (size_t I = 1, E = Candidates.size(); I != E; ++I) {
    double C = CyclesOf(Candidates[I]);
    if (C < BestCycles) {
      Second = BestCycles;
      HaveSecond = true;
      BestCycles = C;
      Out.Best = Candidates[I];
    } else if (!HaveSecond || C < Second) {
      Second = C;
      HaveSecond = true;
    }
  }
  if (HaveSecond && BestCycles > 0)
    Out.Margin = (Second - BestCycles) / BestCycles;
  return Out;
}

/// Kind bits every family in \p Wanted races on the app \p Spec: the
/// measurements evalSeed makes for that seed under that Wanted set.
unsigned racedKinds(const AppSpec &Spec,
                    const std::array<bool, NumModelKinds> &Wanted) {
  unsigned Mask = 0;
  for (unsigned M = 0; M != NumModelKinds; ++M) {
    auto Model = static_cast<ModelKind>(M);
    if (!Wanted[M] || !specMatches(Spec, Model))
      continue;
    for (DsKind Kind :
         replacementCandidates(modelOriginal(Model), Spec.OrderOblivious))
      Mask |= 1u << static_cast<unsigned>(Kind);
  }
  return Mask;
}

/// Algorithm 1's state for one Phase I run: per-family results and win
/// counts, advanced one seed at a time in seed order. Every caller checks
/// allFull() before handing it the next seed, as the serial loop does.
class Ledger {
public:
  Ledger(const TrainOptions &Options, std::vector<ModelKind> Models,
         bool CountUnmatchedSeeds)
      : Models(std::move(Models)), TargetPerDs(Options.TargetPerDs),
        WinnerMargin(Options.WinnerMargin),
        CountUnmatchedSeeds(CountUnmatchedSeeds) {}

  bool full(ModelKind Model) const {
    auto M = static_cast<unsigned>(Model);
    for (DsKind Kind : modelCandidates(Model))
      if (WinCount[M][static_cast<unsigned>(Kind)] < TargetPerDs)
        return false;
    return true;
  }

  bool allFull() const {
    for (ModelKind Model : Models)
      if (!full(Model))
        return false;
    return true;
  }

  /// The families still hungry for winners.
  std::array<bool, NumModelKinds> wanted() const {
    std::array<bool, NumModelKinds> Wanted{};
    for (ModelKind Model : Models)
      Wanted[static_cast<unsigned>(Model)] = !full(Model);
    return Wanted;
  }

  /// Applies one evaluated seed. Outcomes for families that are already
  /// full are ignored, so an evaluation against an older (superset)
  /// Wanted snapshot merges exactly like the serial one.
  void merge(uint64_t Seed,
             const std::array<SeedOutcome, NumModelKinds> &Evals) {
    for (ModelKind Model : Models) {
      auto M = static_cast<unsigned>(Model);
      if (full(Model))
        continue;
      const SeedOutcome &O = Evals[M];
      if (CountUnmatchedSeeds)
        ++Results[M].SeedsScanned;
      if (!O.Matched)
        continue;
      if (!CountUnmatchedSeeds)
        ++Results[M].SeedsScanned;
      // Footnote 2: only record clear winners, so marginal apps do not
      // teach the model noise.
      if (O.NumCandidates > 1 && O.Margin < WinnerMargin) {
        ++Results[M].MarginRejects;
        continue;
      }
      ++WinCount[M][static_cast<unsigned>(O.Best)];
      Results[M].SeedDsPairs.push_back({Seed, O.Best});
    }
  }

  /// A skipped seed is invisible to the merge: not scanned, not raced, but
  /// recorded per still-hungry family so callers can reconcile fault runs
  /// with fault-free runs over the surviving seed set.
  void skip(uint64_t Seed) {
    for (ModelKind Model : Models)
      if (!full(Model))
        Results[static_cast<unsigned>(Model)].SkippedSeeds.push_back(Seed);
  }

  /// Restores a checkpoint's results. Each recorded pair incremented its
  /// win count exactly once, so the counts are rebuilt from the pairs.
  void restore(std::array<PhaseOneResult, NumModelKinds> Restored) {
    Results = std::move(Restored);
    for (unsigned M = 0; M != NumModelKinds; ++M)
      for (const SeedBest &P : Results[M].SeedDsPairs)
        ++WinCount[M][static_cast<unsigned>(P.BestDs)];
  }

  std::array<PhaseOneResult, NumModelKinds> Results;

private:
  std::vector<ModelKind> Models;
  unsigned TargetPerDs;
  double WinnerMargin;
  bool CountUnmatchedSeeds;
  std::array<std::array<unsigned, NumDsKinds>, NumModelKinds> WinCount{};
};

/// Persists the ledger as a resume point whose next seed offset is the
/// argument (a no-op without a checkpoint file).
using CheckpointFn = std::function<void(uint64_t NextOffset, const Ledger &)>;

/// The local Phase I evaluator (see the file comment). Seed offsets are
/// relative to Options.FirstSeed; [Start, End) is the range to scan.
///
/// Warm starts must not speculate into fresh measurements. Seeds below
/// WarmEnd (one past the highest seed the cache held when Phase I began)
/// that miss the cache wait for the frontier, then simulate only what the
/// serial loop needs; seeds from WarmEnd on are claimed only once the
/// frontier has passed WarmEnd - 1, and then speculate as in a cold start.
class SeedStream {
public:
  SeedStream(const TrainingFramework &F, Ledger L, uint64_t Start,
             uint64_t WarmEnd, uint64_t CommitEvery, CheckpointFn Commit)
      : F(F), First(F.options().FirstSeed), End(F.options().MaxSeeds),
        WarmEnd(WarmEnd), CommitEvery(CommitEvery),
        Commit(std::move(Commit)), L(std::move(L)), Cursor(Start),
        Frontier(Start), NextCommit(std::min(End, Start + CommitEvery)) {
    Stopped = this->L.allFull();
    Snapshot = this->L.wanted();
  }

  /// One executor: claims, evaluates and deposits seeds until the stream
  /// stops or runs out of seeds.
  void execute() BRAINY_EXCLUDES(Mu) {
    for (;;) {
      uint64_t Offset;
      std::array<bool, NumModelKinds> Wanted;
      {
        MutexLock Lock(Mu);
        while (!Stopped && Cursor < End && Cursor >= WarmEnd &&
               Frontier < WarmEnd)
          Cv.wait(Mu);
        if (Stopped || Cursor >= End)
          return;
        Offset = Cursor++;
        Wanted = Snapshot;
      }
      Pending P;
      bool Deposit = true;
      try {
        Deposit = evaluate(Offset, Wanted, P);
      } catch (const std::exception &E) {
        // tryEvalSeed never throws, so this is spec generation or
        // bookkeeping running out of memory: merge the seed as skipped.
        std::fprintf(stderr, "brainy: phase I: seed %llu failed: %s\n",
                     static_cast<unsigned long long>(First + Offset),
                     E.what());
        P = Pending();
      }
      MutexLock Lock(Mu);
      if (Deposit) {
        Done.emplace(Offset, std::move(P));
        advance();
      }
      Cv.notifyAll();
    }
  }

  /// After every executor returned: the ledger, plus the measurements to
  /// commit and the number of speculative ones dropped.
  Ledger finish(std::vector<CycleRecord> &Kept, uint64_t &Dropped)
      BRAINY_EXCLUDES(Mu) {
    MutexLock Lock(Mu);
    for (const auto &KV : Done)
      Speculative += __builtin_popcount(KV.second.Fresh.Mask);
    Kept = std::move(Commits);
    Dropped = Speculative;
    return std::move(L);
  }

private:
  /// A finished seed waiting for the frontier.
  struct Pending {
    SeedEvalResult Eval;
    AppSpec Spec;
    /// What the executor measured for this seed (Mask 0 if nothing).
    CycleRecord Fresh;
  };

  /// Evaluates one claimed seed into \p Out. Returns false when the stream
  /// stopped while a warm miss waited for the frontier: the seed is
  /// abandoned unevaluated.
  bool evaluate(uint64_t Offset, std::array<bool, NumModelKinds> Wanted,
                Pending &Out) BRAINY_EXCLUDES(Mu) {
    uint64_t Seed = First + Offset;
    Out.Spec = AppSpec::fromSeed(Seed, F.options().GenConfig);
    MeasurementCache::Shard Shard = F.measurements().shard();
    if (Offset < WarmEnd &&
        !Shard.cached(Seed, racedKinds(Out.Spec, Wanted))) {
      MutexLock Lock(Mu);
      while (!Stopped && Frontier != Offset)
        Cv.wait(Mu);
      if (Stopped)
        return false;
      Wanted = Snapshot;
    }
    Out.Eval.Ok = F.tryEvalSeed(Seed, Wanted, Shard, Out.Eval.Outcomes);
    std::vector<CycleRecord> Fresh = Shard.freshRecords(Seed, Seed + 1);
    if (!Fresh.empty())
      Out.Fresh = Fresh.front();
    return true;
  }

  /// Moves the frontier over every finished seed it can reach, in order.
  void advance() BRAINY_REQUIRES(Mu) {
    while (!Stopped) {
      if (L.allFull() || Frontier >= End) {
        Stopped = true;
        break;
      }
      auto It = Done.find(Frontier);
      if (It == Done.end())
        break;
      mergeOne(It->second);
      Done.erase(It);
      ++Frontier;
      // Checkpoints commit where the wave path would have: at every
      // CommitEvery boundary, and at the stop.
      if (Frontier == NextCommit || L.allFull()) {
        Commit(NextCommit, L);
        NextCommit = std::min(End, NextCommit + CommitEvery);
      }
    }
    Snapshot = L.wanted();
  }

  /// Merges the seed at the frontier, keeping the measurements the serial
  /// loop makes there and counting the rest as speculative.
  void mergeOne(const Pending &P) BRAINY_REQUIRES(Mu) {
    uint64_t Seed = First + Frontier;
    unsigned Keep = 0;
    if (P.Eval.Ok) {
      Keep = P.Fresh.Mask & racedKinds(P.Spec, L.wanted());
      L.merge(Seed, P.Eval.Outcomes);
    } else {
      L.skip(Seed);
    }
    if (Keep) {
      Commits.push_back(P.Fresh);
      Commits.back().Mask = Keep;
    }
    Speculative += __builtin_popcount(P.Fresh.Mask & ~Keep);
  }

  const TrainingFramework &F;
  const uint64_t First, End, WarmEnd, CommitEvery;
  const CheckpointFn Commit;

  Mutex Mu;
  ConditionVariable Cv;
  Ledger L BRAINY_GUARDED_BY(Mu);
  /// Next seed offset to claim, and next to merge.
  uint64_t Cursor BRAINY_GUARDED_BY(Mu);
  uint64_t Frontier BRAINY_GUARDED_BY(Mu);
  uint64_t NextCommit BRAINY_GUARDED_BY(Mu);
  bool Stopped BRAINY_GUARDED_BY(Mu) = false;
  /// L.wanted() as of the latest merged prefix.
  std::array<bool, NumModelKinds> Snapshot BRAINY_GUARDED_BY(Mu) = {};
  std::map<uint64_t, Pending> Done BRAINY_GUARDED_BY(Mu);
  std::vector<CycleRecord> Commits BRAINY_GUARDED_BY(Mu);
  uint64_t Speculative BRAINY_GUARDED_BY(Mu) = 0;
};

} // namespace

TrainingFramework::TrainingFramework(TrainOptions Options,
                                     MachineConfig Machine)
    : Options(std::move(Options)), Machine(std::move(Machine)),
      ResolvedJobs(resolveJobs(this->Options.Jobs)) {
  if (this->Options.MeasurementCacheFile.empty())
    return;
  // Warm start: restore persisted Phase I measurements. Any defect beyond
  // a simply-missing file (corruption, truncation, config/machine
  // mismatch) is reported and the cache recomputed from scratch — stale or
  // torn measurements must never steer training silently.
  Expected<size_t> Count = loadMeasurements(
      this->Options.MeasurementCacheFile, Cache, this->Options.GenConfig,
      this->Machine);
  if (Count)
    LoadedMeasurements = *Count;
  else if (Count.error().code() != ErrCode::IoError)
    std::fprintf(stderr, "brainy: recomputing measurements: %s\n",
                 Count.error().message().c_str());
}

ThreadPool &TrainingFramework::pool() const {
  MutexLock Lock(PoolMutex);
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(ResolvedJobs > 0 ? ResolvedJobs - 1
                                                         : 0);
  return *Pool;
}

bool TrainingFramework::specMatchesModel(uint64_t Seed,
                                         ModelKind Model) const {
  return specMatches(AppSpec::fromSeed(Seed, Options.GenConfig), Model);
}

std::array<SeedOutcome, NumModelKinds>
TrainingFramework::evalSeed(uint64_t Seed,
                            const std::array<bool, NumModelKinds> &Wanted,
                            MeasurementCache::Shard &Shard) const {
  std::array<SeedOutcome, NumModelKinds> Out{};
  AppSpec Spec = AppSpec::fromSeed(Seed, Options.GenConfig);
  auto CyclesOf = [&](DsKind Kind) {
    return Shard.cyclesOf(
        Seed, Kind, [&] { return runApp(Spec, Kind, Machine).Cycles; });
  };
  for (unsigned M = 0; M != NumModelKinds; ++M) {
    if (!Wanted[M])
      continue;
    auto Model = static_cast<ModelKind>(M);
    if (!specMatches(Spec, Model))
      continue;
    std::vector<DsKind> Candidates =
        replacementCandidates(modelOriginal(Model), Spec.OrderOblivious);
    RaceOutcome Race = raceWith(Candidates, CyclesOf);
    Out[M].Matched = true;
    Out[M].Best = Race.Best;
    Out[M].Margin = Race.Margin;
    Out[M].NumCandidates = static_cast<unsigned>(Candidates.size());
  }
  return Out;
}

bool TrainingFramework::tryEvalSeed(
    uint64_t Seed, const std::array<bool, NumModelKinds> &Wanted,
    MeasurementCache::Shard &Shard,
    std::array<SeedOutcome, NumModelKinds> &Out) const {
  // Excluded seeds behave exactly like seeds that failed every retry,
  // minus the log noise — the distributed worker-loss hook.
  if (Options.ExcludeSeeds.count(Seed))
    return false;
  unsigned Attempts = Options.EvalRetries + 1;
  for (unsigned Attempt = 0; Attempt != Attempts; ++Attempt) {
    try {
      // Keyed by (seed, attempt) only: which seeds survive is a pure
      // function of the fault spec, independent of Jobs or scheduling.
      FaultInjector::instance().maybeThrow(FaultSite::Eval, Seed, Attempt,
                                           "seed evaluation");
      Out = evalSeed(Seed, Wanted, Shard);
      return true;
    } catch (const std::exception &E) {
      if (Attempt + 1 == Attempts)
        std::fprintf(
            stderr, "brainy: phase I: seed %llu skipped after %u attempts: %s\n",
            static_cast<unsigned long long>(Seed), Attempts, E.what());
      else
        std::fprintf(
            stderr,
            "brainy: phase I: seed %llu attempt %u/%u failed, retrying: %s\n",
            static_cast<unsigned long long>(Seed), Attempt + 1, Attempts,
            E.what());
      // brainy-lint: allow(catch-all): the documented skip-and-log fault
      // isolation path (DESIGN.md 8) - the seed is reported failed to the
      // caller via the return value, so nothing is silently swallowed.
    } catch (...) {
      if (Attempt + 1 == Attempts)
        std::fprintf(
            stderr, "brainy: phase I: seed %llu skipped after %u attempts\n",
            static_cast<unsigned long long>(Seed), Attempts);
    }
  }
  return false;
}

std::array<PhaseOneResult, NumModelKinds>
TrainingFramework::phaseOneImpl(const std::vector<ModelKind> &Models,
                                bool CountUnmatchedSeeds) const {
  Ledger L(Options, Models, CountUnmatchedSeeds);

  // Resumable coordination (DESIGN.md §13): restore the last committed
  // boundary and continue from there. A missing file is the normal cold
  // start; any other load failure is logged and also cold-starts — a
  // checkpoint can be stale, never wrong.
  uint64_t StartOffset = 0;
  uint64_t CkptFingerprint = 0;
  if (!Options.CheckpointFile.empty()) {
    CkptFingerprint =
        checkpointFingerprint(Options, Machine, Models, CountUnmatchedSeeds);
    Expected<TrainCheckpoint> Ck =
        loadCheckpoint(Options.CheckpointFile, CkptFingerprint, Machine.Name);
    if (Ck) {
      L.restore(std::move(Ck->Results));
      StartOffset = Ck->NextOffset;
      std::fprintf(stderr,
                   "brainy: phase I: resumed from checkpoint at seed "
                   "offset %llu%s\n",
                   static_cast<unsigned long long>(StartOffset),
                   Ck->Stopped ? " (already complete)" : "");
      if (Ck->Stopped)
        return std::move(L.Results);
    } else if (Ck.error().code() != ErrCode::IoError) {
      std::fprintf(stderr, "brainy: phase I: cold start: %s\n",
                   Ck.error().message().c_str());
    }
  }
  // The ledger's entire state at a commit point is its results (win counts
  // derive from the pairs) plus the next offset — exactly a resume point.
  // A failed save costs resumability, not correctness.
  auto SaveCheckpoint = [&](uint64_t NextOffset, const Ledger &At) {
    if (Options.CheckpointFile.empty())
      return;
    TrainCheckpoint Ck;
    Ck.NextOffset = NextOffset;
    Ck.Stopped = At.allFull();
    Ck.Results = At.Results;
    if (Error E = saveCheckpoint(Options.CheckpointFile, Ck, CkptFingerprint,
                                 Machine.Name))
      std::fprintf(stderr, "brainy: phase I: checkpoint save failed: %s\n",
                   E.message().c_str());
  };

  unsigned Width =
      Options.Distribution ? Options.Distribution->width() : jobs();
  uint64_t WaveSeeds = PhaseOneChunk * std::max(Width, 1u);

  if (!Options.Distribution) {
    // H, the highest seed already cached, bounds the warm range.
    std::vector<CycleRecord> Cached = Cache.records();
    uint64_t WarmEnd = 0;
    if (!Cached.empty() && Cached.back().Seed >= Options.FirstSeed)
      WarmEnd = Cached.back().Seed - Options.FirstSeed + 1;
    SeedStream Stream(*this, std::move(L), StartOffset, WarmEnd, WaveSeeds,
                      SaveCheckpoint);
    pool().parallelFor(0, jobs(), [&](size_t) { Stream.execute(); });
    std::vector<CycleRecord> Kept;
    uint64_t Dropped = 0;
    L = Stream.finish(Kept, Dropped);
    Cache.commit(Kept, Dropped);
    return std::move(L.Results);
  }

  // Distributed path: waves of width() chunks, each raced by remote
  // workers against a dispatch-time Wanted snapshot, then replayed through
  // the ledger in seed order.
  for (uint64_t WaveBegin = StartOffset;
       WaveBegin < Options.MaxSeeds && !L.allFull(); WaveBegin += WaveSeeds) {
    uint64_t WaveEnd = std::min(Options.MaxSeeds, WaveBegin + WaveSeeds);
    std::vector<SeedEvalResult> Evals = Options.Distribution->evalWave(
        Options.FirstSeed + WaveBegin, Options.FirstSeed + WaveEnd,
        L.wanted());
    // A short service reply leaves trailing slots defaulted: Ok=false, so
    // the missing seeds merge as skipped rather than faulting.
    Evals.resize(static_cast<size_t>(WaveEnd - WaveBegin));
    for (uint64_t Offset = WaveBegin; Offset != WaveEnd && !L.allFull();
         ++Offset) {
      const SeedEvalResult &Slot = Evals[Offset - WaveBegin];
      if (Slot.Ok)
        L.merge(Options.FirstSeed + Offset, Slot.Outcomes);
      else
        L.skip(Options.FirstSeed + Offset);
    }
    SaveCheckpoint(WaveEnd, L);
  }
  return std::move(L.Results);
}

PhaseOneResult TrainingFramework::phaseOne(ModelKind Model) const {
  return std::move(
      phaseOneImpl({Model}, /*CountUnmatchedSeeds=*/true)[static_cast<
          unsigned>(Model)]);
}

std::array<PhaseOneResult, NumModelKinds>
TrainingFramework::phaseOneAll() const {
  std::vector<ModelKind> Models;
  Models.reserve(NumModelKinds);
  for (unsigned M = 0; M != NumModelKinds; ++M)
    Models.push_back(static_cast<ModelKind>(M));
  return phaseOneImpl(Models, /*CountUnmatchedSeeds=*/false);
}

std::vector<TrainExample>
TrainingFramework::phaseTwo(ModelKind Model,
                            const PhaseOneResult &Pairs) const {
  DsKind Original = modelOriginal(Model);
  unsigned Cap =
      Options.MaxPerDsPhase2 ? Options.MaxPerDsPhase2 : Options.TargetPerDs;

  // The per-class cap depends only on the recorded order, so decide it
  // up front; the expensive profiled replays then fan out freely while the
  // output keeps the recorded (serial) order.
  std::array<unsigned, NumDsKinds> Taken{};
  std::vector<SeedBest> Accepted;
  Accepted.reserve(Pairs.SeedDsPairs.size());
  for (const SeedBest &Pair : Pairs.SeedDsPairs) {
    unsigned &Count = Taken[static_cast<unsigned>(Pair.BestDs)];
    // "Phase II does not accept the rest": drop surplus examples of an
    // already-full class before paying for feature profiling.
    if (Count >= Cap)
      continue;
    ++Count;
    Accepted.push_back(Pair);
  }

  // Each accepted pair profiles into its own slot; a replay that fails
  // every retry leaves its slot unset and is dropped at the end, so one
  // bad seed costs one example, not the phase. Fault decisions are keyed
  // by (seed, PhaseTwoSalt + attempt): schedule-independent.
  std::vector<TrainExample> Slots(Accepted.size());
  std::vector<char> Ok(Accepted.size(), 0);
  unsigned Attempts = Options.EvalRetries + 1;
  auto ProfileOne = [&](size_t I) {
    const SeedBest &Pair = Accepted[I];
    for (unsigned Attempt = 0; Attempt != Attempts; ++Attempt) {
      try {
        FaultInjector::instance().maybeThrow(FaultSite::Eval, Pair.Seed,
                                             PhaseTwoSalt + Attempt,
                                             "phase II profiling");
        AppSpec Spec = AppSpec::fromSeed(Pair.Seed, Options.GenConfig);
        ProfiledOutcome Out = runAppProfiled(Spec, Original, Machine);
        Slots[I].Features = Out.Features;
        Slots[I].BestDs = Pair.BestDs;
        Slots[I].Seed = Pair.Seed;
        Ok[I] = 1;
        return;
      } catch (const std::exception &E) {
        if (Attempt + 1 == Attempts)
          std::fprintf(
              stderr,
              "brainy: phase II: seed %llu example dropped after %u attempts: %s\n",
              static_cast<unsigned long long>(Pair.Seed), Attempts, E.what());
        // brainy-lint: allow(catch-all): skip-and-log fault isolation; the
        // dropped example stays Ok[I]=0 and is compacted away, so the
        // failure is visible in the surviving-example merge.
      } catch (...) {
        if (Attempt + 1 == Attempts)
          std::fprintf(
              stderr,
              "brainy: phase II: seed %llu example dropped after %u attempts\n",
              static_cast<unsigned long long>(Pair.Seed), Attempts);
      }
    }
  };
  if (jobs() <= 1) {
    for (size_t I = 0, E = Accepted.size(); I != E; ++I)
      ProfileOne(I);
  } else {
    // Per-item error capture: an escaped failure costs that item only.
    std::vector<std::exception_ptr> ItemErrors;
    pool().parallelChunks(
        0, Accepted.size(), 1,
        [&](size_t Begin, size_t End) {
          for (size_t I = Begin; I != End; ++I)
            ProfileOne(I);
        },
        ItemErrors);
    for (size_t I = 0; I != ItemErrors.size(); ++I) {
      if (!ItemErrors[I])
        continue;
      try {
        std::rethrow_exception(ItemErrors[I]);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "brainy: phase II: item %zu failed: %s\n", I,
                     E.what());
        // brainy-lint: allow(catch-all): classification tail of a
        // rethrow_exception switch; the item was already dropped above.
      } catch (...) {
        std::fprintf(stderr, "brainy: phase II: item %zu failed\n", I);
      }
    }
  }
  // Compact away dropped slots; survivors keep the recorded order.
  std::vector<TrainExample> Examples;
  Examples.reserve(Accepted.size());
  for (size_t I = 0, E = Accepted.size(); I != E; ++I)
    if (Ok[I])
      Examples.push_back(std::move(Slots[I]));
  return Examples;
}

Dataset brainy::examplesToDataset(const std::vector<TrainExample> &Examples,
                                  const std::vector<DsKind> &Candidates) {
  // Candidate -> label lookup table, replacing a linear find per example.
  std::array<int, NumDsKinds> LabelOf;
  LabelOf.fill(-1);
  for (size_t I = 0, E = Candidates.size(); I != E; ++I) {
    auto K = static_cast<unsigned>(Candidates[I]);
    if (LabelOf[K] < 0)
      LabelOf[K] = static_cast<int>(I);
  }
  Dataset Data;
  Data.Rows.reserve(Examples.size());
  Data.Labels.reserve(Examples.size());
  for (const TrainExample &Ex : Examples) {
    int Label = LabelOf[static_cast<unsigned>(Ex.BestDs)];
    if (Label < 0)
      continue;
    std::vector<double> Row(Ex.Features.Values.begin(),
                            Ex.Features.Values.end());
    Data.add(std::move(Row), static_cast<unsigned>(Label));
  }
  return Data;
}
