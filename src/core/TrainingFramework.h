//===- core/TrainingFramework.h - Two-phase training (Alg. 1&2) -*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's training framework (Section 4.3, Figures 4 & 5):
///
///  * Phase I (Algorithm 1): generate application sets from successive
///    seeds, run every legal candidate, and record (seed, bestDS) pairs —
///    only when the winner beats every alternative by the 5% margin
///    (footnote 2). Stop once each candidate has enough winning apps.
///  * Phase II (Algorithm 2): regenerate each recorded seed's application,
///    run it on the *original* structure with profiling, and emit
///    (features, bestDS) training examples. Regeneration-from-seed is what
///    lets millions of training apps exist without disk space.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CORE_TRAININGFRAMEWORK_H
#define BRAINY_CORE_TRAININGFRAMEWORK_H

#include "core/MeasurementCache.h"
#include "core/Oracle.h"
#include "ml/NeuralNet.h"
#include "profile/TraceFile.h"
#include "support/ThreadPool.h"

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

namespace brainy {

/// Seeds per Phase I worker chunk — the distributed coordinator's unit of
/// dispatch (DESIGN.md §10); PhaseOneChunk * jobs() seeds also space the
/// local path's checkpoint commits (§13). Purely a scheduling knob:
/// results are identical for any value.
constexpr uint64_t PhaseOneChunk = 16;

/// One seed's Phase I evaluation for one family, computed from pure
/// measurements only (no dependence on win-count state). This is the unit
/// that crosses the distributed wire: outcomes are a pure function of
/// (seed, config, machine), so where they were computed cannot matter.
struct SeedOutcome {
  bool Matched = false;
  DsKind Best = DsKind::Vector;
  double Margin = 0;
  unsigned NumCandidates = 0;
};

/// A seed's evaluation slot as produced by local executors or streamed
/// back from distributed workers. Ok=false means the seed is skipped — the
/// default, so a chunk that dies mid-flight (worker loss, transport error)
/// leaves its unevaluated seeds skipped rather than poisoning the wave.
struct SeedEvalResult {
  bool Ok = false;
  std::array<SeedOutcome, NumModelKinds> Outcomes{};
};

/// Evaluates Phase I waves on behalf of the framework — the seam between
/// core and src/distributed/ (which implements it with worker processes)
/// kept abstract here so core never depends on the transport layer.
///
/// evalWave receives a chunk-aligned seed range and a dispatch-time Wanted
/// snapshot, evaluates every seed purely, and returns one slot per seed in
/// seed order. Slots for seeds lost to worker death/timeout come back
/// Ok=false and turn into PhaseOneResult::SkippedSeeds during the ordered
/// merge, exactly like a locally failed evaluation.
class ChunkEvalService {
public:
  virtual ~ChunkEvalService() = default;

  /// Number of chunk evaluators: one wave spans width() * PhaseOneChunk
  /// seeds (the local loop's jobs() analogue).
  virtual unsigned width() const = 0;

  /// Evaluates seeds [\p BeginSeed, \p EndSeed) against \p Wanted.
  /// Returns EndSeed - BeginSeed slots in seed order; a short reply is
  /// treated as trailing skips by the caller.
  virtual std::vector<SeedEvalResult>
  evalWave(uint64_t BeginSeed, uint64_t EndSeed,
           const std::array<bool, NumModelKinds> &Wanted) = 0;

  /// The measurement cache this service accumulated while evaluating, or
  /// null if it keeps none. Brainy::train folds it into the framework's
  /// cache before persisting measurements, so a distributed run saves the
  /// same records a local one would.
  virtual const MeasurementCache *measurements() const { return nullptr; }
};

/// Knobs for both training phases.
struct TrainOptions {
  AppConfig GenConfig;
  /// Seeds are consumed from FirstSeed upward.
  uint64_t FirstSeed = 1;
  /// Phase I's "need more sets" threshold: stop once every candidate DS of
  /// the model family has this many winning applications (the paper's
  /// adjustable per-DS threshold, default "e.g., ten thousand").
  unsigned TargetPerDs = 60;
  /// Safety cap on seeds consumed by one Phase I run.
  uint64_t MaxSeeds = 20000;
  /// Footnote 2: record a best DS only when it is at least this much
  /// faster than every alternative.
  double WinnerMargin = 0.05;
  /// Phase II cap per best-DS class ("the two-phase training framework can
  /// prevent extra applications ... from being fed into Phase II").
  unsigned MaxPerDsPhase2 = 0; ///< 0 = same as TargetPerDs
  /// Worker threads for Phase I racing, Phase II profiling, and per-model
  /// training. 0 = take the BRAINY_JOBS environment variable, or 1 when it
  /// is unset. 1 runs everything on the calling thread with no pool
  /// workers. Results, and the measurements Phase I keeps, are
  /// bit-identical for every value.
  unsigned Jobs = 0;
  /// A seed evaluation that throws (or is fault-injected) is retried this
  /// many times before the seed is skipped. Retries are keyed by
  /// (seed, attempt), so which seeds survive is deterministic and
  /// independent of Jobs.
  unsigned EvalRetries = 2;
  /// Seeds excluded up front. An excluded seed is treated exactly like a
  /// seed whose evaluation failed every retry: recorded as skipped without
  /// perturbing the ordered merge for the surviving seeds. This is the
  /// worker-loss hook for distributed Phase I, and how fault-run
  /// determinism is asserted in tests.
  std::set<uint64_t> ExcludeSeeds;
  /// When set, Phase I wave evaluation is delegated to this service — in
  /// practice a dist::Coordinator fanning chunks out to worker processes —
  /// instead of local executors; Jobs then governs only Phase II and model
  /// training. Non-owning: the service must outlive the framework. The
  /// ordered merge is shared with the local path, so results stay
  /// bit-identical to Jobs=1 minus any seeds the service reports lost.
  ChunkEvalService *Distribution = nullptr;
  /// When non-empty, the persistent measurement cache (DESIGN.md §12):
  /// Phase I cycle measurements are preloaded from this file at framework
  /// construction (and by a distributed Coordinator into its served cache)
  /// and written back after training. Measurements are pure, so a warm
  /// cache skips simulation without changing a single bundle byte; a file
  /// recorded under a different generator config or machine is rejected by
  /// fingerprint and ignored.
  std::string MeasurementCacheFile;
  /// When non-empty, resumable Phase I (DESIGN.md §13): the merged state
  /// is persisted to this file (`brainy-ckpt v1`, atomic write) every
  /// PhaseOneChunk * width seeds and at the stop, and a restarted run
  /// resumes from the last commit with a byte-identical final bundle. A
  /// corrupt or config-mismatched file is rejected wholesale and the run
  /// cold-starts; a checkpoint can never make a bundle wrong.
  std::string CheckpointFile;
  /// Network hyperparameters for the final model.
  NetConfig Net;
};

/// A recorded Phase I winner.
struct SeedBest {
  uint64_t Seed = 0;
  DsKind BestDs = DsKind::Vector;
};

/// Phase I result for one model family.
struct PhaseOneResult {
  std::vector<SeedBest> SeedDsPairs;
  /// Seeds consumed (matching and non-matching apps both count).
  uint64_t SeedsScanned = 0;
  /// Apps whose winner failed the 5% margin (discarded).
  uint64_t MarginRejects = 0;
  /// Seeds dropped while this family still wanted data — evaluation failed
  /// every retry, or the seed was in ExcludeSeeds. In seed order. Skipped
  /// seeds do not count into SeedsScanned: the surviving merge is
  /// bit-identical to a run over a seed stream that never contained them.
  std::vector<uint64_t> SkippedSeeds;
};

/// Runs both training phases for the six model families of one machine.
///
/// Concurrency: with Jobs > 1 Phase I runs jobs() executors over single
/// seeds behind an ordered merge frontier, and Phase II fans seeds out over
/// a shared ThreadPool; results are merged in seed order, so every result —
/// (seed, bestDS) pairs, win-count early stopping, margin-reject counts,
/// and the measurements kept — is bit-identical to the serial Jobs=1 run.
/// Per-(seed, kind) cycle measurements are memoised in a MeasurementCache
/// shared across model families, phases, threads, and repeated phaseOne
/// calls.
class TrainingFramework {
public:
  TrainingFramework(TrainOptions Options, MachineConfig Machine);

  /// Algorithm 1 for \p Model: scans seeds, races candidates, records
  /// margin-passing winners until every candidate reaches TargetPerDs or
  /// MaxSeeds is exhausted.
  PhaseOneResult phaseOne(ModelKind Model) const;

  /// Algorithm 1 for every model family in a single seed sweep. Each
  /// candidate kind runs an application at most once per seed and the
  /// measurement is shared by every family racing it — e.g. the vector and
  /// list families race the same {vector, list, deque} runs. Produces the
  /// same winners as per-family phaseOne at a fraction of the cost.
  std::array<PhaseOneResult, NumModelKinds> phaseOneAll() const;

  /// Algorithm 2: regenerates each recorded seed, profiles the app on the
  /// model's *original* structure, and emits training examples.
  std::vector<TrainExample> phaseTwo(ModelKind Model,
                                     const PhaseOneResult &Pairs) const;

  /// Whether the app generated from \p Seed belongs to \p Model's family
  /// (original-DS usage with matching order-obliviousness).
  bool specMatchesModel(uint64_t Seed, ModelKind Model) const;

  const TrainOptions &options() const { return Options; }
  const MachineConfig &machine() const { return Machine; }

  /// Resolved worker count (Options.Jobs with the BRAINY_JOBS fallback).
  unsigned jobs() const { return ResolvedJobs; }

  /// The pool shared by both phases and by Brainy::train's per-model
  /// fan-out. Lazily created with jobs()-1 workers (the caller participates
  /// in every parallelFor, giving jobs() concurrent executors). Creation is
  /// guarded by PoolMutex, so first use may come from any thread.
  ThreadPool &pool() const;

  /// The shared (seed, kind) -> cycles memo (exposed for tests/benches,
  /// and — non-const — for the distributed worker's remote cache tier).
  const MeasurementCache &measurements() const { return Cache; }
  MeasurementCache &measurements() { return Cache; }

  /// Records restored into Cache from Options.MeasurementCacheFile at
  /// construction (0 when unset, missing, or rejected).
  size_t loadedMeasurements() const { return LoadedMeasurements; }

  /// One seed's pure Phase I evaluation. Public for the distributed worker
  /// runtime, which evaluates chunks through exactly this entry point so a
  /// remote seed's outcome is the same bits a local run would produce.
  std::array<SeedOutcome, NumModelKinds>
  evalSeed(uint64_t Seed, const std::array<bool, NumModelKinds> &Wanted,
           MeasurementCache::Shard &Shard) const;

  /// evalSeed with the fault-isolation wrapper: excluded seeds are refused
  /// immediately; a throwing evaluation (injected or real) is retried up
  /// to Options.EvalRetries times, then logged and reported as failed.
  /// Never throws. Returns false when the seed must be skipped. Public for
  /// the distributed worker runtime (same rationale as evalSeed).
  bool tryEvalSeed(uint64_t Seed,
                   const std::array<bool, NumModelKinds> &Wanted,
                   MeasurementCache::Shard &Shard,
                   std::array<SeedOutcome, NumModelKinds> &Out) const;

private:
  std::array<PhaseOneResult, NumModelKinds>
  phaseOneImpl(const std::vector<ModelKind> &Models,
               bool CountUnmatchedSeeds) const;

  TrainOptions Options;
  MachineConfig Machine;
  unsigned ResolvedJobs = 1;
  size_t LoadedMeasurements = 0;
  /// Internally synchronised (MapMutex + the frozen-map contract).
  mutable MeasurementCache Cache;
  /// Guards only the lazy creation of Pool; the pool itself is internally
  /// synchronised once constructed.
  mutable Mutex PoolMutex;
  mutable std::unique_ptr<ThreadPool> Pool BRAINY_GUARDED_BY(PoolMutex);
};

/// Converts training examples into an ML dataset over \p Candidates
/// (labels = index into Candidates). Examples whose label is not in
/// \p Candidates are skipped.
Dataset examplesToDataset(const std::vector<TrainExample> &Examples,
                          const std::vector<DsKind> &Candidates);

} // namespace brainy

#endif // BRAINY_CORE_TRAININGFRAMEWORK_H
