//===- perfbench/src/Bench.h - Workload plumbing ----------------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the run context, the metric report,
/// the training section (TrainBench.cpp) and the serving section
/// (ServeBench.cpp). Every workload trains and then serves what it
/// trained, so every end-to-end metric is measured on every workload; the
/// workloads differ in where the weight lies (README.md).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Proc.h"
#include "Trace.h"

#include "core/TrainingFramework.h"
#include "machine/MachineModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Worker threads for every timed training (= nproc of the 4-CPU box the
/// workloads were sized on; held fixed so a run means the same work on
/// any host, while nproc is recorded with each result).
constexpr unsigned TrainJobs = 4;

struct Context {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string BrainyBin; ///< the `brainy` tool spawned as the server
  std::string WorkDir;   ///< scratch directory for this run
  std::string TraceOut;  ///< where the traced run writes its spans
  std::string RefCache;  ///< serial reference bundles kept across runs
};

/// Collects metrics and correctness counts; prints the human-readable
/// lines as it goes and the final JSON line at the end.
class Report {
public:
  void metric(const std::string &Name, double Value, const char *Unit);
  double get(const std::string &Name) const;
  /// One operation attempted; \p Ok false counts it failed and prints why.
  void op(bool Ok, const std::string &What);
  /// \p N operations attempted, \p Bad of them failed (printed with
  /// \p What when nonzero).
  void ops(uint64_t N, uint64_t Bad, const std::string &What);
  /// A check that is not an operation of its own (e.g. a counter that must
  /// agree); a failed one counts as a failed operation.
  void check(bool Ok, const std::string &What) {
    if (!Ok)
      op(false, What);
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  /// Prints the JSON result line with the metrics named in \p Names.
  void printResult(const std::vector<std::string> &Names) const;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

void note(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

std::string readFile(const std::string &Path);

//===-- Training section --------------------------------------------------===//

/// The training scale of a workload.
struct TrainScale {
  unsigned TargetPerDs;
  uint64_t MaxSeeds;
};
/// ROADMAP item 1's small scale (train-cold, train-warm).
constexpr TrainScale SmallScale{6, 300};

/// First Phase I seed of train-cold and train-warm, the same in every
/// run: the window moves the wall time of a training at equal CPU time
/// (windows starting at seeds 1 and 4 differ by 15%, README.md), which
/// would add to the run-to-run spread. The workload seed varies the
/// request stream and schedule.
constexpr uint64_t SmallFirstSeed = 1;
/// The tiny training that makes serve-mixed's bundles. It starts at the
/// same seed in every run: the workload seed varies serve-mixed's request
/// stream and schedule, so every run serves the same bundles.
constexpr TrainScale TinyScale{2, 60};
constexpr uint64_t TinyFirstSeed = 1;

brainy::TrainOptions trainOptions(TrainScale Scale, uint64_t FirstSeed,
                                  unsigned Jobs, const std::string &Cache);

/// Untraced timing of repeated trainings, each one Brainy::train plus
/// Brainy::save in a forked child.
struct TrainReps {
  /// Per repetition: wall, CPU and peak RSS summed (wall, CPU) or maxed
  /// (RSS) over the machines trained in that repetition.
  std::vector<double> WallS, CpuS, RssMb;
  /// Per repetition and machine: the bundle written, and its wall time.
  std::vector<std::vector<std::string>> Bundles;
  std::vector<std::vector<double>> MachineWallS;
};

/// What one repetition trains: every machine once, with these options;
/// \p CacheFor gives each machine's measurement-cache file ("" = none).
struct TrainPlan {
  std::vector<brainy::MachineConfig> Machines;
  TrainScale Scale;
  uint64_t FirstSeed;
  unsigned Jobs;
  std::vector<std::string> CacheFor;
  std::string Prefix; ///< names the bundles written
};

/// Runs one more repetition of \p Plan and appends it to \p Reps.
void trainRep(const Context &Ctx, const TrainPlan &Plan, TrainReps &Reps);

/// One Brainy::train + save to \p Path in a forked child; the payload is
/// the wall time of those two calls.
ChildResult trainOnceInChild(const Context &Ctx,
                             const brainy::MachineConfig &Machine,
                             const brainy::TrainOptions &Opts,
                             const std::string &Path);

/// Whether \p Path holds exactly \p RefBytes and reloads through
/// Brainy::load as a bundle for \p Machine.
bool bundleMatches(const std::string &Path, const std::string &RefBytes,
                   const brainy::MachineConfig &Machine);

/// Counts from one in-process training that repeats Brainy::train's steps
/// with a span around each public call.
struct TracedTraining {
  double RootS = 0;
  double Phase1S = 0, Phase1CpuS = 0;
  double Phase2S = 0, MlS = 0;
  uint64_t SeedsScanned = 0, Pairs = 0, MarginRejects = 0, Fresh = 0;
  uint64_t Phase2Examples = 0; ///< also the examples the models train on
  double BundleSaveS = 0;
  std::string BundlePath;
  /// Recorded (seed, family) winners, for the Phase II replay.
  std::vector<std::pair<uint64_t, brainy::ModelKind>> PairSeeds;
  /// The measurement store, timed on this training's cache after the
  /// root span closed: one saveMeasurements and one loadMeasurements.
  double StoreSaveS = 0, StoreLoadS = 0;
  uint64_t StoreRecords = 0, StoreBytes = 0;
};

/// Brainy::train's steps for \p Machine with spans under a root "train"
/// span (no spans when \p T is disabled). \p HeaderFrom is a bundle of the
/// same machine whose header the result reuses (Brainy keeps the machine
/// name private to train/load); every model is replaced.
TracedTraining tracedTrain(Tracer &T, const brainy::MachineConfig &Machine,
                           const brainy::TrainOptions &Opts,
                           const std::string &HeaderFrom,
                           const std::string &OutPath);

/// The traced run's training layers: replays a fixed sample of the seeds
/// Phase I scanned through AppSpec::fromSeed and runApp, a sample of the
/// recorded pairs through runAppProfiled, times the measurement store and
/// the bundle load, and reports the per-layer training metrics.
void reportTrainingLayers(Tracer &T, Report &R,
                          const brainy::MachineConfig &Machine,
                          const brainy::TrainOptions &Opts,
                          const TracedTraining &Parallel,
                          const TracedTraining &Serial,
                          double UntracedTrainS);

//===-- Serving section ---------------------------------------------------===//

/// The request stream: query lines and the scalar reference answer of
/// each (answerRecommendQuery against the same bundle, loaded in-process).
struct QuerySet {
  std::vector<std::string> Lines;
  std::vector<std::string> Expected;
};

/// Profiles generated apps (runAppProfiled, all six families, each arch of
/// \p Machines) into query lines for \p Bundles. The apps are the same in
/// every run: apps drawn from the workload seed took 1.1 to 4.9 s to
/// profile depending on the seed, which would move train-cold's set-up
/// time. The workload seed varies which lines the traffic sends, and when.
QuerySet makeQueries(Tracer &T,
                     const std::vector<brainy::MachineConfig> &Machines,
                     const std::vector<std::string> &Bundles, size_t Count);

/// The serving section's result: per-session figures reduced to medians
/// across sessions, and the server's counters summed over them.
struct ServeResult {
  std::vector<double> SetupS; ///< spawn to first answer, per session
  double RecsPerS = 0;
  double GroupP50S = 0, GroupP99S = 0;
  double SingleP50S = 0, SingleP99S = 0;
  double MaxRateQps = 0;
  double ServerCpuS = 0, ServerRssMb = 0;
  uint64_t Queries = 0, Batches = 0, MaxBatch = 0;
  std::vector<uint64_t> GroupOffsets;
};

/// One serving session against a freshly spawned `brainy serve`: spawn to
/// first answer is timed, then one pass of the single-query rate ladder
/// runs alongside the closed-loop group traffic, then the server is
/// stopped and must drain. \p Index varies the session's traffic seed.
struct ServeSession {
  double SetupS = 0;
  /// Group answers per second in each throughput window of the nominal
  /// step, and the group round trips of that step (ServeBench.cpp).
  std::vector<double> Windows;
  Dist Group, Single;
  double MaxRateQps = 0;
  double ServerCpuS = 0, ServerRssMb = 0;
  uint64_t Queries = 0, Batches = 0, MaxBatch = 0;
  std::vector<uint64_t> GroupOffsets;
};
ServeSession serveSession(const Context &Ctx, Tracer &T, Report &R,
                          const std::vector<std::string> &Bundles,
                          const QuerySet &Q, unsigned Index);

/// Sessions that fit in \p BudgetS, and never fewer than three.
unsigned sessionsFor(double BudgetS);

/// Medians across \p Sessions; the server's counters summed over them.
ServeResult summarizeServing(const std::vector<ServeSession> &Sessions);

/// sessionsFor(\p BudgetS) sessions back to back, summarized.
ServeResult runServing(const Context &Ctx, Tracer &T, Report &R,
                       const std::vector<std::string> &Bundles,
                       const QuerySet &Q, double BudgetS);

/// Reports the end-to-end serving metrics of \p S.
void reportServing(Report &R, const ServeResult &S);

/// The traced run's serving layers: replays the group stream in-process
/// through the recommend calls and answerRequestLines.
void reportServingLayers(Tracer &T, Report &R,
                         const std::vector<std::string> &Bundles,
                         const QuerySet &Q, const ServeResult &Untraced,
                         const ServeResult &Traced);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
