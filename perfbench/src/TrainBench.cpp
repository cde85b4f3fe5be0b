//===- perfbench/src/TrainBench.cpp - The training section ----------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Untraced: each timed training is one Brainy::train plus Brainy::save in
// a forked child, so wall time, CPU time and peak RSS belong to that
// training alone. Traced: the same steps Brainy::train takes, called one
// public function at a time in-process with a span around each, followed
// by replays of sampled Phase I and Phase II app runs.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Proc.h"

#include "appgen/AppRunner.h"
#include "core/Brainy.h"
#include "core/MeasurementStore.h"

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>

using namespace brainy;

namespace perfbench {

TrainOptions trainOptions(TrainScale Scale, uint64_t FirstSeed, unsigned Jobs,
                          const std::string &Cache) {
  TrainOptions O;
  O.TargetPerDs = Scale.TargetPerDs;
  O.MaxSeeds = Scale.MaxSeeds;
  O.FirstSeed = FirstSeed;
  O.Jobs = Jobs;
  O.MeasurementCacheFile = Cache;
  return O;
}

ChildResult trainOnceInChild(const Context &Ctx, const MachineConfig &Machine,
                             const TrainOptions &Opts,
                             const std::string &Path) {
  return runInChild(
      [&] {
        int64_t T0 = nowNs();
        Brainy B = Brainy::train(Opts, Machine);
        if (Error E = B.save(Path))
          throw std::runtime_error("save " + Path + ": " + E.message());
        return std::vector<double>{static_cast<double>(nowNs() - T0) * 1e-9};
      },
      Ctx.WorkDir + "/train.log");
}

void trainRep(const Context &Ctx, const TrainPlan &Plan, TrainReps &Reps) {
  auto Rep = static_cast<unsigned>(Reps.WallS.size());
  double Wall = 0, Cpu = 0, Rss = 0;
  std::vector<std::string> Paths;
  std::vector<double> PerMachine;
  for (size_t M = 0; M != Plan.Machines.size(); ++M) {
    std::string Path = Ctx.WorkDir + "/" + Plan.Prefix + "-" +
                       std::to_string(Rep) + "-" + Plan.Machines[M].Name +
                       ".models";
    ChildResult C = trainOnceInChild(
        Ctx, Plan.Machines[M],
        trainOptions(Plan.Scale, Plan.FirstSeed, Plan.Jobs, Plan.CacheFor[M]),
        Path);
    bool Ok = C.Ok && C.Payload.size() == 1;
    Paths.push_back(Ok ? Path : "");
    PerMachine.push_back(Ok ? C.Payload[0] : 0);
    Wall += Ok ? C.Payload[0] : 0;
    Cpu += C.CpuS;
    Rss = std::max(Rss, C.PeakRssMb);
  }
  note("%s rep %u: wall %.4f s, cpu %.4f s, peak rss %.1f MiB",
       Plan.Prefix.c_str(), Rep, Wall, Cpu, Rss);
  Reps.WallS.push_back(Wall);
  Reps.CpuS.push_back(Cpu);
  Reps.RssMb.push_back(Rss);
  Reps.Bundles.push_back(std::move(Paths));
  Reps.MachineWallS.push_back(std::move(PerMachine));
}

bool bundleMatches(const std::string &Path, const std::string &RefBytes,
                   const MachineConfig &Machine) {
  if (Path.empty() || RefBytes.empty() || readFile(Path) != RefBytes)
    return false;
  Expected<Brainy> B = Brainy::load(Path);
  return B && B->machineName() == Machine.Name;
}

namespace {

/// Counts dispatch-loop interface calls (the containers layer's work).
class OpCounter : public OpObserver {
public:
  void onOp(AppOp, uint64_t, uint64_t) override { ++Ops; }
  uint64_t Ops = 0;
};

double sinceS(int64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

} // namespace

TracedTraining tracedTrain(Tracer &T, const MachineConfig &Machine,
                           const TrainOptions &Opts,
                           const std::string &HeaderFrom,
                           const std::string &OutPath) {
  TracedTraining Out;
  Expected<Brainy> Header = Brainy::load(HeaderFrom);
  if (!Header)
    throw std::runtime_error("cannot load " + HeaderFrom + ": " +
                             Header.error().message());
  Brainy B = std::move(*Header);

  int64_t RootStart = nowNs();
  uint64_t Root = T.begin("train");
  std::unique_ptr<TrainingFramework> F;
  {
    ScopedSpan S(T, "framework.init", Root);
    F = std::make_unique<TrainingFramework>(Opts, Machine);
  }
  std::array<PhaseOneResult, NumModelKinds> Phase1;
  {
    double Cpu0 = processCpuS();
    int64_t P0 = nowNs();
    ScopedSpan S(T, "phaseOneAll", Root);
    Phase1 = F->phaseOneAll();
    Out.Phase1S = sinceS(P0);
    Out.Phase1CpuS = processCpuS() - Cpu0;
  }
  std::array<double, NumModelKinds> P2S{}, MlS{};
  std::array<size_t, NumModelKinds> Examples{};
  auto TrainOne = [&](size_t I) {
    auto Kind = static_cast<ModelKind>(I);
    std::string K = "[" + std::to_string(I) + "]";
    int64_t A = nowNs();
    std::vector<TrainExample> Ex;
    {
      ScopedSpan S(T, "phaseTwo" + K, Root);
      Ex = F->phaseTwo(Kind, Phase1[I]);
    }
    P2S[I] = sinceS(A);
    int64_t Bt = nowNs();
    {
      ScopedSpan S(T, "BrainyModel::train" + K, Root);
      B.model(Kind) = BrainyModel::train(Kind, Ex, Opts.Net);
    }
    MlS[I] = sinceS(Bt);
    Examples[I] = Ex.size();
  };
  if (F->jobs() <= 1) {
    for (unsigned I = 0; I != NumModelKinds; ++I)
      TrainOne(I);
  } else {
    F->pool().parallelFor(0, NumModelKinds, TrainOne);
  }
  if (!Opts.MeasurementCacheFile.empty()) {
    ScopedSpan S(T, "store.save", Root);
    if (Error E = saveMeasurements(Opts.MeasurementCacheFile,
                                   F->measurements(), Opts.GenConfig, Machine))
      throw std::runtime_error("saveMeasurements: " + E.message());
  }
  {
    int64_t S0 = nowNs();
    ScopedSpan S(T, "bundle.save", Root);
    if (Error E = B.save(OutPath))
      throw std::runtime_error("save " + OutPath + ": " + E.message());
    Out.BundleSaveS = sinceS(S0);
  }
  T.end(Root);
  Out.RootS = sinceS(RootStart);
  Out.BundlePath = OutPath;

  for (unsigned I = 0; I != NumModelKinds; ++I) {
    Out.SeedsScanned += Phase1[I].SeedsScanned;
    Out.Pairs += Phase1[I].SeedDsPairs.size();
    Out.MarginRejects += Phase1[I].MarginRejects;
    Out.Phase2S += P2S[I];
    Out.MlS += MlS[I];
    Out.Phase2Examples += Examples[I];
    for (const SeedBest &P : Phase1[I].SeedDsPairs)
      Out.PairSeeds.push_back({P.Seed, static_cast<ModelKind>(I)});
  }
  Out.Fresh = F->measurements().freshMeasurements();

  // The measurement store layer, on this training's cache, outside the
  // root span: one save and one load of the same records.
  std::string StorePath = OutPath + ".mcache";
  {
    int64_t S0 = nowNs();
    ScopedSpan S(T, "store.save.timed");
    size_t Saved = 0;
    if (Error E = saveMeasurements(StorePath, F->measurements(),
                                   Opts.GenConfig, Machine, &Saved))
      throw std::runtime_error("saveMeasurements: " + E.message());
    Out.StoreSaveS = sinceS(S0);
    Out.StoreRecords = Saved;
  }
  {
    MeasurementCache Reloaded;
    int64_t S0 = nowNs();
    ScopedSpan S(T, "store.load.timed");
    Expected<size_t> N =
        loadMeasurements(StorePath, Reloaded, Opts.GenConfig, Machine);
    Out.StoreLoadS = sinceS(S0);
    if (!N || *N != Out.StoreRecords)
      throw std::runtime_error("measurement store did not round-trip");
  }
  Out.StoreBytes = readFile(StorePath).size();
  return Out;
}

void reportTrainingLayers(Tracer &T, Report &R,
                          const MachineConfig &Machine,
                          const TrainOptions &Opts,
                          const TracedTraining &Par,
                          const TracedTraining &Serial,
                          double UntracedTrainS) {
  // Phase I replay: a fixed sample of the scanned seed range, every
  // candidate the seed's matching families race, each run once (as the
  // measurement cache would).
  TrainOptions NoCache = Opts;
  NoCache.MeasurementCacheFile.clear();
  NoCache.Jobs = 1;
  TrainingFramework F(NoCache, Machine);
  constexpr uint64_t Samples = 30;
  uint64_t Stride = std::max<uint64_t>(1, Opts.MaxSeeds / Samples);
  OpCounter Ops;
  HardwareCounters Hw;
  for (uint64_t J = 0; J != Samples && J * Stride < Opts.MaxSeeds; ++J) {
    uint64_t Seed = Opts.FirstSeed + J * Stride;
    AppSpec Spec;
    {
      ScopedSpan S(T, "appgen.spec");
      Spec = AppSpec::fromSeed(Seed, Opts.GenConfig);
    }
    std::set<DsKind> Kinds;
    for (unsigned M = 0; M != NumModelKinds; ++M) {
      auto Model = static_cast<ModelKind>(M);
      if (F.specMatchesModel(Seed, Model))
        for (DsKind K :
             replacementCandidates(modelOriginal(Model), Spec.OrderOblivious))
          Kinds.insert(K);
    }
    for (DsKind K : Kinds) {
      RunOutcome Run;
      {
        ScopedSpan S(T, "appgen.runApp");
        Run = runApp(Spec, K, Machine, &Ops);
      }
      Hw.Instructions += Run.Hw.Instructions;
      Hw.L1Accesses += Run.Hw.L1Accesses;
      Hw.Branches += Run.Hw.Branches;
    }
  }
  // Phase II replay: a fixed sample of the recorded pairs across all
  // families, profiled on the family's original structure.
  size_t PairStride = std::max<size_t>(1, Par.PairSeeds.size() / Samples);
  for (size_t I = 0; I < Par.PairSeeds.size(); I += PairStride) {
    auto [Seed, Model] = Par.PairSeeds[I];
    AppSpec Spec;
    {
      ScopedSpan S(T, "appgen.spec");
      Spec = AppSpec::fromSeed(Seed, Opts.GenConfig);
    }
    ScopedSpan S(T, "profile.runAppProfiled");
    runAppProfiled(Spec, modelOriginal(Model), Machine);
  }
  std::vector<double> LoadS;
  for (int I = 0; I != 5; ++I) {
    int64_t S0 = nowNs();
    ScopedSpan S(T, "bundle.load");
    Expected<Brainy> B = Brainy::load(Par.BundlePath);
    LoadS.push_back(sinceS(S0));
    R.check(bool(B), "traced bundle reloads");
  }

  R.metric("containers.ops", static_cast<double>(Ops.Ops), "count");
  R.metric("machine.l1_accesses", static_cast<double>(Hw.L1Accesses), "count");
  R.metric("machine.branches", static_cast<double>(Hw.Branches), "count");
  R.metric("machine.instructions", static_cast<double>(Hw.Instructions),
           "count");
  R.metric("core.phase1.busy_s", Par.Phase1S, "s");
  R.metric("core.phase1.cpu_s", Par.Phase1CpuS, "s");
  R.metric("core.phase1.parallel_eff",
           Par.Phase1S > 0 ? Par.Phase1CpuS / (Par.Phase1S * Opts.Jobs) : 0,
           "ratio");
  R.metric("core.phase1.seeds_scanned", static_cast<double>(Par.SeedsScanned),
           "count");
  R.metric("core.phase1.pairs", static_cast<double>(Par.Pairs), "count");
  R.metric("core.phase1.margin_rejects",
           static_cast<double>(Par.MarginRejects), "count");
  R.metric("core.phase1.fresh", static_cast<double>(Par.Fresh), "count");
  // Useful work over attempted work: measurements a serial run needs per
  // measurement the parallel waves made. 0/0 (a warm cache) wastes
  // nothing and reads 1.
  R.metric("core.phase1.useful_ratio",
           Par.Fresh ? static_cast<double>(Serial.Fresh) /
                           static_cast<double>(Par.Fresh)
                     : 1.0,
           "ratio");
  R.metric("core.phase2.busy_s", Par.Phase2S, "s");
  R.metric("core.phase2.examples", static_cast<double>(Par.Phase2Examples),
           "count");
  R.metric("ml.train.busy_s", Par.MlS, "s");
  R.metric("ml.train.examples", static_cast<double>(Par.Phase2Examples),
           "count");
  R.metric("core.store.load_s", Par.StoreLoadS, "s");
  R.metric("core.store.save_s", Par.StoreSaveS, "s");
  R.metric("core.store.records", static_cast<double>(Par.StoreRecords),
           "count");
  R.metric("core.store.bytes", static_cast<double>(Par.StoreBytes), "bytes");
  R.metric("core.bundle.save_s", Par.BundleSaveS, "s");
  R.metric("core.bundle.load_s", median(LoadS), "s");
  R.metric("core.bundle.bytes",
           static_cast<double>(readFile(Par.BundlePath).size()), "bytes");
  R.metric("trace.train_root_s", Par.RootS, "s");
  R.metric("trace.train_overhead_s", Par.RootS - UntracedTrainS, "s");
}

} // namespace perfbench
