//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Usage (normally through perfbench/run.py, which builds this first):
//
//   brainy_perfbench --workload train-cold|train-warm|serve-mixed
//                    --seed N --seconds S --trace 0|1
//                    --brainy PATH --workdir DIR [--trace-out FILE]
//                    [--ref-cache DIR] [--commit ID]
//
// Prints one line per measurement as it goes and, last, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 additionally records spans around each
// layer's public calls and reports the per-layer metrics. README.md
// beside this directory defines every workload and metric.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Proc.h"

#include "appgen/AppSpec.h"
#include "core/Brainy.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

using namespace brainy;
using namespace perfbench;

namespace perfbench {

void note(const char *Fmt, ...) {
  std::va_list Args;
  va_start(Args, Fmt);
  std::vprintf(Fmt, Args);
  va_end(Args);
  std::putchar('\n');
  std::fflush(stdout);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

void Report::metric(const std::string &Name, double Value, const char *Unit) {
  Entries.push_back({Name, Value, Unit});
  note("metric %-34s %.6g %s", Name.c_str(), Value, Unit);
}

double Report::get(const std::string &Name) const {
  for (const Entry &E : Entries)
    if (E.Name == Name)
      return E.Value;
  throw std::runtime_error("metric " + Name + " was not measured");
}

void Report::op(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    note("FAILED: %s", What.c_str());
  }
}

void Report::ops(uint64_t N, uint64_t Bad, const std::string &What) {
  Attempted += N;
  Failed += Bad;
  if (Bad)
    note("FAILED: %llu of %llu: %s", static_cast<unsigned long long>(Bad),
         static_cast<unsigned long long>(N), What.c_str());
}

void Report::printResult(const std::vector<std::string> &Names) const {
  note("error_rate %.6g (%llu failed of %llu attempted)",
       Attempted ? static_cast<double>(Failed) / static_cast<double>(Attempted)
                 : 1.0,
       static_cast<unsigned long long>(Failed),
       static_cast<unsigned long long>(Attempted));
  std::string Metrics;
  for (const std::string &Name : Names) {
    const Entry *Found = nullptr;
    for (const Entry &E : Entries)
      if (E.Name == Name)
        Found = &E;
    if (!Found)
      throw std::runtime_error("metric " + Name + " was not measured");
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": "
                                    "\"%s\"}",
                  Metrics.empty() ? "" : ", ", Name.c_str(), Found->Value,
                  Found->Unit.c_str());
    Metrics += Buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Failed == 0 && Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Metrics.c_str());
  std::fflush(stdout);
}

} // namespace perfbench

namespace {

/// The metrics BENCHMARK.json lists, in its order.
/// serve_recs_per_s, serve_single_p50_ms and the p99s are printed on
/// every run but left out: on a shared host their run-to-run spread
/// exceeds any bound BENCHMARK.json may set (README.md).
const std::vector<std::string> EndToEnd = {
    "setup_s",     "train_s",           "train_cpu_s",
    "peak_rss_mb", "serve_group_p50_ms", "serve_single_max_rate_qps"};

const std::vector<std::string> PerLayer = {
    "appgen.spec.calls",
    "appgen.spec.busy_s",
    "appgen.runApp.calls",
    "appgen.runApp.busy_s",
    "containers.ops",
    "machine.l1_accesses",
    "machine.branches",
    "machine.instructions",
    "machine.events_per_s",
    "profile.runAppProfiled.calls",
    "profile.runAppProfiled.busy_s",
    "core.phase1.busy_s",
    "core.phase1.cpu_s",
    "core.phase1.parallel_eff",
    "core.phase1.seeds_scanned",
    "core.phase1.pairs",
    "core.phase1.margin_rejects",
    "core.phase1.fresh",
    "core.phase1.useful_ratio",
    "core.phase2.busy_s",
    "core.phase2.examples",
    "ml.train.busy_s",
    "ml.train.examples",
    "core.store.load_s",
    "core.store.save_s",
    "core.store.records",
    "core.store.bytes",
    "core.bundle.save_s",
    "core.bundle.load_s",
    "core.bundle.bytes",
    "core.recommend.parse_us",
    "core.recommend.forward_us",
    "core.recommend.render_us",
    "serve.answer_us_per_group",
    "serve.batches",
    "serve.batch_mean",
    "serve.batch_max",
    "serve.server_cpu_s",
    "serve.cpu_us_per_query",
    "serve.overhead_us_per_group",
    "trace.train_root_s",
    "trace.train_self_s",
    "trace.train_overhead_s",
    "trace.group_p50_ms",
    "trace.group_overhead_ms",
    "trace.spans",
    "trace.overhead_share"};

/// Share of --seconds each workload spends in timed trainings (never
/// fewer than MinReps repetitions); the rest drives the server.
constexpr double TrainShareTrain = 0.5;
constexpr double TrainShareServe = 0.45;
constexpr size_t MinReps = 3;
/// Distinct query lines in the request stream.
constexpr size_t NumQueries = 96;

std::string copyFile(const std::string &From, const std::string &To) {
  std::ofstream Out(To, std::ios::binary | std::ios::trunc);
  Out << readFile(From);
  if (!Out)
    throw std::runtime_error("cannot write " + To);
  return To;
}

/// Reference bundles: Brainy::train at Jobs=1, outside every timed region.
/// A cold reference depends only on the build and the options, so it is
/// kept in Ctx.RefCache (a directory named by the build's digest) and
/// reused by later runs of the same build.
std::vector<std::string>
serialReferences(const Context &Ctx, Report &R,
                 const std::vector<MachineConfig> &Machines, TrainScale Scale,
                 uint64_t FirstSeed,
                 const std::vector<std::string> &CacheFor) {
  std::vector<std::string> Paths;
  for (size_t M = 0; M != Machines.size(); ++M) {
    std::string Path = Ctx.WorkDir + "/reference-" + Machines[M].Name +
                       ".models";
    std::string Kept;
    if (!Ctx.RefCache.empty() && CacheFor[M].empty())
      Kept = Ctx.RefCache + "/" + Machines[M].Name + "-t" +
             std::to_string(Scale.TargetPerDs) + "-s" +
             std::to_string(Scale.MaxSeeds) + "-f" +
             std::to_string(FirstSeed) + ".models";
    if (!Kept.empty() && Brainy::load(Kept)) {
      copyFile(Kept, Path);
      note("serial reference for %s reused from an earlier run of this build",
           Machines[M].Name.c_str());
      Paths.push_back(Path);
      continue;
    }
    ChildResult C =
        trainOnceInChild(Ctx, Machines[M],
                         trainOptions(Scale, FirstSeed, 1, CacheFor[M]), Path);
    R.check(C.Ok, "serial reference training for " + Machines[M].Name);
    if (!C.Ok)
      throw std::runtime_error("no serial reference bundle");
    if (!Kept.empty()) {
      copyFile(Path, Kept + ".tmp");
      std::rename((Kept + ".tmp").c_str(), Kept.c_str());
    }
    Paths.push_back(Path);
  }
  return Paths;
}

/// Checks every repetition's bundle against the serial reference.
void checkReps(Report &R, const TrainReps &Reps,
               const std::vector<MachineConfig> &Machines,
               const std::vector<std::string> &Refs) {
  for (size_t M = 0; M != Machines.size(); ++M) {
    std::string RefBytes = readFile(Refs[M]);
    for (size_t Rep = 0; Rep != Reps.Bundles.size(); ++Rep)
      R.op(bundleMatches(Reps.Bundles[Rep][M], RefBytes, Machines[M]),
           "repetition " + std::to_string(Rep) + " " + Machines[M].Name +
               " bundle equals the serial reference and reloads");
  }
}

void reportTraining(Report &R, const TrainReps &Reps) {
  R.metric("train_s", median(Reps.WallS), "s");
  R.metric("train_cpu_s", median(Reps.CpuS), "s");
}

/// The untraced measurement of a workload: timed trainings of \p Plan
/// for about \p TrainBudgetS (the repetition count that comes closest,
/// never fewer than MinReps), and serving sessions filling \p ServeS. The
/// sessions are spread evenly among the trainings, so both sample the
/// whole run rather than one stretch of it: the host's speed drifts.
std::pair<TrainReps, ServeResult>
trainAndServe(const Context &Ctx, Report &R, const TrainPlan &Plan,
              double TrainBudgetS, double ServeS,
              const std::vector<std::string> &Bundles, const QuerySet &Q) {
  Tracer Off(false);
  unsigned NumSessions = sessionsFor(ServeS);
  TrainReps Reps;
  std::vector<ServeSession> Sessions;
  double TrainedS = 0;
  auto Serve = [&] {
    Sessions.push_back(serveSession(Ctx, Off, R, Bundles, Q,
                                    static_cast<unsigned>(Sessions.size())));
  };
  auto MoreReps = [&] {
    size_t N = Reps.WallS.size();
    return N < MinReps ||
           TrainedS + TrainedS / static_cast<double>(N) / 2 < TrainBudgetS;
  };
  while (MoreReps()) {
    while (Sessions.size() < NumSessions &&
           TrainedS >= static_cast<double>(Sessions.size()) * TrainBudgetS /
                           NumSessions)
      Serve();
    trainRep(Ctx, Plan, Reps);
    TrainedS += Reps.WallS.back();
  }
  while (Sessions.size() < NumSessions)
    Serve();
  return {std::move(Reps), summarizeServing(Sessions)};
}

/// The traced run's training half: one traced parallel training of core2,
/// one untraced serial one (for the useful-work ratio), both checked
/// against the reference bundle.
void traceTraining(const Context &Ctx, Tracer &T, Report &R, TrainScale Scale,
                   uint64_t FirstSeed, const std::string &Ref,
                   const std::string &Cache, const TrainReps &Reps) {
  MachineConfig Machine = MachineConfig::core2();
  std::string RefBytes = readFile(Ref);
  auto CacheCopy = [&](const char *Name) {
    return Cache.empty() ? std::string()
                         : copyFile(Cache, Ctx.WorkDir + "/" + Name);
  };
  TrainOptions ParOpts =
      trainOptions(Scale, FirstSeed, TrainJobs, CacheCopy("traced.mcache"));
  TracedTraining Par = tracedTrain(T, Machine, ParOpts, Ref,
                                   Ctx.WorkDir + "/traced.models");
  R.op(bundleMatches(Par.BundlePath, RefBytes, Machine),
       "traced training's bundle equals the serial reference");
  Tracer Off(false);
  TracedTraining Ser =
      tracedTrain(Off, Machine,
                  trainOptions(Scale, FirstSeed, 1, CacheCopy("serial.mcache")),
                  Ref, Ctx.WorkDir + "/serial.models");
  R.op(bundleMatches(Ser.BundlePath, RefBytes, Machine),
       "step-by-step serial training's bundle equals Brainy::train's");
  if (!Cache.empty())
    R.check(Par.Fresh == 0 && Ser.Fresh == 0,
            "a warm training made fresh measurements");
  std::vector<double> Core2Wall;
  for (const std::vector<double> &W : Reps.MachineWallS)
    Core2Wall.push_back(W[0]);
  reportTrainingLayers(T, R, Machine, ParOpts, Par, Ser, median(Core2Wall));
}

/// Per-layer metrics read off the recorded spans.
void reportSpanTotals(Tracer &T, Report &R) {
  std::vector<Span> Spans = T.spans();
  std::map<std::string, NameTotals> Totals = totalsByName(Spans);
  note("spans: %zu; per name: count, total, self", Spans.size());
  for (const auto &[Name, Tot] : Totals)
    note("  %-28s %8zu %12.6f s %12.6f s", Name.c_str(), Tot.Count, Tot.TotalS,
         Tot.SelfS);
  auto Busy = [&](const char *Name) { return Totals[Name].TotalS; };
  auto Calls = [&](const char *Name) {
    return static_cast<double>(Totals[Name].Count);
  };
  R.metric("appgen.spec.calls", Calls("appgen.spec"), "count");
  R.metric("appgen.spec.busy_s", Busy("appgen.spec"), "s");
  R.metric("appgen.runApp.calls", Calls("appgen.runApp"), "count");
  R.metric("appgen.runApp.busy_s", Busy("appgen.runApp"), "s");
  R.metric("profile.runAppProfiled.calls", Calls("profile.runAppProfiled"),
           "count");
  R.metric("profile.runAppProfiled.busy_s", Busy("profile.runAppProfiled"),
           "s");
  double RunS = Busy("appgen.runApp");
  double Events = R.get("machine.l1_accesses") + R.get("machine.branches");
  R.metric("machine.events_per_s", RunS > 0 ? Events / RunS : 0, "1/s");
  R.metric("trace.train_self_s", Totals["train"].SelfS, "s");
  R.metric("trace.spans", static_cast<double>(Spans.size()), "count");
  R.metric("trace.overhead_share",
           R.get("trace.train_overhead_s") / R.get("trace.train_root_s"),
           "ratio");
}

void runTrainWorkload(const Context &Ctx, Tracer &T, Report &R, bool Warm) {
  MachineConfig Core2 = MachineConfig::core2();
  std::vector<double> SetupS;
  std::string Cache;
  std::vector<std::string> SetupBundles, Refs;
  QuerySet Q;
  if (!Warm) {
    // Input generation, three times: the options and the app specs of the
    // seed range Phase I may scan, and the request stream. The serial
    // reference comes first, outside set-up: the expected answers need it.
    Refs = serialReferences(Ctx, R, {Core2}, SmallScale, SmallFirstSeed, {""});
    Tracer Off(false);
    for (int I = 0; I != 3; ++I) {
      int64_t T0 = nowNs();
      TrainOptions O = trainOptions(SmallScale, SmallFirstSeed, TrainJobs, "");
      uint64_t Sum = 0;
      for (uint64_t S = 0; S != O.MaxSeeds; ++S)
        Sum += AppSpec::fromSeed(O.FirstSeed + S, O.GenConfig).TotalCalls;
      Q = makeQueries(I == 0 ? T : Off, {Core2}, Refs, NumQueries);
      SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
      R.check(Sum > 0, "generated app specs");
    }
  } else {
    // The cold training that fills the measurement cache.
    for (int I = 0; I != 2; ++I) {
      std::string MCache = Ctx.WorkDir + "/setup-" + std::to_string(I) +
                           ".mcache";
      std::string Path = Ctx.WorkDir + "/setup-" + std::to_string(I) +
                         ".models";
      ChildResult C = trainOnceInChild(
          Ctx, Core2,
          trainOptions(SmallScale, SmallFirstSeed, TrainJobs, MCache),
          Path);
      R.check(C.Ok && C.Payload.size() == 1, "cold training for the cache");
      SetupS.push_back(C.Ok && !C.Payload.empty() ? C.Payload[0] : 0);
      SetupBundles.push_back(C.Ok ? Path : "");
      Cache = MCache;
    }
    Refs = serialReferences(
        Ctx, R, {Core2}, SmallScale, SmallFirstSeed,
        {copyFile(Cache, Ctx.WorkDir + "/reference.mcache")});
    Q = makeQueries(T, {Core2}, Refs, NumQueries);
  }
  R.metric("setup_s", median(SetupS), "s");

  std::string Live =
      Warm ? copyFile(Cache, Ctx.WorkDir + "/live.mcache") : std::string();

  TrainPlan Plan{{Core2},    SmallScale, SmallFirstSeed,
                 TrainJobs,  {Live},     Warm ? "warm" : "cold"};
  double ServeS = Ctx.Seconds * (1 - TrainShareTrain);
  auto [Reps, S] = trainAndServe(Ctx, R, Plan, Ctx.Seconds * TrainShareTrain,
                                 ServeS, Refs, Q);
  reportTraining(R, Reps);
  R.metric("peak_rss_mb", median(Reps.RssMb), "MiB");
  reportServing(R, S);

  checkReps(R, Reps, {Core2}, Refs);
  if (Warm) {
    R.check(readFile(Live) == readFile(Cache),
            "warm trainings made fresh measurements (the cache grew)");
    std::string RefBytes = readFile(Refs[0]);
    for (const std::string &B : SetupBundles)
      R.op(bundleMatches(B, RefBytes, Core2),
           "cold setup bundle equals the warm serial reference");
  }
  if (!Ctx.Trace)
    return;
  traceTraining(Ctx, T, R, SmallScale, SmallFirstSeed, Refs[0], Cache, Reps);
  ServeResult Traced = runServing(Ctx, T, R, Refs, Q, ServeS);
  reportServingLayers(T, R, Refs, Q, S, Traced);
  reportSpanTotals(T, R);
}

void runServeWorkload(const Context &Ctx, Tracer &T, Report &R) {
  std::vector<MachineConfig> Machines = {MachineConfig::core2(),
                                         MachineConfig::atom()};
  std::vector<std::string> Refs =
      serialReferences(Ctx, R, Machines, TinyScale, TinyFirstSeed, {"", ""});
  QuerySet Q = makeQueries(T, Machines, Refs, NumQueries);
  TrainPlan Plan{Machines, TinyScale, TinyFirstSeed, TrainJobs, {"", ""},
                 "tiny"};
  double ServeS = Ctx.Seconds * (1 - TrainShareServe);
  auto [Reps, S] = trainAndServe(Ctx, R, Plan, Ctx.Seconds * TrainShareServe,
                                 ServeS, Refs, Q);
  reportTraining(R, Reps);
  checkReps(R, Reps, Machines, Refs);
  R.metric("setup_s", median(S.SetupS), "s");
  R.metric("peak_rss_mb", S.ServerRssMb, "MiB");
  reportServing(R, S);
  if (!Ctx.Trace)
    return;
  traceTraining(Ctx, T, R, TinyScale, TinyFirstSeed, Refs[0], "", Reps);
  ServeResult Traced = runServing(Ctx, T, R, Refs, Q, ServeS);
  reportServingLayers(T, R, Refs, Q, S, Traced);
  reportSpanTotals(T, R);
}

int usage() {
  std::fprintf(stderr,
               "usage: brainy_perfbench --workload train-cold|train-warm|"
               "serve-mixed --seed N --seconds S --trace 0|1 --brainy PATH "
               "--workdir DIR [--trace-out FILE] [--ref-cache DIR] "
               "[--commit ID]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Context Ctx;
  std::string Commit = "unknown";
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      Ctx.Workload = Val;
    else if (Key == "--seed")
      Ctx.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      Ctx.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      Ctx.Trace = Val == "1";
    else if (Key == "--brainy")
      Ctx.BrainyBin = Val;
    else if (Key == "--workdir")
      Ctx.WorkDir = Val;
    else if (Key == "--trace-out")
      Ctx.TraceOut = Val;
    else if (Key == "--ref-cache")
      Ctx.RefCache = Val;
    else if (Key == "--commit")
      Commit = Val;
    else
      return usage();
  }
  if (Ctx.Workload.empty() || Ctx.BrainyBin.empty() || Ctx.WorkDir.empty() ||
      Ctx.Seconds <= 0)
    return usage();
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
    std::fprintf(stderr, "perfbench: refusing a Debug build\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build with assertions on "
                       "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif

  double Load[3] = {0, 0, 0};
  getloadavg(Load, 3);
  note("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
       "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, \"train_jobs\": %u, "
       "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
       "\"loadavg\": [%.2f, %.2f, %.2f]}}",
       Ctx.Workload.c_str(), static_cast<unsigned long long>(Ctx.Seed),
       Ctx.Seconds, Ctx.Trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
       TrainJobs, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, Commit.c_str(),
       Load[0], Load[1], Load[2]);

  Tracer T(Ctx.Trace);
  Report R;
  try {
    if (Ctx.Workload == "train-cold")
      runTrainWorkload(Ctx, T, R, /*Warm=*/false);
    else if (Ctx.Workload == "train-warm")
      runTrainWorkload(Ctx, T, R, /*Warm=*/true);
    else if (Ctx.Workload == "serve-mixed")
      runServeWorkload(Ctx, T, R);
    else
      return usage();
    if (Ctx.Trace && !Ctx.TraceOut.empty() && !T.writeJsonl(Ctx.TraceOut))
      throw std::runtime_error("cannot write spans to " + Ctx.TraceOut);
    R.printResult(Ctx.Trace ? PerLayer : EndToEnd);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  return 0;
}
