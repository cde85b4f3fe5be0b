//===- tests/measurement_store_test.cpp - Persistent measurements ---------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// The on-disk MeasurementCache (DESIGN.md §12):
//
//  * brainy-mcache files round-trip bit-exactly (%a cycle values) and
//    re-serialise byte-identically;
//  * the config fingerprint rejects measurements recorded under different
//    generator or machine parameters;
//  * corruption, truncation at every offset, and injected I/O faults all
//    degrade to recompute — a bad cache file never changes a result and
//    never half-restores;
//  * a warm `Brainy::train` rerun is byte-identical to the cold run, hits
//    the cache for every Phase I measurement, and stays identical when the
//    job count changes;
//  * Phase I keeps exactly the serial run's measurements at any job count:
//    the saved bytes match, a warm rerun at another job count measures
//    nothing, and extending a cached seed range reproduces the serial run.
//
//===----------------------------------------------------------------------===//

#include "core/Brainy.h"
#include "core/MeasurementStore.h"
#include "core/TrainingFramework.h"
#include "support/FaultInjector.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace brainy;

namespace {

struct FaultGuard {
  explicit FaultGuard(const std::string &Spec) {
    Error E = FaultInjector::instance().configure(Spec);
    EXPECT_FALSE(E) << E.message();
  }
  ~FaultGuard() { FaultInjector::instance().clear(); }
};

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "brainy_mstore_" + Name;
}

TrainOptions tinyOptions() {
  TrainOptions Opts;
  Opts.TargetPerDs = 3;
  Opts.MaxSeeds = 200;
  Opts.GenConfig.TotalInterfCalls = 120;
  Opts.GenConfig.MaxInitialSize = 200;
  Opts.Net.Epochs = 10;
  Opts.Jobs = 1;
  return Opts;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Fills \p Cache with awkward cycle values: fractions whose decimal
/// rendering would round, and huge magnitudes — exactly what %a must carry
/// through unchanged. (In place: the cache owns a mutex, so it cannot be
/// returned by value.)
void populateCache(MeasurementCache &Cache) {
  CycleRecord A;
  A.Seed = 3;
  A.Mask = (1u << 0) | (1u << 4);
  A.Cycles[0] = 70223698.0;
  A.Cycles[4] = 0.1 + 0.2; // not exactly 0.3 — must survive bit-for-bit
  Cache.restoreRecord(A);
  CycleRecord B;
  B.Seed = 90000000001ull;
  B.Mask = (1u << 2);
  B.Cycles[2] = 1.5e18;
  Cache.restoreRecord(B);
}

void expectSameRecords(const MeasurementCache &A, const MeasurementCache &B) {
  std::vector<CycleRecord> RA = A.records();
  std::vector<CycleRecord> RB = B.records();
  ASSERT_EQ(RA.size(), RB.size());
  for (size_t I = 0; I != RA.size(); ++I) {
    EXPECT_EQ(RA[I].Seed, RB[I].Seed);
    EXPECT_EQ(RA[I].Mask, RB[I].Mask);
    for (unsigned K = 0; K != NumDsKinds; ++K) {
      if (RA[I].Mask & (1u << K)) {
        EXPECT_EQ(RA[I].Cycles[K], RB[I].Cycles[K])
            << "seed " << RA[I].Seed << " kind " << K;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Fingerprint
//===----------------------------------------------------------------------===//

TEST(MeasurementStoreTest, FingerprintSeesEveryRelevantKnob) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  uint64_t Base = measurementFingerprint(Gen, MC);
  EXPECT_EQ(Base, measurementFingerprint(Gen, MC)) << "not deterministic";

  AppConfig Gen2 = Gen;
  Gen2.TotalInterfCalls += 1;
  EXPECT_NE(Base, measurementFingerprint(Gen2, MC));

  AppConfig Gen3 = Gen;
  Gen3.OpDropProb += 0.001;
  EXPECT_NE(Base, measurementFingerprint(Gen3, MC));

  MachineConfig MC2 = MC;
  MC2.L1.SizeBytes *= 2;
  EXPECT_NE(Base, measurementFingerprint(Gen, MC2));

  MachineConfig MC3 = MC;
  MC3.StreamHitCycles += 0.25;
  EXPECT_NE(Base, measurementFingerprint(Gen, MC3));

  EXPECT_NE(measurementFingerprint(Gen, MachineConfig::core2()),
            measurementFingerprint(Gen, MachineConfig::atom()));
}

//===----------------------------------------------------------------------===//
// Round trip
//===----------------------------------------------------------------------===//

TEST(MeasurementStoreTest, SaveLoadRoundTripsBitExactly) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  MeasurementCache Cache;
  populateCache(Cache);
  std::string Path = tmpPath("roundtrip.txt");

  size_t Saved = 0;
  Error E = saveMeasurements(Path, Cache, Gen, MC, &Saved);
  ASSERT_FALSE(E) << E.message();
  EXPECT_EQ(Saved, 2u);

  MeasurementCache Loaded;
  Expected<size_t> Count = loadMeasurements(Path, Loaded, Gen, MC);
  ASSERT_TRUE(static_cast<bool>(Count)) << Count.error().message();
  EXPECT_EQ(*Count, 2u);
  expectSameRecords(Cache, Loaded);

  // Restored records are not fresh measurements.
  EXPECT_EQ(Loaded.freshMeasurements(), 0u);

  // Serialise → parse → serialise is byte-identical: the save format has
  // one spelling per cache, so warm reruns rewrite the file bit-for-bit.
  EXPECT_EQ(measurementsToString(Cache, Gen, MC),
            measurementsToString(Loaded, Gen, MC));
  std::remove(Path.c_str());
}

TEST(MeasurementStoreTest, MergeCountsFreshButRestoreDoesNot) {
  MeasurementCache Cache;
  CycleRecord R;
  R.Seed = 11;
  R.Mask = (1u << 1) | (1u << 3);
  R.Cycles[1] = 2.0;
  R.Cycles[3] = 4.0;
  Cache.restoreRecord(R);
  EXPECT_EQ(Cache.freshMeasurements(), 0u);

  // Re-merging the restored bits learns nothing; one new bit counts once.
  Cache.mergeRecord(R);
  EXPECT_EQ(Cache.freshMeasurements(), 0u);
  CycleRecord R2 = R;
  R2.Mask = (1u << 1) | (1u << 5);
  R2.Cycles[5] = 8.0;
  Cache.mergeRecord(R2);
  EXPECT_EQ(Cache.freshMeasurements(), 1u);
}

//===----------------------------------------------------------------------===//
// Failure paths: every bad file degrades to recompute
//===----------------------------------------------------------------------===//

TEST(MeasurementStoreTest, MissingFileIsPlainIoError) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  MeasurementCache Cache;
  Expected<size_t> Count =
      loadMeasurements(tmpPath("does_not_exist.txt"), Cache, Gen, MC);
  ASSERT_FALSE(static_cast<bool>(Count));
  EXPECT_EQ(Count.error().code(), ErrCode::IoError);
  EXPECT_EQ(Cache.seeds(), 0u);
}

TEST(MeasurementStoreTest, RejectsEveryHeaderAndPayloadCorruption) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  MeasurementCache Seeded;
  populateCache(Seeded);
  std::string Good = measurementsToString(Seeded, Gen, MC);

  auto ParseInto = [&](const std::string &Text, const AppConfig &G,
                       const MachineConfig &M) {
    MeasurementCache Cache;
    Expected<size_t> Count = parseMeasurements(Text, Cache, G, M);
    EXPECT_EQ(Cache.seeds(), 0u) << "failed parse touched the cache";
    return Count;
  };

  auto CodeOf = [&](const std::string &Text) {
    Expected<size_t> Count = ParseInto(Text, Gen, MC);
    EXPECT_FALSE(static_cast<bool>(Count));
    return Count ? ErrCode::Ok : Count.error().code();
  };

  EXPECT_EQ(CodeOf(""), ErrCode::Truncated);
  EXPECT_EQ(CodeOf("brainy-bundle v2\n"), ErrCode::BadMagic);
  std::string BadVersion = Good;
  BadVersion.replace(BadVersion.find("v1"), 2, "v9");
  EXPECT_EQ(CodeOf(BadVersion), ErrCode::BadVersion);

  // Payload byte flip → checksum.
  std::string Flipped = Good;
  Flipped[Flipped.size() - 2] ^= 0x20;
  EXPECT_EQ(CodeOf(Flipped), ErrCode::BadChecksum);

  // Trailing garbage after the declared payload.
  EXPECT_EQ(CodeOf(Good + "extra\n"), ErrCode::BadFormat);

  // Wrong machine and wrong generator config are distinct rejections.
  Expected<size_t> Wrong =
      ParseInto(Good, Gen, MachineConfig::atom());
  ASSERT_FALSE(static_cast<bool>(Wrong));
  EXPECT_EQ(Wrong.error().code(), ErrCode::MachineMismatch);
  AppConfig Gen2 = Gen;
  Gen2.TotalInterfCalls += 1;
  Expected<size_t> Stale = ParseInto(Good, Gen2, MC);
  ASSERT_FALSE(static_cast<bool>(Stale));
  EXPECT_EQ(Stale.error().code(), ErrCode::TagMismatch);
}

TEST(MeasurementStoreTest, TruncationAtEveryOffsetNeverHalfRestores) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  MeasurementCache Seeded;
  populateCache(Seeded);
  std::string Good = measurementsToString(Seeded, Gen, MC);
  for (size_t Len = 0; Len != Good.size(); ++Len) {
    MeasurementCache Cache;
    Expected<size_t> Count =
        parseMeasurements(Good.substr(0, Len), Cache, Gen, MC);
    EXPECT_FALSE(static_cast<bool>(Count)) << "prefix of " << Len
                                           << " bytes parsed";
    EXPECT_EQ(Cache.seeds(), 0u) << "prefix of " << Len
                                 << " bytes half-restored";
  }
}

TEST(MeasurementStoreTest, InjectedIoFaultsFailSaveAndLoadCleanly) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  MeasurementCache Cache;
  populateCache(Cache);
  std::string Path = tmpPath("faulted.txt");
  std::remove(Path.c_str());

  {
    FaultGuard Guard("io:1:7");
    Error E = saveMeasurements(Path, Cache, Gen, MC);
    ASSERT_TRUE(static_cast<bool>(E));
    EXPECT_EQ(E.code(), ErrCode::FaultInjected);
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    EXPECT_EQ(F, nullptr) << "failed save left a file behind";
    if (F)
      std::fclose(F);

    MeasurementCache Loaded;
    Expected<size_t> Count = loadMeasurements(Path, Loaded, Gen, MC);
    ASSERT_FALSE(static_cast<bool>(Count));
    EXPECT_EQ(Count.error().code(), ErrCode::FaultInjected);
    EXPECT_EQ(Loaded.seeds(), 0u);
  }

  // Injector cleared: the same calls succeed.
  ASSERT_FALSE(saveMeasurements(Path, Cache, Gen, MC));
  MeasurementCache Loaded;
  ASSERT_TRUE(static_cast<bool>(loadMeasurements(Path, Loaded, Gen, MC)));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Warm training runs
//===----------------------------------------------------------------------===//

TEST(MeasurementStoreTest, WarmTrainIsByteIdenticalAndFullyCached) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = tmpPath("warm_cache.txt");
  std::remove(Path.c_str());

  TrainOptions Opts = tinyOptions();
  Opts.MeasurementCacheFile = Path;
  std::string Cold = Brainy::train(Opts, MC).toString();

  // The warm framework restores the cold run's measurements and then
  // answers every Phase I lookup from them: zero fresh measurements.
  {
    TrainingFramework Warm(Opts, MC);
    EXPECT_GT(Warm.loadedMeasurements(), 0u);
    Warm.phaseOneAll();
    EXPECT_EQ(Warm.measurements().freshMeasurements(), 0u);
  }

  // Warm retrain: byte-identical bundle.
  EXPECT_EQ(Brainy::train(Opts, MC).toString(), Cold);

  // Warm retrain under a different job count: still byte-identical.
  TrainOptions Parallel = Opts;
  Parallel.Jobs = 3;
  EXPECT_EQ(Brainy::train(Parallel, MC).toString(), Cold);
  std::remove(Path.c_str());
}

TEST(MeasurementStoreTest, KeptMeasurementsAreIdenticalAcrossJobs) {
  MachineConfig MC = MachineConfig::core2();
  TrainOptions Serial = tinyOptions();
  TrainingFramework SerialFw(Serial, MC);
  SerialFw.phaseOneAll();
  std::string Want =
      measurementsToString(SerialFw.measurements(), Serial.GenConfig, MC);
  uint64_t SerialFresh = SerialFw.measurements().freshMeasurements();
  EXPECT_EQ(SerialFw.measurements().speculativeMeasurements(), 0u)
      << "one executor always sees the current frontier";

  for (unsigned Jobs : {2u, 4u}) {
    TrainOptions Opts = tinyOptions();
    Opts.Jobs = Jobs;
    TrainingFramework Fw(Opts, MC);
    Fw.phaseOneAll();
    EXPECT_EQ(measurementsToString(Fw.measurements(), Opts.GenConfig, MC),
              Want)
        << "Jobs=" << Jobs << " saved different measurements";
    // Every simulation is counted; the ones beyond the serial set are
    // exactly the speculative ones.
    EXPECT_EQ(Fw.measurements().freshMeasurements() -
                  Fw.measurements().speculativeMeasurements(),
              SerialFresh)
        << "Jobs=" << Jobs;
  }
}

TEST(MeasurementStoreTest, WarmRerunAtAnotherJobCountMeasuresNothing) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = tmpPath("cross_jobs_cache.txt");
  for (auto [ColdJobs, WarmJobs] : {std::pair{1u, 4u}, std::pair{4u, 1u}}) {
    std::remove(Path.c_str());
    TrainOptions Cold = tinyOptions();
    Cold.Jobs = ColdJobs;
    TrainingFramework ColdFw(Cold, MC);
    ColdFw.phaseOneAll();
    ASSERT_FALSE(saveMeasurements(Path, ColdFw.measurements(),
                                  Cold.GenConfig, MC));

    TrainOptions Warm = Cold;
    Warm.Jobs = WarmJobs;
    Warm.MeasurementCacheFile = Path;
    TrainingFramework WarmFw(Warm, MC);
    EXPECT_GT(WarmFw.loadedMeasurements(), 0u);
    WarmFw.phaseOneAll();
    EXPECT_EQ(WarmFw.measurements().freshMeasurements(), 0u)
        << "Jobs=" << WarmJobs << " rerun of a Jobs=" << ColdJobs
        << " cache simulated";
  }
  std::remove(Path.c_str());
}

TEST(MeasurementStoreTest, ExtendingTheCachedSeedRangeMatchesSerial) {
  MachineConfig MC = MachineConfig::core2();
  TrainOptions Serial = tinyOptions();
  std::string WantBundle = Brainy::train(Serial, MC).toString();
  TrainingFramework SerialFw(Serial, MC);
  SerialFw.phaseOneAll();
  std::string WantCache =
      measurementsToString(SerialFw.measurements(), Serial.GenConfig, MC);

  // Cache the first half of the seed budget, then train over the whole
  // budget from it: the cached half is answered from disk, the rest is
  // raced as in a cold start.
  std::string Path = tmpPath("extend_cache.txt");
  std::remove(Path.c_str());
  TrainOptions Opts = tinyOptions();
  Opts.Jobs = 4;
  Opts.MeasurementCacheFile = Path;
  TrainOptions Short = Opts;
  Short.MaxSeeds = Opts.MaxSeeds / 2;
  (void)Brainy::train(Short, MC);

  EXPECT_EQ(Brainy::train(Opts, MC).toString(), WantBundle);
  EXPECT_EQ(readFile(Path), WantCache);
  std::remove(Path.c_str());
}

TEST(MeasurementStoreTest, CorruptCacheFileFallsBackToRecompute) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = tmpPath("corrupt_cache.txt");

  TrainOptions Opts = tinyOptions();
  Opts.MeasurementCacheFile = Path;
  std::string Cold = Brainy::train(Opts, MC).toString();

  // Corrupt the file on disk: the warm run must detect it (checksum),
  // recompute everything, produce the identical bundle, and rewrite a
  // valid cache.
  {
    std::FILE *F = std::fopen(Path.c_str(), "rb+");
    ASSERT_NE(F, nullptr);
    std::fseek(F, -3, SEEK_END);
    std::fputc('!', F);
    std::fclose(F);
  }
  {
    TrainingFramework Corrupted(Opts, MC);
    EXPECT_EQ(Corrupted.loadedMeasurements(), 0u);
  }
  EXPECT_EQ(Brainy::train(Opts, MC).toString(), Cold);

  // The rewrite healed the file: the next run is warm again.
  {
    TrainingFramework Healed(Opts, MC);
    EXPECT_GT(Healed.loadedMeasurements(), 0u);
  }

  // An injected read fault degrades the same way — recompute, same bundle.
  {
    FaultGuard Guard("io:1:3");
    EXPECT_EQ(Brainy::train(Opts, MC).toString(), Cold);
  }
  std::remove(Path.c_str());
}

} // namespace
