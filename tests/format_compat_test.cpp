//===- tests/format_compat_test.cpp - On-disk format compatibility --------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Loads files written by an earlier build of the brainy CLI and checks
// that this build accepts each one and re-renders it byte for byte, so a
// change to the persistence code cannot silently alter a file format. The
// fixtures in tests/data/formats/ come from:
//
//   brainy train --machine core2 --target 2 --seeds 60
//     --measurement-cache mcache_core2.txt --checkpoint ckpt_core2.txt
//     -o bundle_core2.txt
//   brainy trainset --machine core2 --model vector --target 2 --seeds 60
//     -o trainset_vector_core2.tsv
//
// plus serve::syntheticBundleText("core2", "t", 0) as
// synthetic_core2_t_0.txt. Loading the mcache and checkpoint fixtures
// also pins the Fingerprint digests, since a changed hash rejects them.
//
//===----------------------------------------------------------------------===//

#include "core/Brainy.h"
#include "core/Checkpoint.h"
#include "core/MeasurementStore.h"
#include "profile/TraceFile.h"
#include "serve/SyntheticBundle.h"
#include "support/Envelope.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace brainy;

namespace {

std::string fixture(const std::string &Name) {
  return std::string(BRAINY_FORMATS_DIR) + "/" + Name;
}

std::string bytesOf(const std::string &Path) {
  Expected<std::string> Text = readFile(Path);
  EXPECT_TRUE(static_cast<bool>(Text)) << Text.error().message();
  return Text ? *Text : std::string();
}

/// The options `brainy train --machine core2 --target 2 --seeds 60` runs
/// Phase I with.
TrainOptions cliTrainOptions() {
  TrainOptions Opts;
  Opts.GenConfig = AppConfig::fromString(AppConfig::sampleConfigText());
  Opts.TargetPerDs = 2;
  Opts.MaxSeeds = 60;
  return Opts;
}

TEST(FormatCompatTest, BundleLoadsAndSavesByteIdentically) {
  std::string Path = fixture("bundle_core2.txt");
  Expected<Brainy> B = Brainy::load(Path, "core2", "");
  ASSERT_TRUE(static_cast<bool>(B)) << B.error().message();
  for (unsigned M = 0; M != NumModelKinds; ++M)
    EXPECT_TRUE(B->model(static_cast<ModelKind>(M)).trained()) << M;
  EXPECT_EQ(B->toString(), bytesOf(Path));

  std::string Out = ::testing::TempDir() + "brainy_compat_bundle.txt";
  ASSERT_FALSE(B->save(Out));
  EXPECT_EQ(bytesOf(Out), bytesOf(Path));
  std::remove(Out.c_str());
}

TEST(FormatCompatTest, MeasurementCacheLoadsAndSavesByteIdentically) {
  std::string Path = fixture("mcache_core2.txt");
  TrainOptions Opts = cliTrainOptions();
  MachineConfig MC = MachineConfig::core2();
  EXPECT_EQ(Fingerprint::hex(measurementFingerprint(Opts.GenConfig, MC)),
            "59e467176e8a9b2e");

  MeasurementCache Cache;
  Expected<size_t> Count = loadMeasurements(Path, Cache, Opts.GenConfig, MC);
  ASSERT_TRUE(static_cast<bool>(Count)) << Count.error().message();
  EXPECT_EQ(*Count, 60u);

  std::string Out = ::testing::TempDir() + "brainy_compat_mcache.txt";
  ASSERT_FALSE(saveMeasurements(Out, Cache, Opts.GenConfig, MC));
  EXPECT_EQ(bytesOf(Out), bytesOf(Path));
  std::remove(Out.c_str());
}

TEST(FormatCompatTest, CheckpointLoadsAndSavesByteIdentically) {
  std::string Path = fixture("ckpt_core2.txt");
  std::vector<ModelKind> Models;
  for (unsigned M = 0; M != NumModelKinds; ++M)
    Models.push_back(static_cast<ModelKind>(M));
  uint64_t Fp = checkpointFingerprint(cliTrainOptions(),
                                      MachineConfig::core2(), Models,
                                      /*CountUnmatchedSeeds=*/false);
  EXPECT_EQ(Fingerprint::hex(Fp), "9d2e266f3a9160ba");

  Expected<TrainCheckpoint> Ck = loadCheckpoint(Path, Fp, "core2");
  ASSERT_TRUE(static_cast<bool>(Ck)) << Ck.error().message();
  EXPECT_EQ(Ck->NextOffset, 60u);
  EXPECT_FALSE(Ck->Stopped);

  std::string Out = ::testing::TempDir() + "brainy_compat_ckpt.txt";
  ASSERT_FALSE(saveCheckpoint(Out, *Ck, Fp, "core2"));
  EXPECT_EQ(bytesOf(Out), bytesOf(Path));
  std::remove(Out.c_str());
}

TEST(FormatCompatTest, TrainingSetLoadsAndSavesByteIdentically) {
  std::string Path = fixture("trainset_vector_core2.tsv");
  std::vector<TrainExample> Examples;
  ASSERT_TRUE(readTrainingSet(Path, Examples));
  EXPECT_EQ(Examples.size(), 5u);

  std::string Out = ::testing::TempDir() + "brainy_compat_trainset.tsv";
  ASSERT_TRUE(writeTrainingSet(Out, Examples));
  EXPECT_EQ(bytesOf(Out), bytesOf(Path));
  std::remove(Out.c_str());
}

TEST(FormatCompatTest, SyntheticBundleIsUnchanged) {
  std::string Path = fixture("synthetic_core2_t_0.txt");
  EXPECT_EQ(serve::syntheticBundleText("core2", "t", 0), bytesOf(Path));
  Expected<Brainy> B = Brainy::load(Path, "core2", "t");
  ASSERT_TRUE(static_cast<bool>(B)) << B.error().message();
  EXPECT_EQ(B->toString(), bytesOf(Path));
}

} // namespace
