//===- tests/golden_bundle.cpp - Trainer output pinned byte for byte ------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Trains through the library with the options the CLI uses and compares
// the bundle (and, for core2, the measurement cache) against committed
// fixtures in tests/data/formats/, so any change to the simulator, the
// containers, the event path, the feature pipeline or the trainers that
// moves a single output byte fails here. The fixtures come from:
//
//   brainy train --machine core2 --target 2 --seeds 60
//     --measurement-cache mcache_core2.txt -o bundle_core2.txt
//   brainy train --machine atom --target 2 --seeds 60 --jobs 4
//     -o bundle_atom.txt
//
// Training is byte-identical across job counts, so the tests run at
// Jobs=4 for speed. Regenerating a fixture is a deliberate step: a
// behaviour change that moves these bytes must say why.
//
//===----------------------------------------------------------------------===//

#include "core/Brainy.h"
#include "support/Envelope.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

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

/// The options `brainy train --target 2 --seeds 60 --jobs 4` trains with.
TrainOptions cliTrainOptions() {
  TrainOptions Opts;
  Opts.GenConfig = AppConfig::fromString(AppConfig::sampleConfigText());
  Opts.TargetPerDs = 2;
  Opts.MaxSeeds = 60;
  Opts.Jobs = 4;
  return Opts;
}

TEST(GoldenBundleTest, Core2BundleAndMeasurementCacheMatchFixtures) {
  TrainOptions Opts = cliTrainOptions();
  Opts.MeasurementCacheFile = ::testing::TempDir() + "golden_mcache_core2.txt";
  std::remove(Opts.MeasurementCacheFile.c_str()); // Train cold.

  Brainy B = Brainy::train(Opts, MachineConfig::core2());
  EXPECT_EQ(B.toString(), bytesOf(fixture("bundle_core2.txt")));
  EXPECT_EQ(bytesOf(Opts.MeasurementCacheFile),
            bytesOf(fixture("mcache_core2.txt")));
  std::remove(Opts.MeasurementCacheFile.c_str());
}

TEST(GoldenBundleTest, AtomBundleMatchesFixture) {
  Brainy B = Brainy::train(cliTrainOptions(), MachineConfig::atom());
  EXPECT_EQ(B.toString(), bytesOf(fixture("bundle_atom.txt")));
}

} // namespace
