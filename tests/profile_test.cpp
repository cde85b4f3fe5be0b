//===- tests/profile_test.cpp - profiling layer tests ---------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "profile/Features.h"
#include "profile/ProfiledContainer.h"
#include "profile/TraceFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

using namespace brainy;

//===----------------------------------------------------------------------===//
// ProfiledContainer
//===----------------------------------------------------------------------===//

TEST(ProfiledContainerTest, CountsEveryInterfaceFunction) {
  ProfiledContainer C(makeContainer(DsKind::Vector, 8));
  C.insert(1);
  C.insert(2);
  C.insertAt(1, 3);
  C.pushFront(0);
  C.find(2);
  C.find(99);
  C.erase(2);
  C.eraseAt(0);
  C.iterate(3);

  const SoftwareFeatures &Sw = C.features();
  EXPECT_EQ(Sw.InsertCount, 2u);
  EXPECT_EQ(Sw.InsertAtCount, 1u);
  EXPECT_EQ(Sw.PushFrontCount, 1u);
  EXPECT_EQ(Sw.FindCount, 2u);
  EXPECT_EQ(Sw.FindHits, 1u);
  EXPECT_EQ(Sw.EraseCount, 1u);
  EXPECT_EQ(Sw.EraseAtCount, 1u);
  EXPECT_EQ(Sw.EraseHits, 2u);
  EXPECT_EQ(Sw.IterateCount, 1u);
  EXPECT_EQ(Sw.IterateSteps, 3u);
  EXPECT_EQ(Sw.totalCalls(), 9u);
  EXPECT_EQ(Sw.ElementBytes, 8u);
}

TEST(ProfiledContainerTest, CostsAccumulate) {
  ProfiledContainer C(makeContainer(DsKind::Vector, 8));
  for (ds::Key K = 0; K != 10; ++K)
    C.insert(K);
  C.find(9); // touches all 10
  EXPECT_EQ(C.features().FindCost, 10u);
  C.pushFront(42); // shifts 10
  EXPECT_GE(C.features().InsertCost, 10u);
}

TEST(ProfiledContainerTest, SizeStatsAndResizes) {
  ProfiledContainer C(makeContainer(DsKind::Vector, 8));
  for (ds::Key K = 0; K != 100; ++K)
    C.insert(K);
  const SoftwareFeatures &Sw = C.features();
  EXPECT_EQ(Sw.SizeStats.max(), 100.0);
  EXPECT_GT(Sw.SizeStats.mean(), 0.0);
  EXPECT_GT(Sw.Resizes, 0u);
  EXPECT_GT(Sw.PeakSimBytes, 0u);
}

TEST(ProfiledContainerTest, OrderObliviousDetection) {
  // "Every data access is performed by find" -> order-oblivious.
  ProfiledContainer A(makeContainer(DsKind::Vector, 8));
  A.insert(1);
  A.find(1);
  A.erase(1);
  A.pushFront(2);
  EXPECT_TRUE(A.features().orderOblivious());

  ProfiledContainer B(makeContainer(DsKind::Vector, 8));
  B.insert(1);
  B.iterate(1);
  EXPECT_FALSE(B.features().orderOblivious());

  ProfiledContainer C(makeContainer(DsKind::Vector, 8));
  C.insertAt(0, 1);
  EXPECT_FALSE(C.features().orderOblivious());
}

TEST(ProfiledContainerTest, ResetFeaturesKeepsContents) {
  ProfiledContainer C(makeContainer(DsKind::Set, 8));
  C.insert(1);
  C.resetFeatures();
  EXPECT_EQ(C.features().InsertCount, 0u);
  EXPECT_EQ(C.size(), 1u);
}

TEST(ProfiledContainerTest, SameFeaturesWithAndWithoutMachineModel) {
  // The software-feature half of profiling must not depend on whether the
  // container also feeds a machine model, including mid-run reads and runs
  // long enough to fill the model's event buffer many times over.
  auto Drive = [](ProfiledContainer &C, std::vector<SoftwareFeatures> &Seen) {
    for (ds::Key K = 0; K != 400; ++K) {
      switch (K % 7) {
      case 0:
        C.insertAt(static_cast<uint64_t>(K) % (C.size() + 1), K);
        break;
      case 1:
        C.pushFront(K);
        break;
      case 2:
        C.find(K / 2);
        break;
      case 3:
        C.erase(K - 3);
        break;
      case 4:
        C.eraseAt(static_cast<uint64_t>(K) % (C.size() + 1));
        break;
      case 5:
        C.iterate(1 + K % 9);
        break;
      default:
        C.insert(K);
        break;
      }
      if (K % 100 == 99)
        Seen.push_back(C.features());
    }
  };
  for (DsKind Kind : {DsKind::Vector, DsKind::List, DsKind::Set,
                      DsKind::HashMap}) {
    MachineModel Model(MachineConfig::atom());
    ProfiledContainer Plain(makeContainer(Kind, 24));
    ProfiledContainer Instrumented(makeContainer(Kind, 24, &Model));
    std::vector<SoftwareFeatures> A, B;
    Drive(Plain, A);
    Drive(Instrumented, B);
    EXPECT_GT(Model.counters().L1Accesses, EventBuffer::CapacityWords);
    ASSERT_EQ(A.size(), B.size());
    for (size_t I = 0; I != A.size(); ++I) {
      EXPECT_EQ(A[I].totalCalls(), B[I].totalCalls()) << I;
      EXPECT_EQ(A[I].InsertCost, B[I].InsertCost) << I;
      EXPECT_EQ(A[I].EraseCost, B[I].EraseCost) << I;
      EXPECT_EQ(A[I].FindCost, B[I].FindCost) << I;
      EXPECT_EQ(A[I].IterateSteps, B[I].IterateSteps) << I;
      EXPECT_EQ(A[I].FindHits, B[I].FindHits) << I;
      EXPECT_EQ(A[I].EraseHits, B[I].EraseHits) << I;
      EXPECT_EQ(A[I].SizeStats.count(), B[I].SizeStats.count()) << I;
      EXPECT_EQ(A[I].SizeStats.mean(), B[I].SizeStats.mean()) << I;
      EXPECT_EQ(A[I].SizeStats.variance(), B[I].SizeStats.variance()) << I;
      EXPECT_EQ(A[I].Resizes, B[I].Resizes) << I;
      EXPECT_EQ(A[I].PeakSimBytes, B[I].PeakSimBytes) << I;
      // Every field together, through the feature vector the models read.
      EXPECT_EQ(extractFeatures(A[I], HardwareCounters(), 64).Values,
                extractFeatures(B[I], HardwareCounters(), 64).Values)
          << dsKindName(Kind) << " sample " << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Feature extraction
//===----------------------------------------------------------------------===//

TEST(FeaturesTest, FractionsSumToOne) {
  ProfiledContainer C(makeContainer(DsKind::List, 8));
  for (int I = 0; I != 10; ++I)
    C.insert(I);
  for (int I = 0; I != 30; ++I)
    C.find(I % 10);
  C.iterate(5);
  FeatureVector F = extractFeatures(C.features(), HardwareCounters(), 64);
  double Sum = F[FeatureId::InsertFrac] + F[FeatureId::InsertAtFrac] +
               F[FeatureId::PushFrontFrac] + F[FeatureId::EraseFrac] +
               F[FeatureId::EraseAtFrac] + F[FeatureId::FindFrac] +
               F[FeatureId::IterateFrac];
  EXPECT_NEAR(Sum, 1.0, 1e-9);
  EXPECT_NEAR(F[FeatureId::FindFrac], 30.0 / 41.0, 1e-9);
}

TEST(FeaturesTest, HardwareFeaturesForwarded) {
  HardwareCounters Hw;
  Hw.L1Accesses = 100;
  Hw.L1Misses = 10;
  Hw.Branches = 50;
  Hw.BranchMispredicts = 5;
  Hw.Cycles = 1000;
  Hw.Instructions = 400;
  SoftwareFeatures Sw;
  Sw.FindCount = 10;
  Sw.ElementBytes = 32;
  FeatureVector F = extractFeatures(Sw, Hw, 64);
  EXPECT_DOUBLE_EQ(F[FeatureId::L1MissRate], 0.1);
  EXPECT_DOUBLE_EQ(F[FeatureId::BrMissRate], 0.1);
  EXPECT_DOUBLE_EQ(F[FeatureId::ElemPerBlock], 0.5);
  EXPECT_GT(F[FeatureId::CyclesPerCall], 0.0);
}

TEST(FeaturesTest, ResizeRatioMatchesFigure6Definition) {
  SoftwareFeatures Sw;
  Sw.InsertCount = 90;
  Sw.FindCount = 10;
  Sw.Resizes = 5;
  FeatureVector F = extractFeatures(Sw, HardwareCounters(), 64);
  EXPECT_DOUBLE_EQ(F[FeatureId::ResizeRatio], 0.05);
}

TEST(FeaturesTest, NamesAreUniqueAndStable) {
  std::vector<std::string> Names;
  for (unsigned I = 0; I != NumFeatures; ++I)
    Names.push_back(featureName(static_cast<FeatureId>(I)));
  for (unsigned I = 0; I != NumFeatures; ++I)
    for (unsigned J = I + 1; J != NumFeatures; ++J)
      EXPECT_NE(Names[I], Names[J]);
  EXPECT_EQ(Names[static_cast<unsigned>(FeatureId::BrMissRate)], "br_miss");
  EXPECT_EQ(Names[static_cast<unsigned>(FeatureId::ResizeRatio)],
            "resizing");
}

TEST(FeaturesTest, TsvRoundTrip) {
  FeatureVector F;
  for (unsigned I = 0; I != NumFeatures; ++I)
    F.Values[I] = 0.125 * I - 1.5;
  FeatureVector G;
  ASSERT_TRUE(FeatureVector::fromTsv(F.toTsv(), G));
  for (unsigned I = 0; I != NumFeatures; ++I)
    EXPECT_DOUBLE_EQ(F.Values[I], G.Values[I]);
  FeatureVector Bad;
  EXPECT_FALSE(FeatureVector::fromTsv("1\t2\tnot-enough", Bad));
}

//===----------------------------------------------------------------------===//
// Trace files
//===----------------------------------------------------------------------===//

static std::vector<TrainExample> sampleExamples() {
  std::vector<TrainExample> Out;
  for (unsigned I = 0; I != 5; ++I) {
    TrainExample Ex;
    Ex.Seed = 100 + I;
    Ex.BestDs = I % 2 ? DsKind::HashSet : DsKind::Vector;
    for (unsigned J = 0; J != NumFeatures; ++J)
      Ex.Features.Values[J] = I * 0.5 + J * 0.01;
    Out.push_back(Ex);
  }
  return Out;
}

TEST(TraceFileTest, StringRoundTrip) {
  std::vector<TrainExample> In = sampleExamples();
  std::string Text = trainingSetToString(In);
  std::vector<TrainExample> Out;
  ASSERT_TRUE(trainingSetFromString(Text, Out));
  ASSERT_EQ(Out.size(), In.size());
  for (size_t I = 0; I != In.size(); ++I) {
    EXPECT_EQ(Out[I].Seed, In[I].Seed);
    EXPECT_EQ(Out[I].BestDs, In[I].BestDs);
    for (unsigned J = 0; J != NumFeatures; ++J)
      EXPECT_DOUBLE_EQ(Out[I].Features.Values[J], In[I].Features.Values[J]);
  }
}

TEST(TraceFileTest, FileRoundTrip) {
  std::string Path = ::testing::TempDir() + "/brainy_trace_test.tsv";
  std::vector<TrainExample> In = sampleExamples();
  ASSERT_TRUE(writeTrainingSet(Path, In));
  std::vector<TrainExample> Out;
  ASSERT_TRUE(readTrainingSet(Path, Out));
  EXPECT_EQ(Out.size(), In.size());
  std::remove(Path.c_str());
}

TEST(TraceFileTest, MalformedLinesReported) {
  std::vector<TrainExample> Out;
  EXPECT_FALSE(trainingSetFromString("garbage-without-tabs\n", Out));
  EXPECT_TRUE(Out.empty());
  // Good line + bad line: parse succeeds partially, returns false.
  std::string Mixed = trainingSetToString(sampleExamples());
  Mixed += "badkind\t1\t0\n";
  Out.clear();
  EXPECT_FALSE(trainingSetFromString(Mixed, Out));
  EXPECT_EQ(Out.size(), 5u);
}

TEST(TraceFileTest, MissingFileFails) {
  std::vector<TrainExample> Out;
  EXPECT_FALSE(readTrainingSet("/nonexistent/path.tsv", Out));
}
