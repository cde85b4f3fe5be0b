//===- tests/adt_test.cpp - DsKind / Container / Table 1 tests ------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "adt/Container.h"
#include "adt/DsKind.h"
#include "machine/MachineModel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

using namespace brainy;

static const DsKind AllKinds[] = {
    DsKind::Vector, DsKind::List,   DsKind::Deque,
    DsKind::Set,    DsKind::AvlSet, DsKind::HashSet,
    DsKind::Map,    DsKind::AvlMap, DsKind::HashMap};

static bool contains(const std::vector<DsKind> &V, DsKind K) {
  return std::find(V.begin(), V.end(), K) != V.end();
}

//===----------------------------------------------------------------------===//
// DsKind metadata
//===----------------------------------------------------------------------===//

TEST(DsKindTest, NamesRoundTrip) {
  for (DsKind Kind : AllKinds) {
    DsKind Parsed;
    ASSERT_TRUE(dsKindFromName(dsKindName(Kind), Parsed));
    EXPECT_EQ(Parsed, Kind);
  }
  DsKind Dummy;
  EXPECT_FALSE(dsKindFromName("btree", Dummy));
}

TEST(DsKindTest, Families) {
  EXPECT_TRUE(isSequence(DsKind::Vector));
  EXPECT_TRUE(isSequence(DsKind::Deque));
  EXPECT_FALSE(isSequence(DsKind::Set));
  EXPECT_TRUE(isAssociative(DsKind::HashMap));
  EXPECT_TRUE(isMapFamily(DsKind::AvlMap));
  EXPECT_FALSE(isMapFamily(DsKind::AvlSet));
}

//===----------------------------------------------------------------------===//
// Table 1 replacement rules
//===----------------------------------------------------------------------===//

TEST(Table1Test, VectorRowMatchesPaper) {
  // Order-aware: list and deque only (set family is order-oblivious-only).
  std::vector<DsKind> Aware = replacementCandidates(DsKind::Vector, false);
  EXPECT_TRUE(contains(Aware, DsKind::Vector));
  EXPECT_TRUE(contains(Aware, DsKind::List));
  EXPECT_TRUE(contains(Aware, DsKind::Deque));
  EXPECT_FALSE(contains(Aware, DsKind::Set));
  EXPECT_FALSE(contains(Aware, DsKind::HashSet));
  // Order-oblivious adds set, avl_set, hash_set.
  std::vector<DsKind> OO = replacementCandidates(DsKind::Vector, true);
  EXPECT_EQ(OO.size(), 6u);
  EXPECT_TRUE(contains(OO, DsKind::Set));
  EXPECT_TRUE(contains(OO, DsKind::AvlSet));
  EXPECT_TRUE(contains(OO, DsKind::HashSet));
}

TEST(Table1Test, ListRowMatchesPaper) {
  std::vector<DsKind> Aware = replacementCandidates(DsKind::List, false);
  EXPECT_TRUE(contains(Aware, DsKind::Vector));
  EXPECT_TRUE(contains(Aware, DsKind::Deque));
  EXPECT_FALSE(contains(Aware, DsKind::HashSet));
  std::vector<DsKind> OO = replacementCandidates(DsKind::List, true);
  EXPECT_EQ(OO.size(), 6u);
}

TEST(Table1Test, SetRowMatchesPaper) {
  // avl_set has no limitation; vector/list/hash_set are order-oblivious.
  std::vector<DsKind> Aware = replacementCandidates(DsKind::Set, false);
  EXPECT_EQ(Aware.size(), 2u);
  EXPECT_TRUE(contains(Aware, DsKind::AvlSet));
  std::vector<DsKind> OO = replacementCandidates(DsKind::Set, true);
  EXPECT_TRUE(contains(OO, DsKind::Vector));
  EXPECT_TRUE(contains(OO, DsKind::List));
  EXPECT_TRUE(contains(OO, DsKind::HashSet));
}

TEST(Table1Test, MapRowMatchesPaper) {
  std::vector<DsKind> Aware = replacementCandidates(DsKind::Map, false);
  EXPECT_EQ(Aware.size(), 2u);
  EXPECT_TRUE(contains(Aware, DsKind::AvlMap));
  std::vector<DsKind> OO = replacementCandidates(DsKind::Map, true);
  EXPECT_EQ(OO.size(), 3u);
  EXPECT_TRUE(contains(OO, DsKind::HashMap));
}

TEST(Table1Test, OriginalAlwaysIncludedFirst) {
  for (DsKind Kind : AllKinds)
    for (bool OO : {false, true}) {
      std::vector<DsKind> C = replacementCandidates(Kind, OO);
      ASSERT_FALSE(C.empty());
      EXPECT_EQ(C.front(), Kind);
    }
}

//===----------------------------------------------------------------------===//
// Model families (Section 5)
//===----------------------------------------------------------------------===//

TEST(ModelKindTest, SixFamiliesRouteCorrectly) {
  EXPECT_EQ(modelFor(DsKind::Vector, false), ModelKind::Vector);
  EXPECT_EQ(modelFor(DsKind::Vector, true), ModelKind::VectorOO);
  EXPECT_EQ(modelFor(DsKind::List, true), ModelKind::ListOO);
  EXPECT_EQ(modelFor(DsKind::Set, false), ModelKind::Set);
  EXPECT_EQ(modelFor(DsKind::AvlSet, true), ModelKind::Set);
  EXPECT_EQ(modelFor(DsKind::HashMap, false), ModelKind::Map);
}

TEST(ModelKindTest, OriginalsAndCandidates) {
  EXPECT_EQ(modelOriginal(ModelKind::VectorOO), DsKind::Vector);
  EXPECT_EQ(modelOriginal(ModelKind::Map), DsKind::Map);
  EXPECT_TRUE(modelIsOrderOblivious(ModelKind::VectorOO));
  EXPECT_FALSE(modelIsOrderOblivious(ModelKind::List));
  EXPECT_EQ(modelCandidates(ModelKind::Vector).size(), 3u);
  EXPECT_EQ(modelCandidates(ModelKind::VectorOO).size(), 6u);
}

//===----------------------------------------------------------------------===//
// Container factory + adapter
//===----------------------------------------------------------------------===//

TEST(ContainerTest, FactoryProducesEveryKind) {
  for (DsKind Kind : AllKinds) {
    std::unique_ptr<Container> C = makeContainer(Kind, 16);
    ASSERT_TRUE(C);
    EXPECT_EQ(C->kind(), Kind);
    EXPECT_EQ(C->size(), 0u);
    EXPECT_EQ(C->elementBytes(), 16u);
  }
}

TEST(ContainerTest, UniformSemanticsOnUniqueKeys) {
  // With unique keys, all nine kinds must contain the same key set after
  // the same tape of inserts/erases.
  for (DsKind Kind : AllKinds) {
    std::unique_ptr<Container> C = makeContainer(Kind);
    for (ds::Key K = 0; K != 50; ++K)
      EXPECT_TRUE(C->insert(K * 3).Found);
    EXPECT_EQ(C->size(), 50u);
    for (ds::Key K = 0; K != 50; ++K)
      ASSERT_TRUE(C->find(K * 3).Found) << dsKindName(Kind);
    EXPECT_FALSE(C->find(1).Found);
    EXPECT_TRUE(C->erase(0).Found);
    EXPECT_FALSE(C->erase(0).Found);
    EXPECT_EQ(C->size(), 49u);
  }
}

TEST(ContainerTest, SequencesKeepDuplicatesAssociativesReject) {
  for (DsKind Kind : AllKinds) {
    std::unique_ptr<Container> C = makeContainer(Kind);
    C->insert(7);
    ds::OpResult Second = C->insert(7);
    if (isSequence(Kind)) {
      EXPECT_TRUE(Second.Found);
      EXPECT_EQ(C->size(), 2u);
    } else {
      EXPECT_FALSE(Second.Found);
      EXPECT_EQ(C->size(), 1u);
    }
  }
}

TEST(ContainerTest, PushFrontFallsBackToInsertForAssociative) {
  std::unique_ptr<Container> C = makeContainer(DsKind::Set);
  EXPECT_TRUE(C->pushFront(5).Found);
  EXPECT_TRUE(C->find(5).Found);
  EXPECT_FALSE(C->pushFront(5).Found);
}

TEST(ContainerTest, IterateAndEraseAtWorkEverywhere) {
  for (DsKind Kind : AllKinds) {
    std::unique_ptr<Container> C = makeContainer(Kind);
    for (ds::Key K = 0; K != 20; ++K)
      C->insert(K);
    EXPECT_EQ(C->iterate(20).Cost, 20u) << dsKindName(Kind);
    EXPECT_TRUE(C->eraseAt(5).Found);
    EXPECT_EQ(C->size(), 19u);
    C->clear();
    EXPECT_EQ(C->size(), 0u);
  }
}

TEST(ContainerTest, ResizeCountOnlyForArrayAndHashKinds) {
  for (DsKind Kind : AllKinds) {
    std::unique_ptr<Container> C = makeContainer(Kind);
    for (ds::Key K = 0; K != 200; ++K)
      C->insert(K);
    bool Resizes = C->resizeCount() > 0;
    bool Expected = Kind == DsKind::Vector || Kind == DsKind::Deque ||
                    Kind == DsKind::HashSet || Kind == DsKind::HashMap;
    EXPECT_EQ(Resizes, Expected) << dsKindName(Kind);
  }
}

TEST(ContainerTest, SimMemoryReflectsStructureOverheads) {
  // At equal payloads: list > vector (per-node links), hash has the bucket
  // array, trees carry per-node link words.
  auto Live = [](DsKind Kind) {
    std::unique_ptr<Container> C = makeContainer(Kind, 8);
    for (ds::Key K = 0; K != 256; ++K)
      C->insert(K);
    return C->simLiveBytes();
  };
  EXPECT_GT(Live(DsKind::List), Live(DsKind::Vector));
  EXPECT_GT(Live(DsKind::Set), Live(DsKind::Vector));
  EXPECT_GT(Live(DsKind::HashSet), 256u * 16);
}

TEST(ContainerTest, OpRecordsReachTheListenerInCallOrder) {
  // Op summaries are not events: each interface call's record reaches the
  // listener as the call returns, while the hardware events it caused are
  // still waiting in the model's buffer.
  using Record = std::tuple<ContainerOp, bool, uint64_t, uint64_t>;
  struct Recorder final : OpListener {
    std::vector<Record> Ops;
    void onOp(ContainerOp Op, bool Found, uint64_t Cost,
              uint64_t SizeAfter) override {
      Ops.emplace_back(Op, Found, Cost, SizeAfter);
    }
  };
  for (DsKind Kind : AllKinds) {
    MachineModel Model(MachineConfig::core2());
    std::unique_ptr<Container> C = makeContainer(Kind, 8, &Model);
    Recorder Rec;
    C->setOpListener(&Rec);
    std::vector<Record> Want;
    auto Check = [&](ContainerOp Op, ds::OpResult R) {
      Want.emplace_back(Op, R.Found, R.Cost, C->size());
      EXPECT_EQ(Rec.Ops, Want) << dsKindName(Kind);
    };
    for (ds::Key K = 0; K != 20; ++K)
      Check(ContainerOp::Insert, C->insert(K * 7));
    Check(ContainerOp::InsertAt, C->insertAt(3, 1000));
    Check(ContainerOp::PushFront, C->pushFront(-5));
    Check(ContainerOp::Find, C->find(49));
    Check(ContainerOp::Find, C->find(50));
    Check(ContainerOp::Iterate, C->iterate(6));
    Check(ContainerOp::Erase, C->erase(14));
    Check(ContainerOp::Erase, C->erase(15));
    Check(ContainerOp::EraseAt, C->eraseAt(2));
    EXPECT_FALSE(Model.events().empty()) << dsKindName(Kind);
  }
}
