//===- machine/BranchPredictor.cpp ----------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "machine/BranchPredictor.h"

using namespace brainy;

void BranchPredictor::reset() {
  // Weakly not-taken start: rare exceptional paths mispredict immediately,
  // matching the paper's resize-branch observation.
  Counters.fill(1);
  PerSiteMiss.fill(0);
  Branches = 0;
  Mispredicts = 0;
}

const char *brainy::branchSiteName(BranchSite Site) {
  switch (Site) {
  case BranchSite::VectorResizeCheck:
    return "vector-resize-check";
  case BranchSite::VectorShiftLoop:
    return "vector-shift-loop";
  case BranchSite::ListWalkLoop:
    return "list-walk-loop";
  case BranchSite::TreeCompareLeft:
    return "tree-compare-left";
  case BranchSite::TreeRebalance:
    return "tree-rebalance";
  case BranchSite::HashBucketWalk:
    return "hash-bucket-walk";
  case BranchSite::HashResizeCheck:
    return "hash-resize-check";
  case BranchSite::SearchHit:
    return "search-hit";
  case BranchSite::IterContinue:
    return "iter-continue";
  case BranchSite::NumSites:
    break;
  }
  return "invalid-branch-site";
}
