//===- perfbench/src/selftest.cpp - Checks of the reporting arithmetic ----===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Checks the two rules every benchmark number passes through: the
// percentile rule (median plus the highest percentile with at least ten
// samples beyond it) and the self-time arithmetic of the span recorder.
// Exits 0 when every check holds, 1 otherwise. run.py runs it after each
// build, before any measurement.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  if (!Ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", What.c_str());
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-12; }

std::vector<double> oneTo(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

void percentileRule() {
  // 1..1000: p99 is the 990th value, with exactly ten samples beyond it;
  // p99.9 (999th) would leave one, so p99 is the reported tail.
  Dist D = summarize(oneTo(1000));
  check(D.N == 1000, "sample count 1000");
  check(near(D.P50, 500.5), "median of 1..1000 is 500.5");
  check(D.TailPct == 99.0 && near(D.Tail, 990), "1..1000 reports p99=990");
  check(near(D.P99, 990) && D.BeyondP99 == 10, "p99 of 1..1000, 10 beyond");

  // 1..999: p99 is the 990th value (ceil(989.01)) with 9 beyond — too few,
  // so the rule falls back to p95 (950th value, 49 beyond).
  D = summarize(oneTo(999));
  check(D.TailPct == 95.0 && near(D.Tail, 950), "1..999 falls back to p95");
  check(D.BeyondP99 == 9, "1..999 has 9 samples beyond p99");

  // 10000 samples: p99.9 (9990th) leaves exactly ten.
  D = summarize(oneTo(10000));
  check(D.TailPct == 99.9 && near(D.Tail, 9990), "1..10000 reports p99.9");

  // 19 samples: even the median leaves only 9 beyond — no tail.
  D = summarize(oneTo(19));
  check(D.TailPct == 0 && near(D.P50, 10), "19 samples report no tail");

  // 20 samples: the median (10th) leaves ten.
  D = summarize(oneTo(20));
  check(D.TailPct == 50.0 && near(D.Tail, 10), "20 samples report p50 tail");

  // Order of the input does not matter.
  std::vector<double> Shuffled = {5, 1, 4, 2, 3};
  check(near(median(Shuffled), 3), "median of a shuffled sample");
  check(near(percentileOfSorted({1, 2, 3, 4}, 50), 2), "nearest-rank p50");
  check(summarize({}).N == 0, "empty sample");
}

Span mk(uint64_t Id, uint64_t Parent, int64_t B, int64_t E) {
  Span S;
  S.Name = "s" + std::to_string(Id);
  S.Id = Id;
  S.Parent = Parent;
  S.StartNs = B;
  S.EndNs = E;
  return S;
}

void selfTimes() {
  // Root [0,100] with children [10,30], [20,50] (overlapping: they ran on
  // two threads) and [90,120] (clipped to the root). Covered =
  // [10,50] ∪ [90,100] = 50, so the root's self time is 50.
  // Child 2 has a grandchild [25,35]: its self time is 30 - 10 = 20.
  std::vector<Span> S = {mk(1, 0, 0, 100), mk(2, 1, 10, 30),
                         mk(3, 1, 20, 50), mk(4, 1, 90, 120),
                         mk(5, 3, 25, 35)};
  std::vector<int64_t> Self = selfTimesNs(S);
  check(Self[0] == 50, "root self time = 100 - |[10,50] u [90,100]|");
  check(Self[1] == 20, "leaf self time is its duration");
  check(Self[2] == 20, "child self time minus its grandchild");
  check(Self[3] == 30, "leaf outside the root keeps its duration");
  check(Self[4] == 10, "grandchild self time");

  // Disjoint children sum; a child nested in another child of the same
  // parent does not double-count.
  S = {mk(1, 0, 0, 10), mk(2, 1, 1, 3), mk(3, 1, 5, 9), mk(4, 1, 6, 7)};
  check(selfTimesNs(S)[0] == 4, "root self time with disjoint children");

  // "[k]" suffixes aggregate: two family spans count under one name.
  S = {mk(1, 0, 0, 10), mk(2, 1, 0, 4), mk(3, 1, 4, 6)};
  S[1].Name = "phaseTwo[0]";
  S[2].Name = "phaseTwo[1]";
  auto Totals = totalsByName(S);
  check(Totals["phaseTwo"].Count == 2, "per-family spans aggregate");
  check(near(Totals["phaseTwo"].TotalS, 6e-9), "aggregate duration");
  check(near(Totals["s1"].SelfS, 4e-9), "aggregate self time");

  // A live recorder nests through explicit parents and keeps order.
  Tracer T(true);
  {
    ScopedSpan Root(T, "root");
    ScopedSpan Kid(T, "kid", Root.id(), 7);
  }
  std::vector<Span> Live = T.spans();
  check(Live.size() == 2 && Live[1].Parent == Live[0].Id &&
            Live[1].Request == 7,
        "recorder keeps parent and request ids");
  check(Live[0].StartNs <= Live[1].StartNs && Live[1].EndNs <= Live[0].EndNs,
        "child interval nests in the parent's");
  Tracer Off(false);
  { ScopedSpan X(Off, "x"); }
  check(Off.spans().empty(), "disabled recorder records nothing");
}

} // namespace

int main() {
  percentileRule();
  selfTimes();
  if (Failures) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", Failures);
    return 1;
  }
  std::printf("selftest: percentile rule and self-time arithmetic ok\n");
  return 0;
}
