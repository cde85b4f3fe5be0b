//===- perfbench/src/Trace.cpp - Spans and timing summaries ---------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentileOfSorted(const std::vector<double> &Sorted, double Pct) {
  if (Sorted.empty())
    return 0;
  // Nearest rank: the smallest value with at least Pct% of the sample at
  // or below it.
  auto Rank = static_cast<size_t>(
      std::ceil(Pct / 100.0 * static_cast<double>(Sorted.size()) - 1e-9));
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  return Sorted[Rank - 1];
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

static size_t beyond(size_t N, double Pct) {
  auto Rank = static_cast<size_t>(
      std::ceil(Pct / 100.0 * static_cast<double>(N) - 1e-9));
  return N - std::clamp<size_t>(Rank, 1, N);
}

Dist summarize(std::vector<double> Values) {
  Dist D;
  D.N = Values.size();
  if (Values.empty())
    return D;
  std::sort(Values.begin(), Values.end());
  D.P50 = median(Values);
  for (double Pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (beyond(D.N, Pct) >= 10) {
      D.TailPct = Pct;
      D.Tail = percentileOfSorted(Values, Pct);
      break;
    }
  }
  D.P99 = percentileOfSorted(Values, 99.0);
  D.BeyondP99 = beyond(D.N, 99.0);
  return D;
}

std::string formatDist(const Dist &D, double Scale, const char *Unit) {
  char Buf[160];
  if (D.TailPct > 0)
    std::snprintf(Buf, sizeof(Buf), "p50=%.4f%s p%g=%.4f%s (n=%zu)",
                  D.P50 * Scale, Unit, D.TailPct, D.Tail * Scale, Unit, D.N);
  else
    std::snprintf(Buf, sizeof(Buf),
                  "p50=%.4f%s (n=%zu, too few samples for a tail)",
                  D.P50 * Scale, Unit, D.N);
  return Buf;
}

uint64_t Tracer::begin(const std::string &Name, uint64_t Parent,
                       uint64_t Request) {
  if (!Enabled)
    return 0;
  int64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  Span S;
  S.Name = Name;
  S.Id = Spans.size() + 1;
  S.Parent = Parent;
  S.Request = Request;
  S.StartNs = Now;
  S.EndNs = Now;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

void Tracer::end(uint64_t Id) {
  if (!Enabled || Id == 0)
    return;
  int64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  if (Id <= Spans.size())
    Spans[Id - 1].EndNs = Now;
}

uint64_t Tracer::record(const std::string &Name, uint64_t Parent,
                        uint64_t Request, int64_t StartNs, int64_t EndNs) {
  if (!Enabled)
    return 0;
  std::lock_guard<std::mutex> Lock(M);
  Span S;
  S.Name = Name;
  S.Id = Spans.size() + 1;
  S.Parent = Parent;
  S.Request = Request;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(M);
  return Spans;
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const Span &S : All)
    std::fprintf(F,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 S.Name.c_str(), static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request),
                 static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs));
  return std::fclose(F) == 0;
}

std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent != 0 && S.Parent <= Spans.size())
      Children[S.Parent - 1].push_back({S.StartNs, S.EndNs});
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    int64_t Covered = 0;
    int64_t RunBegin = 0, RunEnd = 0;
    bool Open = false;
    for (auto [B, E] : Kids) {
      B = std::max(B, P.StartNs);
      E = std::min(E, P.EndNs);
      if (E <= B)
        continue;
      if (Open && B <= RunEnd) {
        RunEnd = std::max(RunEnd, E);
        continue;
      }
      if (Open)
        Covered += RunEnd - RunBegin;
      RunBegin = B;
      RunEnd = E;
      Open = true;
    }
    if (Open)
      Covered += RunEnd - RunBegin;
    Self[I] = (P.EndNs - P.StartNs) - Covered;
  }
  return Self;
}

std::map<std::string, NameTotals> totalsByName(const std::vector<Span> &Spans) {
  std::vector<int64_t> Self = selfTimesNs(Spans);
  std::map<std::string, NameTotals> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    std::string Name = Spans[I].Name;
    size_t Bracket = Name.find('[');
    if (Bracket != std::string::npos)
      Name.resize(Bracket);
    NameTotals &T = Out[Name];
    ++T.Count;
    T.TotalS += static_cast<double>(Spans[I].EndNs - Spans[I].StartNs) * 1e-9;
    T.SelfS += static_cast<double>(Self[I]) * 1e-9;
  }
  return Out;
}

} // namespace perfbench
