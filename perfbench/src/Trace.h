//===- perfbench/src/Trace.h - Spans and timing summaries ------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's span recorder and the two pieces of arithmetic every
/// reported number goes through:
///
///  * summarize(): a timing is reported as its median plus the highest
///    percentile that still has at least ten samples beyond it, with the
///    sample count;
///  * selfTimesNs(): a span's self time is its duration minus the part of
///    its interval that its child spans cover (children may overlap when
///    they ran on several threads, so the covered part is a union).
///
/// Spans are recorded by the benchmark around calls into Brainy's public
/// functions, kept in memory, and written out as JSON lines when the run
/// ends. A disabled Tracer records nothing, which is how untraced runs
/// measure end-to-end numbers without tracing cost.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t nowNs();

/// Monotonic seconds (steady clock).
inline double nowS() { return static_cast<double>(nowNs()) * 1e-9; }

/// Nearest-rank percentile of an ascending \p Sorted sample (\p Pct in
/// (0, 100]); 0 for an empty sample.
double percentileOfSorted(const std::vector<double> &Sorted, double Pct);

/// The median of \p Values (mean of the middle pair for an even count);
/// 0 for an empty sample.
double median(std::vector<double> Values);

/// A timing distribution reduced by the reporting rule.
struct Dist {
  size_t N = 0;
  double P50 = 0;
  /// The highest percentile of {99.9, 99, 95, 90, 75, 50} whose
  /// nearest-rank position leaves at least ten samples beyond it; 0 when
  /// no percentile qualifies (fewer than 20 samples).
  double TailPct = 0;
  double Tail = 0;
  /// The p99 itself, and how many samples lie beyond it.
  double P99 = 0;
  size_t BeyondP99 = 0;
};

/// Applies the reporting rule to \p Values.
Dist summarize(std::vector<double> Values);

/// "p50=… p99=… (n=…)" rendering of \p D, values scaled by \p Scale.
std::string formatDist(const Dist &D, double Scale, const char *Unit);

/// One recorded span. Id 0 is "no span"; ids are 1-based indices.
struct Span {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Request = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// Thread-safe in-memory span recorder.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return Enabled; }

  /// Opens a span now; returns its id (0 when disabled).
  uint64_t begin(const std::string &Name, uint64_t Parent = 0,
                 uint64_t Request = 0);
  /// Closes span \p Id now (no-op for id 0).
  void end(uint64_t Id);
  /// Records a span whose interval was measured by the caller.
  uint64_t record(const std::string &Name, uint64_t Parent, uint64_t Request,
                  int64_t StartNs, int64_t EndNs);

  std::vector<Span> spans() const;

  /// Writes every span as one JSON object per line. Returns false on an
  /// I/O error.
  bool writeJsonl(const std::string &Path) const;

private:
  const bool Enabled;
  mutable std::mutex M;
  std::vector<Span> Spans;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const std::string &Name, uint64_t Parent = 0,
             uint64_t Request = 0)
      : T(T), Id(T.begin(Name, Parent, Request)) {}
  ~ScopedSpan() { T.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  uint64_t id() const { return Id; }

private:
  Tracer &T;
  uint64_t Id;
};

/// Self time of every span in \p Spans (same order): its duration minus
/// the union of its children's intervals clipped to its own.
std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans);

/// Per-name totals; a name's "[k]" suffix is dropped so the six
/// per-family spans of one phase aggregate together.
struct NameTotals {
  size_t Count = 0;
  double TotalS = 0;
  double SelfS = 0;
};
std::map<std::string, NameTotals> totalsByName(const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
