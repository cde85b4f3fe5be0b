//===- perfbench/src/ServeBench.cpp - The serving section -----------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Drives a `brainy serve` child on loopback with two traffic shapes at
// once, sharing the server's one dispatcher:
//
//  * group traffic — a closed loop on two connections, each keeping one
//    pipelined 64-query group outstanding (a build tool asking about a
//    whole project);
//  * single traffic — one generator thread sending single queries over two
//    more connections on a seeded open-loop Poisson schedule, at fixed rate
//    steps (an editor plugin asking about one variable). Latency counts
//    from when each query was due, so a stall also charges the queries
//    queued behind it.
//
// Load generation uses two threads and four connections, within the
// 4-CPU budget the workloads were sized for. Every answer is compared
// byte for byte with the scalar answerRecommendQuery answer for its line.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Proc.h"

#include "appgen/AppRunner.h"
#include "core/Recommend.h"
#include "serve/Pipeline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <poll.h>
#include <stdexcept>
#include <thread>

using namespace brainy;

namespace perfbench {

namespace {

/// Queries per pipelined group.
constexpr size_t GroupSize = 64;
/// Open-loop single-query rate steps (queries/s); the first is nominal.
constexpr double RateSteps[] = {1000, 2000, 4000, 8000, 16000};
/// Each session runs the ladder once; a run has at least this many.
constexpr unsigned MinSessions = 3;
constexpr unsigned NumSteps = sizeof(RateSteps) / sizeof(RateSteps[0]);
/// Queries per step: enough for a p99 with ten samples beyond it.
constexpr size_t QueriesPerStep = 1000;
/// A rate step is met when its single-query p99 is within this limit (the
/// editor-plugin budget: an answer within 100 ms feels immediate)...
constexpr double SingleP99LimitS = 0.100;
/// ...and the generator kept to the schedule: its median lateness stays
/// within this (lateness is already charged to latency, which counts from
/// the due time; a generator that falls behind for good would offer less
/// than the step's rate)...
constexpr double LatenessLimitS = 0.0005;
/// ...and every query was answered within this timeout...
constexpr double AnswerTimeoutS = 1.0;
/// ...and the backlog did not grow: the median latency of a step's last
/// quarter exceeds its first quarter's by less than the p99 limit.

uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Seeded stream for schedules and group picks.
struct Stream {
  uint64_t State;
  explicit Stream(uint64_t Seed) : State(mix(Seed)) {}
  uint64_t next() { return mix(State++); }
  /// Uniform in (0, 1].
  double unit() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
};

double sinceS(int64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

/// Throughput is counted in windows of this length and reported as the
/// median window, so a host stall costs the windows it falls in rather
/// than the whole session's average.
constexpr int64_t WindowNs = 100000000;

/// Group answers per second in each whole window from \p BeginNs to
/// \p EndNs, counting the completions in \p DoneNs (ascending).
std::vector<double> throughputWindows(int64_t BeginNs, int64_t EndNs,
                                      const std::vector<int64_t> &DoneNs) {
  std::vector<double> Out(
      static_cast<size_t>(std::max<int64_t>(0, EndNs - BeginNs) / WindowNs),
      0);
  for (int64_t T : DoneNs) {
    if (T < BeginNs)
      continue;
    auto W = static_cast<size_t>((T - BeginNs) / WindowNs);
    if (W < Out.size())
      Out[W] += static_cast<double>(GroupSize) * 1e9 / WindowNs;
  }
  return Out;
}

struct ServerStats {
  bool Ok = false;
  uint64_t Queries = 0, Batches = 0, MaxBatch = 0;
};

ServerStats askStats(LineConn &C) {
  ServerStats S;
  std::string Line;
  if (!C.send("!stats\n") || !C.readLine(Line, 5))
    return S;
  unsigned long long Q = 0, B = 0, M = 0;
  S.Ok = std::sscanf(Line.c_str(), "stats queries=%llu batches=%llu "
                                   "max-batch=%llu",
                     &Q, &B, &M) == 3;
  S.Queries = Q;
  S.Batches = B;
  S.MaxBatch = M;
  return S;
}

std::string groupText(const QuerySet &Q, uint64_t Offset) {
  std::string Text;
  for (size_t J = 0; J != GroupSize; ++J)
    Text += Q.Lines[(Offset + J) % Q.Lines.size()] + "\n";
  return Text;
}

/// Closed-loop group traffic on two connections until \p Stop, then
/// drained.
struct GroupTraffic {
  /// Per completed group: round trip, send time and completion time.
  std::vector<double> RttS;
  std::vector<int64_t> SentNs, DoneNs;
  std::vector<uint64_t> Offsets;
  uint64_t Sent = 0, Wrong = 0, Lost = 0;

  /// Round trips of the groups sent in [\p BeginNs, \p EndNs).
  std::vector<double> rttsSentIn(int64_t BeginNs, int64_t EndNs) const {
    std::vector<double> Out;
    for (size_t I = 0; I != RttS.size(); ++I)
      if (SentNs[I] >= BeginNs && SentNs[I] < EndNs)
        Out.push_back(RttS[I]);
    return Out;
  }

  void run(Tracer &T, const QuerySet &Q, uint64_t Seed,
           std::array<LineConn *, 2> Conns, const std::atomic<bool> &Stop) {
    struct Slot {
      LineConn *C;
      bool Busy = false;
      uint64_t Offset = 0, Got = 0, Seq = 0;
      int64_t Start = 0;
    };
    Stream Picks(Seed ^ 0x67726f7570ULL);
    std::array<Slot, 2> Slots{Slot{Conns[0]}, Slot{Conns[1]}};
    auto Send = [&](Slot &S) {
      S.Offset = Picks.next() % Q.Lines.size();
      S.Got = 0;
      S.Seq = Sent;
      S.Start = nowNs();
      S.Busy = S.C->send(groupText(Q, S.Offset));
      Offsets.push_back(S.Offset);
      ++Sent;
      if (!S.Busy)
        Lost += GroupSize;
    };
    for (Slot &S : Slots)
      Send(S);
    int64_t DrainDeadline = 0;
    std::vector<std::string> Lines;
    for (;;) {
      bool Stopping = Stop.load(std::memory_order_acquire);
      if (Stopping && DrainDeadline == 0)
        DrainDeadline =
            nowNs() + static_cast<int64_t>(AnswerTimeoutS * 2 * 1e9);
      if (!Slots[0].Busy && !Slots[1].Busy)
        break;
      if (Stopping && nowNs() > DrainDeadline)
        break;
      pollfd Fds[2];
      for (int I = 0; I != 2; ++I)
        Fds[I] = {Slots[I].Busy ? Slots[I].C->fd() : -1, POLLIN, 0};
      if (::poll(Fds, 2, 5) <= 0)
        continue;
      for (int I = 0; I != 2; ++I) {
        Slot &S = Slots[I];
        if (!S.Busy || !(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        Lines.clear();
        if (!S.C->readLines(Lines)) {
          Lost += GroupSize - S.Got;
          S.Busy = false;
          continue;
        }
        for (const std::string &L : Lines) {
          if (S.Got == GroupSize)
            break;
          if (L != Q.Expected[(S.Offset + S.Got) % Q.Lines.size()])
            ++Wrong;
          ++S.Got;
        }
        if (S.Got == GroupSize) {
          int64_t Now = nowNs();
          RttS.push_back(static_cast<double>(Now - S.Start) * 1e-9);
          T.record("serve.group", 0, S.Seq, S.Start, Now);
          SentNs.push_back(S.Start);
          DoneNs.push_back(Now);
          S.Busy = false;
          if (!Stop.load(std::memory_order_acquire))
            Send(S);
        }
      }
    }
    for (Slot &S : Slots)
      if (S.Busy)
        Lost += GroupSize - S.Got;
  }
};

/// Open-loop single-query traffic over the rate ladder.
struct SingleTraffic {
  struct Item {
    int64_t DueNs;
    unsigned Step;
    size_t Line;
  };
  std::vector<Item> Items;
  std::vector<double> LatencyS; ///< -1 while unanswered
  std::vector<double> LatenessS;
  std::vector<bool> Wrong;

  /// Poisson arrivals at each step's rate, one step after another,
  /// starting 2 ms from now.
  void schedule(uint64_t Seed, size_t NumLines) {
    int64_t T = nowNs() + 2000000;
    for (unsigned S = 0; S != NumSteps; ++S) {
      Stream Gaps(Seed * NumSteps + S);
      for (size_t I = 0; I != QueriesPerStep; ++I) {
        T += static_cast<int64_t>(-std::log(Gaps.unit()) / RateSteps[S] * 1e9);
        Items.push_back({T, S, Gaps.next() % NumLines});
      }
    }
    LatencyS.assign(Items.size(), -1);
    LatenessS.assign(Items.size(), 0);
    Wrong.assign(Items.size(), false);
  }

  void run(Tracer &T, const QuerySet &Q, std::array<LineConn *, 2> Conns) {
    std::array<std::deque<size_t>, 2> Fifo;
    size_t Next = 0, Outstanding = 0;
    int64_t DrainDeadline =
        Items.empty() ? 0
                      : Items.back().DueNs +
                            static_cast<int64_t>(AnswerTimeoutS * 2 * 1e9);
    std::vector<std::string> Lines;
    for (;;) {
      int64_t Now = nowNs();
      while (Next != Items.size() && Items[Next].DueNs <= Now) {
        size_t C = Next & 1;
        if (Conns[C]->send(Q.Lines[Items[Next].Line] + "\n")) {
          Fifo[C].push_back(Next);
          ++Outstanding;
        }
        LatenessS[Next] = static_cast<double>(nowNs() - Items[Next].DueNs) *
                          1e-9;
        ++Next;
        Now = nowNs();
      }
      if (Next == Items.size() && (Outstanding == 0 || Now > DrainDeadline))
        break;
      int64_t WaitNs = Next != Items.size()
                           ? std::max<int64_t>(0, Items[Next].DueNs - Now)
                           : 5000000;
      pollfd Fds[2] = {{Conns[0]->fd(), POLLIN, 0},
                       {Conns[1]->fd(), POLLIN, 0}};
      timespec Ts{static_cast<time_t>(WaitNs / 1000000000),
                  static_cast<long>(WaitNs % 1000000000)};
      if (::ppoll(Fds, 2, &Ts, nullptr) <= 0)
        continue;
      for (int C = 0; C != 2; ++C) {
        if (!(Fds[C].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        Lines.clear();
        bool Open = Conns[C]->readLines(Lines);
        int64_t Recv = nowNs();
        for (const std::string &L : Lines) {
          if (Fifo[C].empty())
            break;
          size_t I = Fifo[C].front();
          Fifo[C].pop_front();
          --Outstanding;
          LatencyS[I] = static_cast<double>(Recv - Items[I].DueNs) * 1e-9;
          Wrong[I] = L != Q.Expected[Items[I].Line];
          T.record("serve.single", 0, I, Items[I].DueNs, Recv);
        }
        if (!Open) {
          Outstanding -= Fifo[C].size();
          Fifo[C].clear();
        }
      }
    }
  }
};

} // namespace

QuerySet makeQueries(Tracer &T, const std::vector<MachineConfig> &Machines,
                     const std::vector<std::string> &Bundles, size_t Count) {
  std::vector<Brainy> Loaded;
  for (const std::string &Path : Bundles) {
    Expected<Brainy> B = Brainy::load(Path);
    if (!B)
      throw std::runtime_error("cannot load " + Path + ": " +
                               B.error().message());
    Loaded.push_back(std::move(*B));
  }
  const DsKind Kinds[] = {DsKind::Vector, DsKind::List, DsKind::Set,
                          DsKind::Map};
  AppConfig Gen;
  QuerySet Q;
  for (size_t I = 0; I != Count; ++I) {
    uint64_t AppSeed = mix(0x51ed27ULL + I);
    AppSpec Spec;
    {
      ScopedSpan S(T, "appgen.spec");
      Spec = AppSpec::fromSeed(AppSeed, Gen);
    }
    DsKind Kind = Kinds[I % 4];
    size_t M = (I / 4) % Machines.size();
    ProfiledOutcome P;
    {
      ScopedSpan S(T, "profile.runAppProfiled");
      P = runAppProfiled(Spec, Kind, Machines[M]);
    }
    RecommendQuery RQ;
    RQ.Arch = Machines[M].Name;
    RQ.Original = Kind;
    RQ.OrderOblivious = P.Sw.orderOblivious();
    RQ.Features = P.Features;
    std::string Line = formatRecommendQuery(RQ);
    RecommendQuery Parsed;
    if (Error E = parseRecommendQuery(Line, Parsed))
      throw std::runtime_error("generated query does not parse: " +
                               E.message());
    Q.Lines.push_back(Line);
    Q.Expected.push_back(answerRecommendQuery(Loaded[M], Parsed));
  }
  return Q;
}

namespace {

bool serveOnce(const Context &Ctx, Tracer &T, Report &R,
               const std::vector<std::string> &Argv, const QuerySet &Q,
               uint64_t Seed, ServeSession &Out) {
  ServerProcess Server;
  std::array<LineConn, 4> Conns;
  std::string Answer;
  int64_t T0 = nowNs();
  bool Up = Server.start(Argv, Ctx.WorkDir + "/serve.log", 10) &&
            Conns[0].connectTo(Server.port()) &&
            Conns[0].send(Q.Lines[0] + "\n") && Conns[0].readLine(Answer, 5);
  Out.SetupS = sinceS(T0);
  R.op(Up && Answer == Q.Expected[0], "server starts and answers its first "
                                      "query correctly");
  if (!Up)
    return false;
  for (size_t I = 1; I != Conns.size(); ++I)
    if (!Conns[I].connectTo(Server.port())) {
      R.op(false, "connect to the server");
      return false;
    }

  ServerStats Before = askStats(Conns[0]);
  R.check(Before.Ok, "!stats answers before the traffic");
  double Cpu0 = Server.cpuS();
  SingleTraffic Singles;
  Singles.schedule(Seed, Q.Lines.size());
  GroupTraffic Groups;
  std::atomic<bool> Stop{false};
  std::thread GroupThread(
      [&] { Groups.run(T, Q, Seed, {&Conns[0], &Conns[1]}, Stop); });
  std::thread SingleThread([&] {
    Singles.run(T, Q, {&Conns[2], &Conns[3]});
    Stop.store(true, std::memory_order_release);
  });
  SingleThread.join();
  GroupThread.join();
  ServerStats After = askStats(Conns[0]);
  Out.ServerCpuS = Server.cpuS() - Cpu0;
  Out.ServerRssMb = Server.peakRssMb();
  R.check(After.Ok, "!stats answers after the traffic");

  // Correctness: every query answered, on time, byte-equal to the scalar
  // answer; the server counted exactly the queries sent.
  uint64_t SinglesSent = Singles.Items.size(), SingleBad = 0;
  for (size_t I = 0; I != Singles.Items.size(); ++I)
    SingleBad += Singles.LatencyS[I] < 0 ||
                 Singles.LatencyS[I] > AnswerTimeoutS || Singles.Wrong[I];
  R.ops(SinglesSent, SingleBad, "single queries unanswered, late or wrong");
  R.ops(Groups.Sent * GroupSize, Groups.Wrong + Groups.Lost,
        "group answers wrong or lost");
  uint64_t Sent = Groups.Sent * GroupSize + SinglesSent;
  Out.Queries = After.Queries - Before.Queries;
  Out.Batches = After.Batches - Before.Batches;
  Out.MaxBatch = After.MaxBatch;
  R.check(Out.Queries == Sent, "!stats counted " +
                                   std::to_string(Out.Queries) +
                                   " queries, sent " + std::to_string(Sent));

  // Group figures come from the nominal step alone: the higher steps load
  // the shared dispatcher with singles, and a p50 over a mix of load
  // levels would move with the mix.
  int64_t NominalBegin = Singles.Items.front().DueNs;
  int64_t NominalEnd = Singles.Items[QueriesPerStep].DueNs;
  Out.Group = summarize(Groups.rttsSentIn(NominalBegin, NominalEnd));
  Out.GroupOffsets = Groups.Offsets;
  Out.Windows = throughputWindows(NominalBegin, NominalEnd, Groups.DoneNs);
  note("  setup %.4f ms; %llu queries in %llu batches (max %llu); group RTT "
       "%s and %.0f q/s at the nominal step, RTT %s over the session",
       Out.SetupS * 1e3, static_cast<unsigned long long>(Out.Queries),
       static_cast<unsigned long long>(Out.Batches),
       static_cast<unsigned long long>(Out.MaxBatch),
       formatDist(Out.Group, 1e3, "ms").c_str(), median(Out.Windows),
       formatDist(summarize(Groups.RttS), 1e3, "ms").c_str());

  bool AllMet = true;
  for (unsigned S = 0; S != NumSteps; ++S) {
    std::vector<double> Lat, Late, InOrder;
    uint64_t Bad = 0;
    for (size_t I = 0; I != Singles.Items.size(); ++I) {
      if (Singles.Items[I].Step != S)
        continue;
      double L = Singles.LatencyS[I];
      Bad += L < 0 || L > AnswerTimeoutS || Singles.Wrong[I];
      if (L >= 0)
        Lat.push_back(L);
      Late.push_back(Singles.LatenessS[I]);
      InOrder.push_back(L < 0 ? AnswerTimeoutS : L);
    }
    size_t Quarter = InOrder.size() / 4;
    bool Growing =
        median({InOrder.end() - Quarter, InOrder.end()}) >
        median({InOrder.begin(), InOrder.begin() + Quarter}) + SingleP99LimitS;
    Dist D = summarize(Lat);
    Dist Lateness = summarize(Late);
    bool OnTime = Lateness.P50 <= LatenessLimitS;
    bool Met = Bad == 0 && !Growing && OnTime && D.P99 <= SingleP99LimitS;
    note("  single %5.0f q/s: %s, generator lateness p50=%.4fms "
         "p99=%.4fms, %llu failed%s%s -> %s",
         RateSteps[S], formatDist(D, 1e3, "ms").c_str(), Lateness.P50 * 1e3,
         Lateness.P99 * 1e3, static_cast<unsigned long long>(Bad),
         Growing ? ", backlog growing" : "",
         OnTime ? "" : ", generator behind (step invalid)",
         Met ? "met" : "not met");
    if (S == 0) {
      Out.Single = D;
      R.check(OnTime, "generator fell behind at the nominal rate: run invalid");
    }
    AllMet = AllMet && Met;
    if (AllMet)
      Out.MaxRateQps = RateSteps[S];
  }
  R.check(Server.stop(10), "server drains and exits 0");
  return true;
}

} // namespace

ServeSession serveSession(const Context &Ctx, Tracer &T, Report &R,
                          const std::vector<std::string> &Bundles,
                          const QuerySet &Q, unsigned Index) {
  std::string Models;
  for (const std::string &B : Bundles)
    Models += (Models.empty() ? "" : ",") + B;
  std::vector<std::string> Argv = {Ctx.BrainyBin, "serve",   "--models",
                                   Models,        "--host",  "127.0.0.1",
                                   "--port",      "0",       "--conn-workers",
                                   "4"};
  note("serving session %u", Index + 1);
  ServeSession S;
  if (!serveOnce(Ctx, T, R, Argv, Q, Ctx.Seed * 0x100 + Index, S))
    throw std::runtime_error("the server did not come up");
  return S;
}

unsigned sessionsFor(double BudgetS) {
  double PassS = 0;
  for (double Rate : RateSteps)
    PassS += static_cast<double>(QueriesPerStep) / Rate;
  return static_cast<unsigned>(
      std::max<double>(MinSessions, std::floor(BudgetS / PassS)));
}

ServeResult summarizeServing(const std::vector<ServeSession> &Sessions) {
  std::vector<double> Recs, GroupP50, GroupP99, SingleP50, SingleP99, MaxRate;
  ServeResult Out;
  for (const ServeSession &S : Sessions) {
    Out.SetupS.push_back(S.SetupS);
    Recs.insert(Recs.end(), S.Windows.begin(), S.Windows.end());
    GroupP50.push_back(S.Group.P50);
    GroupP99.push_back(S.Group.P99);
    SingleP50.push_back(S.Single.P50);
    SingleP99.push_back(S.Single.P99);
    MaxRate.push_back(S.MaxRateQps);
    Out.ServerCpuS += S.ServerCpuS;
    Out.ServerRssMb = std::max(Out.ServerRssMb, S.ServerRssMb);
    Out.Queries += S.Queries;
    Out.Batches += S.Batches;
    Out.MaxBatch = std::max(Out.MaxBatch, S.MaxBatch);
    Out.GroupOffsets.insert(Out.GroupOffsets.end(), S.GroupOffsets.begin(),
                            S.GroupOffsets.end());
  }
  Out.RecsPerS = median(Recs);
  Out.GroupP50S = median(GroupP50);
  Out.GroupP99S = median(GroupP99);
  Out.SingleP50S = median(SingleP50);
  Out.SingleP99S = median(SingleP99);
  Out.MaxRateQps = median(MaxRate);
  return Out;
}

ServeResult runServing(const Context &Ctx, Tracer &T, Report &R,
                       const std::vector<std::string> &Bundles,
                       const QuerySet &Q, double BudgetS) {
  std::vector<ServeSession> Sessions;
  for (unsigned I = 0, N = sessionsFor(BudgetS); I != N; ++I)
    Sessions.push_back(serveSession(Ctx, T, R, Bundles, Q, I));
  return summarizeServing(Sessions);
}

void reportServing(Report &R, const ServeResult &S) {
  R.metric("serve_recs_per_s", S.RecsPerS, "1/s");
  R.metric("serve_group_p50_ms", S.GroupP50S * 1e3, "ms");
  R.metric("serve_group_p99_ms", S.GroupP99S * 1e3, "ms");
  R.metric("serve_single_p50_ms", S.SingleP50S * 1e3, "ms");
  R.metric("serve_single_p99_ms", S.SingleP99S * 1e3, "ms");
  R.metric("serve_single_max_rate_qps", S.MaxRateQps, "1/s");
}

void reportServingLayers(Tracer &T, Report &R,
                         const std::vector<std::string> &Bundles,
                         const QuerySet &Q, const ServeResult &Untraced,
                         const ServeResult &Traced) {
  serve::ModelRegistry Registry(Bundles);
  if (Error E = Registry.loadInitial())
    throw std::runtime_error("registry: " + E.message());
  size_t Groups = std::min<size_t>(Untraced.GroupOffsets.size(), 400);

  // answerRequestLines per group, as the server's dispatcher calls it.
  std::vector<double> AnswerS;
  uint64_t Mismatch = 0;
  for (size_t G = 0; G != Groups; ++G) {
    std::vector<std::string> Lines;
    for (size_t J = 0; J != GroupSize; ++J)
      Lines.push_back(
          Q.Lines[(Untraced.GroupOffsets[G] + J) % Q.Lines.size()]);
    int64_t S0 = nowNs();
    std::vector<std::string> Answers;
    {
      ScopedSpan S(T, "serve.answerRequestLines", 0, G);
      Answers = serve::answerRequestLines(Registry, Lines, true);
    }
    AnswerS.push_back(sinceS(S0));
    for (size_t J = 0; J != GroupSize; ++J)
      Mismatch +=
          Answers[J] !=
          Q.Expected[(Untraced.GroupOffsets[G] + J) % Q.Lines.size()];
  }

  // The recommend calls one at a time, over the same stream cut into
  // batches of the mean size the server formed.
  double BatchMean = Untraced.Batches
                         ? static_cast<double>(Untraced.Queries) /
                               static_cast<double>(Untraced.Batches)
                         : static_cast<double>(GroupSize);
  auto Batch = static_cast<size_t>(std::max(1.0, std::round(BatchMean)));
  std::vector<size_t> Stream; // query line indices
  for (size_t G = 0; G != Groups; ++G)
    for (size_t J = 0; J != GroupSize; ++J)
      Stream.push_back((Untraced.GroupOffsets[G] + J) % Q.Lines.size());
  double ParseS = 0, ForwardS = 0, RenderS = 0;
  for (size_t Begin = 0; Begin < Stream.size(); Begin += Batch) {
    size_t End = std::min(Stream.size(), Begin + Batch);
    std::vector<RecommendQuery> Parsed(End - Begin);
    int64_t S0 = nowNs();
    {
      ScopedSpan S(T, "recommend.parse");
      for (size_t I = Begin; I != End; ++I)
        if (Error E = parseRecommendQuery(Q.Lines[Stream[I]],
                                          Parsed[I - Begin]))
          throw std::runtime_error("replay parse: " + E.message());
    }
    ParseS += sinceS(S0);
    std::map<std::pair<std::string, ModelKind>, std::vector<size_t>> Buckets;
    for (size_t I = 0; I != Parsed.size(); ++I)
      Buckets[{Parsed[I].Arch, modelFor(Parsed[I].Original,
                                        Parsed[I].OrderOblivious)}]
          .push_back(I);
    std::vector<DsKind> Targets(Parsed.size());
    S0 = nowNs();
    {
      ScopedSpan S(T, "recommend.forward");
      for (auto &[Key, Members] : Buckets) {
        std::shared_ptr<const Brainy> Bundle = Registry.lookup(Key.first);
        std::vector<const FeatureVector *> Features;
        std::vector<bool> Oblivious;
        for (size_t I : Members) {
          Features.push_back(&Parsed[I].Features);
          Oblivious.push_back(Parsed[I].OrderOblivious);
        }
        std::vector<DsKind> Out;
        Bundle->recommendBatch(Key.second, Features, Oblivious, Out);
        for (size_t K = 0; K != Members.size(); ++K)
          Targets[Members[K]] = Out[K];
      }
    }
    ForwardS += sinceS(S0);
    S0 = nowNs();
    {
      ScopedSpan S(T, "recommend.render");
      for (size_t I = 0; I != Parsed.size(); ++I)
        Mismatch += renderRecommendation(Parsed[I], Targets[I]) !=
                    Q.Expected[Stream[Begin + I]];
    }
    RenderS += sinceS(S0);
  }
  R.check(Mismatch == 0, "in-process replay answers differ from the scalar "
                         "reference");
  double N = std::max<double>(1, static_cast<double>(Stream.size()));
  double AnswerUs = median(AnswerS) * 1e6;
  R.metric("core.recommend.parse_us", ParseS / N * 1e6, "us");
  R.metric("core.recommend.forward_us", ForwardS / N * 1e6, "us");
  R.metric("core.recommend.render_us", RenderS / N * 1e6, "us");
  R.metric("serve.answer_us_per_group", AnswerUs, "us");
  R.metric("serve.batches", static_cast<double>(Untraced.Batches), "count");
  R.metric("serve.batch_mean", BatchMean, "queries");
  R.metric("serve.batch_max", static_cast<double>(Untraced.MaxBatch),
           "queries");
  R.metric("serve.server_cpu_s", Untraced.ServerCpuS, "s");
  R.metric("serve.cpu_us_per_query",
           Untraced.Queries ? Untraced.ServerCpuS /
                                  static_cast<double>(Untraced.Queries) * 1e6
                            : 0,
           "us");
  R.metric("serve.overhead_us_per_group", Untraced.GroupP50S * 1e6 - AnswerUs,
           "us");
  R.metric("trace.group_p50_ms", Traced.GroupP50S * 1e3, "ms");
  R.metric("trace.group_overhead_ms",
           (Traced.GroupP50S - Untraced.GroupP50S) * 1e3, "ms");
}

} // namespace perfbench
