//===- core/MeasurementStore.cpp ------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "core/MeasurementStore.h"

#include "support/Envelope.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

using namespace brainy;

namespace {

constexpr EnvelopeFormat StoreFormat{"brainy-mcache", "v1",
                                     "measurement cache"};

} // namespace

uint64_t brainy::measurementFingerprint(const AppConfig &Gen,
                                        const MachineConfig &Machine) {
  Fingerprint H;
  H.str("gen");
  H.num(Gen.TotalInterfCalls);
  H.num(Gen.DataElemSizes.size());
  for (int64_t E : Gen.DataElemSizes)
    H.num(static_cast<uint64_t>(E));
  H.num(static_cast<uint64_t>(Gen.MaxInsertVal));
  H.num(static_cast<uint64_t>(Gen.MaxRemoveVal));
  H.num(static_cast<uint64_t>(Gen.MaxSearchVal));
  H.num(static_cast<uint64_t>(Gen.MaxIterCount));
  H.num(Gen.MaxInitialSize);
  H.real(Gen.OrderObliviousProb);
  H.real(Gen.OpDropProb);
  H.real(Gen.FocusProb);
  H.str("machine");
  H.str(Machine.Name);
  for (const CacheGeometry &G : {Machine.L1, Machine.L2}) {
    H.num(G.SizeBytes);
    H.num(G.Associativity);
    H.num(G.BlockBytes);
  }
  H.real(Machine.L1HitCycles);
  H.real(Machine.StreamHitCycles);
  H.real(Machine.L2HitCycles);
  H.real(Machine.MemoryCycles);
  H.real(Machine.MissExposure);
  H.num(Machine.PrefetchDepth);
  H.real(Machine.MispredictPenalty);
  H.real(Machine.BaseCpi);
  H.real(Machine.AllocInstructions);
  H.real(Machine.FreeInstructions);
  H.real(Machine.ClockGhz);
  return H.digest();
}

std::string brainy::measurementsToString(const MeasurementCache &Cache,
                                         const AppConfig &Gen,
                                         const MachineConfig &Machine) {
  std::vector<CycleRecord> Records = Cache.records();

  std::string Payload;
  char Buf[64];
  for (const CycleRecord &Rec : Records) {
    std::snprintf(Buf, sizeof(Buf), "%" PRIu64 " %u", Rec.Seed, Rec.Mask);
    Payload += Buf;
    for (unsigned K = 0; K != NumDsKinds; ++K)
      if (Rec.Mask & (1u << K)) {
        std::snprintf(Buf, sizeof(Buf), " %a", Rec.Cycles[K]);
        Payload += Buf;
      }
    Payload += '\n';
  }

  uint64_t Fp = measurementFingerprint(Gen, Machine);
  return writeEnvelope(StoreFormat,
                       {{"machine", Machine.Name},
                        {"fingerprint", Fingerprint::hex(Fp)},
                        {"records", std::to_string(Records.size())}},
                       Payload);
}

Error brainy::saveMeasurements(const std::string &Path,
                               const MeasurementCache &Cache,
                               const AppConfig &Gen,
                               const MachineConfig &Machine,
                               size_t *SavedOut) {
  if (Error E =
          saveFileAtomic(Path, measurementsToString(Cache, Gen, Machine)))
    return E;
  if (SavedOut)
    *SavedOut = Cache.seeds();
  return Error::success();
}

Expected<size_t> brainy::parseMeasurements(const std::string &Text,
                                           MeasurementCache &Cache,
                                           const AppConfig &Gen,
                                           const MachineConfig &Machine) {
  Expected<Envelope> Env =
      readEnvelope(Text, StoreFormat, {"machine", "fingerprint", "records"});
  if (!Env)
    return Env.error();
  const std::string &FileMachine = Env->Values[0];
  if (FileMachine != Machine.Name)
    return Error(ErrCode::MachineMismatch,
                 "measurements recorded on '" + FileMachine + "', want '" +
                     Machine.Name + "'");
  uint64_t FileFp = 0;
  if (std::sscanf(Env->Values[1].c_str(), "%16" SCNx64, &FileFp) != 1)
    return Error(ErrCode::BadFormat, "expected 'fingerprint <hex>'");
  uint64_t WantFp = measurementFingerprint(Gen, Machine);
  if (FileFp != WantFp)
    return Error(ErrCode::TagMismatch,
                 "config fingerprint " + Fingerprint::hex(FileFp) +
                     ", this run is " + Fingerprint::hex(WantFp));
  unsigned long long WantRecords = 0;
  if (std::sscanf(Env->Values[2].c_str(), "%llu", &WantRecords) != 1)
    return Error(ErrCode::BadFormat, "expected 'records <count>'");

  const std::string &Payload = Env->Payload;
  // Validate every record before touching the cache, so a malformed line
  // cannot leave a half-restored cache behind.
  std::vector<CycleRecord> Records;
  Records.reserve(WantRecords);
  size_t RPos = 0;
  while (RPos < Payload.size()) {
    size_t Eol = Payload.find('\n', RPos);
    if (Eol == std::string::npos)
      return Error(ErrCode::Truncated, "unterminated record line");
    std::string Rec = Payload.substr(RPos, Eol - RPos);
    RPos = Eol + 1;

    const char *P = Rec.c_str();
    char *End = nullptr;
    errno = 0;
    CycleRecord R;
    R.Seed = std::strtoull(P, &End, 10);
    if (End == P || errno == ERANGE)
      return Error(ErrCode::BadFormat, "bad seed in record '" + Rec + "'");
    P = End;
    unsigned long Mask = std::strtoul(P, &End, 10);
    if (End == P || Mask == 0 || Mask >= (1u << NumDsKinds))
      return Error(ErrCode::BadFormat, "bad mask in record '" + Rec + "'");
    R.Mask = static_cast<unsigned>(Mask);
    P = End;
    for (unsigned K = 0; K != NumDsKinds; ++K) {
      if (!(R.Mask & (1u << K)))
        continue;
      double V = std::strtod(P, &End); // %a hex floats round-trip exactly
      if (End == P)
        return Error(ErrCode::BadFormat,
                     "missing cycle value in record '" + Rec + "'");
      R.Cycles[K] = V;
      P = End;
    }
    while (*P == ' ')
      ++P;
    if (*P != '\0')
      return Error(ErrCode::BadFormat,
                   "trailing bytes in record '" + Rec + "'");
    if (!Records.empty() && Records.back().Seed >= R.Seed)
      return Error(ErrCode::BadFormat, "records not in ascending seed order");
    Records.push_back(R);
  }
  if (Records.size() != WantRecords)
    return Error(ErrCode::BadFormat,
                 "header declares " + std::to_string(WantRecords) +
                     " records, payload holds " +
                     std::to_string(Records.size()));

  for (const CycleRecord &R : Records)
    Cache.restoreRecord(R);
  return Records.size();
}

Expected<size_t> brainy::loadMeasurements(const std::string &Path,
                                          MeasurementCache &Cache,
                                          const AppConfig &Gen,
                                          const MachineConfig &Machine) {
  Expected<std::string> Text = readFile(Path);
  if (!Text)
    return Text.error();
  Expected<size_t> Count = parseMeasurements(*Text, Cache, Gen, Machine);
  if (!Count)
    return Count.error().withPrefix("measurement cache '" + Path + "'");
  return Count;
}
