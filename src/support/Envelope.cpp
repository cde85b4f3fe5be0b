//===- support/Envelope.cpp -----------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "support/Envelope.h"

#include "support/Crc32.h"
#include "support/FaultInjector.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

using namespace brainy;

namespace {

/// Salts of the `io` fault probes, one per file step.
constexpr uint64_t IoSaltRead = 0;
constexpr uint64_t IoSaltWrite = 1;
constexpr uint64_t IoSaltRename = 2;

} // namespace

std::string brainy::writeEnvelope(
    const EnvelopeFormat &Format,
    const std::vector<std::pair<const char *, std::string>> &Header,
    const std::string &Payload) {
  std::string Out = std::string(Format.Magic) + " " + Format.Version + "\n";
  for (const auto &[Key, Value] : Header)
    Out += std::string(Key) + " " + Value + "\n";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "payload %zu crc32 %08" PRIx32 "\n",
                Payload.size(), crc32(Payload));
  Out += Buf;
  Out += Payload;
  return Out;
}

Expected<Envelope>
brainy::readEnvelope(const std::string &Text, const EnvelopeFormat &Format,
                     const std::vector<const char *> &Keys) {
  if (Text.empty())
    return Error(ErrCode::Truncated, std::string("empty ") + Format.Noun);

  size_t Pos = 0;
  auto TakeLine = [&Text, &Pos](std::string &Line) {
    if (Pos >= Text.size())
      return false;
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    return true;
  };

  std::string Line;
  TakeLine(Line);
  size_t Space = Line.find(' ');
  if (Line.substr(0, Space) != Format.Magic)
    return Error(ErrCode::BadMagic, std::string("not a brainy ") + Format.Noun);
  std::string Version =
      Space == std::string::npos ? "" : Line.substr(Space + 1);
  if (Version != Format.Version)
    return Error(ErrCode::BadVersion, std::string(Format.Noun) + " version '" +
                                          Version + "', this build reads '" +
                                          Format.Version + "'");

  Envelope Out;
  for (const char *Key : Keys) {
    if (!TakeLine(Line))
      return Error(ErrCode::Truncated,
                   "header ends before '" + std::string(Key) + "'");
    size_t KeyLen = std::strlen(Key);
    if (Line.compare(0, KeyLen, Key) != 0 || Line.size() == KeyLen ||
        Line[KeyLen] != ' ')
      return Error(ErrCode::BadFormat,
                   "expected '" + std::string(Key) + " <value>'");
    Out.Values.push_back(Line.substr(KeyLen + 1));
  }

  if (!TakeLine(Line))
    return Error(ErrCode::Truncated, "header ends before 'payload'");
  unsigned long long PayloadSize = 0;
  uint32_t WantCrc = 0;
  if (std::sscanf(Line.c_str(), "payload %llu crc32 %8" SCNx32, &PayloadSize,
                  &WantCrc) != 2)
    return Error(ErrCode::BadFormat, "expected 'payload <size> crc32 <hex>'");

  if (Pos > Text.size())
    return Error(ErrCode::BadFormat, "no newline after the payload line");
  size_t Remaining = Text.size() - Pos;
  if (Remaining < PayloadSize)
    return Error(ErrCode::Truncated,
                 "payload is " + std::to_string(Remaining) +
                     " bytes, header declares " +
                     std::to_string(PayloadSize));
  if (Remaining > PayloadSize)
    return Error(ErrCode::BadFormat, std::to_string(Remaining - PayloadSize) +
                                         " trailing bytes after payload");

  Out.Payload = Text.substr(Pos);
  uint32_t GotCrc = crc32(Out.Payload);
  if (GotCrc != WantCrc) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "payload crc32 %08" PRIx32 ", header says %08" PRIx32,
                  GotCrc, WantCrc);
    return Error(ErrCode::BadChecksum, Buf);
  }
  return Out;
}

Fingerprint::Fingerprint() : Hash(14695981039346656037ull) {} // FNV offset

void Fingerprint::absorb(const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= P[I];
    Hash *= 1099511628211ull; // FNV-1a-64 prime
  }
}

void Fingerprint::str(const std::string &S) {
  absorb(S.data(), S.size());
  absorb("|", 1);
}

void Fingerprint::num(uint64_t V) {
  char Buf[24];
  int N = std::snprintf(Buf, sizeof(Buf), "%" PRIu64 "|", V);
  absorb(Buf, static_cast<size_t>(N));
}

void Fingerprint::real(double V) {
  char Buf[40];
  int N = std::snprintf(Buf, sizeof(Buf), "%a|", V);
  absorb(Buf, static_cast<size_t>(N));
}

std::string Fingerprint::hex(uint64_t Digest) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, Digest);
  return Buf;
}

Expected<std::string> brainy::readFile(const std::string &Path) {
  if (FaultInjector::instance().shouldFail(
          FaultSite::FileIo, FaultInjector::keyFor(Path), IoSaltRead))
    return Error(ErrCode::FaultInjected, "reading '" + Path + "'");

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Error(ErrCode::IoError,
                 "cannot open '" + Path + "': " + std::strerror(errno));
  std::string Text;
  char Buf[8192];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  // A read error (EISDIR on a directory, EIO) must not pass for a short
  // file: every parser would then report a misleading truncation.
  int ReadErrno = std::ferror(F) ? errno : 0;
  std::fclose(F);
  if (ReadErrno)
    return Error(ErrCode::IoError,
                 "cannot read '" + Path + "': " + std::strerror(ReadErrno));
  return Text;
}

Error brainy::saveFileAtomic(const std::string &Path,
                             const std::string &Content) {
  FaultInjector &FI = FaultInjector::instance();
  uint64_t PathKey = FaultInjector::keyFor(Path);
  if (FI.shouldFail(FaultSite::FileIo, PathKey, IoSaltWrite))
    return Error(ErrCode::FaultInjected, "writing '" + Path + "'");

  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return Error(ErrCode::IoError,
                 "cannot open '" + Tmp + "': " + std::strerror(errno));
  bool Ok = std::fwrite(Content.data(), 1, Content.size(), F) ==
            Content.size();
  Ok &= std::fflush(F) == 0;
  Ok &= std::fclose(F) == 0;
  if (!Ok) {
    std::remove(Tmp.c_str());
    return Error(ErrCode::IoError, "short write to '" + Tmp + "'");
  }
  // Simulated crash between write and commit: the temp file is discarded
  // and the previous file (if any) stays intact.
  if (FI.shouldFail(FaultSite::FileIo, PathKey, IoSaltRename)) {
    std::remove(Tmp.c_str());
    return Error(ErrCode::FaultInjected,
                 "renaming '" + Tmp + "' over '" + Path + "'");
  }
  // The rename is the commit point: a kill at any instant leaves either
  // the previous complete file or the new one, never a torn file.
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return Error(ErrCode::IoError, "cannot rename '" + Tmp + "' to '" +
                                       Path + "': " + std::strerror(errno));
  }
  return Error::success();
}
