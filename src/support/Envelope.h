//===- support/Envelope.h - The shared on-disk file envelope ---*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every file Brainy writes for a later run to load back — the model
/// bundle, the measurement cache and the Phase I checkpoint — shares one
/// text envelope (DESIGN.md §8):
///
///   <magic> <version>
///   <key> <value>              one line per header field, fixed order
///   ...
///   payload <bytes> crc32 <8 hex digits>
///   <payload bytes>
///
/// This module owns that layout, the checks a reader makes on it, the
/// FNV-1a fingerprint the stores key their validity on, and the two file
/// primitives every persisted format goes through: a whole-file read and
/// an atomic (temp file + rename) save. Each format keeps its own header
/// field checks and payload grammar.
///
/// Both file primitives probe the `io` fault-injection site keyed by the
/// path, with one salt per step — 0 read, 1 write, 2 rename — so one
/// `BRAINY_FAULT=io:...` spec exercises every format's failure paths.
///
/// Include this header from .cpp files only: `readFile` would clash with
/// same-named helpers in code that pulls in the brainy namespace.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_SUPPORT_ENVELOPE_H
#define BRAINY_SUPPORT_ENVELOPE_H

#include "support/Error.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace brainy {

/// One envelope format's identity. \p Noun names the file in diagnostics
/// ("empty checkpoint", "bundle version 'v1', this build reads 'v2'").
struct EnvelopeFormat {
  const char *Magic;
  const char *Version;
  const char *Noun;
};

/// Renders \p Header (key, value pairs, in order) and \p Payload inside
/// \p Format's envelope.
std::string
writeEnvelope(const EnvelopeFormat &Format,
              const std::vector<std::pair<const char *, std::string>> &Header,
              const std::string &Payload);

/// A structurally valid envelope: one value per requested header key, in
/// request order, and the CRC-checked payload.
struct Envelope {
  std::vector<std::string> Values;
  std::string Payload;
};

/// Checks \p Text against \p Format in file order: non-empty (Truncated),
/// magic (BadMagic), version (BadVersion), each of \p Keys as a
/// `<key> <value>` line (Truncated if the header ends, BadFormat if the
/// line has another key), the `payload N crc32 X` line (BadFormat),
/// exactly N payload bytes (Truncated if fewer, BadFormat if more), and
/// the payload CRC (BadChecksum). Header values are returned unchecked:
/// the caller validates them after the whole envelope has passed.
Expected<Envelope> readEnvelope(const std::string &Text,
                                const EnvelopeFormat &Format,
                                const std::vector<const char *> &Keys);

/// FNV-1a-64 over a sequence of typed fields. Every field is absorbed as
/// text followed by '|' — strings verbatim, integers in decimal, doubles
/// as %a hex floats (exact bit patterns, no locale or rounding) — so
/// adjacent fields cannot alias.
class Fingerprint {
public:
  Fingerprint();

  void str(const std::string &S);
  void num(uint64_t V);
  void real(double V);

  uint64_t digest() const { return Hash; }

  /// \p Digest as the 16 lowercase hex digits a `fingerprint` header
  /// field holds.
  static std::string hex(uint64_t Digest);

private:
  void absorb(const void *Data, size_t Size);

  uint64_t Hash;
};

/// Reads all of \p Path. A missing or unreadable file is IoError (a
/// missing file is the cold-start case callers treat quietly); an armed
/// `io` read probe is FaultInjected.
Expected<std::string> readFile(const std::string &Path);

/// Atomically replaces \p Path with \p Content: writes `<Path>.tmp`,
/// flushes, renames over \p Path. A failure at any step — including an
/// injected write or rename fault — removes the temp file and leaves any
/// existing \p Path untouched.
Error saveFileAtomic(const std::string &Path, const std::string &Content);

} // namespace brainy

#endif // BRAINY_SUPPORT_ENVELOPE_H
