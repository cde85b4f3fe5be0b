//===- containers/ContainerBase.h - Shared container plumbing --*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common machinery for the instrumentable containers: the event buffer of
/// an optional MachineModel, a per-container SimAllocator heap region, and
/// the simulated element size. The containers store real 64-bit keys and
/// run the real algorithms; the *simulated* layout (what the cache model
/// sees) treats each element as DataElemSize bytes, which is how the
/// paper's generator varies element size (Table 2) without a template
/// instantiation per size.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_CONTAINERBASE_H
#define BRAINY_CONTAINERS_CONTAINERBASE_H

#include "machine/MachineModel.h"
#include "machine/SimAllocator.h"

#include <cstdint>

namespace brainy {
namespace ds {

/// Key type stored by every container. The paper's generator inserts random
/// integers (Table 2); larger payloads are modelled via the element size.
using Key = int64_t;

/// Result of one container interface call.
struct OpResult {
  /// For find/erase: whether the key was present. For insert: whether the
  /// insertion actually happened (set-family rejects duplicates).
  bool Found = false;
  /// The paper's per-call "cost": elements touched until the operation
  /// finished (search walk length, shift distance, probe count...).
  uint64_t Cost = 0;
};

/// Base class holding instrumentation state shared by all containers.
///
/// An instrumented container appends every hardware event as an encoded
/// record to its model's EventBuffer; an uninstrumented one (null model)
/// emits nothing. Interface-call summaries are not events: the adt adapter
/// hands them to its OpListener.
class ContainerBase {
public:
  /// \p ElemBytes simulated bytes per stored element (>= 8).
  /// \p Model receives the container's events (null = uninstrumented).
  /// \p HeapBase start of this container's simulated heap region.
  ContainerBase(uint32_t ElemBytes, MachineModel *Model, uint64_t HeapBase)
      : Elem(ElemBytes < 8 ? 8 : ElemBytes),
        Buf(Model ? &Model->events() : nullptr), Alloc(HeapBase) {}

  uint32_t elementBytes() const { return Elem; }

  /// Live simulated heap bytes — the memory-bloat signal.
  uint64_t simLiveBytes() const { return Alloc.liveBytes(); }
  uint64_t simPeakBytes() const { return Alloc.peakBytes(); }

protected:
  void note(uint64_t Addr, uint32_t Bytes) {
    if (Buf)
      Buf->access(Addr, Bytes);
  }

  void branch(BranchSite Site, bool Taken) {
    if (Buf)
      Buf->branch(Site, Taken);
  }

  void work(uint64_t Instructions) {
    if (Buf)
      Buf->instructions(Instructions);
  }

  uint64_t allocSim(uint64_t Bytes) {
    uint64_t Addr = Alloc.allocate(Bytes);
    if (Buf)
      Buf->alloc(Bytes);
    return Addr;
  }

  void freeSim(uint64_t Addr, uint64_t Bytes) {
    Alloc.release(Addr, Bytes);
    if (Buf)
      Buf->free(Bytes);
  }

  uint32_t Elem;
  EventBuffer *Buf; ///< The model's buffer; null = uninstrumented.
  SimAllocator Alloc;
};

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_CONTAINERBASE_H
