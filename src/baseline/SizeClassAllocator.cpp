//===- SizeClassAllocator.cpp - jemalloc-style baseline ---------------------===//

#include "baseline/SizeClassAllocator.h"

#include "support/InternalHeap.h"
#include "support/Log.h"

#include <cassert>

namespace mesh {

SizeClassAllocator::SizeClassAllocator(size_t ArenaBytes,
                                       size_t MaxDirtyBytes)
    : Arena(ArenaBytes, MaxDirtyBytes) {}

SizeClassAllocator::~SizeClassAllocator() {
  const size_t Frontier = Arena.frontierPages();
  for (size_t Page = 0; Page < Frontier; ++Page) {
    MiniHeap *MH = Arena.ownerOfPage(Page);
    if (MH == nullptr)
      continue;
    Arena.setOwner(MH->physicalSpanOffset(), MH->spanPages(), nullptr);
    InternalHeap::global().deleteObj(MH);
  }
}

MiniHeap *SizeClassAllocator::newSpan(int Class) {
  const SizeClassInfo &Info = sizeClassInfo(Class);
  bool IsClean = false;
  const uint32_t Off = Arena.allocSpan(Class, Info.SpanPages, &IsClean);
  if (Off == MeshableArena::kInvalidSpanOff)
    return nullptr;
  auto *MH = InternalHeap::global().makeNew<MiniHeap>(
      Off, Info.SpanPages, Info.ObjectSize, Info.ObjectCount,
      static_cast<int8_t>(Class), /*Meshable=*/false);
  Arena.setOwner(Off, Info.SpanPages, MH);
  if (Arena.committedPages() > PeakPages)
    PeakPages = Arena.committedPages();
  return MH;
}

void SizeClassAllocator::releaseSpan(MiniHeap *MH) {
  Arena.setOwner(MH->physicalSpanOffset(), MH->spanPages(), nullptr);
  Arena.freeDirtySpan(MH->sizeClass(), MH->physicalSpanOffset(),
                      MH->spanPages());
  InternalHeap::global().deleteObj(MH);
}

void *SizeClassAllocator::allocSmall(int Class) {
  auto &List = Partial[Class];
  while (!List.empty()) {
    MiniHeap *MH = List.back();
    Bitmap &Bits = MH->bitmap();
    // Sequential first-free scan: deterministic, bump-like placement —
    // exactly the allocation order Mesh's randomization replaces.
    for (uint32_t I = 0; I < MH->objectCount(); ++I) {
      if (Bits.isSet(I))
        continue;
      Bits.tryToSet(I);
      if (MH->isFull())
        List.pop_back(); // Keep full spans out of the partial list.
      return MH->ptrForOffset(I, Arena.arenaBase());
    }
    assert(false && "full span lingered in the partial list");
    List.pop_back();
  }
  MiniHeap *MH = newSpan(Class);
  if (MH == nullptr)
    return nullptr;
  List.push_back(MH);
  MH->bitmap().tryToSet(0);
  return MH->ptrForOffset(0, Arena.arenaBase());
}

void *SizeClassAllocator::allocLarge(size_t Bytes) {
  const size_t Pages = bytesToPages(Bytes == 0 ? 1 : Bytes);
  if (Pages > Arena.vm().arenaPages())
    return nullptr; // Unsatisfiable; also guards the uint32 narrowing.
  bool IsClean = false;
  const uint32_t Off =
      Arena.allocSpan(MeshableArena::kLargeArenaShard,
                      static_cast<uint32_t>(Pages), &IsClean);
  if (Off == MeshableArena::kInvalidSpanOff)
    return nullptr;
  auto *MH = InternalHeap::global().makeNew<MiniHeap>(
      Off, static_cast<uint32_t>(Pages), Bytes);
  Arena.setOwner(Off, static_cast<uint32_t>(Pages), MH);
  if (Arena.committedPages() > PeakPages)
    PeakPages = Arena.committedPages();
  return Arena.arenaBase() + pagesToBytes(Off);
}

void *SizeClassAllocator::malloc(size_t Bytes) {
  int Class;
  if (!sizeClassForSize(Bytes, &Class))
    return allocLarge(Bytes);
  return allocSmall(Class);
}

void SizeClassAllocator::free(void *Ptr) {
  if (Ptr == nullptr)
    return;
  MiniHeap *MH = Arena.ownerOf(Ptr);
  if (MH == nullptr) {
    logWarning("baseline: ignoring free of unknown pointer %p", Ptr);
    return;
  }
  if (MH->isLargeAlloc()) {
    Arena.setOwner(MH->physicalSpanOffset(), MH->spanPages(), nullptr);
    Arena.freeReleasedSpan(MeshableArena::kLargeArenaShard,
                           MH->physicalSpanOffset(), MH->spanPages());
    InternalHeap::global().deleteObj(MH);
    return;
  }
  const uint32_t Off = MH->offsetOf(Ptr, Arena.arenaBase());
  if (!MH->bitmap().unset(Off)) {
    logWarning("baseline: ignoring double free of %p", Ptr);
    return;
  }
  if (MH->isEmpty()) {
    // Remove from the partial list if present, then release the span.
    auto &List = Partial[MH->sizeClass()];
    for (size_t I = 0; I < List.size(); ++I) {
      if (List[I] == MH) {
        List[I] = List.back();
        List.pop_back();
        break;
      }
    }
    releaseSpan(MH);
    return;
  }
  if (MH->inUseCount() + 1 == MH->objectCount()) {
    // Was full; it has a free slot again.
    Partial[MH->sizeClass()].push_back(MH);
  }
}

size_t SizeClassAllocator::usableSize(const void *Ptr) const {
  const MiniHeap *MH = Arena.ownerOf(Ptr);
  if (MH == nullptr)
    return 0;
  return MH->isLargeAlloc() ? MH->spanBytes() : MH->objectSize();
}

} // namespace mesh
