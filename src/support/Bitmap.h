//===- Bitmap.h - Atomic allocation bitmap ----------------------*- C++ -*-===//
///
/// \file
/// The per-span allocation bitmap from paper Section 4.1. Each MiniHeap
/// tracks at most 256 objects, so the bitmap is a fixed four-word array.
/// Bits are set and cleared with atomic read-modify-write operations
/// because remote frees may race with the owning thread attaching the
/// span to a shuffle vector.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_SUPPORT_BITMAP_H
#define MESH_SUPPORT_BITMAP_H

#include "support/Common.h"

#include <atomic>
#include <cassert>
#include <cstdint>

namespace mesh {

/// Fixed-capacity atomic bitmap covering up to kMaxObjectsPerSpan bits.
///
/// Out-of-range bits (>= bitCount()) are guaranteed to stay zero, which
/// keeps the meshability test a plain word-wise AND regardless of the
/// two spans' object counts.
class Bitmap {
public:
  static constexpr uint32_t kWords = kMaxObjectsPerSpan / 64;

  explicit Bitmap(uint32_t BitCount = kMaxObjectsPerSpan)
      : NumBits(BitCount) {
    assert(BitCount <= kMaxObjectsPerSpan && "bitmap capacity exceeded");
    for (auto &W : Words)
      W.store(0, std::memory_order_relaxed);
  }

  Bitmap(const Bitmap &) = delete;
  Bitmap &operator=(const Bitmap &) = delete;

  uint32_t bitCount() const { return NumBits; }

  /// Atomically sets bit \p I; returns true iff this call changed it
  /// from 0 to 1 (paper Section 4.1: "true if atomically set").
  bool tryToSet(uint32_t I) {
    assert(I < NumBits && "bit index out of range");
    const uint64_t Mask = uint64_t{1} << (I % 64);
    const uint64_t Old =
        Words[I / 64].fetch_or(Mask, std::memory_order_acq_rel);
    return (Old & Mask) == 0;
  }

  /// Atomically clears bit \p I; returns true iff this call changed it
  /// from 1 to 0. A false return indicates a double free.
  bool unset(uint32_t I) {
    assert(I < NumBits && "bit index out of range");
    const uint64_t Mask = uint64_t{1} << (I % 64);
    const uint64_t Old =
        Words[I / 64].fetch_and(~Mask, std::memory_order_acq_rel);
    return (Old & Mask) != 0;
  }

  /// Atomically claims the lowest unset bit at or above \p From,
  /// scanning word-at-a-time (one fetch_or per attempt instead of one
  /// per bit). Returns true and stores the claimed index in \p Index,
  /// or false when no unset bit remains. The single-slot companion of
  /// claimUnsetBits (the refill path's bulk claim) for callers that
  /// reserve incrementally; currently exercised by the unit suite.
  bool setFirstUnset(uint32_t *Index, uint32_t From = 0) {
    assert(Index != nullptr);
    for (uint32_t W = From / 64; W < kWords; ++W) {
      const uint64_t Range = rangeMask(W);
      uint64_t Lead = W == From / 64 ? ~((uint64_t{1} << (From % 64)) - 1)
                                     : ~uint64_t{0};
      for (;;) {
        const uint64_t Free =
            ~Words[W].load(std::memory_order_acquire) & Range & Lead;
        if (Free == 0)
          break;
        const uint32_t Bit = __builtin_ctzll(Free);
        const uint64_t Mask = uint64_t{1} << Bit;
        const uint64_t Old =
            Words[W].fetch_or(Mask, std::memory_order_acq_rel);
        if ((Old & Mask) == 0) {
          *Index = W * 64 + Bit;
          return true;
        }
        // Lost the race for this bit; retry the word without it.
        Lead &= ~Mask;
      }
    }
    return false;
  }

  /// Atomically claims *every* unset bit with one fetch_or per word and
  /// invokes \p Fn(index) for each claimed bit in increasing order.
  /// This is the refill-path primitive: reserving a whole span's free
  /// slots costs kWords read-modify-writes, not one per object.
  /// Returns the number of bits claimed. Bits concurrently cleared by
  /// remote frees after the word is read are simply left unclaimed.
  template <typename Callable> uint32_t claimUnsetBits(Callable Fn) {
    uint32_t Claimed = 0;
    for (uint32_t W = 0; W < kWords; ++W) {
      const uint64_t Range = rangeMask(W);
      if (Range == 0)
        break;
      const uint64_t Free =
          ~Words[W].load(std::memory_order_acquire) & Range;
      if (Free == 0)
        continue;
      const uint64_t Old = Words[W].fetch_or(Free, std::memory_order_acq_rel);
      uint64_t Won = Free & ~Old;
      while (Won != 0) {
        const uint32_t Bit = __builtin_ctzll(Won);
        Fn(W * 64 + Bit);
        ++Claimed;
        Won &= Won - 1;
      }
    }
    return Claimed;
  }

  bool isSet(uint32_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (Words[I / 64].load(std::memory_order_acquire) &
            (uint64_t{1} << (I % 64))) != 0;
  }

  /// Number of set bits (the span's live-object count).
  uint32_t inUseCount() const {
    uint32_t Count = 0;
    for (const auto &W : Words)
      Count += __builtin_popcountll(W.load(std::memory_order_acquire));
    return Count;
  }

  /// Clears every bit.
  void clearAll() {
    for (auto &W : Words)
      W.store(0, std::memory_order_release);
  }

  /// True iff no bit is set in both this bitmap and \p Other: the two
  /// spans' objects occupy disjoint offsets (Definition 5.1).
  bool isMeshableWith(const Bitmap &Other) const {
    for (uint32_t W = 0; W < kWords; ++W)
      if ((Words[W].load(std::memory_order_acquire) &
           Other.Words[W].load(std::memory_order_acquire)) != 0)
        return false;
    return true;
  }

  /// ORs \p Other into this bitmap (used when consolidating two meshed
  /// spans' metadata). The caller must ensure disjointness.
  void mergeFrom(const Bitmap &Other) {
    for (uint32_t W = 0; W < kWords; ++W)
      Words[W].fetch_or(Other.Words[W].load(std::memory_order_acquire),
                        std::memory_order_acq_rel);
  }

  /// Raw word, for tests and the analysis toolkit.
  uint64_t word(uint32_t W) const {
    assert(W < kWords && "word index out of range");
    return Words[W].load(std::memory_order_acquire);
  }

  /// Invokes \p Fn(index) for every set bit, in increasing order.
  template <typename Callable> void forEachSet(Callable Fn) const {
    for (uint32_t W = 0; W < kWords; ++W) {
      uint64_t Bits = Words[W].load(std::memory_order_acquire);
      while (Bits != 0) {
        const uint32_t Bit = __builtin_ctzll(Bits);
        Fn(W * 64 + Bit);
        Bits &= Bits - 1;
      }
    }
  }

private:
  /// Mask of valid (in-range) bits for word \p W.
  uint64_t rangeMask(uint32_t W) const {
    if ((W + 1) * 64 <= NumBits)
      return ~uint64_t{0};
    if (W * 64 >= NumBits)
      return 0;
    return (uint64_t{1} << (NumBits % 64)) - 1;
  }

  std::atomic<uint64_t> Words[kWords];
  uint32_t NumBits;
};

} // namespace mesh

#endif // MESH_SUPPORT_BITMAP_H
