//===- support/Arena.h - Bump allocation for flat IR -----------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bump allocators backing the flat instruction IR. A BumpArena hands out
/// pointers from large chunks and frees everything at once, so per-routine
/// CFG objects (blocks, edges, adjacency arrays) cost one pointer bump to
/// allocate and nothing to destroy — objects placed in an arena must be
/// trivially destructible, which the flat IR types are by construction.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_ARENA_H
#define EEL_SUPPORT_ARENA_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace eel {

/// Chunked bump allocator. Not thread-safe: concurrent users each own one.
class BumpArena {
public:
  static constexpr size_t DefaultChunkBytes = 16384;

  explicit BumpArena(size_t ChunkBytes = DefaultChunkBytes)
      : ChunkSize(ChunkBytes ? ChunkBytes : DefaultChunkBytes) {}

  BumpArena(const BumpArena &) = delete;
  BumpArena &operator=(const BumpArena &) = delete;

  /// Returns \p Bytes of storage aligned to \p Align (a power of two).
  void *allocate(size_t Bytes, size_t Align) {
    assert(Align && (Align & (Align - 1)) == 0 && "alignment not a power of 2");
    if (Bytes == 0)
      Bytes = 1;
    if (!Chunks.empty()) {
      Chunk &C = Chunks.back();
      // Align the absolute address, not the chunk offset: the chunk base
      // is only max_align-aligned, so stricter alignments need the base
      // folded in.
      uintptr_t Base = reinterpret_cast<uintptr_t>(C.Mem.get());
      size_t At = ((Base + C.Used + Align - 1) & ~(Align - 1)) - Base;
      if (At + Bytes <= C.Size) {
        C.Used = At + Bytes;
        Allocated += Bytes;
        return C.Mem.get() + At;
      }
    }
    // New chunk; oversized requests get a dedicated chunk so the common
    // chunk size stays cache-friendly.
    size_t NewSize = std::max(ChunkSize, Bytes + Align);
    Chunk C;
    C.Mem.reset(new uint8_t[NewSize]);
    C.Size = NewSize;
    size_t At =
        (reinterpret_cast<uintptr_t>(C.Mem.get()) & (Align - 1))
            ? Align - (reinterpret_cast<uintptr_t>(C.Mem.get()) & (Align - 1))
            : 0;
    C.Used = At + Bytes;
    Allocated += Bytes;
    void *P = C.Mem.get() + At;
    Chunks.push_back(std::move(C));
    return P;
  }

  /// Placement-constructs a T in the arena. T must be trivially
  /// destructible: its destructor is never run.
  template <typename T, typename... Args> T *create(Args &&...A) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(A)...);
  }

  /// Uninitialized array of \p N trivially-destructible Ts.
  template <typename T> T *allocateArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Drops every allocation, keeping the first chunk for reuse.
  void reset() {
    if (Chunks.size() > 1)
      Chunks.erase(Chunks.begin() + 1, Chunks.end());
    if (!Chunks.empty())
      Chunks.front().Used = 0;
    Allocated = 0;
  }

  /// Payload bytes handed out since construction or reset().
  size_t bytesAllocated() const { return Allocated; }

  /// Total chunk capacity currently reserved.
  size_t bytesReserved() const {
    size_t Total = 0;
    for (const Chunk &C : Chunks)
      Total += C.Size;
    return Total;
  }

  size_t chunkCount() const { return Chunks.size(); }

private:
  struct Chunk {
    std::unique_ptr<uint8_t[]> Mem;
    size_t Size = 0;
    size_t Used = 0;
  };

  size_t ChunkSize;
  size_t Allocated = 0;
  std::vector<Chunk> Chunks;
};

} // namespace eel

#endif // EEL_SUPPORT_ARENA_H
