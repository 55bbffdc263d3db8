//===- tests/ArenaTest.cpp - Arena/SoA IR and zero-copy writer tests -------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat instruction IR's storage layer and the zero-copy writer built
/// on it:
///
///  * BumpArena growth, alignment, oversized-chunk handling, and reset;
///  * ShardedBumpArena shard independence and aggregate accounting;
///  * InternedPairTable dedup (same pair → same index) and lock-free
///    round-trip, including concurrent intern/get;
///  * InstrIdx/BlockIdx handle round-trips: every block's insts() span is
///    exactly its [firstInstr(), +size()) slice of Cfg::instRows(), and
///    rowOps() resolves to the same masks the Instruction objects carry;
///  * the flyweight pool's dense decode index (getAt agrees with get and
///    returns pointer-identical instructions);
///  * byte identity of the zero-copy writer against Options::LegacyWriter
///    over the workload corpus, and 1-vs-8-thread determinism of the
///    zero-copy path.
///
/// Registered under the ctest label `ir` so a -DEEL_SANITIZE build can run
/// just these: `ctest -L ir`.
///
//===----------------------------------------------------------------------===//

#include "core/Executable.h"
#include "core/Routine.h"
#include "support/Arena.h"
#include "tools/Qpt.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

using namespace eel;

namespace {

// --- BumpArena --------------------------------------------------------------------

TEST(BumpArenaTest, AllocationsDoNotOverlap) {
  BumpArena Arena;
  std::vector<std::pair<uint8_t *, size_t>> Blocks;
  for (size_t Bytes : {1u, 7u, 16u, 64u, 129u, 1000u}) {
    auto *P = static_cast<uint8_t *>(Arena.allocate(Bytes, 8));
    ASSERT_NE(P, nullptr);
    std::memset(P, 0xAB, Bytes);
    Blocks.emplace_back(P, Bytes);
  }
  for (size_t I = 0; I < Blocks.size(); ++I)
    for (size_t J = I + 1; J < Blocks.size(); ++J) {
      uint8_t *A = Blocks[I].first, *B = Blocks[J].first;
      EXPECT_TRUE(A + Blocks[I].second <= B || B + Blocks[J].second <= A)
          << "blocks " << I << " and " << J << " overlap";
    }
}

TEST(BumpArenaTest, RespectsAlignment) {
  BumpArena Arena;
  for (size_t Align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    // Mis-align the cursor first with a 1-byte allocation.
    Arena.allocate(1, 1);
    void *P = Arena.allocate(3, Align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u)
        << "alignment " << Align;
  }
}

TEST(BumpArenaTest, GrowsAcrossChunksAndKeepsOldAllocationsValid) {
  BumpArena Arena(/*ChunkBytes=*/256);
  auto *First = Arena.create<uint64_t>(0x1122334455667788ull);
  // Force several new chunks.
  for (int I = 0; I < 64; ++I)
    Arena.allocate(100, 8);
  EXPECT_GT(Arena.chunkCount(), 1u);
  EXPECT_EQ(*First, 0x1122334455667788ull); // first chunk untouched
}

TEST(BumpArenaTest, OversizedRequestGetsDedicatedChunk) {
  BumpArena Arena(/*ChunkBytes=*/128);
  auto *Big = static_cast<uint8_t *>(Arena.allocate(4096, 16));
  ASSERT_NE(Big, nullptr);
  std::memset(Big, 0xCD, 4096);
  EXPECT_GE(Arena.bytesReserved(), 4096u);
}

TEST(BumpArenaTest, ResetReclaimsAndReuses) {
  BumpArena Arena(/*ChunkBytes=*/256);
  for (int I = 0; I < 32; ++I)
    Arena.allocate(64, 8);
  size_t Reserved = Arena.bytesReserved();
  EXPECT_GT(Arena.bytesAllocated(), 0u);
  Arena.reset();
  EXPECT_EQ(Arena.bytesAllocated(), 0u);
  EXPECT_LE(Arena.bytesReserved(), Reserved); // keeps at most the first chunk
  EXPECT_EQ(Arena.chunkCount(), 1u);
  void *P = Arena.allocate(16, 8);
  EXPECT_NE(P, nullptr);
}

TEST(BumpArenaTest, BytesAllocatedTracksPayload) {
  BumpArena Arena;
  EXPECT_EQ(Arena.bytesAllocated(), 0u);
  Arena.allocate(10, 1);
  Arena.allocate(20, 1);
  EXPECT_EQ(Arena.bytesAllocated(), 30u);
}

// --- ShardedBumpArena -------------------------------------------------------------

TEST(ShardedBumpArenaTest, ShardsAllocateIndependently) {
  ShardedBumpArena Arenas(8);
  EXPECT_EQ(Arenas.shardCount(), 8u);
  for (size_t I = 0; I < 8; ++I) {
    ShardedBumpArena::Shard &S = Arenas.shard(I);
    std::lock_guard<std::mutex> Lock(S.M);
    S.Arena.allocate(10 * (I + 1), 8);
  }
  EXPECT_EQ(Arenas.bytesAllocated(), 10u * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
}

TEST(ShardedBumpArenaTest, ConcurrentAllocationIsSafe) {
  ShardedBumpArena Arenas(16);
  constexpr size_t ThreadCount = 8, PerThread = 500;
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&Arenas, T] {
      for (size_t I = 0; I < PerThread; ++I) {
        ShardedBumpArena::Shard &S = Arenas.shardFor(T * PerThread + I);
        std::lock_guard<std::mutex> Lock(S.M);
        auto *P = static_cast<uint32_t *>(S.Arena.allocate(4, 4));
        *P = static_cast<uint32_t>(I);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Arenas.bytesAllocated(), ThreadCount * PerThread * 4);
}

// --- InternedPairTable ------------------------------------------------------------

TEST(InternedPairTableTest, DedupsAndRoundTrips) {
  InternedPairTable Table;
  uint32_t A = Table.intern(0x1, 0x2);
  uint32_t B = Table.intern(0x3, 0x4);
  uint32_t A2 = Table.intern(0x1, 0x2);
  EXPECT_EQ(A, A2);
  EXPECT_NE(A, B);
  EXPECT_EQ(Table.size(), 2u);
  InternedPairTable::Pair P = Table.get(A);
  EXPECT_EQ(P.First, 0x1u);
  EXPECT_EQ(P.Second, 0x2u);
  P = Table.get(B);
  EXPECT_EQ(P.First, 0x3u);
  EXPECT_EQ(P.Second, 0x4u);
}

TEST(InternedPairTableTest, GrowsAcrossChunks) {
  InternedPairTable Table;
  // More pairs than one 512-entry chunk holds.
  constexpr uint32_t N = 1500;
  std::vector<uint32_t> Indices;
  for (uint32_t I = 0; I < N; ++I)
    Indices.push_back(Table.intern(I, ~uint64_t(I)));
  EXPECT_EQ(Table.size(), N);
  for (uint32_t I = 0; I < N; ++I) {
    InternedPairTable::Pair P = Table.get(Indices[I]);
    EXPECT_EQ(P.First, I);
    EXPECT_EQ(P.Second, ~uint64_t(I));
  }
  // Distinct pairs must get distinct indices.
  EXPECT_EQ(std::set<uint32_t>(Indices.begin(), Indices.end()).size(), N);
}

TEST(InternedPairTableTest, ConcurrentInternAndGet) {
  InternedPairTable Table;
  constexpr size_t ThreadCount = 8;
  constexpr uint32_t Distinct = 200;
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&Table] {
      for (uint32_t I = 0; I < Distinct; ++I) {
        uint32_t Idx = Table.intern(I * 3, I * 7);
        InternedPairTable::Pair P = Table.get(Idx); // lock-free read back
        EXPECT_EQ(P.First, uint64_t(I) * 3);
        EXPECT_EQ(P.Second, uint64_t(I) * 7);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  // Every thread interned the same pair set: dedup must hold across them.
  EXPECT_EQ(Table.size(), Distinct);
}

// --- InstrIdx/BlockIdx handles over real CFGs -------------------------------------

WorkloadOptions corpusMember(uint64_t Seed, bool Sunpro) {
  WorkloadOptions Opts;
  Opts.Seed = Seed;
  Opts.Routines = 12;
  Opts.SegmentsPerRoutine = 5;
  Opts.SwitchPercent = 35;
  Opts.TailCallPercent = Sunpro ? 35 : 0;
  return Opts;
}

TEST(FlatIrTest, BlockSpansTileTheRowArray) {
  SxfFile File = generateWorkload(TargetArch::Srisc, corpusMember(21, false));
  Executable Exec((SxfFile(File)));
  Exec.readContents();
  unsigned GraphsChecked = 0;
  for (const std::unique_ptr<Routine> &R : Exec.routines()) {
    Cfg *G = R->controlFlowGraph();
    if (!G)
      continue;
    ++GraphsChecked;
    std::span<const CfgInst> Rows = G->instRows();
    ASSERT_EQ(Rows.size(), G->rowOps().size());
    for (const BasicBlock *B : G->blocks()) {
      // insts() must be exactly the [firstInstr(), +size()) slice of the
      // parent's row array — the InstrIdx round-trip.
      std::span<const CfgInst> Insts = B->insts();
      ASSERT_LE(B->firstInstr() + B->size(), Rows.size());
      EXPECT_EQ(Insts.data(), Rows.data() + B->firstInstr());
      EXPECT_EQ(Insts.size(), B->size());
    }
  }
  EXPECT_GT(GraphsChecked, 0u);
}

TEST(FlatIrTest, RowOperandsMatchInstructionMasks) {
  SxfFile File = generateWorkload(TargetArch::Srisc, corpusMember(22, true));
  Executable Exec((SxfFile(File)));
  Exec.readContents();
  uint64_t RowsChecked = 0, Interned = 0;
  for (const std::unique_ptr<Routine> &R : Exec.routines()) {
    Cfg *G = R->controlFlowGraph();
    if (!G)
      continue;
    std::span<const CfgInst> Rows = G->instRows();
    std::span<const uint32_t> Ops = G->rowOps();
    const InternedPairTable *Table = G->operandTable();
    ASSERT_NE(Table, nullptr);
    for (size_t I = 0; I < Rows.size(); ++I) {
      ++RowsChecked;
      if (Ops[I] == Instruction::NoOpIndex)
        continue;
      ++Interned;
      InternedPairTable::Pair P = Table->get(Ops[I]);
      EXPECT_EQ(P.First, Rows[I].Inst->reads().mask());
      EXPECT_EQ(P.Second, Rows[I].Inst->writes().mask());
      EXPECT_EQ(Ops[I], Rows[I].Inst->opIndex());
    }
  }
  EXPECT_GT(RowsChecked, 0u);
  EXPECT_GT(Interned, 0u);
}

TEST(FlatIrTest, OperandInterningDedups) {
  SxfFile File = generateWorkload(TargetArch::Srisc, corpusMember(23, false));
  Executable Exec((SxfFile(File)));
  Exec.readContents();
  // Distinct (reads, writes) pairs across all rows must equal the table's
  // entry count for those rows — the table is exactly the dedup set.
  std::set<std::pair<uint64_t, uint64_t>> DistinctPairs;
  std::set<uint32_t> UsedIndices;
  uint64_t Rows = 0;
  for (const std::unique_ptr<Routine> &R : Exec.routines()) {
    Cfg *G = R->controlFlowGraph();
    if (!G)
      continue;
    std::span<const uint32_t> Ops = G->rowOps();
    const InternedPairTable *Table = G->operandTable();
    for (uint32_t Op : Ops) {
      ++Rows;
      if (Op == Instruction::NoOpIndex)
        continue;
      InternedPairTable::Pair P = Table->get(Op);
      DistinctPairs.emplace(P.First, P.Second);
      UsedIndices.insert(Op);
    }
  }
  EXPECT_EQ(DistinctPairs.size(), UsedIndices.size());
  // Interning must actually share: far fewer distinct pairs than rows.
  EXPECT_GT(Rows, 2 * UsedIndices.size());
}

// --- Dense decode index -----------------------------------------------------------

TEST(DecodeIndexTest, GetAtAgreesWithGetAndIsPointerStable) {
  SxfFile File = generateWorkload(TargetArch::Srisc, corpusMember(24, false));
  Executable Exec((SxfFile(File)));
  Exec.readContents();
  const Analysis &An = Exec.analysis();
  InstructionPool &Pool = An.pool();
  for (Addr A = An.textBase(); A < An.textEnd(); A += 4) {
    std::optional<MachWord> W = An.fetchWord(A);
    ASSERT_TRUE(W.has_value());
    const Instruction *ByAddr = Pool.getAt(A, *W);
    const Instruction *ByWord = Pool.get(*W);
    EXPECT_EQ(ByAddr, ByWord) << "addr " << std::hex << A;
    // Second probe must return the published pointer, not a new object.
    EXPECT_EQ(Pool.getAt(A, *W), ByAddr);
  }
}

// --- Writer byte identity and determinism -----------------------------------------

std::vector<uint8_t> editedImage(const SxfFile &File, unsigned Threads,
                                 bool Legacy, bool Instrument) {
  Executable::Options Opts;
  Opts.Threads = Threads;
  Opts.LegacyWriter = Legacy;
  Executable Exec(SxfFile(File), Opts);
  Exec.readContents();
  if (Instrument) {
    Qpt2Profiler Profiler(Exec);
    Profiler.instrument();
  }
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  EXPECT_FALSE(Edited.hasError());
  if (Edited.hasError())
    return {};
  return Edited.value().serialize();
}

TEST(ZeroCopyWriterTest, ByteIdenticalToLegacyWriterAcrossCorpus) {
  for (TargetArch Arch : AllTargetArches)
    for (uint64_t Seed : {31u, 32u, 33u})
      for (bool Sunpro : {false, true})
        for (bool Instrument : {false, true}) {
          SxfFile File = generateWorkload(Arch, corpusMember(Seed, Sunpro));
          std::vector<uint8_t> ZeroCopy =
              editedImage(File, 1, /*Legacy=*/false, Instrument);
          std::vector<uint8_t> Legacy =
              editedImage(File, 1, /*Legacy=*/true, Instrument);
          ASSERT_FALSE(ZeroCopy.empty());
          EXPECT_EQ(ZeroCopy, Legacy)
              << "arch " << (Arch == TargetArch::Srisc ? "srisc" : "mrisc")
              << " seed " << Seed << " sunpro " << Sunpro << " instrumented "
              << Instrument;
        }
}

TEST(ZeroCopyWriterTest, ThreadCountDoesNotChangeOutput) {
  for (uint64_t Seed : {41u, 42u}) {
    SxfFile File = generateWorkload(TargetArch::Srisc, corpusMember(Seed, true));
    std::vector<uint8_t> Serial =
        editedImage(File, 1, /*Legacy=*/false, /*Instrument=*/true);
    std::vector<uint8_t> Parallel =
        editedImage(File, 8, /*Legacy=*/false, /*Instrument=*/true);
    ASSERT_FALSE(Serial.empty());
    EXPECT_EQ(Serial, Parallel) << "seed " << Seed;
  }
}

} // namespace
