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
///  * InstrIdx/BlockIdx handle round-trips: every block's insts() span is
///    exactly its [firstInstr(), +size()) slice of Cfg::instRows();
///  * the zero-copy writer over the workload corpus: every edited image
///    passes the full five-pass verifier and behaves like the original in
///    the VM, and 1 and 8 threads write the same bytes.
///
/// Registered under the ctest label `ir` so a -DEEL_SANITIZE build can run
/// just these: `ctest -L ir`.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "core/Executable.h"
#include "core/Routine.h"
#include "support/Arena.h"
#include "tools/Qpt.h"
#include "vm/Machine.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
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

// --- Writer correctness and determinism -------------------------------------------

std::vector<uint8_t> editedImage(const SxfFile &File, unsigned Threads,
                                 bool Instrument) {
  Executable::Options Opts;
  Opts.Threads = Threads;
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

TEST(ZeroCopyWriterTest, CorpusImagesPassFullVerification) {
  // The full verifier re-disassembles each written image (pass 5) and
  // checks it against the edit that produced it; the VM run checks the
  // program still does what the original did.
  for (TargetArch Arch : AllTargetArches)
    for (uint64_t Seed : {31u, 32u, 33u})
      for (bool Sunpro : {false, true})
        for (bool Instrument : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "arch " << static_cast<int>(Arch) << " seed "
                       << Seed << " sunpro " << Sunpro << " instrumented "
                       << Instrument);
          SxfFile File = generateWorkload(Arch, corpusMember(Seed, Sunpro));
          Executable Exec((SxfFile(File)));
          ASSERT_FALSE(Exec.readContents().hasError());
          if (Instrument) {
            Qpt2Profiler Profiler(Exec);
            Profiler.instrument();
          }
          Expected<SxfFile> Edited = Exec.writeEditedExecutable();
          ASSERT_TRUE(Edited.hasValue()) << Edited.error().describe();
          DiagnosticReport Report = verifyEdit(Exec, Edited.value());
          EXPECT_EQ(Report.errorCount(), 0u) << Report.renderText();
          RunResult Orig = runToCompletion(File);
          RunResult After = runToCompletion(Edited.value());
          EXPECT_EQ(After.Reason, StopReason::Exited);
          EXPECT_EQ(After.ExitCode, Orig.ExitCode);
          EXPECT_EQ(After.Output, Orig.Output);
        }
}

TEST(ZeroCopyWriterTest, ThreadCountDoesNotChangeOutput) {
  for (uint64_t Seed : {41u, 42u}) {
    SxfFile File = generateWorkload(TargetArch::Srisc, corpusMember(Seed, true));
    std::vector<uint8_t> Serial = editedImage(File, 1, /*Instrument=*/true);
    std::vector<uint8_t> Parallel = editedImage(File, 8, /*Instrument=*/true);
    ASSERT_FALSE(Serial.empty());
    EXPECT_EQ(Serial, Parallel) << "seed " << Seed;
  }
}

} // namespace
