//===- bench/bench_ir.cpp - Arena/SoA IR and zero-copy writer ------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the flat structure-of-arrays instruction IR against the shape
/// it replaced, and the zero-copy writer against the seed byte-push path:
///
///   - row walk: a liveness-style backward mask fold over every block.
///     The SoA side does what core/Liveness.cpp does — copy each row's
///     masks out of its Instruction into flat arrays once per solve, then
///     iterate over contiguous uint64 rows — versus chasing each row's
///     Instruction pointer for reads()/writes() on every fixpoint round,
///     which is what the pointer-linked IR forced. Reported in
///     instructions/second over the iterated fold.
///   - edit+write: the full pipeline with the default zero-copy emission
///     versus Options::LegacyWriter, with an unconditional byte-identity
///     assertion between the two images (the legacy path is kept in tree
///     precisely to be this oracle; a mismatch exits nonzero).
///   - arena statistics: CFG rows and the decode tables' arena bytes.
///
/// `--smoke` (stripped before benchmark::Initialize, like --json) shrinks
/// the workload and repetition counts to one short iteration for the
/// `bench-smoke` build target.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Executable.h"
#include "core/Routine.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

using namespace eel;
using namespace eelbench;

namespace {

/// Analyzed executable plus its routine CFGs, ready to walk. For the SoA
/// side, the per-graph flat mask arrays are resolved up front — the same
/// one-time prologue core/Liveness.cpp runs before its fixpoint.
struct AnalyzedFile {
  std::unique_ptr<Executable> Exec;
  std::vector<const Cfg *> Graphs;
  std::vector<std::vector<uint64_t>> Reads, Writes; ///< Parallel to Graphs.
};

AnalyzedFile analyze(const SxfFile &File) {
  AnalyzedFile A;
  Expected<std::unique_ptr<Executable>> Opened = Executable::openImage(
      SxfFile(File));
  if (Opened.hasError())
    return A;
  A.Exec = std::move(Opened.value());
  A.Exec->readContents();
  for (const std::unique_ptr<Routine> &R : A.Exec->routines())
    if (const Cfg *G = R->controlFlowGraph())
      A.Graphs.push_back(G);
  for (const Cfg *G : A.Graphs) {
    std::span<const CfgInst> Rows = G->instRows();
    std::vector<uint64_t> Reads(Rows.size()), Writes(Rows.size());
    for (size_t I = 0; I < Rows.size(); ++I) {
      Reads[I] = Rows[I].Inst->reads().mask();
      Writes[I] = Rows[I].Inst->writes().mask();
    }
    A.Reads.push_back(std::move(Reads));
    A.Writes.push_back(std::move(Writes));
  }
  return A;
}

/// The SoA walk: fold the pre-resolved flat mask arrays backwards through
/// every block's row range. No Instruction dereference, no hashing —
/// contiguous uint64 loads, exactly Liveness's inner loop.
uint64_t walkRows(const Cfg &G, const std::vector<uint64_t> &Reads,
                  const std::vector<uint64_t> &Writes, uint64_t &Instrs) {
  uint64_t Mask = 0;
  for (const BasicBlock *B : G.blocks()) {
    const InstrIdx First = B->firstInstr();
    for (InstrIdx I = First + B->size(); I-- > First;) {
      Mask = (Mask & ~Writes[I]) | Reads[I];
      ++Instrs;
    }
  }
  return Mask;
}

/// The pointer-chase walk the SoA layout replaced: same fold, but every
/// row dereferences its Instruction for the register sets.
uint64_t walkPointers(const Cfg &G, uint64_t &Instrs) {
  uint64_t Mask = 0;
  for (const BasicBlock *B : G.blocks()) {
    std::span<const CfgInst> Insts = B->insts();
    for (size_t I = Insts.size(); I-- > 0;) {
      const Instruction *Inst = Insts[I].Inst;
      Mask = (Mask & ~Inst->writes().mask()) | Inst->reads().mask();
      ++Instrs;
    }
  }
  return Mask;
}

/// \p Walk is called per (file, graph index) and folds one graph.
template <typename WalkFn>
double walkInstrsPerSec(const std::vector<AnalyzedFile> &Suite, WalkFn Walk,
                        unsigned Reps) {
  uint64_t Instrs = 0;
  auto Start = std::chrono::steady_clock::now();
  for (unsigned R = 0; R < Reps; ++R)
    for (const AnalyzedFile &A : Suite)
      for (size_t GI = 0; GI < A.Graphs.size(); ++GI)
        benchmark::DoNotOptimize(Walk(A, GI, Instrs));
  auto End = std::chrono::steady_clock::now();
  double Secs = std::chrono::duration<double>(End - Start).count();
  return Secs > 0.0 ? static_cast<double>(Instrs) / Secs : 0.0;
}

uint64_t rowWalkOne(const AnalyzedFile &A, size_t GI, uint64_t &Instrs) {
  return walkRows(*A.Graphs[GI], A.Reads[GI], A.Writes[GI], Instrs);
}

uint64_t ptrWalkOne(const AnalyzedFile &A, size_t GI, uint64_t &Instrs) {
  return walkPointers(*A.Graphs[GI], Instrs);
}

/// One full edit+write pass; returns the serialized edited image.
std::vector<uint8_t> editPipeline(const SxfFile &File, bool Legacy,
                                  unsigned Threads) {
  Executable::Options Opts;
  Opts.Threads = Threads;
  Opts.LegacyWriter = Legacy;
  Executable Exec(SxfFile(File), Opts);
  Exec.readContents();
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  if (Edited.hasError())
    return {};
  return Edited.value().serialize();
}

double suiteMillis(const std::vector<SxfFile> &Suite, bool Legacy,
                   unsigned Threads) {
  auto Start = std::chrono::steady_clock::now();
  for (const SxfFile &File : Suite)
    benchmark::DoNotOptimize(editPipeline(File, Legacy, Threads));
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

} // namespace

static void BM_RowWalk(benchmark::State &State) {
  AnalyzedFile A =
      analyze(generateWorkload(TargetArch::Srisc, suiteMember(false, 11)));
  uint64_t Instrs = 0;
  for (auto _ : State)
    for (size_t GI = 0; GI < A.Graphs.size(); ++GI)
      benchmark::DoNotOptimize(rowWalkOne(A, GI, Instrs));
  State.SetItemsProcessed(static_cast<int64_t>(Instrs));
}
BENCHMARK(BM_RowWalk);

static void BM_PointerWalk(benchmark::State &State) {
  AnalyzedFile A =
      analyze(generateWorkload(TargetArch::Srisc, suiteMember(false, 11)));
  uint64_t Instrs = 0;
  for (auto _ : State)
    for (const Cfg *G : A.Graphs)
      benchmark::DoNotOptimize(walkPointers(*G, Instrs));
  State.SetItemsProcessed(static_cast<int64_t>(Instrs));
}
BENCHMARK(BM_PointerWalk);

static void BM_EditWriteZeroCopy(benchmark::State &State) {
  SxfFile File = generateWorkload(TargetArch::Srisc, suiteMember(true, 7));
  for (auto _ : State)
    benchmark::DoNotOptimize(editPipeline(File, /*Legacy=*/false, 1));
}
BENCHMARK(BM_EditWriteZeroCopy)->Unit(benchmark::kMillisecond);

static void BM_EditWriteLegacy(benchmark::State &State) {
  SxfFile File = generateWorkload(TargetArch::Srisc, suiteMember(true, 7));
  for (auto _ : State)
    benchmark::DoNotOptimize(editPipeline(File, /*Legacy=*/true, 1));
}
BENCHMARK(BM_EditWriteLegacy)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  eelbench::JsonSink Sink("bench_ir", &argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  const bool SmokeMode = Sink.smoke();
  const unsigned SuiteCount = SmokeMode ? 1 : 3;
  const unsigned Routines = SmokeMode ? 8 : 24;
  const unsigned WalkReps = SmokeMode ? 2 : 20;
  const unsigned TimedPasses = SmokeMode ? 1 : 5;

  printHeader("IR walk throughput (SoA rows vs pointer chase)");

  std::vector<SxfFile> Files = makeSuite(TargetArch::Srisc, false, SuiteCount,
                                         Routines);
  for (SxfFile &F : makeSuite(TargetArch::Srisc, true, SuiteCount, Routines))
    Files.push_back(std::move(F));

  std::vector<AnalyzedFile> Suite;
  for (const SxfFile &File : Files)
    Suite.push_back(analyze(File));

  // Warm-up, then measure each walk.
  uint64_t Warm = 0;
  for (const AnalyzedFile &A : Suite)
    for (size_t GI = 0; GI < A.Graphs.size(); ++GI) {
      benchmark::DoNotOptimize(rowWalkOne(A, GI, Warm));
      benchmark::DoNotOptimize(ptrWalkOne(A, GI, Warm));
    }

  double RowIps = walkInstrsPerSec(Suite, rowWalkOne, WalkReps);
  double PtrIps = walkInstrsPerSec(Suite, ptrWalkOne, WalkReps);
  double WalkSpeedup = PtrIps > 0.0 ? RowIps / PtrIps : 0.0;
  std::printf("%-24s %15s\n", "walk", "instrs/sec");
  std::printf("%-24s %15.3e\n", "SoA rows + flat masks", RowIps);
  std::printf("%-24s %15.3e\n", "pointer chase", PtrIps);
  std::printf("%-24s %14.2fx\n", "row-walk speedup", WalkSpeedup);
  Sink.metric("soa_walk_ips", RowIps, "instrs/s");
  Sink.metric("ptr_walk_ips", PtrIps, "instrs/s");
  Sink.metric("walk_speedup", WalkSpeedup, "x");

  printHeader("Edit+write: zero-copy emission vs legacy byte-push");

  // Byte identity first — the legacy writer exists to be this oracle.
  bool Identical = true;
  for (const SxfFile &File : Files)
    Identical &= editPipeline(File, /*Legacy=*/false, 1) ==
                 editPipeline(File, /*Legacy=*/true, 1);
  std::printf("zero-copy vs legacy images: %s\n",
              Identical ? "byte-identical" : "MISMATCH (bug!)");
  Sink.metric("writer_identical", Identical ? 1 : 0, "bool");

  double ZeroMs = 1e300, LegacyMs = 1e300;
  for (unsigned P = 0; P < TimedPasses; ++P) {
    ZeroMs = std::min(ZeroMs, suiteMillis(Files, /*Legacy=*/false, 1));
    LegacyMs = std::min(LegacyMs, suiteMillis(Files, /*Legacy=*/true, 1));
  }
  double WriterSpeedup = ZeroMs > 0.0 ? LegacyMs / ZeroMs : 0.0;
  std::printf("%-24s %12s\n", "writer", "suite ms");
  std::printf("%-24s %12.1f\n", "zero-copy", ZeroMs);
  std::printf("%-24s %12.1f\n", "legacy byte-push", LegacyMs);
  std::printf("%-24s %11.2fx\n", "writer speedup", WriterSpeedup);
  Sink.metric("zero_copy_suite_ms", ZeroMs, "ms");
  Sink.metric("legacy_suite_ms", LegacyMs, "ms");
  Sink.metric("writer_speedup", WriterSpeedup, "x");

  printHeader("Arena statistics");

  uint64_t PoolArenaBytes = 0, RowCount = 0;
  for (const AnalyzedFile &A : Suite) {
    PoolArenaBytes += A.Exec->analysis().pool().arenaBytes();
    for (const Cfg *G : A.Graphs)
      RowCount += G->instRows().size();
  }
  std::printf("CFG rows:                 %llu\n",
              static_cast<unsigned long long>(RowCount));
  std::printf("decode table arena bytes: %llu\n",
              static_cast<unsigned long long>(PoolArenaBytes));
  Sink.metric("cfg_rows", static_cast<double>(RowCount), "rows");
  Sink.metric("pool_arena_bytes", static_cast<double>(PoolArenaBytes),
              "bytes");

  if (!Identical) {
    std::fprintf(stderr,
                 "FAIL: zero-copy writer diverged from the legacy oracle\n");
    return 1;
  }
  std::printf("\nthe legacy writer stays in tree as the byte-identity oracle "
              "above.\n");
  return 0;
}
