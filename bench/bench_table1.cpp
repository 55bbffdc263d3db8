//===- bench/bench_table1.cpp - Table 1: qpt vs qpt2 ---------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Table 1 of the paper: the cost of building a tool on EEL's
/// abstractions versus the old ad-hoc way. Both profilers instrument the
/// same spim-sized generated program; we report
///
///   * instrumentation run time (the paper's 4.4s vs 19.0s / 8.4s rows —
///     qpt2 is expected to be a single-digit factor slower), the mean of
///     each tool's warm runs in its google-benchmark loop,
///   * objects allocated (the paper's 84,655 vs 317,494),
///   * basic blocks found (the paper's 15,441 vs 26,912, the difference
///     being EEL's delay-slot, entry/exit, and call-surrogate blocks),
///   * tool source size (the paper's 14,500 lines of C vs 6,276 of C++ —
///     inverted here in EEL's favour because the ad-hoc tool's full
///     machinery lives in the EEL libraries instead).
///
/// The paper's -O2/-ND rows vary the *compiler* flags of the tool binary,
/// which a single benchmark binary cannot reproduce; EXPERIMENTS.md records
/// this substitution.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Executable.h"
#include "support/Metrics.h"
#include "tools/AdhocQpt.h"
#include "tools/Qpt.h"

#include <benchmark/benchmark.h>

#include <chrono>

using namespace eel;
using namespace eelbench;

namespace {

/// One spim-sized program (the paper instruments spim: 320,536 bytes).
SxfFile spimLike() {
  WorkloadOptions Opts = suiteMember(false, 42, /*Routines=*/64);
  Opts.SegmentsPerRoutine = 8;
  return generateWorkload(TargetArch::Srisc, Opts);
}

/// The ad-hoc tool over \p File; returns the blocks it found.
unsigned runAdhoc(const SxfFile &File) {
  Expected<AdhocResult> Result = adhocInstrument(File);
  benchmark::DoNotOptimize(Result);
  return Result.value().BlocksFound;
}

/// qpt2 over \p File, through the edited image; returns its counters.
size_t runQpt2(const SxfFile &File) {
  Executable Exec((SxfFile(File)));
  Qpt2Profiler Profiler(Exec);
  Profiler.instrument();
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  benchmark::DoNotOptimize(Edited);
  return Profiler.counters().size();
}

/// Table 1's times: the mean milliseconds per run of the last pass of
/// each tool's BM loop below, so both tools are timed warm.
double AdhocMs = 0;
double EelMs = 0;

double millisPerRun(std::chrono::steady_clock::time_point T0,
                    const benchmark::State &State) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
             .count() /
         static_cast<double>(State.iterations());
}

} // namespace

static void BM_AdhocQpt(benchmark::State &State) {
  SxfFile File = spimLike();
  unsigned Blocks = 0;
  auto T0 = std::chrono::steady_clock::now();
  for (auto _ : State)
    Blocks = runAdhoc(File);
  AdhocMs = millisPerRun(T0, State);
  State.counters["blocks"] = static_cast<double>(Blocks);
}
BENCHMARK(BM_AdhocQpt)->Unit(benchmark::kMillisecond);

static void BM_Qpt2(benchmark::State &State) {
  SxfFile File = spimLike();
  auto T0 = std::chrono::steady_clock::now();
  for (auto _ : State)
    runQpt2(File);
  EelMs = millisPerRun(T0, State);
}
BENCHMARK(BM_Qpt2)->Unit(benchmark::kMillisecond);

static void printTable1(eelbench::JsonSink &Sink) {
  printHeader("Table 1: qpt (ad hoc) vs qpt2 (EEL-based)");
  SxfFile File = spimLike();
  const SxfSegment *Text = File.segment(SegKind::Text);
  std::printf("workload: %zu bytes of text, %zu routines' worth of code\n",
              Text->Bytes.size(), static_cast<size_t>(64));

  // --- Count: one run of each, untimed (the BM loops timed them). The
  // ad-hoc tool allocates flat arrays: approximate object count is its
  // block and counter tables. qpt2's objects are what its run's sink
  // counted.
  unsigned AdhocBlocks = runAdhoc(File);
  uint64_t AdhocObjects = uint64_t(AdhocBlocks) * 2;
  MetricsSink Counted;
  size_t EelCounters = 0;
  {
    TraceRequestScope Scope(/*Rid=*/0, &Counted);
    EelCounters = runQpt2(File);
  }
  MetricsSnapshot Counts = Counted.snapshot();
  uint64_t EelBlocks = Counts.counter("eel.cfg.blocks");
  uint64_t EelObjects = Counts.counter("eel.inst.allocated") + EelBlocks +
                        Counts.counter("eel.cfg.edges") + EelCounters;

  unsigned AdhocLines = sourceLines("src/tools/AdhocQpt.cpp") +
                        sourceLines("src/tools/AdhocQpt.h");
  unsigned EelToolLines =
      sourceLines("src/tools/Qpt.cpp") + sourceLines("src/tools/Qpt.h");
  unsigned EelLibLines = 0;
  const char *CoreFiles[] = {
      "src/core/Executable.cpp", "src/core/SymbolRefine.cpp",
      "src/core/CfgBuild.cpp",   "src/core/Cfg.cpp",
      "src/core/Instruction.cpp", "src/core/Slice.cpp",
      "src/core/Liveness.cpp",   "src/core/RegAlloc.cpp",
      "src/core/Layout.cpp",     "src/core/Translate.cpp",
      "src/core/OutputWriter.cpp"};
  for (const char *F : CoreFiles)
    EelLibLines += sourceLines(F);

  std::printf("time: mean of each tool's warm runs in its BM loop\n");
  std::printf("%-22s %14s %14s %14s %14s\n", "tool version", "time (ms)",
              "objects", "blocks", "tool LoC");
  std::printf("%-22s %14.2f %14llu %14u %14u\n", "qpt   (ad hoc)", AdhocMs,
              static_cast<unsigned long long>(AdhocObjects),
              AdhocBlocks, AdhocLines);
  std::printf("%-22s %14.2f %14llu %14llu %14u\n", "qpt2  (EEL)", EelMs,
              static_cast<unsigned long long>(EelObjects),
              static_cast<unsigned long long>(EelBlocks), EelToolLines);
  std::printf("\nqpt2/qpt time ratio: %.2fx (paper: 4.3x unoptimized, "
              "2.4x at -O2)\n",
              EelMs / AdhocMs);
  std::printf("qpt2/qpt object ratio: %.2fx (paper: 317,494 / 84,655 = "
              "3.75x)\n",
              static_cast<double>(EelObjects) /
                  static_cast<double>(AdhocObjects));
  std::printf("qpt2/qpt block ratio: %.2fx (paper: 26,912 / 15,441 = "
              "1.74x)\n",
              static_cast<double>(EelBlocks) /
                  static_cast<double>(AdhocBlocks));
  std::printf("EEL library behind qpt2: %u lines (tool itself: %u; the "
              "paper's qpt2 was 6,276 lines because EEL was linked in "
              "separately)\n",
              EelLibLines, EelToolLines);
  Sink.metric("qpt_adhoc_time", AdhocMs, "ms");
  Sink.metric("qpt2_eel_time", EelMs, "ms");
  Sink.metric("qpt2_time_ratio", EelMs / AdhocMs, "x");
  Sink.metric("qpt2_object_ratio",
              static_cast<double>(EelObjects) /
                  static_cast<double>(AdhocObjects),
              "x");
  Sink.metric("qpt2_block_ratio",
              static_cast<double>(EelBlocks) /
                  static_cast<double>(AdhocBlocks),
              "x");
  Sink.metric("eel_library_lines", EelLibLines, "lines");
}

int main(int argc, char **argv) {
  eelbench::JsonSink Sink("bench_table1", &argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printTable1(Sink);
  return 0;
}
