//===- bench/bench_sharing.cpp - §3.4 flyweight instruction sharing -----------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the §3.4 claim: "EEL allocates only one instruction to
/// represent all instances of a particular machine instruction. Typically,
/// this optimization reduces the number of allocated EEL instructions by a
/// factor of four." We decode entire suites through an InstructionPool and
/// report requested/allocated ratios, plus decode throughput with and
/// without the pool.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Instruction.h"

#include <benchmark/benchmark.h>

using namespace eel;
using namespace eelbench;

static void BM_PooledDecode(benchmark::State &State) {
  SxfFile File =
      generateWorkload(TargetArch::Srisc, suiteMember(false, 5, 48));
  const SxfSegment *Text = File.segment(SegKind::Text);
  for (auto _ : State) {
    InstructionPool Pool(sriscTarget());
    uint64_t Sum = 0;
    for (size_t Off = 0; Off + 4 <= Text->Bytes.size(); Off += 4)
      Sum += static_cast<uint64_t>(
          Pool.get(*File.readWord(Text->VAddr + Off))->kind());
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_PooledDecode)->Unit(benchmark::kMillisecond);

static void BM_UnpooledDecode(benchmark::State &State) {
  SxfFile File =
      generateWorkload(TargetArch::Srisc, suiteMember(false, 5, 48));
  const SxfSegment *Text = File.segment(SegKind::Text);
  for (auto _ : State) {
    uint64_t Sum = 0;
    for (size_t Off = 0; Off + 4 <= Text->Bytes.size(); Off += 4) {
      auto Inst =
          makeInstruction(sriscTarget(), *File.readWord(Text->VAddr + Off));
      Sum += static_cast<uint64_t>(Inst->kind());
    }
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_UnpooledDecode)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  eelbench::JsonSink Sink("bench_sharing", &argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  printHeader("§3.4: one instruction object per distinct machine word");
  std::printf("%-10s %12s %12s %8s\n", "target", "requested", "allocated",
              "ratio");
  for (TargetArch Arch : AllTargetArches) {
    // One request per text word submitted; the pool itself counts only
    // what it allocates.
    InstructionPool Pool(targetFor(Arch));
    uint64_t Requested = 0;
    for (const SxfFile &File : makeSuite(Arch, false, 10, 32)) {
      const SxfSegment *Text = File.segment(SegKind::Text);
      for (size_t Off = 0; Off + 4 <= Text->Bytes.size(); Off += 4) {
        Pool.get(*File.readWord(Text->VAddr + Off));
        ++Requested;
      }
    }
    const char *ArchName = Arch == TargetArch::Srisc   ? "srisc"
                           : Arch == TargetArch::Mrisc ? "mrisc"
                                                       : "arisc";
    double Ratio = static_cast<double>(Requested) /
                   static_cast<double>(Pool.allocated());
    std::printf("%-10s %12llu %12llu %7.2fx\n", ArchName,
                static_cast<unsigned long long>(Requested),
                static_cast<unsigned long long>(Pool.allocated()), Ratio);
    Sink.metric(std::string("flyweight_ratio_") + ArchName, Ratio, "x");
    Sink.metric(std::string("instructions_allocated_") + ArchName,
                static_cast<double>(Pool.allocated()), "count");
  }
  std::printf("\npaper: the flyweight cuts allocations ~4x\n");
  return 0;
}
