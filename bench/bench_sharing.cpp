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
/// factor of four." We decode each suite's concatenated text into one
/// DecodeTable and report the ratio of text words to instruction objects,
/// plus decode throughput with and without the table's sharing.
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
    DecodeTable Table(sriscTarget(), Text->VAddr, Text->Bytes);
    uint64_t Sum = 0;
    for (size_t Off = 0; Off + 4 <= Text->Bytes.size(); Off += 4)
      Sum += static_cast<uint64_t>(Table.at(Text->VAddr + Off)->kind());
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
      Instruction Inst =
          makeInstruction(sriscTarget(), *File.readWord(Text->VAddr + Off));
      Sum += static_cast<uint64_t>(Inst.kind());
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
    // The suite's text words, end to end: one table over them shares
    // instructions across the whole suite.
    std::vector<uint8_t> Words;
    for (const SxfFile &File : makeSuite(Arch, false, 10, 32)) {
      const std::vector<uint8_t> &Text = File.segment(SegKind::Text)->Bytes;
      Words.insert(Words.end(), Text.begin(), Text.end() - Text.size() % 4);
    }
    DecodeTable Table(targetFor(Arch), 0, Words);
    uint64_t Requested = Words.size() / 4;
    uint64_t Allocated = Table.distinct();
    const char *ArchName = Arch == TargetArch::Srisc   ? "srisc"
                           : Arch == TargetArch::Mrisc ? "mrisc"
                                                       : "arisc";
    double Ratio =
        static_cast<double>(Requested) / static_cast<double>(Allocated);
    std::printf("%-10s %12llu %12llu %7.2fx\n", ArchName,
                static_cast<unsigned long long>(Requested),
                static_cast<unsigned long long>(Allocated), Ratio);
    Sink.metric(std::string("flyweight_ratio_") + ArchName, Ratio, "x");
    Sink.metric(std::string("instructions_allocated_") + ArchName,
                static_cast<double>(Allocated), "count");
  }
  std::printf("\npaper: the flyweight cuts allocations ~4x\n");
  return 0;
}
