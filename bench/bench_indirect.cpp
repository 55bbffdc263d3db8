//===- bench/bench_indirect.cpp - §3.3 indirect-jump analyzability -----------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the §3.3 measurement of unanalyzable indirect jumps in
/// SPEC92:
///
///   "On SunOS 4.1.3 using gcc ... EEL found no unanalyzable indirect
///    jumps among the 1,325 indirect jumps (and 1,027,148 instructions in
///    11,975 routines). On Solaris 2.4 using the SunPro compilers ... 138
///    unanalyzable indirect jumps among the 1,244 ... All 138 resulted
///    from optimizing a call in a return statement by popping the current
///    stack frame and jumping to the callee."
///
/// Our gcc-style suite contains only dispatch-table and literal indirect
/// jumps (expected: 0 unanalyzable); the sunpro-style suite adds
/// frame-popping tail calls through function-pointer cells (expected:
/// every unanalyzable jump is classified as that idiom). Slicing
/// throughput is measured as well.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Executable.h"
#include "core/Slice.h"
#include "support/Metrics.h"

#include <benchmark/benchmark.h>

#include <string_view>

using namespace eel;
using namespace eelbench;

namespace {

struct SuiteStats {
  uint64_t Instructions = 0;
  uint64_t TextBytes = 0;
  unsigned Routines = 0;
  unsigned IndirectJumps = 0;
  unsigned DispatchTables = 0;
  unsigned Literals = 0;
  unsigned Cells = 0;
  unsigned Unanalyzable = 0;
  unsigned TailCallIdiom = 0;
  unsigned Recovered = 0; ///< Resolved only via eel-infer's cell facts.
};

SuiteStats analyzeSuite(bool Sunpro, unsigned Programs,
                        bool Stripped = false) {
  SuiteStats Stats;
  for (const SxfFile &File :
       makeSuite(TargetArch::Srisc, Sunpro, Programs)) {
    SxfFile Image(File);
    if (Stripped)
      Image.Symbols.clear();
    Executable Exec(std::move(Image));
    Exec.readContents();
    Stats.TextBytes += Exec.image().segment(SegKind::Text)->Bytes.size();
    Stats.Instructions +=
        Exec.image().segment(SegKind::Text)->Bytes.size() / 4;
    for (const auto &R : Exec.routines()) {
      if (R->isData())
        continue;
      ++Stats.Routines;
      Cfg *G = R->controlFlowGraph();
      for (const IndirectSite &Site : G->indirectSites()) {
        if (Site.IsCall)
          continue;
        ++Stats.IndirectJumps;
        switch (Site.Resolution.K) {
        case IndirectResolution::Kind::DispatchTable:
          ++Stats.DispatchTables;
          if (Site.Resolution.Inferred)
            ++Stats.Recovered;
          break;
        case IndirectResolution::Kind::Literal:
          ++Stats.Literals;
          if (Site.Resolution.Inferred)
            ++Stats.Recovered;
          break;
        case IndirectResolution::Kind::CellPointer:
          ++Stats.Cells;
          ++Stats.Unanalyzable; // not a static target: counts against us
          if (Site.Resolution.TailCallIdiom)
            ++Stats.TailCallIdiom;
          break;
        case IndirectResolution::Kind::Unanalyzable:
          ++Stats.Unanalyzable;
          if (Site.Resolution.TailCallIdiom)
            ++Stats.TailCallIdiom;
          break;
        }
      }
    }
  }
  return Stats;
}

void printRow(const char *Name, const SuiteStats &S) {
  std::printf("%-28s %10llu %8u %8u %8u %8u %8u %8u\n", Name,
              static_cast<unsigned long long>(S.Instructions), S.Routines,
              S.IndirectJumps, S.DispatchTables + S.Literals, S.Unanalyzable,
              S.TailCallIdiom, S.Cells);
}

} // namespace

static void BM_ResolveIndirectJumps(benchmark::State &State) {
  SxfFile File =
      generateWorkload(TargetArch::Srisc, suiteMember(false, 7, 32));
  for (auto _ : State) {
    Executable Exec((SxfFile(File)));
    Exec.readContents();
    unsigned Resolved = 0;
    for (const auto &R : Exec.routines()) {
      if (R->isData())
        continue;
      Resolved += R->controlFlowGraph()->indirectSites().size();
    }
    benchmark::DoNotOptimize(Resolved);
  }
}
BENCHMARK(BM_ResolveIndirectJumps)->Unit(benchmark::kMillisecond);

static void BM_BackwardSlice(benchmark::State &State) {
  SxfFile File =
      generateWorkload(TargetArch::Srisc, suiteMember(false, 9, 32));
  Executable Exec(std::move(File));
  Exec.readContents();
  // Collect the indirect sites once; time re-slicing them.
  std::vector<std::pair<Routine *, Addr>> Sites;
  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    for (const IndirectSite &Site : R->controlFlowGraph()->indirectSites())
      Sites.push_back({R.get(), Site.JumpAddr});
  }
  for (auto _ : State) {
    for (auto &[R, JumpAddr] : Sites) {
      IndirectResolution Res = resolveIndirect(Exec.analysis(), *R, JumpAddr);
      benchmark::DoNotOptimize(Res);
    }
  }
  State.counters["sites"] = static_cast<double>(Sites.size());
}
BENCHMARK(BM_BackwardSlice)->Unit(benchmark::kMicrosecond);

int main(int argc, char **argv) {
  eelbench::JsonSink Sink("bench_indirect", &argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  printHeader("§3.3: indirect-jump analyzability (SPEC92 stand-in suites)");
  std::printf("%-28s %10s %8s %8s %8s %8s %8s %8s\n", "suite", "insts",
              "routines", "ijumps", "analyzd", "unanlyz", "tailcall",
              "cells");
  SuiteStats Gcc = analyzeSuite(false, 12);
  printRow("gcc-style (SunOS 4.1.3)", Gcc);
  SuiteStats Sunpro = analyzeSuite(true, 12);
  printRow("sunpro-style (Solaris 2.4)", Sunpro);

  // The sunpro suite's unanalyzable count is deterministic (fixed seeds,
  // fixed program shapes): 96, every one the frame-popping tail-call
  // idiom. Slice.h cites this number; keep the three in lockstep.
  constexpr unsigned SunproUnanalyzable = 96;
  if (Sunpro.Unanalyzable != SunproUnanalyzable ||
      Sunpro.TailCallIdiom != SunproUnanalyzable) {
    std::fprintf(stderr,
                 "FAIL: sunpro suite expected %u unanalyzable tail-call "
                 "jumps, measured %u (tailcall %u)\n",
                 SunproUnanalyzable, Sunpro.Unanalyzable,
                 Sunpro.TailCallIdiom);
    return 1;
  }

  // Stripped frontier: the same sunpro suite with symbol tables removed
  // goes down the eel-infer path. Constant-cell facts turn the previously
  // unanalyzable cell tail calls into inferred literals.
  // The run records into a sink: inference throughput comes from the
  // summed "infer" span durations.
  MetricsSink Traced;
  SuiteStats Stripped;
  {
    TraceRequestScope Scope(/*Rid=*/0, &Traced);
    Stripped = analyzeSuite(true, 12, /*Stripped=*/true);
  }
  MetricsSnapshot Snap = Traced.snapshot();
  uint64_t InferNs = 0;
  for (const TraceEvent &Ev : Snap.Spans)
    if (std::string_view(Ev.Name) == "infer")
      InferNs += Ev.EndNs - Ev.StartNs;
  if (Snap.DroppedSpans) {
    std::fprintf(stderr, "FAIL: the sink dropped spans; infer spans lost\n");
    return 1;
  }
  double InferUs = static_cast<double>(InferNs) / 1000.0;
  printRow("sunpro-style, stripped", Stripped);
  std::printf("%-28s recovered %u of %u previously-unanalyzable jumps "
              "(%.1f%%), inference %.2f MB/s\n",
              "", Stripped.Recovered, SunproUnanalyzable,
              100.0 * Stripped.Recovered / SunproUnanalyzable,
              InferNs ? static_cast<double>(Stripped.TextBytes) / InferUs
                      : 0.0);

  Sink.metric("gcc_indirect_jumps", Gcc.IndirectJumps, "count");
  Sink.metric("gcc_unanalyzable", Gcc.Unanalyzable, "count");
  Sink.metric("sunpro_indirect_jumps", Sunpro.IndirectJumps, "count");
  Sink.metric("sunpro_unanalyzable", Sunpro.Unanalyzable, "count");
  Sink.metric("sunpro_tail_call_idiom", Sunpro.TailCallIdiom, "count");
  Sink.metric("stripped_indirect_jumps", Stripped.IndirectJumps, "count");
  Sink.metric("stripped_recovered", Stripped.Recovered, "count");
  Sink.metric("stripped_unanalyzable", Stripped.Unanalyzable, "count");
  Sink.metric("stripped_recovered_pct",
              100.0 * Stripped.Recovered / SunproUnanalyzable, "percent");
  if (InferNs)
    Sink.metric("infer_mb_per_s",
                static_cast<double>(Stripped.TextBytes) / InferUs, "MB/s");

  // Acceptance gate: static recovery of at least half the tail-call jumps.
  if (Stripped.Recovered * 2 < SunproUnanalyzable) {
    std::fprintf(stderr,
                 "FAIL: stripped suite recovered %u of %u unanalyzable "
                 "jumps (< 50%%)\n",
                 Stripped.Recovered, SunproUnanalyzable);
    return 1;
  }

  std::printf("\npaper: gcc-style had 0/1,325 unanalyzable; sunpro-style "
              "138/1,244, all from\nthe frame-popping tail-call idiom. "
              "Expected shape: gcc row unanalyzable == 0,\nsunpro row "
              "unanalyzable > 0 with tailcall == unanalyzable; stripping "
              "the suite\nmust not cost more than half the recovered "
              "jumps (eel-infer).\n");
  return 0;
}
