//===- examples/quickstart.cpp - Figure 1: a branch-counting tool ------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 1, as a runnable program: a branch-counting tool in
/// one page of EEL code. It opens an executable (a generated SPEC-ish
/// program, or an SXF file given on the command line), walks every
/// routine's CFG, adds a counter-increment snippet along each outgoing
/// edge of blocks with more than one successor, writes the edited
/// executable, runs both versions in the simulator, and prints the hottest
/// edges — demonstrating that the edited program behaves identically while
/// measuring itself.
///
/// Usage: quickstart [program.sxf]
///
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "analysis/Verifier.h"
#include "core/Executable.h"
#include "support/Metrics.h"
#include "tools/Qpt.h"
#include "vm/Machine.h"
#include "workload/Generator.h"

#include <algorithm>
#include <cstdio>

using namespace eel;

int main(int argc, char **argv) {
  // Open the executable (the paper: `new executable(argv[1])` +
  // read_contents), or generate a workload when none is given.
  SxfFile File;
  if (argc > 1) {
    Expected<SxfFile> Loaded = SxfFile::readFromFile(argv[1]);
    if (Loaded.hasError()) {
      std::fprintf(stderr, "error: %s\n", Loaded.error().message().c_str());
      return 1;
    }
    File = Loaded.takeValue();
  } else {
    WorkloadOptions Options;
    Options.Seed = 2026;
    Options.Routines = 12;
    File = generateWorkload(TargetArch::Srisc, Options);
    std::printf("no input given: generated a %zu-byte SRISC program\n",
                File.segment(SegKind::Text)->Bytes.size());
  }

  RunResult Original = runToCompletion(File);
  std::printf("original: exit=%d, %llu instructions, output \"%s\"\n",
              Original.ExitCode,
              static_cast<unsigned long long>(Original.Instructions),
              Original.Output.c_str());

  // Instrument: FOREACH_ROUTINE { FOREACH_BB { if (1 < succ size)
  // FOREACH_EDGE e->add_code_along(incr_count(num)); } }  (Figure 1).
  // Recorded into a fresh sink, so the run-report summary below has a
  // phase tree and counters.
  MetricsSink Sink;
  TraceRequestScope Scope(/*Rid=*/0, &Sink);
  Executable Exec(std::move(File));
  Qpt2Profiler::Options ProfilerOptions;
  ProfilerOptions.CountBlocks = false;
  Qpt2Profiler Profiler(Exec, ProfilerOptions);
  Profiler.instrument();
  std::printf("instrumented %u routines (%u skipped), %zu edge counters\n",
              Profiler.routinesInstrumented(), Profiler.routinesSkipped(),
              Profiler.counters().size());

  // exec->write_edited_executable(...).
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  if (Edited.hasError()) {
    std::fprintf(stderr, "error: %s\n", Edited.error().message().c_str());
    return 1;
  }

  // Lint the edit before trusting it: the static verifier re-disassembles
  // the output and checks it against the edited CFGs (see eel-lint for the
  // standalone version of this check).
  DiagnosticReport Verified = verifyEdit(Exec, Edited.value());
  std::printf("verifier: %u checks run, %u error(s)\n", Verified.checksRun(),
              Verified.errorCount());
  if (Verified.hasErrors()) {
    std::fprintf(stderr, "%s", Verified.renderText().c_str());
    return 1;
  }

  Machine Instrumented(Edited.value());
  RunResult After = Instrumented.run();
  std::printf("edited:   exit=%d, %llu instructions, output \"%s\"\n",
              After.ExitCode,
              static_cast<unsigned long long>(After.Instructions),
              After.Output.c_str());
  if (After.Output != Original.Output || After.ExitCode != Original.ExitCode) {
    std::fprintf(stderr, "error: edited program diverged!\n");
    return 1;
  }

  // Report the ten hottest edges.
  std::vector<uint64_t> Counts = Profiler.readCounts(Instrumented.memory());
  std::vector<size_t> Order(Counts.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(),
            [&](size_t A, size_t B) { return Counts[A] > Counts[B]; });
  std::printf("\nhottest edges:\n");
  std::printf("%-12s %-10s %-10s %-10s %10s\n", "routine", "branch",
              "edge", "dest", "count");
  for (size_t I = 0; I < Order.size() && I < 10; ++I) {
    const Qpt2Profiler::CounterInfo &Info =
        Profiler.counters()[Order[I]];
    const char *Kind = "";
    switch (Info.Edge) {
    case EdgeKind::Taken: Kind = "taken"; break;
    case EdgeKind::NotTaken: Kind = "not-taken"; break;
    case EdgeKind::SwitchCase: Kind = "case"; break;
    default: Kind = "other"; break;
    }
    std::printf("%-12s 0x%-8x %-10s 0x%-8x %10llu\n", Info.Routine.c_str(),
                Info.TermAddr, Kind, Info.DestAnchor,
                static_cast<unsigned long long>(Counts[Order[I]]));
  }
  // One-screen run-report summary: the same data eel-report emits as JSON
  // (phase tree from the sink's spans, key counters, histogram medians).
  MetricsSnapshot Snap = Sink.snapshot();
  std::printf("\nrun report:\n");
  std::vector<PhaseNode> Phases = buildPhaseTree(Snap.Spans);
  struct Printer {
    static void print(const std::vector<PhaseNode> &Level, int Depth) {
      for (const PhaseNode &N : Level) {
        std::printf("  %*s%-*s %9.1f us  x%llu\n", 2 * Depth, "",
                    30 - 2 * Depth, N.Name.c_str(), N.TotalNs / 1000.0,
                    static_cast<unsigned long long>(N.Count));
        if (Depth < 2)
          print(N.Children, Depth + 1);
      }
    }
  };
  Printer::print(Phases, 0);
  std::printf("  counters: %llu CFGs built, %llu snippet instances, "
              "%u translation sites\n",
              static_cast<unsigned long long>(Snap.counter("eel.cfg.built")),
              static_cast<unsigned long long>(
                  Snap.counter("eel.snippet.instances")),
              Exec.editStats().TranslationSites);
  for (const char *Name :
       {"cfg.blocks_per_routine", "layout.words_per_routine"}) {
    HistogramSnapshot H = Snap.histogram(Name);
    if (H.Count)
      std::printf("  %-28s n=%-5llu median<=%llu max=%llu\n", Name,
                  static_cast<unsigned long long>(H.Count),
                  static_cast<unsigned long long>(H.quantileUpperBound(0.5)),
                  static_cast<unsigned long long>(H.Max));
  }
  std::printf("  verifier: %u checks, %u errors\n", Verified.checksRun(),
              Verified.errorCount());

  std::printf("\nbranch-counting tool finished: the edited program measured "
              "itself and behaved\nidentically to the original.\n");
  return 0;
}
