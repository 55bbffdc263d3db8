//===- bench/bench_overhead.cpp - Profiling/editing run-time overheads ---------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run-time overheads of the editing mechanisms themselves:
///
///  * qpt2 edge/block profiling slowdown (the original qpt's domain [4]);
///  * §3.5 register scavenging: how often snippets got free registers vs
///    needed spill wrapping or condition-code saves;
///  * the cost of run-time address translation on tail-call-heavy
///    (sunpro-style) programs — the §3.3 fallback in action;
///  * sandboxing (SFI) overhead, the paper's first application class;
///  * the Options::Verify gate's share of the write it runs in, and each
///    verifier pass's share of the gate, from the gated runs' own spans;
///  * what one qpt2 snippet site costs in instrument() and write.layout;
///  * the observability tax: EEL_TRACE_SCOPE compiled in but disabled
///    must cost under 1% of the edit path (asserted — this bench exits
///    nonzero on regression);
///  * the logging tax: EEL_LOG compiled in but level-gated off must cost
///    under 0.1% of a warm serve request (asserted the same way).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Executable.h"
#include "serve/Serve.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "tools/Qpt.h"
#include "tools/Sandbox.h"
#include "tools/WindTunnel.h"
#include "tools/Optimizer.h"
#include "vm/Machine.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

using namespace eel;
using namespace eelbench;

static void BM_RunInstrumented(benchmark::State &State) {
  SxfFile File =
      generateWorkload(TargetArch::Srisc, suiteMember(false, 13, 24));
  Executable Exec((SxfFile(File)));
  Qpt2Profiler Profiler(Exec);
  Profiler.instrument();
  SxfFile Edited = Exec.writeEditedExecutable().takeValue();
  for (auto _ : State) {
    RunResult R = runToCompletion(Edited);
    benchmark::DoNotOptimize(R.Instructions);
  }
}
BENCHMARK(BM_RunInstrumented)->Unit(benchmark::kMillisecond);

/// The edit-and-write path with the Options::Verify gate off (Arg 0) and
/// on (Arg 1): the gate runs the verifier's re-analysis-free profile
/// (passes 1-4), and must stay a small fraction of the path it guards.
static void BM_EditAndWrite(benchmark::State &State) {
  SxfFile File =
      generateWorkload(TargetArch::Srisc, suiteMember(false, 13, 24));
  for (auto _ : State) {
    Executable::Options Opts;
    Opts.Verify = State.range(0) != 0;
    Executable Exec(SxfFile(File), Opts);
    Qpt2Profiler Profiler(Exec);
    Profiler.instrument();
    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    benchmark::DoNotOptimize(Edited.hasValue());
  }
}
BENCHMARK(BM_EditAndWrite)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

namespace {

/// Set from JsonSink::smoke() before the headline tables run: one seed per
/// configuration instead of five, enough to prove the path works.
bool SmokeRun = false;

struct OverheadRow {
  const char *Name;
  double Slowdown;
  uint64_t SnippetInstances;
  uint64_t Spills;
  uint64_t CCSaves;
  uint64_t TranslationSites;
};

OverheadRow measure(const char *Name, TargetArch Arch, bool Sunpro,
                    void (*Instrument)(Executable &),
                    unsigned DeadCodePercent = 0) {
  uint64_t OrigInsts = 0, EditInsts = 0;
  OverheadRow Row{Name, 0, 0, 0, 0, 0};
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u}) {
    if (SmokeRun && Seed > 1)
      break;
    WorkloadOptions MemberOpts = suiteMember(Sunpro, Seed, 24);
    MemberOpts.DeadCodePercent = DeadCodePercent;
    SxfFile File = generateWorkload(Arch, MemberOpts);
    RunResult Orig = runToCompletion(File);
    Executable Exec((SxfFile(File)));
    Instrument(Exec);
    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    if (Edited.hasError())
      continue;
    RunResult After = runToCompletion(Edited.value());
    if (After.Output != Orig.Output)
      std::printf("  WARNING: %s diverged on seed %llu\n", Name,
                  static_cast<unsigned long long>(Seed));
    OrigInsts += Orig.Instructions;
    EditInsts += After.Instructions;
    Row.SnippetInstances += Exec.editStats().SnippetInstances;
    Row.Spills += Exec.editStats().SnippetSpills;
    Row.CCSaves += Exec.editStats().SnippetCCSaves;
    Row.TranslationSites += Exec.editStats().TranslationSites;
  }
  Row.Slowdown =
      static_cast<double>(EditInsts) / static_cast<double>(OrigInsts);
  return Row;
}

void printRow(eelbench::JsonSink &Sink, const OverheadRow &Row) {
  std::printf("%-34s %8.2fx %9llu %7llu %8llu %7llu\n", Row.Name,
              Row.Slowdown,
              static_cast<unsigned long long>(Row.SnippetInstances),
              static_cast<unsigned long long>(Row.Spills),
              static_cast<unsigned long long>(Row.CCSaves),
              static_cast<unsigned long long>(Row.TranslationSites));
  Sink.metric(std::string("slowdown: ") + Row.Name, Row.Slowdown, "x");
  Sink.metric(std::string("spills: ") + Row.Name,
              static_cast<double>(Row.Spills), "count");
}

} // namespace

int main(int argc, char **argv) {
  eelbench::JsonSink Sink("bench_overhead", &argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  const bool Smoke = Sink.smoke();
  SmokeRun = Smoke;

  printHeader("Editing-mechanism run-time overheads");
  std::printf("%-34s %9s %9s %7s %8s %7s\n", "configuration", "slowdown",
              "snippets", "spills", "ccsaves", "xlate");

  printRow(Sink, measure("identity rewrite (srisc)", TargetArch::Srisc, false,
                   [](Executable &) {}));
  printRow(Sink, measure("identity rewrite, tail calls", TargetArch::Srisc, true,
                   [](Executable &) {}));
  printRow(Sink, measure("qpt2 edge+block profile (srisc)", TargetArch::Srisc,
                   false, [](Executable &Exec) {
                     auto *P = new Qpt2Profiler(Exec);
                     P->instrument();
                   }));
  printRow(Sink, measure("qpt2 edge+block profile (mrisc)", TargetArch::Mrisc,
                   false, [](Executable &Exec) {
                     auto *P = new Qpt2Profiler(Exec);
                     P->instrument();
                   }));
  printRow(Sink, measure("qpt2 edge+block profile (arisc)", TargetArch::Arisc,
                   false, [](Executable &Exec) {
                     auto *P = new Qpt2Profiler(Exec);
                     P->instrument();
                   }));
  printRow(Sink, measure("qpt2 profile + translation", TargetArch::Srisc, true,
                   [](Executable &Exec) {
                     auto *P = new Qpt2Profiler(Exec);
                     P->instrument();
                   }));
  printRow(Sink, measure("sandbox store checks (srisc)", TargetArch::Srisc, false,
                   [](Executable &Exec) {
                     auto *S = new Sandboxer(Exec, 0x400000, 0x7FE00000);
                     S->instrument();
                   }));
  printRow(Sink, measure("WWT cycle counter (srisc)", TargetArch::Srisc, false,
                   [](Executable &Exec) {
                     auto *C = new CycleCounter(Exec, /*Quantum=*/1024);
                     C->instrument();
                   }));
  printRow(Sink, measure("dead-code elimination (srisc)", TargetArch::Srisc,
                   false,
                   [](Executable &Exec) {
                     auto *D = new DeadCodeEliminator(Exec);
                     D->run();
                   },
                   /*DeadCodePercent=*/30));

  // The verifier gate's share of the write it runs in, read from the gated
  // runs' own spans: write.verify_gate over its enclosing
  // writeEditedExecutable span, per run, median over the runs. Both spans
  // come from the same pass, so a slow spell of the host scales them
  // together instead of landing on one of two separate timed runs. The
  // same runs split the gate among the passes it runs: each pass's spans
  // inside the gate, summed over the routines and the worker threads the
  // gate fans out to, over the sum for all four passes.
  printHeader("Options::Verify gate: share of the gated write (spans)");
#ifdef EEL_TRACE_DISABLED
  std::printf("  tracing compiled out: not measured\n");
#else
  {
    SxfFile File =
        generateWorkload(TargetArch::Srisc, suiteMember(false, 13, 24));
    const int Reps = Smoke ? 3 : 31;
    const char *const Passes[] = {"cfg_wellformed", "delay_slot",
                                  "scavenge_audit", "layout_consistency"};
    constexpr size_t NumPasses = std::size(Passes);
    std::vector<double> Shares, GateMs, WriteMs;
    std::vector<double> PassFracs[NumPasses];
    for (int I = 0; I < Reps; ++I) {
      Executable::Options Opts;
      Opts.Verify = true;
      Executable Exec(SxfFile(File), Opts);
      Qpt2Profiler Profiler(Exec);
      Profiler.instrument();
      MetricsSink Traced;
      Expected<SxfFile> Edited = [&] {
        TraceRequestScope Scope(/*Rid=*/0, &Traced);
        return Exec.writeEditedExecutable();
      }();
      if (Edited.hasError())
        std::printf("  WARNING: edit failed: %s\n",
                    Edited.error().message().c_str());
      std::vector<TraceEvent> Events = Traced.snapshot().Spans;
      const TraceEvent *Gate = nullptr, *Write = nullptr;
      for (const TraceEvent &Ev : Events) {
        if (std::string(Ev.Name) == "write.verify_gate")
          Gate = &Ev;
        else if (std::string(Ev.Name) == "writeEditedExecutable")
          Write = &Ev;
      }
      if (!Gate || !Write || Gate->StartNs < Write->StartNs ||
          Gate->EndNs > Write->EndNs) {
        std::fprintf(stderr,
                     "FAIL: no write.verify_gate span inside the write\n");
        return 1;
      }
      double G = double(Gate->EndNs - Gate->StartNs) / 1e6;
      double W = double(Write->EndNs - Write->StartNs) / 1e6;
      GateMs.push_back(G);
      WriteMs.push_back(W);
      Shares.push_back(100.0 * G / W);
      double PassNs[NumPasses] = {}, AllPassNs = 0;
      for (const TraceEvent &Ev : Events) {
        std::string_view Name = Ev.Name;
        if (!Name.starts_with("verify.") || Ev.StartNs < Gate->StartNs ||
            Ev.EndNs > Gate->EndNs)
          continue;
        for (size_t P = 0; P < NumPasses; ++P)
          if (Name.substr(7) == Passes[P]) {
            PassNs[P] += double(Ev.EndNs - Ev.StartNs);
            AllPassNs += double(Ev.EndNs - Ev.StartNs);
          }
      }
      if (AllPassNs == 0) {
        std::fprintf(stderr, "FAIL: no verifier pass span inside the gate\n");
        return 1;
      }
      for (size_t P = 0; P < NumPasses; ++P)
        PassFracs[P].push_back(PassNs[P] / AllPassNs);
    }
    auto Median = [](std::vector<double> V) {
      std::sort(V.begin(), V.end());
      return V[V.size() / 2];
    };
    double Share = Median(Shares);
    std::printf("  gated write (median):       %8.3f ms\n", Median(WriteMs));
    std::printf("  write.verify_gate (median): %8.3f ms\n", Median(GateMs));
    std::printf("  gate share of the write:    %8.2f%% (median of %d runs; "
                "range %.2f-%.2f%%)\n",
                Share, Reps, *std::min_element(Shares.begin(), Shares.end()),
                *std::max_element(Shares.begin(), Shares.end()));
    Sink.metric("verify_gate_overhead", Share, "percent");
    for (size_t P = 0; P < NumPasses; ++P) {
      double Frac = Median(PassFracs[P]);
      std::printf("  %-18s share of pass time (median): %6.3f\n", Passes[P],
                  Frac);
      Sink.metric(std::string("verify_gate_") + Passes[P] + "_frac", Frac,
                  "fraction");
    }
  }
#endif

  // The cost of a snippet site on qpt2's path (§3.5): the serial
  // instrument() walk that makes the edits, and the write.layout phase
  // that instantiates them, each per snippet placed. Threads = 1, as in
  // the spec_qpt workload; one gcc-style image per ISA; median over reps.
  printHeader("qpt2 snippet sites: nanoseconds per site (Threads = 1)");
#ifdef EEL_TRACE_DISABLED
  std::printf("  tracing compiled out: not measured\n");
#else
  {
    std::vector<SxfFile> Images;
    for (TargetArch Arch : AllTargetArches)
      Images.push_back(generateWorkload(Arch, suiteMember(false, 31, 150)));
    const int Reps = Smoke ? 3 : 15;
    std::vector<double> InstrumentNs, LayoutNs;
    uint64_t Sites = 0;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      double Instrument = 0, Layout = 0;
      Sites = 0;
      for (const SxfFile &File : Images) {
        Executable::Options Opts;
        Opts.Threads = 1;
        Executable Exec(SxfFile(File), Opts);
        Exec.readContents();
        Qpt2Profiler Profiler(Exec);
        auto T0 = std::chrono::steady_clock::now();
        Profiler.instrument();
        Instrument += std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - T0)
                          .count();
        MetricsSink Traced;
        Expected<SxfFile> Edited = [&] {
          TraceRequestScope Scope(/*Rid=*/0, &Traced);
          return Exec.writeEditedExecutable();
        }();
        if (Edited.hasError()) {
          std::fprintf(stderr, "FAIL: qpt2 edit failed: %s\n",
                       Edited.error().message().c_str());
          return 1;
        }
        for (const TraceEvent &Ev : Traced.snapshot().Spans)
          if (std::string_view(Ev.Name) == "write.layout")
            Layout += double(Ev.EndNs - Ev.StartNs);
        Sites += Exec.editStats().SnippetInstances;
      }
      InstrumentNs.push_back(Instrument / double(Sites));
      LayoutNs.push_back(Layout / double(Sites));
    }
    auto Median = [](std::vector<double> V) {
      std::sort(V.begin(), V.end());
      return V[V.size() / 2];
    };
    std::printf("  snippet sites per pass:     %8llu\n",
                static_cast<unsigned long long>(Sites));
    std::printf("  instrument() per site:      %8.1f ns (median of %d)\n",
                Median(InstrumentNs), Reps);
    std::printf("  write.layout per site:      %8.1f ns (median of %d)\n",
                Median(LayoutNs), Reps);
    Sink.metric("qpt2_instrument_ns_per_site", Median(InstrumentNs), "ns");
    Sink.metric("qpt2_layout_ns_per_site", Median(LayoutNs), "ns");
  }
#endif

  // Tracing compiled in but disabled must be invisible: an EEL_TRACE_SCOPE
  // with no sink installed is one thread-local load and a branch, paid
  // once per span site the pipeline passes. The bench measures that
  // per-site cost directly, counts the sites one edit actually crosses (by
  // running it once into a sink), and asserts the product stays under 1%
  // of the untraced edit time.
  printHeader("EEL_TRACE_SCOPE compiled in but disabled (acceptance: <1%)");
  bool TraceOverheadOk = true;
  {
    using Clock = std::chrono::steady_clock;
    const uint64_t Iters = Smoke ? (1u << 16) : (1u << 21);
    const int LoopReps = Smoke ? 2 : 7;
    // Minimum-of-N again: interference only inflates a rep.
    auto bestLoopNs = [&](bool WithScope) {
      double Best = 1e18;
      for (int Rep = 0; Rep < LoopReps; ++Rep) {
        auto T0 = Clock::now();
        for (uint64_t I = 0; I < Iters; ++I) {
          if (WithScope) {
            EEL_TRACE_SCOPE("bench.noop");
            benchmark::DoNotOptimize(I);
          } else {
            benchmark::DoNotOptimize(I);
          }
        }
        auto T1 = Clock::now();
        Best = std::min(
            Best, std::chrono::duration<double, std::nano>(T1 - T0).count());
      }
      return Best / static_cast<double>(Iters);
    };
    double PerSiteNs = std::max(0.0, bestLoopNs(true) - bestLoopNs(false));

    SxfFile File =
        generateWorkload(TargetArch::Srisc, suiteMember(false, 13, 24));
    auto editOnce = [&File] {
      Executable Exec((SxfFile(File)));
      Qpt2Profiler Profiler(Exec);
      Profiler.instrument();
      benchmark::DoNotOptimize(Exec.writeEditedExecutable().hasValue());
    };
    // Count the span sites one edit crosses.
    MetricsSink Traced;
    {
      TraceRequestScope Scope(/*Rid=*/0, &Traced);
      editOnce();
    }
    uint64_t Sites = Traced.snapshot().Spans.size();
    // Time the same edit with tracing disabled (the shipping default).
    editOnce();
    double BestEditNs = 1e18;
    for (int Rep = 0; Rep < (Smoke ? 2 : 10); ++Rep) {
      auto T0 = Clock::now();
      editOnce();
      auto T1 = Clock::now();
      BestEditNs = std::min(
          BestEditNs, std::chrono::duration<double, std::nano>(T1 - T0).count());
    }
    double OverheadPct = 100.0 * PerSiteNs * static_cast<double>(Sites) /
                         BestEditNs;
    // A smoke rep is too short for a stable per-site estimate; report it
    // without asserting.
    TraceOverheadOk = Smoke || OverheadPct < 1.0;
    std::printf("  disabled span site:   %8.3f ns\n", PerSiteNs);
    std::printf("  sites per edit:       %8llu\n",
                static_cast<unsigned long long>(Sites));
    std::printf("  edit path (untraced): %8.3f ms\n", BestEditNs / 1e6);
    std::printf("  disabled-tracing tax: %8.4f%%  -> %s\n", OverheadPct,
                TraceOverheadOk ? "under 1%, ok" : "OVER 1% (regression!)");
    Sink.metric("trace_disabled_overhead", OverheadPct, "percent");
    Sink.metric("trace_sites_per_edit", static_cast<double>(Sites), "count");
  }

  // Structured logging compiled in but disabled must be equally invisible:
  // a gated-off EEL_LOG is one relaxed atomic load and a compare, and its
  // field expressions are never evaluated. Same method as the trace tax —
  // per-site cost times the sites one warm serve request crosses (counted
  // by running one request at Trace level), against the warm request time.
  printHeader("EEL_LOG compiled in but disabled (acceptance: <0.1%)");
  bool LogOverheadOk = true;
  {
    logSetLevel(LogLevel::Off);
    using Clock = std::chrono::steady_clock;
    const uint64_t Iters = Smoke ? (1u << 16) : (1u << 21);
    const int LoopReps = Smoke ? 2 : 7;
    auto bestLoopNs = [&](bool WithLog) {
      double Best = 1e18;
      for (int Rep = 0; Rep < LoopReps; ++Rep) {
        auto T0 = Clock::now();
        for (uint64_t I = 0; I < Iters; ++I) {
          if (WithLog) {
            EEL_LOG(LogLevel::Debug, "bench.noop", logNum("i", I));
            benchmark::DoNotOptimize(I);
          } else {
            benchmark::DoNotOptimize(I);
          }
        }
        auto T1 = Clock::now();
        Best = std::min(
            Best, std::chrono::duration<double, std::nano>(T1 - T0).count());
      }
      return Best / static_cast<double>(Iters);
    };
    double PerSiteNs = std::max(0.0, bestLoopNs(true) - bestLoopNs(false));

    // Count the log sites one warm request crosses: run it once with every
    // record admitted, sunk to a scratch file.
    SxfFile File =
        generateWorkload(TargetArch::Srisc, suiteMember(false, 13, 24));
    ServeRequest Req;
    Req.ToolSpec = "null";
    Req.Threads = 1;
    Req.ImageBytes = File.serialize();
    EditService Service(ServeLimits{});
    if (Service.handle(Req).Status != ServeStatus::Ok) {
      std::fprintf(stderr, "FAIL: warm-up serve request failed\n");
      return 1;
    }
    std::string LogPath =
        "/tmp/eel_bench_overhead_log." + std::to_string(::getpid()) + ".jsonl";
    Logger::instance().setPath(LogPath);
    Logger::instance().resetCounts();
    logSetLevel(LogLevel::Trace);
    Service.handle(Req);
    logSetLevel(LogLevel::Off);
    Logger::instance().flushAll();
    uint64_t Sites = Logger::instance().emittedCount();
    Logger::instance().useStderr();
    std::remove(LogPath.c_str());

    // Time the same warm request with logging off (the shipping default).
    double BestReqNs = 1e18;
    for (int Rep = 0; Rep < (Smoke ? 2 : 10); ++Rep) {
      auto T0 = Clock::now();
      Service.handle(Req);
      auto T1 = Clock::now();
      BestReqNs = std::min(
          BestReqNs, std::chrono::duration<double, std::nano>(T1 - T0).count());
    }
    double OverheadPct =
        100.0 * PerSiteNs * static_cast<double>(Sites) / BestReqNs;
    LogOverheadOk = Smoke || OverheadPct < 0.1;
    std::printf("  disabled log site:    %8.3f ns\n", PerSiteNs);
    std::printf("  sites per request:    %8llu\n",
                static_cast<unsigned long long>(Sites));
    std::printf("  warm request:         %8.3f ms\n", BestReqNs / 1e6);
    std::printf("  disabled-logging tax: %8.4f%%  -> %s\n", OverheadPct,
                LogOverheadOk ? "under 0.1%, ok" : "OVER 0.1% (regression!)");
    Sink.metric("log_disabled_overhead", OverheadPct, "percent");
    Sink.metric("log_sites_per_request", static_cast<double>(Sites), "count");
  }

  std::printf("\nshape: identity ~1x; profiling a small-integer factor; "
              "translation adds the\nbinary-search cost only on "
              "translated jumps; scavenging keeps spills rare\n(§3.5: "
              "dead registers usually suffice).\n");
  return TraceOverheadOk && LogOverheadOk ? 0 : 1;
}
