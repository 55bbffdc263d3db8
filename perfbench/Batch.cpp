//===- perfbench/Batch.cpp - large_relayout and spec_qpt ------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two one-shot workloads. A pass edits every image of the workload
/// once: load -> analyze -> (CFG + liveness) -> instrument -> write ->
/// store, each stage a call into one layer's public entry point. Only
/// that sequence is timed; tearing the Executable down and checking the
/// output happen outside it.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checker.h"

#include "core/Executable.h"
#include "tools/Qpt.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include <sched.h>

using namespace eel;
using namespace perfbench;

namespace {

struct InputSpec {
  std::string Label;
  TargetArch Arch = TargetArch::Srisc;
  WorkloadOptions Opts;
  bool Strip = false;
};

struct BatchSpec {
  unsigned Threads = 1;
  bool Qpt = false; ///< Instrument with qpt2 block and edge counters.
};

/// One generated image and what it takes to judge its edits.
struct BatchInput {
  std::string Label;
  bool Stripped = false;
  std::vector<uint8_t> Bytes;
  Reference Ref;
  /// The first edit that was checked, and its verdict: a later pass whose
  /// output has the same bytes has the same verdict.
  bool HasChecked = false;
  std::vector<uint8_t> CheckedBytes;
  Verdict Checked;
};

/// Per-pass work counts. Deterministic for a seed.
struct PassCounts {
  uint64_t Routines = 0;
  uint64_t Insns = 0;
  uint64_t Snippets = 0;
  Executable::EditStats Stats;

  void add(const Executable::EditStats &S) {
    Stats.RoutinesVerbatim += S.RoutinesVerbatim;
    Stats.TranslationSites += S.TranslationSites;
    Stats.DelaySlotsFolded += S.DelaySlotsFolded;
    Stats.DelaySlotsMaterialized += S.DelaySlotsMaterialized;
    Stats.SnippetSpills += S.SnippetSpills;
    Stats.SnippetCCSaves += S.SnippetCCSaves;
  }
};

struct ImageEdit {
  std::string Error; ///< Pipeline failure; empty on success.
  std::vector<uint8_t> Output;
  std::vector<Qpt2Profiler::CounterInfo> Counters;
  Executable::EditStats Stats;
  uint64_t Routines = 0;
  double Seconds = 0;
};

/// The layer spans a pass records, and the per-layer metric each feeds.
constexpr const char *LayerSpans[] = {
    "sxf.load",         "core.refine", "analysis.infer", "core.cfg",
    "tools.instrument", "core.write",  "sxf.store"};

/// Edits one image. Only the pipeline is timed.
ImageEdit editImage(const BatchInput &In, const BatchSpec &Spec, SpanLog &Log,
                    uint64_t Op) {
  ImageEdit R;
  std::unique_ptr<Executable> Exec;
  std::unique_ptr<Qpt2Profiler> Profiler;
  Executable::Options EOpts;
  EOpts.Threads = Spec.Threads;

  auto Pipeline = [&]() -> std::string {
    {
      Span S(Log, "sxf.load", Op);
      Expected<SxfFile> Image = SxfFile::deserialize(In.Bytes);
      if (Image.hasError())
        return "load: " + Image.error().describe();
      Expected<std::unique_ptr<Executable>> Opened =
          Executable::openImage(Image.takeValue(), EOpts);
      if (Opened.hasError())
        return "open: " + Opened.error().describe();
      Exec = std::move(Opened.value());
    }
    {
      // Symboled images run §3.1 refinement; stripped ones the eel-infer
      // fixpoint, which lives in the analysis module.
      Span S(Log, In.Stripped ? "analysis.infer" : "core.refine", Op);
      Expected<bool> Read = Exec->readContents();
      if (Read.hasError())
        return "analyze: " + Read.error().describe();
    }
    {
      // The condition mirrors readContents' parallel prebuild, so at
      // Threads > 1 this finds everything cached.
      Span S(Log, "core.cfg", Op);
      for (const std::unique_ptr<Routine> &Rt : Exec->routines()) {
        if (Rt->isData())
          continue;
        Cfg *G = Rt->controlFlowGraph();
        if (!G->unsupported() &&
            (G->complete() || EOpts.EnableRuntimeTranslation))
          Rt->liveness();
      }
    }
    if (Spec.Qpt) {
      Span S(Log, "tools.instrument", Op);
      Profiler = std::make_unique<Qpt2Profiler>(*Exec);
      Profiler->instrument();
    }
    Expected<SxfFile> Edited = [&] {
      Span S(Log, "core.write", Op);
      return Exec->writeEditedExecutable();
    }();
    if (Edited.hasError())
      return "write: " + Edited.error().describe();
    Span S(Log, "sxf.store", Op);
    R.Output = Edited.value().serialize();
    return std::string();
  };

  auto Start = std::chrono::steady_clock::now();
  {
    Span Edit(Log, "bench.edit", Op);
    R.Error = Pipeline();
  }
  R.Seconds = secondsSince(Start);

  if (Profiler)
    R.Counters = Profiler->counters();
  if (Exec) {
    R.Stats = Exec->editStats();
    R.Routines = Exec->routines().size();
  }
  // The profiler's snippets refer to the Executable; drop it first.
  Profiler.reset();
  Exec.reset();
  return R;
}

Verdict check(BatchInput &In, const ImageEdit &E, const BatchSpec &Spec) {
  if (!E.Error.empty()) {
    Verdict V;
    V.Why = E.Error;
    return V;
  }
  if (In.HasChecked && E.Output == In.CheckedBytes)
    return In.Checked;
  Verdict V = checkEdit(E.Output, In.Ref, Spec.Qpt ? &E.Counters : nullptr);
  if (!In.HasChecked) {
    In.HasChecked = true;
    In.CheckedBytes = E.Output;
    In.Checked = V;
  }
  return V;
}

/// One set-up repetition: generate, run the originals, and make one
/// checked warm-up pass.
std::vector<BatchInput> prepare(const std::vector<InputSpec> &Specs,
                                const BatchSpec &Spec, SpanLog &Log) {
  std::vector<BatchInput> Inputs;
  for (const InputSpec &IS : Specs) {
    SxfFile File = generateWorkload(IS.Arch, IS.Opts);
    if (IS.Strip)
      File.strip();
    BatchInput In;
    In.Label = IS.Label;
    In.Stripped = IS.Strip;
    In.Bytes = File.serialize();
    In.Ref = runReference(File, /*WithTallies=*/Spec.Qpt);
    Inputs.push_back(std::move(In));
  }
  for (BatchInput &In : Inputs)
    check(In, editImage(In, Spec, Log, 0), Spec);
  return Inputs;
}

Outcome runBatch(const RunOptions &Opts, SpanLog &Log,
                 const std::vector<InputSpec> &Specs, const BatchSpec &Spec) {
  Outcome Out;
  std::vector<BatchInput> Inputs;
  std::vector<double> SetupSec;
  std::vector<double> Probes{probeSeconds()};
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Inputs.clear();
    auto Start = std::chrono::steady_clock::now();
    Inputs = prepare(Specs, Spec, Log);
    double Sec = secondsSince(Start);
    Probes.push_back(probeSeconds());
    SetupSec.push_back(Sec * hostScale(Probes.end()[-2], Probes.back()));
  }

  // A traced run alternates untraced and traced passes, so both see the
  // same host conditions and their ratio is the tracing overhead.
  std::vector<double> PassSec[2], UnscaledSec;
  std::vector<double> LatencyMs;
  std::map<std::string, std::vector<double>> LayerSec;
  std::vector<double> Coverage;
  PassCounts Counts;
  double Timed = 0;
  uint64_t Op = 0;
  for (unsigned Pass = 0;
       Timed < Opts.Seconds || PassSec[0].empty() ||
       (Opts.Trace && PassSec[1].empty());
       ++Pass) {
    bool Traced = Opts.Trace && Pass % 2 == 1;
    Log.setEnabled(Traced);
    size_t SpanBegin = Log.size();
    double Sec = 0;
    std::vector<double> ImageSec;
    PassCounts C;
    for (BatchInput &In : Inputs) {
      ImageEdit E = editImage(In, Spec, Log, ++Op);
      Sec += E.Seconds;
      ImageSec.push_back(E.Seconds);
      C.Routines += E.Routines;
      C.Insns += In.Ref.TextBytes / 4;
      C.Snippets += E.Counters.size();
      C.add(E.Stats);
      Verdict V = check(In, E, Spec);
      Out.record(V.Ok, In.Label + ": " + V.Why);
    }
    Log.setEnabled(false);
    Probes.push_back(probeSeconds());
    double Scale = hostScale(Probes.end()[-2], Probes.back());
    Timed += Sec;
    PassSec[Traced].push_back(Sec * Scale);
    if (Pass == 0)
      Counts = C;
    if (Traced) {
      std::map<std::string, uint64_t> Self = Log.selfNs(SpanBegin, Log.size());
      for (const char *Layer : LayerSpans)
        LayerSec[Layer].push_back(Self[Layer] * 1e-9 * Scale);
      Coverage.push_back(spanCoverage(Log.spans(), SpanBegin, Log.size()));
    } else {
      UnscaledSec.push_back(Sec);
      for (double S : ImageSec)
        LatencyMs.push_back(S * 1e3 * Scale);
    }
  }

  std::vector<double> Growth, Overhead;
  uint64_t InputBytes = 0;
  for (const BatchInput &In : Inputs) {
    InputBytes += In.Bytes.size();
    if (In.Checked.Ok) {
      Growth.push_back(double(In.Checked.TextBytes) / double(In.Ref.TextBytes));
      Overhead.push_back(double(In.Checked.Instructions) /
                         double(In.Ref.Instructions));
    }
  }

  auto &M = Out.Metrics;
  if (!Opts.Trace) {
    // Images edited per second in a median pass: a mean over a handful
    // of multi-second passes would let one stalled pass on a shared host
    // move the metric.
    M["edit_s"] = median(PassSec[0]);
    M["edits_per_s"] = double(Inputs.size()) / M["edit_s"];
    M["latency_p50_ms"] = quantile(LatencyMs, 0.50);
    M["latency_p99_ms"] = quantile(LatencyMs, 0.99);
  } else {
    for (const char *Layer : LayerSpans)
      M[std::string(Layer) + "_s"] = median(LayerSec[Layer]);
    M["bench.trace_overhead_frac"] =
        median(PassSec[1]) / median(PassSec[0]) - 1.0;
    M["bench.span_coverage_frac"] =
        *std::min_element(Coverage.begin(), Coverage.end());
  }
  M["text_growth"] = geomean(Growth);
  M["run_overhead"] = geomean(Overhead);
  M["setup_s"] = median(SetupSec);
  M["core.routines"] = double(Counts.Routines);
  M["core.insns"] = double(Counts.Insns);
  M["tools.snippets"] = double(Counts.Snippets);
  M["core.snippet_spills"] = Counts.Stats.SnippetSpills;
  M["core.cc_saves"] = Counts.Stats.SnippetCCSaves;
  M["core.delay_folded"] = Counts.Stats.DelaySlotsFolded;
  M["core.delay_materialized"] = Counts.Stats.DelaySlotsMaterialized;
  M["core.translation_sites"] = Counts.Stats.TranslationSites;
  M["core.verbatim_routines"] = Counts.Stats.RoutinesVerbatim;

  uint64_t Generated = 0;
  for (const InputSpec &IS : Specs)
    Generated += IS.Opts.Routines + 1; // + main
  Out.Notes.push_back(
      "images " + std::to_string(Inputs.size()) + ", generated routines " +
      std::to_string(Generated) + ", routines after refinement " +
      std::to_string(Counts.Routines) + ", instructions " +
      std::to_string(Counts.Insns) + ", image bytes " +
      std::to_string(InputBytes) + ", threads " +
      std::to_string(Spec.Threads));
  char Probe[160];
  std::snprintf(Probe, sizeof(Probe),
                "host probe %.2f ms median (%.2f to %.2f ms, reference %.2f); "
                "unscaled edit_s %.4f s",
                median(Probes) * 1e3,
                *std::min_element(Probes.begin(), Probes.end()) * 1e3,
                *std::max_element(Probes.begin(), Probes.end()) * 1e3,
                ProbeRefSeconds * 1e3, median(UnscaledSec));
  Out.Notes.push_back(Probe);
  Out.Notes.push_back("passes " + std::to_string(PassSec[0].size()) +
                      " untraced, " + std::to_string(PassSec[1].size()) +
                      " traced; latency samples " +
                      std::to_string(LatencyMs.size()));
  return Out;
}

/// Worker threads a default user gets, capped at 4: nproc's count (the
/// CPUs this process may run on), which containers can set apart from
/// hardware_concurrency().
unsigned defaultThreads() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  unsigned N = sched_getaffinity(0, sizeof(Set), &Set) == 0
                   ? static_cast<unsigned>(CPU_COUNT(&Set))
                   : std::thread::hardware_concurrency();
  return std::clamp(N, 1u, 4u);
}

} // namespace

Outcome perfbench::runLargeRelayout(const RunOptions &Opts, SpanLog &Log) {
  // One gcc-style SRISC image with the §3.1 symbol-table pathologies,
  // re-laid out with no tool (eel-report's pipeline) at the default thread
  // count. 8,000 generated routines is the largest size whose edited text
  // (placed after the original) still clears the data segment at 4 MB.
  InputSpec IS;
  IS.Label = "srisc/gcc+pathologies";
  IS.Opts = suiteOptions(Opts.Seed, 8000);
  IS.Opts.SymbolPathologies = true;
  BatchSpec Spec;
  Spec.Threads = defaultThreads();
  return runBatch(Opts, Log, {IS}, Spec);
}

Outcome perfbench::runSpecQpt(const RunOptions &Opts, SpanLog &Log) {
  // The SPEC92 stand-in: 3 ISAs x {gcc, sunpro, stripped gcc} x 2 seeds,
  // each instrumented by qpt2 with block and edge counters at Threads = 1.
  // Stripped images are gcc-style only: qpt2 miscompiles stripped
  // sunpro-style MRISC programs today, and that defect has its own fix.
  std::vector<InputSpec> Specs;
  const char *ArchNames[] = {"srisc", "mrisc", "arisc"};
  unsigned Index = 0;
  for (TargetArch Arch : AllTargetArches)
    for (const char *Style : {"gcc", "sunpro", "stripped-gcc"})
      for (unsigned J = 0; J < 2; ++J) {
        InputSpec IS;
        IS.Arch = Arch;
        IS.Label = std::string(ArchNames[static_cast<unsigned>(Arch)]) + "/" +
                   Style + "/" + std::to_string(J);
        IS.Opts = suiteOptions(Opts.Seed * 1000 + Index++, 300);
        IS.Opts.TailCallPercent = std::string(Style) == "sunpro" ? 35 : 0;
        IS.Strip = std::string(Style) == "stripped-gcc";
        Specs.push_back(IS);
      }
  BatchSpec Spec;
  Spec.Threads = 1;
  Spec.Qpt = true;
  return runBatch(Opts, Log, Specs, Spec);
}
