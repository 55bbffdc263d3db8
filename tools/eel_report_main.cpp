//===- tools/eel_report_main.cpp - Pipeline run reports -------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// eel-report: runs the full edit pipeline over an SXF image with tracing
/// enabled and emits a provenance-carrying run report — input image hash,
/// options, phase-timing tree, counter/histogram tables, and the full
/// five-pass verifier findings — as one "eel-report/1" JSON document.
///
///   eel-report [options] [image.sxf]
///     --out FILE        write the report there instead of stdout
///     --trace FILE      also export the span timeline as Chrome
///                       trace-event JSON (loadable in Perfetto)
///     --prometheus FILE also export counters/histograms in the
///                       Prometheus text exposition format
///     --threads N       worker threads (0 = auto)
///     --no-verify       skip the five-pass verification of the output
///     With no image argument, a deterministic generated workload is used:
///     --arch srisc|mrisc|arisc  --seed N  --routines N  shape it.
///
/// Exit status: 0 on success (even with verifier findings — the report
/// carries them), 1 when verification found errors, 2 on load/usage
/// failures.
///
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "analysis/Verifier.h"
#include "core/Executable.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "workload/Generator.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace eel;

namespace {

struct ReportConfig {
  std::string ImagePath;
  std::string OutPath;
  std::string TracePath;
  std::string PrometheusPath;
  unsigned Threads = 0;
  bool Verify = true;
  TargetArch Arch = TargetArch::Srisc;
  uint64_t Seed = 1;
  unsigned Routines = 24;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--out FILE] [--trace FILE] [--prometheus FILE] "
               "[--threads N] [--no-verify] [--arch srisc|mrisc|arisc] [--seed N] "
               "[--routines N] [image.sxf]\n",
               Argv0);
  return 2;
}

bool writeOrPrint(const std::string &Path, const std::string &Text) {
  if (Path.empty()) {
    std::printf("%s\n", Text.c_str());
    return true;
  }
  Expected<bool> Wrote = writeFileBytes(
      Path, std::vector<uint8_t>(Text.begin(), Text.end()));
  if (Wrote.hasError()) {
    std::fprintf(stderr, "error: %s\n", Wrote.error().describe().c_str());
    return false;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  ReportConfig Config;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    auto NeedValue = [&](const char *&Out) {
      if (I + 1 >= argc)
        return false;
      Out = argv[++I];
      return true;
    };
    const char *Value = nullptr;
    if (!std::strcmp(Arg, "--out") && NeedValue(Value)) {
      Config.OutPath = Value;
    } else if (!std::strcmp(Arg, "--trace") && NeedValue(Value)) {
      Config.TracePath = Value;
    } else if (!std::strcmp(Arg, "--prometheus") && NeedValue(Value)) {
      Config.PrometheusPath = Value;
    } else if (!std::strcmp(Arg, "--threads") && NeedValue(Value)) {
      Config.Threads = static_cast<unsigned>(std::atoi(Value));
    } else if (!std::strcmp(Arg, "--no-verify")) {
      Config.Verify = false;
    } else if (!std::strcmp(Arg, "--arch") && NeedValue(Value)) {
      if (!std::strcmp(Value, "srisc"))
        Config.Arch = TargetArch::Srisc;
      else if (!std::strcmp(Value, "mrisc"))
        Config.Arch = TargetArch::Mrisc;
      else if (!std::strcmp(Value, "arisc"))
        Config.Arch = TargetArch::Arisc;
      else
        return usage(argv[0]);
    } else if (!std::strcmp(Arg, "--seed") && NeedValue(Value)) {
      Config.Seed = static_cast<uint64_t>(std::atoll(Value));
    } else if (!std::strcmp(Arg, "--routines") && NeedValue(Value)) {
      Config.Routines = static_cast<unsigned>(std::atoi(Value));
    } else if (Arg[0] == '-') {
      return usage(argv[0]);
    } else if (Config.ImagePath.empty()) {
      Config.ImagePath = Arg;
    } else {
      return usage(argv[0]);
    }
  }

  // --- Acquire the input image ---------------------------------------------
  SxfFile Image;
  std::string InputName;
  if (!Config.ImagePath.empty()) {
    Expected<SxfFile> Loaded = SxfFile::readFromFile(Config.ImagePath);
    if (Loaded.hasError()) {
      std::fprintf(stderr, "error: %s\n", Loaded.error().describe().c_str());
      return 2;
    }
    Image = Loaded.takeValue();
    InputName = Config.ImagePath;
  } else {
    WorkloadOptions WOpts;
    WOpts.Seed = Config.Seed;
    WOpts.Routines = Config.Routines;
    WOpts.SwitchPercent = 35;
    WOpts.TailCallPercent = 10;
    WOpts.SymbolPathologies = true;
    Image = generateWorkload(Config.Arch, WOpts);
    InputName = "<generated seed=" + std::to_string(Config.Seed) +
                " routines=" + std::to_string(Config.Routines) + ">";
  }
  std::vector<uint8_t> ImageBytes = Image.serialize();
  uint64_t ImageHash = fnv1a64(ImageBytes.data(), ImageBytes.size());

  // --- Run the pipeline traced ------------------------------------------------
  // A fresh sink, so the report covers exactly this run.
  MetricsSink Sink;
  TraceRequestScope Scope(/*Rid=*/0, &Sink);

  Executable::Options EOpts;
  EOpts.Threads = Config.Threads;
  Expected<std::unique_ptr<Executable>> Opened =
      Executable::openImage(std::move(Image), EOpts);
  if (Opened.hasError()) {
    std::fprintf(stderr, "error: %s\n", Opened.error().describe().c_str());
    return 2;
  }
  Executable &Exec = *Opened.value();
  Expected<bool> Read = Exec.readContents();
  if (Read.hasError()) {
    std::fprintf(stderr, "error: %s\n", Read.error().describe().c_str());
    return 2;
  }
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  if (Edited.hasError()) {
    std::fprintf(stderr, "error: edit failed: %s\n",
                 Edited.error().describe().c_str());
    return 2;
  }

  DiagnosticReport Findings;
  if (Config.Verify) {
    VerifyOptions VOpts; // default: all five passes
    VOpts.Threads = Config.Threads;
    Findings = verifyEdit(Exec, Edited.value(), VOpts);
  }
  MetricsSnapshot Snap = Sink.snapshot();

  // --- Assemble the report -----------------------------------------------------
  RunReport Report("eel-report");
  Report.addInput(InputName, ImageHash, ImageBytes.size());
  // Full provenance: image content hash + what edited it and how. The
  // eel-report pipeline applies no tool edits, so the tool digest is the
  // digest of the empty spec.
  Report.setProvenance(ImageHash, fnv1a64(std::string_view("")),
                       optionsDigest(EOpts));
  Report.addOption("threads", uint64_t(Config.Threads));
  Report.addOption("effective_threads",
                   uint64_t(Exec.analysis().effectiveThreads()));
  Report.addOption("verify", Config.Verify);
  Report.addOption("runtime_translation", EOpts.EnableRuntimeTranslation);
  Report.capture(Snap);
  Report.captureDiagnostics(Findings);
  {
    const Executable::EditStats &ES = Exec.editStats();
    JsonWriter S(/*Indent=*/false);
    S.beginObject();
    S.key("routines_edited");
    S.value(uint64_t(ES.RoutinesEdited));
    S.key("routines_verbatim");
    S.value(uint64_t(ES.RoutinesVerbatim));
    S.key("translation_sites");
    S.value(uint64_t(ES.TranslationSites));
    S.key("delay_slots_folded");
    S.value(uint64_t(ES.DelaySlotsFolded));
    S.key("spans_recorded");
    S.value(uint64_t(Snap.Spans.size()));
    S.endObject();
    Report.setSummaryJson(S.take());
  }

  if (!writeOrPrint(Config.OutPath, Report.renderJson()))
    return 2;
  if (!Config.TracePath.empty() &&
      !writeOrPrint(Config.TracePath, renderChromeTrace(Snap.Spans)))
    return 2;
  if (!Config.PrometheusPath.empty() &&
      !writeOrPrint(Config.PrometheusPath,
                    metricsPrometheus(Snap.Counters, Snap.Histograms)))
    return 2;
  return Findings.hasErrors() ? 1 : 0;
}
