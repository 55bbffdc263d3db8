//===- tools/sxf_fuzz_main.cpp - SXF loader fault-injection CLI ----------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the deterministic SXF fault-injection harness.
///
///   sxf-fuzz [--json] [--seed N] [--mutants N] [--image FILE]...
///
/// --json emits the same "eel-report/1" envelope eel-report and eel-lint
/// produce, with the harness tallies under "summary" and contract
/// violations as image-load diagnostics.
///
/// Without --image, the corpus is generated: one workload per target
/// architecture (plus a symbol-pathology variant and an edited image), the
/// same corpus tests/FuzzTest.cpp uses. With --image, the named files are
/// loaded through Executable-style error reporting — a malformed file
/// prints its structured error (code, offset, field) and is skipped, which
/// doubles as a demonstration of the Expected-based load path: no input,
/// however hostile, aborts this tool.
///
/// Exit status: 0 when every mutant honored the loader contract, 1
/// otherwise (or when no corpus image was usable).
///
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "core/Executable.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "tools/SxfFuzz.h"
#include "workload/Generator.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace eel;

static std::vector<std::vector<uint8_t>> generatedCorpus() {
  std::vector<std::vector<uint8_t>> Corpus;
  for (TargetArch Arch : AllTargetArches) {
    WorkloadOptions WOpts;
    WOpts.Seed = 7;
    WOpts.Routines = 8;
    Corpus.push_back(generateWorkload(Arch, WOpts).serialize());
  }
  {
    WorkloadOptions WOpts;
    WOpts.Seed = 9;
    WOpts.Routines = 8;
    WOpts.SymbolPathologies = true;
    SxfFile Image = generateWorkload(TargetArch::Srisc, WOpts);
    Corpus.push_back(Image.serialize());
    // An edited image exercises translator/table records in the corpus.
    Executable::Options EOpts;
    EOpts.Threads = 1;
    Executable Exec(std::move(Image), EOpts);
    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    if (Edited.hasValue())
      Corpus.push_back(Edited.value().serialize());
  }
  return Corpus;
}

int main(int Argc, char **Argv) {
  FuzzOptions Options;
  Options.MutantsPerImage = 2500;
  bool Json = false;
  std::vector<std::string> ImagePaths;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--json")) {
      Json = true;
    } else if (!std::strcmp(Argv[I], "--seed") && I + 1 < Argc) {
      Options.Seed = std::strtoull(Argv[++I], nullptr, 0);
    } else if (!std::strcmp(Argv[I], "--mutants") && I + 1 < Argc) {
      Options.MutantsPerImage =
          static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 0));
    } else if (!std::strcmp(Argv[I], "--image") && I + 1 < Argc) {
      ImagePaths.push_back(Argv[++I]);
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--json] [--seed N] [--mutants N] [--image FILE]...\n",
          Argv[0]);
      return 1;
    }
  }

  std::vector<std::vector<uint8_t>> Corpus;
  std::vector<std::string> CorpusNames;
  if (ImagePaths.empty()) {
    Corpus = generatedCorpus();
    for (size_t I = 0; I < Corpus.size(); ++I)
      CorpusNames.push_back("<generated corpus " + std::to_string(I) + ">");
  } else {
    for (const std::string &Path : ImagePaths) {
      // Validate through the same front door tools use; report structured
      // errors instead of dying.
      Expected<std::unique_ptr<Executable>> Exec = Executable::open(Path);
      if (Exec.hasError()) {
        std::fprintf(stderr, "skipping %s: %s\n", Path.c_str(),
                     Exec.error().describe().c_str());
        continue;
      }
      Corpus.push_back(Exec.value()->image().serialize());
      CorpusNames.push_back(Path);
    }
  }
  if (Corpus.empty()) {
    std::fprintf(stderr, "no usable corpus images\n");
    return 1;
  }

  // --json reports the run's counters and histograms: record them into a
  // fresh sink.
  MetricsSink Sink;
  FuzzReport Report;
  {
    TraceRequestScope Scope(/*Rid=*/0, Json ? &Sink : nullptr);
    Report = runFaultInjection(Corpus, Options);
  }

  if (Json) {
    RunReport Run("sxf-fuzz");
    for (size_t I = 0; I < Corpus.size(); ++I)
      Run.addInput(CorpusNames[I], fnv1a64(Corpus[I].data(), Corpus[I].size()),
                   Corpus[I].size());
    Run.addOption("seed", Options.Seed);
    Run.addOption("mutants_per_image", uint64_t(Options.MutantsPerImage));
    DiagnosticReport Diags;
    Diags.noteChecks(Report.Total);
    for (const FuzzFailure &F : Report.Failures)
      Diags.add(VerifyPass::ImageLoad, DiagSeverity::Error, "", -1, 0, false,
                "image " + std::to_string(F.ImageIndex) + " mutant " +
                    std::to_string(F.MutantIndex) + ": " + F.What);
    Run.captureDiagnostics(Diags);
    // Thousands of mutants wrap the sink's span rings, so a phase tree
    // would cover only the last of them: the envelope leaves spans out.
    MetricsSnapshot Snap = Sink.snapshot();
    Snap.Spans.clear();
    Snap.DroppedSpans = 0;
    Run.capture(Snap);
    JsonWriter S(/*Indent=*/false);
    S.beginObject();
    S.key("mutants");
    S.value(uint64_t(Report.Total));
    S.key("round_tripped");
    S.value(uint64_t(Report.RoundTripped));
    S.key("verified");
    S.value(uint64_t(Report.Verified));
    S.key("rejected");
    S.value(uint64_t(Report.Rejected));
    S.key("error_histogram");
    S.beginObject();
    for (const auto &[Name, Count] : Report.ErrorHistogram) {
      S.key(Name);
      S.value(uint64_t(Count));
    }
    S.endObject();
    S.endObject();
    Run.setSummaryJson(S.take());
    std::printf("%s\n", Run.renderJson().c_str());
    return Report.clean() ? 0 : 1;
  }

  std::printf("sxf-fuzz: seed=%llu images=%zu mutants=%u\n",
              static_cast<unsigned long long>(Options.Seed), Corpus.size(),
              Report.Total);
  std::printf("  round-tripped identically: %u\n", Report.RoundTripped);
  std::printf("  passed the structural verifier: %u\n", Report.Verified);
  std::printf("  rejected with structured error: %u\n", Report.Rejected);
  for (const auto &[Name, Count] : Report.ErrorHistogram)
    std::printf("    %-20s %u\n", Name.c_str(), Count);
  if (!Report.clean()) {
    std::printf("  CONTRACT VIOLATIONS: %zu\n", Report.Failures.size());
    for (const FuzzFailure &F : Report.Failures)
      std::printf("    image %zu mutant %u: %s\n", F.ImageIndex,
                  F.MutantIndex, F.What.c_str());
    return 1;
  }
  std::printf("  loader contract held for every mutant\n");
  return 0;
}
