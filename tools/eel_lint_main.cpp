//===- tools/eel_lint_main.cpp - Standalone image checker ---------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// eel-lint: runs the static verifier (analysis/Verifier.h) over SXF
/// images from the command line.
///
///   eel-lint [options] image.sxf...
///     --json        emit an "eel-report/1" JSON envelope (the same schema
///                   eel-report and sxf-fuzz --json produce): inputs with
///                   content hashes, diagnostics, counters, histograms
///     --roundtrip   additionally re-edit the image with no changes and run
///                   the full five-pass verification (including layout and
///                   translation validation) on the result
///     --stripped    distrust the symbol table: derive routine boundaries
///                   with the eel-infer fixpoint (analysis/Infer.h) and
///                   report every inferred routine with its confidence as
///                   a note diagnostic; the image is still linted
///     --threads N   worker threads for the per-routine fan-out (0 = auto)
///     --quiet       print nothing on clean images
///
/// Exit status: 0 clean, 1 when any error-severity finding was reported,
/// 2 when an image failed to load at all or the command line is malformed.
///
//===----------------------------------------------------------------------===//

#include "analysis/InferFacts.h"
#include "analysis/Report.h"
#include "analysis/Verifier.h"
#include "core/Executable.h"
#include "support/FileIO.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace eel;

namespace {

struct LintConfig {
  bool Json = false;
  bool Roundtrip = false;
  bool Stripped = false;
  bool Quiet = false;
  unsigned Threads = 0;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--roundtrip] [--stripped] [--threads N] "
               "[--quiet] image.sxf...\n",
               Argv0);
  return 2;
}

/// --stripped: analyze the image with the symbol table distrusted, so
/// eel-infer derives boundaries, and report what it concluded. Inference
/// findings are notes: heuristic conclusions, not defects.
bool reportInference(const std::string &Path, const SxfFile &Image,
                     const LintConfig &Config, DiagnosticReport &Report) {
  Executable::Options EOpts;
  EOpts.NoSymbols = true;
  EOpts.Threads = Config.Threads;
  Expected<std::unique_ptr<Executable>> Exec =
      Executable::openImage(Image, EOpts);
  if (Exec.hasError()) {
    Report.add(VerifyPass::Inference, DiagSeverity::Error, "", -1, 0, false,
               Path + ": " + Exec.error().describe());
    return false;
  }
  Executable &E = *Exec.value();
  E.readContents();
  for (const auto &R : E.routines()) {
    auto C = static_cast<InferConfidence>(
        E.analysis().inferredConfidence(R->startAddr()));
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "inferred %s extent of %u bytes, confidence %s",
                  R->isData() ? "data" : "routine", R->sizeBytes(),
                  inferConfidenceName(C));
    Report.add(VerifyPass::Inference, DiagSeverity::Note, R->name(), -1,
               R->startAddr(), true, Buf);
  }
  return true;
}

/// Lints one image; merges findings into \p Report and records the input's
/// provenance in \p Run. Returns false when the image could not even be
/// loaded.
bool lintOne(const std::string &Path, const LintConfig &Config,
             DiagnosticReport &Report, RunReport &Run) {
  Expected<std::vector<uint8_t>> Bytes = readFileBytes(Path);
  if (Bytes.hasError()) {
    Report.add(VerifyPass::ImageLoad, DiagSeverity::Error, "", -1, 0, false,
               Path + ": " + Bytes.error().describe());
    return false;
  }
  Run.addInput(Path, fnv1a64(Bytes.value().data(), Bytes.value().size()),
               Bytes.value().size());
  Expected<SxfFile> Image = SxfFile::deserialize(Bytes.value());
  if (Image.hasError()) {
    Report.add(VerifyPass::ImageLoad, DiagSeverity::Error, "", -1, 0, false,
               Path + ": " + Image.error().describe());
    return false;
  }
  if (Config.Stripped && !reportInference(Path, Image.value(), Config, Report))
    return false;

  VerifyOptions Opts;
  Opts.Threads = Config.Threads;
  if (Config.Stripped) {
    // Lint what --stripped actually trusts: the image minus its symbols.
    SxfFile NoSyms(Image.value());
    NoSyms.Symbols.clear();
    Report.append(lintImage(NoSyms, Opts));
  } else {
    Report.append(lintImage(Image.value(), Opts));
  }

  if (Config.Roundtrip) {
    // An identity edit exercises the whole pipeline: the verify gate plus
    // an explicit verifyEdit give the full five passes over the output.
    Executable::Options EOpts;
    EOpts.Threads = Config.Threads ? Config.Threads : 0;
    Expected<std::unique_ptr<Executable>> Exec =
        Executable::openImage(Image.value(), EOpts);
    if (Exec.hasError()) {
      Report.add(VerifyPass::ImageLoad, DiagSeverity::Error, "", -1, 0,
                 false, Path + ": " + Exec.error().describe());
      return false;
    }
    Expected<SxfFile> Edited = Exec.value()->writeEditedExecutable();
    if (Edited.hasError()) {
      Report.add(VerifyPass::ImageLoad, DiagSeverity::Error, "", -1, 0,
                 false,
                 Path + ": roundtrip edit failed: " +
                     Edited.error().describe());
      return false;
    }
    VerifyOptions EditOpts;
    EditOpts.Threads = Config.Threads;
    Report.append(verifyEdit(*Exec.value(), Edited.value(), EditOpts));
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  LintConfig Config;
  std::vector<std::string> Paths;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (!std::strcmp(Arg, "--json")) {
      Config.Json = true;
    } else if (!std::strcmp(Arg, "--roundtrip")) {
      Config.Roundtrip = true;
    } else if (!std::strcmp(Arg, "--stripped")) {
      Config.Stripped = true;
    } else if (!std::strcmp(Arg, "--quiet")) {
      Config.Quiet = true;
    } else if (!std::strcmp(Arg, "--threads")) {
      if (I + 1 >= argc)
        return usage(argv[0]);
      Config.Threads = static_cast<unsigned>(std::atoi(argv[++I]));
    } else if (Arg[0] == '-') {
      return usage(argv[0]);
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.empty())
    return usage(argv[0]);

  DiagnosticReport Report;
  RunReport Run("eel-lint");
  Run.addOption("roundtrip", Config.Roundtrip);
  Run.addOption("stripped", Config.Stripped);
  Run.addOption("threads", uint64_t(Config.Threads));
  bool AllLoaded = true;
  for (const std::string &Path : Paths)
    AllLoaded &= lintOne(Path, Config, Report, Run);

  if (Config.Json) {
    Run.captureDiagnostics(Report);
    Run.captureMetrics();
    std::printf("%s\n", Run.renderJson().c_str());
  } else if (!Report.empty()) {
    std::printf("%s", Report.renderText().c_str());
  }
  if (!Config.Quiet && !Config.Json)
    std::printf("%u finding(s), %u error(s), %u check(s) run\n",
                static_cast<unsigned>(Report.diagnostics().size()),
                Report.errorCount(), Report.checksRun());

  if (!AllLoaded)
    return 2;
  return Report.hasErrors() ? 1 : 0;
}
