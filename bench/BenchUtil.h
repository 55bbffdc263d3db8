//===- bench/BenchUtil.h - Shared benchmark utilities -----------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the benchmark binaries: the standard workload suites
/// standing in for SPEC92 (a "gcc-style" suite with plain dispatch tables
/// and a "sunpro-style" suite with frame-popping tail calls through
/// function-pointer cells), repository-relative source access for the
/// line-count comparisons, and table printing.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_BENCH_BENCHUTIL_H
#define EEL_BENCH_BENCHUTIL_H

#include "support/FileIO.h"
#include "support/Json.h"
#include "workload/Generator.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace eelbench {

/// Options for one member of a SPEC-like suite.
inline eel::WorkloadOptions suiteMember(bool SunproStyle, uint64_t Seed,
                                        unsigned Routines = 24) {
  eel::WorkloadOptions Opts;
  Opts.Seed = Seed;
  Opts.Routines = Routines;
  Opts.SegmentsPerRoutine = 6;
  Opts.SwitchPercent = 35;
  Opts.TailCallPercent = SunproStyle ? 35 : 0;
  return Opts;
}

/// The paper's SPEC92 stand-in: \p Count programs of one compiler style.
inline std::vector<eel::SxfFile> makeSuite(eel::TargetArch Arch,
                                           bool SunproStyle, unsigned Count,
                                           unsigned Routines = 24) {
  std::vector<eel::SxfFile> Suite;
  for (unsigned I = 0; I < Count; ++I)
    Suite.push_back(eel::generateWorkload(
        Arch, suiteMember(SunproStyle, 1000 + I, Routines)));
  return Suite;
}

/// Repository root derived from this header's compile-time path.
inline std::string repoRoot() {
  std::string Path = __FILE__;            // .../bench/BenchUtil.h
  size_t Slash = Path.rfind('/');          // strip file
  Slash = Path.rfind('/', Slash - 1);      // strip bench/
  return Path.substr(0, Slash);
}

/// Non-comment, non-blank lines of a repository source file; 0 if missing.
inline unsigned sourceLines(const std::string &RelPath) {
  eel::Expected<std::vector<uint8_t>> Bytes =
      eel::readFileBytes(repoRoot() + "/" + RelPath);
  if (Bytes.hasError())
    return 0;
  return eel::countCodeLines(
      std::string(Bytes.value().begin(), Bytes.value().end()));
}

inline void printHeader(const char *Title) {
  std::printf("\n==== %s ====\n", Title);
}

/// Machine-readable benchmark results. Construct one per bench binary
/// BEFORE benchmark::Initialize — the constructor strips `--json=FILE`
/// and `--smoke` from argv (google-benchmark aborts on flags it does not
/// recognize). Each headline number a bench prints is also handed to
/// metric(); when --json was given, the destructor writes them as one
/// JSON document
///
///   {"schema": "eel-bench/1", "bench": NAME,
///    "metrics": [{"name": ..., "value": ..., "unit": ...}, ...]}
///
/// scripts/run_benches.sh runs every bench this way and splices the
/// per-bench documents into the BENCH_*.json suite files.
/// The `bench-smoke` build target passes --smoke; benches that do heavy
/// headline work shrink workloads and repetition counts when smoke() is
/// set (and skip throughput assertions — a smoke rep proves the bench
/// runs and emits valid JSON, not that the host is fast).
class JsonSink {
public:
  JsonSink(const char *BenchName, int *Argc, char **Argv) : Bench(BenchName) {
    int Kept = 1;
    for (int I = 1; I < *Argc; ++I) {
      if (!std::strncmp(Argv[I], "--json=", 7))
        Path = Argv[I] + 7;
      else if (!std::strcmp(Argv[I], "--smoke"))
        Smoke = true;
      else
        Argv[Kept++] = Argv[I];
    }
    *Argc = Kept;
  }

  JsonSink(const JsonSink &) = delete;
  JsonSink &operator=(const JsonSink &) = delete;

  bool enabled() const { return !Path.empty(); }
  bool smoke() const { return Smoke; }

  void metric(const std::string &Name, double Value, const char *Unit = "") {
    Rows.push_back({Name, Value, Unit});
  }

  ~JsonSink() {
    if (Path.empty())
      return;
    eel::JsonWriter S(/*Indent=*/false);
    S.beginObject();
    S.key("schema");
    S.value("eel-bench/1");
    S.key("bench");
    S.value(Bench);
    S.key("metrics");
    S.beginArray();
    for (const Row &R : Rows) {
      S.beginObject();
      S.key("name");
      S.value(R.Name);
      S.key("value");
      S.valueRaw(formatNumber(R.Value));
      S.key("unit");
      S.value(R.Unit);
      S.endObject();
    }
    S.endArray();
    S.endObject();
    std::string Text = S.take();
    Text.push_back('\n');
    eel::Expected<bool> Wrote = eel::writeFileBytes(
        Path, std::vector<uint8_t>(Text.begin(), Text.end()));
    if (Wrote.hasError())
      std::fprintf(stderr, "warning: --json=%s: %s\n", Path.c_str(),
                   Wrote.error().describe().c_str());
  }

private:
  struct Row {
    std::string Name;
    double Value;
    std::string Unit;
  };

  /// Counters print exactly; measurements keep 9 significant digits
  /// (JsonWriter's default %.6g would round large instruction counts).
  static std::string formatNumber(double V) {
    char Buf[64];
    if (std::nearbyint(V) == V && std::fabs(V) < 9.007199254740992e15)
      std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
    else
      std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    return Buf;
  }

  std::string Bench;
  std::string Path;
  bool Smoke = false;
  std::vector<Row> Rows;
};

} // namespace eelbench

#endif // EEL_BENCH_BENCHUTIL_H
