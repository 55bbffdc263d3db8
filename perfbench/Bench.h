//===- perfbench/Bench.h - The repository benchmark -------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the repository benchmark: run options, the outcome a
/// workload reports, and the small statistics every workload uses. The
/// workloads themselves live in Batch.cpp (large_relayout, spec_qpt) and
/// ServeMixed.cpp (serve_mixed); WORKLOADS.md records why each exists.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_PERFBENCH_BENCH_H
#define EEL_PERFBENCH_BENCH_H

#include "Spans.h"

#include "workload/Generator.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
};

/// What one workload run measured. Metric names are the ones
/// BENCHMARK.json lists; a workload sets those that apply to it.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Metrics;
  /// Human-readable lines printed before the result (sizes, sample
  /// counts, the first failure reasons).
  std::vector<std::string> Notes;

  /// Counts one checked operation; keeps the first few failure reasons.
  void record(bool Ok, const std::string &Why);
};

/// Set-up is repeated this many times per run and setup_s is the median,
/// so one slow repetition on a shared host does not move the metric.
constexpr unsigned SetupReps = 3;

Outcome runLargeRelayout(const RunOptions &Opts, SpanLog &Log);
Outcome runSpecQpt(const RunOptions &Opts, SpanLog &Log);
Outcome runServeMixed(const RunOptions &Opts, SpanLog &Log);

// --- Statistics ------------------------------------------------------------

/// Linear-interpolation quantile (q in [0,1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
/// Geometric mean of positive ratios; 0 when empty.
double geomean(const std::vector<double> &V);

/// Generator options shared by every workload's images: SPEC-like
/// routines of six code segments, 35% of them with a dispatch-table switch.
eel::WorkloadOptions suiteOptions(uint64_t Seed, unsigned Routines);

/// Peak resident set of this process so far, in MB.
double peakRssMb();

/// Share of the top-level spans' time in [Begin, End) that their direct
/// children cover: 1.0 when the layer spans account for every timed
/// nanosecond.
double spanCoverage(const std::vector<SpanRecord> &Spans, size_t Begin,
                    size_t End);

// --- Host speed --------------------------------------------------------------
//
// The shared hosts this runs on switch between speeds up to 1.6x apart for
// seconds at a time, with no CPU steal to show for it. On the one-shot
// workloads each pass is therefore scaled to one reference speed: a pass
// that took T seconds between probes of P0 and P1 seconds is reported as
// T * ProbeRefSeconds / ((P0 + P1) / 2). The probe is a fixed ALU loop
// owned by the benchmark (no allocation, no memory traffic), so no change
// to the program can move it. serve_mixed is not scaled: its load runs on
// every core at once, which a single-core probe between passes cannot
// bracket.

/// What the probe takes on the reference host.
constexpr double ProbeRefSeconds = 0.010;

/// Runs the probe once; its wall time in seconds.
double probeSeconds();

/// Factor that scales a duration measured between probes \p P0 and \p P1
/// to the reference speed.
inline double hostScale(double P0, double P1) {
  return 2.0 * ProbeRefSeconds / (P0 + P1);
}

inline double secondsSince(std::chrono::steady_clock::time_point T) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T)
      .count();
}

} // namespace perfbench

#endif // EEL_PERFBENCH_BENCH_H
