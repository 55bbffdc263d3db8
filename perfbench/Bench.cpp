//===- perfbench/Bench.cpp - Shared benchmark helpers ---------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>

#include <sys/resource.h>

using namespace perfbench;

namespace {
/// Where the probe's result goes, so the compiler cannot drop the loop.
volatile uint64_t ProbeSink;
} // namespace

void Outcome::record(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failed <= 5)
    Notes.push_back("FAILED: " + Why.substr(0, 300));
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

eel::WorkloadOptions perfbench::suiteOptions(uint64_t Seed, unsigned Routines) {
  eel::WorkloadOptions W;
  W.Seed = Seed;
  W.Routines = Routines;
  W.SegmentsPerRoutine = 6;
  W.SwitchPercent = 35;
  return W;
}

double perfbench::probeSeconds() {
  auto Start = std::chrono::steady_clock::now();
  uint64_t X = 88172645463325252ull, Sum = 0;
  for (unsigned I = 0; I < 1500000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Sum += (X & 1) ? X % 7 : (X >> 3) ^ Sum;
  }
  double Sec = secondsSince(Start);
  ProbeSink = Sum;
  return Sec;
}

double perfbench::peakRssMb() {
  struct rusage Usage = {};
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0.0;
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

double perfbench::spanCoverage(const std::vector<SpanRecord> &Spans,
                               size_t Begin, size_t End) {
  End = std::min(End, Spans.size());
  uint64_t TopNs = 0, ChildNs = 0;
  for (size_t I = Begin; I < End; ++I) {
    const SpanRecord &S = Spans[I];
    uint64_t Dur = S.EndNs - S.StartNs;
    if (S.Parent == SpanRecord::NoParent)
      TopNs += Dur;
    else if (Spans[S.Parent].Parent == SpanRecord::NoParent)
      ChildNs += Dur;
  }
  return TopNs ? double(ChildNs) / double(TopNs) : 0.0;
}
