//===- bench/bench_scale.cpp - Per-phase growth with image size -----------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linearity check: every pipeline phase must grow near-linearly with
/// image size. Generates SRISC gcc-style images with the §3.1 symbol-table
/// pathologies at 1k, 2k, 4k and 8k routines (8k is the largest whose
/// edited text clears the data segment at 4 MB) and runs open →
/// readContents → writeEditedExecutable at Threads = 1, so every size
/// attributes work to the same phases. readContents ends with the
/// "analyze" phase (CFG + slicing + liveness); draining after it keeps
/// each trace drain below the per-thread ring capacity.
///
/// Phase times come from the phase tree (buildPhaseTree over the drained
/// spans); each size keeps every phase's minimum over 5 repetitions, since
/// host speed can swing by more than the effect measured. Each phase's
/// exponent is the least-squares slope of log time against log image
/// bytes. Gate (full mode): every phase that takes >= 5% of the largest
/// pass has an exponent <= 1.2.
///
/// The largest image also runs at Threads = 2 and 4 in every repetition,
/// beside its Threads = 1 pass: each width's edited bytes must equal the
/// Threads = 1 image (asserted), and each records its phase tree and
/// speedup@<size>_t<width> (minimum pass at 1 thread over minimum pass at
/// that width). The phase trees include the "decode" phase, in which the
/// analysis builds its decode table. Gate (full mode): speedup at 4
/// threads >= 1.8. A final 12k-routine row records the structured
/// SegmentOverlap error the writer returns once edited text would run
/// into the data segment.
///
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "bench/BenchUtil.h"
#include "core/Executable.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

using namespace eel;
using namespace eelbench;

namespace {

/// Inclusive phase times keyed by path ("writeEditedExecutable/write.layout").
using PhaseTimes = std::map<std::string, double>;

void flatten(const std::vector<PhaseNode> &Level, const std::string &Prefix,
             PhaseTimes &Out) {
  for (const PhaseNode &N : Level) {
    std::string Path = Prefix.empty() ? N.Name : Prefix + "/" + N.Name;
    Out[Path] += N.TotalNs / 1e6;
    flatten(N.Children, Path, Out);
  }
}

struct Pass {
  double Ms = 0;              ///< open through write, steady clock
  PhaseTimes Phases;          ///< from the drained spans, ms
  size_t Routines = 0;        ///< after refinement
  std::vector<uint8_t> Bytes; ///< the serialized edited image
  std::string Error;          ///< the pipeline's error, if any
};

/// Drains the spans recorded since the last call; aborts the pass (and the
/// bench) if a ring wrapped, since a truncated tree would undercount.
bool drainInto(std::vector<TraceEvent> &Events) {
  TraceCollector &TC = TraceCollector::instance();
  if (TC.droppedCount()) {
    std::fprintf(stderr, "FAIL: trace ring wrapped (%llu spans dropped)\n",
                 static_cast<unsigned long long>(TC.droppedCount()));
    return false;
  }
  for (TraceEvent &Ev : TC.drain())
    Events.push_back(std::move(Ev));
  TC.reset();
  return true;
}

bool runPass(const std::vector<uint8_t> &Bytes, unsigned Threads, Pass &P) {
  Executable::Options Opts;
  Opts.Threads = Threads;
  std::vector<TraceEvent> Events;
  TraceCollector::instance().reset();
  traceSetEnabled(true);
  auto Start = std::chrono::steady_clock::now();
  Expected<std::unique_ptr<Executable>> Opened =
      Executable::openImage(SxfFile::deserialize(Bytes).takeValue(), Opts);
  if (Opened.hasError()) {
    P.Error = Opened.error().describe();
    return true;
  }
  Executable &Exec = *Opened.value();
  Exec.readContents();
  if (!drainInto(Events))
    return false;
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  if (Edited.hasValue())
    P.Bytes = Edited.value().serialize();
  P.Ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
             .count();
  if (!drainInto(Events))
    return false;
  if (Edited.hasError())
    P.Error = Edited.error().describe();
  P.Routines = Exec.routines().size();
  flatten(buildPhaseTree(Events), "", P.Phases);
  return true;
}

/// Least-squares slope of log(Y) against log(X).
double logLogSlope(const std::vector<double> &X, const std::vector<double> &Y) {
  double N = static_cast<double>(X.size()), SX = 0, SY = 0, SXX = 0, SXY = 0;
  for (size_t I = 0; I < X.size(); ++I) {
    double LX = std::log(X[I]), LY = std::log(std::max(Y[I], 1e-6));
    SX += LX;
    SY += LY;
    SXX += LX * LX;
    SXY += LX * LY;
  }
  return (N * SXY - SX * SY) / (N * SXX - SX * SX);
}

std::vector<uint8_t> imageOf(unsigned Routines) {
  WorkloadOptions W = suiteMember(/*SunproStyle=*/false, /*Seed=*/1, Routines);
  W.SymbolPathologies = true;
  return generateWorkload(TargetArch::Srisc, W).serialize();
}

} // namespace

int main(int argc, char **argv) {
  eelbench::JsonSink Sink("bench_scale", &argc, argv);

  const bool Smoke = Sink.smoke();
  const std::vector<unsigned> Sizes =
      Smoke ? std::vector<unsigned>{50, 100}
            : std::vector<unsigned>{1000, 2000, 4000, 8000};
  const unsigned Reps = Smoke ? 1 : 5;
  const std::vector<unsigned> Widths = {2, 4}; ///< Beside Threads = 1.
  constexpr unsigned GatedThreads = 4;
  constexpr double MinSpeedup = 1.8;

  printHeader("Per-phase growth with image size (Threads = 1, min of reps)");
  std::printf("srisc gcc-style + symbol pathologies, seed 1, %u rep(s) per "
              "size\n",
              Reps);
  std::printf("%-9s %9s %12s %10s %9s\n", "routines", "refined", "image bytes",
              "pass ms", "MB/s");

  // Repetitions interleave the sizes and widths, so a slow spell of the
  // host lands on every size rather than inflating one of them. Run
  // Sizes.size() + W is the largest image at Widths[W]; its bytes must
  // reproduce the largest image's Threads = 1 run. Odd repetitions run the
  // largest image's widths in reverse order, so no width's rows always
  // follow the same pass (the allocator state a pass leaves behind is the
  // next pass's starting point).
  std::vector<std::vector<uint8_t>> Images;
  for (unsigned N : Sizes)
    Images.push_back(imageOf(N));
  const size_t Largest = Sizes.size() - 1;
  const size_t Runs = Sizes.size() + Widths.size();
  std::vector<PhaseTimes> Best(Runs);
  std::vector<double> BestPass(Runs, 1e300);
  std::vector<size_t> Refined(Runs);
  std::vector<uint8_t> Reference;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    for (size_t K = 0; K < Runs; ++K) {
      const size_t I =
          Rep % 2 == 1 && K >= Largest ? Runs - 1 - (K - Largest) : K;
      const size_t Image = std::min(I, Largest);
      const unsigned Threads = I > Largest ? Widths[I - Sizes.size()] : 1;
      Pass P;
      if (!runPass(Images[Image], Threads, P))
        return 1;
      if (!P.Error.empty()) {
        std::fprintf(stderr, "FAIL: %u routines: %s\n", Sizes[Image],
                     P.Error.c_str());
        return 1;
      }
      if (Reference.empty() && I == Largest) {
        Reference = std::move(P.Bytes); // repetition 0 runs it first
      } else if (I >= Largest && P.Bytes != Reference) {
        std::fprintf(stderr, "FAIL: %u routines at Threads = %u edit to "
                             "other bytes than at Threads = 1\n",
                     Sizes[Image], Threads);
        return 1;
      }
      BestPass[I] = std::min(BestPass[I], P.Ms);
      Refined[I] = P.Routines;
      for (const auto &[Name, Ms] : P.Phases)
        Best[I][Name] = Best[I].count(Name) ? std::min(Best[I][Name], Ms) : Ms;
    }
  }
  const std::vector<PhaseTimes> WideBest(Best.begin() + Sizes.size(),
                                         Best.end());
  const std::vector<double> WidePass(BestPass.begin() + Sizes.size(),
                                     BestPass.end());
  Best.resize(Sizes.size());
  BestPass.resize(Sizes.size());
  std::vector<double> Bytes;
  for (size_t I = 0; I < Sizes.size(); ++I) {
    double MBps = Images[I].size() / 1e6 / (BestPass[I] / 1e3);
    std::printf("%-9u %9zu %12zu %10.1f %9.2f\n", Sizes[I], Refined[I],
                Images[I].size(), BestPass[I], MBps);
    std::string At = "@";
    At += std::to_string(Sizes[I]);
    Sink.metric("image_bytes" + At, static_cast<double>(Images[I].size()),
                "bytes");
    Sink.metric("routines" + At, static_cast<double>(Refined[I]), "count");
    Sink.metric("pass_ms" + At, BestPass[I], "ms");
    Sink.metric("throughput" + At, MBps, "MB/s");
    Bytes.push_back(static_cast<double>(Images[I].size()));
  }

  // Exponent per phase present at every size.
  printHeader("Phase times (ms) and log-log exponent vs image bytes");
  std::printf("%-58s", "phase");
  for (unsigned N : Sizes)
    std::printf(" %9u", N);
  std::printf(" %7s %7s\n", "share", "exp");
  bool GateOk = true;
  unsigned Gated = 0;
  for (const auto &[Name, LargestMs] : Best.back()) {
    std::vector<double> Ms;
    for (const PhaseTimes &T : Best) {
      auto It = T.find(Name);
      if (It == T.end())
        break;
      Ms.push_back(It->second);
    }
    if (Ms.size() != Sizes.size())
      continue;
    double Exp = logLogSlope(Bytes, Ms);
    double Share = 100.0 * LargestMs / BestPass.back();
    bool IsGated = Share >= 5.0;
    Gated += IsGated;
    bool Ok = !IsGated || Exp <= 1.2;
    GateOk &= Ok;
    std::printf("%-58s", Name.c_str());
    for (double V : Ms)
      std::printf(" %9.2f", V);
    std::printf(" %6.1f%% %7.2f%s\n", Share, Exp,
                Ok ? (IsGated ? "" : "  (ungated)") : "  > 1.2 (gated!)");
    for (size_t I = 0; I < Sizes.size(); ++I)
      Sink.metric(Name + "_ms@" + std::to_string(Sizes[I]), Ms[I], "ms");
    Sink.metric(Name + "_share", Share, "percent");
    Sink.metric(Name + "_exponent", Exp, "x");
  }

  // The largest image at every width. Worker-thread spans nest under
  // their pool.worker span, so the phases the calling thread fans out read
  // as wall time at every width. The table shows the phases with >= 5% of
  // the serial pass, and decode.
  const std::string LargestAt = "@" + std::to_string(Sizes.back());
  printHeader("Largest image at Threads = 1, 2 and 4 (ms, min of reps)");
  std::printf("%-58s %9s", "phase", "threads 1");
  for (unsigned W : Widths)
    std::printf(" %9s", ("threads " + std::to_string(W)).c_str());
  std::printf("\n%-58s %9.2f", "pass", BestPass.back());
  for (double Ms : WidePass)
    std::printf(" %9.2f", Ms);
  std::printf("\n");
  for (const auto &[Name, SerialMs] : Best.back()) {
    if (SerialMs < 0.05 * BestPass.back() && Name != "decode")
      continue;
    std::printf("%-58s %9.2f", Name.c_str(), SerialMs);
    for (const PhaseTimes &T : WideBest) {
      auto It = T.find(Name);
      std::printf(" %9.2f", It == T.end() ? 0.0 : It->second);
    }
    std::printf("\n");
  }
  double GatedSpeedup = 0;
  for (size_t W = 0; W < Widths.size(); ++W) {
    const std::string Tag = LargestAt + "_t" + std::to_string(Widths[W]);
    const double Speedup = BestPass.back() / WidePass[W];
    std::printf("speedup at %u threads: %.2fx (edited bytes identical)\n",
                Widths[W], Speedup);
    for (const auto &[Name, Ms] : WideBest[W])
      Sink.metric(Name + "_ms" + Tag, Ms, "ms");
    Sink.metric("pass_ms" + Tag, WidePass[W], "ms");
    Sink.metric("speedup" + Tag, Speedup, "x");
    if (Widths[W] == GatedThreads)
      GatedSpeedup = Speedup;
  }
  const bool SpeedupOk = GatedSpeedup >= MinSpeedup;

  // Past 8k routines the edited text no longer fits below the data
  // segment; the writer must say so rather than emit an invalid image.
  // Untraced: this row records an outcome, not phase times.
  if (!Smoke) {
    printHeader("Edited text past the data segment (12k routines)");
    traceSetEnabled(false);
    Executable::Options Opts;
    Opts.Threads = 1;
    Executable Exec(SxfFile::deserialize(imageOf(12000)).takeValue(), Opts);
    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    bool Overlap = Edited.hasError() &&
                   Edited.error().code() == ErrorCode::SegmentOverlap;
    std::printf("writeEditedExecutable: %s\n",
                Edited.hasError() ? Edited.error().describe().c_str()
                                  : "success (expected segment_overlap!)");
    Sink.metric("segment_overlap@12000", Overlap ? 1 : 0, "bool");
    if (!Overlap) {
      std::fprintf(stderr, "FAIL: 12k routines did not report "
                           "segment_overlap\n");
      return 1;
    }
  }

  Sink.metric("gate_pass", GateOk && SpeedupOk ? 1 : 0, "bool");
  if (Smoke) {
    std::printf("gate: skipped (--smoke)\n");
    return 0;
  }
  if (!GateOk) {
    std::fprintf(stderr, "FAIL: a phase with >= 5%% of the largest pass "
                         "grows faster than n^1.2\n");
    return 1;
  }
  if (!SpeedupOk) {
    std::fprintf(stderr, "FAIL: %u threads are %.2fx faster than 1 on the "
                         "largest image, below %.1fx\n",
                 GatedThreads, GatedSpeedup, MinSpeedup);
    return 1;
  }
  std::printf("gate: all %u phases with >= 5%% of the largest pass have "
              "exponent <= 1.2, and %u threads are %.2fx faster than 1 "
              "(>= %.1fx) — PASS\n",
              Gated, GatedThreads, GatedSpeedup, MinSpeedup);
  return 0;
}
