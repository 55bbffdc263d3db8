//===- perfbench/main.cpp - The repository benchmark ----------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// eel-perfbench: runs one workload of the repository benchmark and prints
/// its metrics by name with unit, then, as the last line of standard
/// output, one JSON object {"correct", "attempted", "failed", "metrics"}.
///
///   eel-perfbench --workload large_relayout|spec_qpt|serve_mixed
///                 [--seed N] [--seconds S] [--trace 0|1]
///                 [--trace-out FILE]
///
/// --trace 0 reports the end-to-end metrics, measured with tracing off.
/// --trace 1 is the separate traced run: benchmark-owned spans around each
/// layer's entry points give the per-layer metrics, and --trace-out writes
/// the spans as Chrome trace-event JSON. perfbench/run.py builds this
/// binary and is the command BENCHMARK.json names.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Report.h"
#include "support/FileIO.h"
#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The metrics BENCHMARK.json declares, in its order. run.py checks that
/// the two lists agree.
constexpr MetricDef EndToEnd[] = {
    {"edit_s", "s"},           {"text_growth", "ratio"},
    {"run_overhead", "ratio"}, {"edits_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},
    {"peak_rss_mb", "MB"},     {"setup_s", "s"},
};

constexpr MetricDef PerLayer[] = {
    {"sxf.load_s", "s"},
    {"core.refine_s", "s"},
    {"analysis.infer_s", "s"},
    {"core.cfg_s", "s"},
    {"tools.instrument_s", "s"},
    {"core.write_s", "s"},
    {"sxf.store_s", "s"},
    {"core.routines", "count"},
    {"core.insns", "count"},
    {"tools.snippets", "count"},
    {"core.snippet_spills", "count"},
    {"core.cc_saves", "count"},
    {"core.delay_folded", "count"},
    {"core.delay_materialized", "count"},
    {"core.translation_sites", "count"},
    {"core.verbatim_routines", "count"},
    {"serve.hit_frac", "fraction"},
    {"serve.claim_misses", "count"},
    {"serve.cold_misses", "count"},
    {"serve.evictions", "count"},
    {"serve.hot_p50_ms", "ms"},
    {"serve.cold_p50_ms", "ms"},
    {"serve.metrics_p50_ms", "ms"},
    {"serve.service_p50_ms", "ms"},
    {"serve.wait_p50_ms", "ms"},
    {"serve.wait_p99_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"bench.trace_overhead_frac", "fraction"},
    {"bench.span_coverage_frac", "fraction"},
};

/// Counts print exactly; measurements keep 12 significant digits.
std::string formatDouble(double V) {
  char Buf[40];
  if (std::nearbyint(V) == V && std::fabs(V) < 9.007199254740992e15)
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  else
    std::snprintf(Buf, sizeof(Buf), "%.12g", V);
  return Buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: eel-perfbench --workload "
               "large_relayout|spec_qpt|serve_mixed [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

void printPhases(const std::vector<eel::PhaseNode> &Nodes, unsigned Depth) {
  for (const eel::PhaseNode &N : Nodes) {
    std::printf("  %*s%-*s %10.3f ms  x%llu\n", int(2 * Depth), "",
                int(28 - 2 * Depth), N.Name.c_str(), double(N.TotalNs) * 1e-6,
                static_cast<unsigned long long>(N.Count));
    printPhases(N.Children, Depth + 1);
  }
}

} // namespace

int main(int argc, char **argv) {
  RunOptions Opts;
  std::string TraceOut;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (I + 1 >= argc)
      return usage();
    const char *Value = argv[++I];
    char *End = nullptr;
    if (!std::strcmp(Arg, "--workload")) {
      Opts.Workload = Value;
    } else if (!std::strcmp(Arg, "--seed")) {
      Opts.Seed = std::strtoull(Value, &End, 10);
    } else if (!std::strcmp(Arg, "--seconds")) {
      Opts.Seconds = std::strtod(Value, &End);
    } else if (!std::strcmp(Arg, "--trace")) {
      Opts.Trace = std::strtoul(Value, &End, 10) != 0;
    } else if (!std::strcmp(Arg, "--trace-out")) {
      TraceOut = Value;
    } else {
      return usage();
    }
    if (End && *End)
      return usage();
  }
  if (!(Opts.Seconds > 0))
    return usage();

  Outcome (*Run)(const RunOptions &, SpanLog &) = nullptr;
  if (Opts.Workload == "large_relayout")
    Run = runLargeRelayout;
  else if (Opts.Workload == "spec_qpt")
    Run = runSpecQpt;
  else if (Opts.Workload == "serve_mixed")
    Run = runServeMixed;
  else
    return usage();

  std::printf("== eel-perfbench %s seed=%llu seconds=%g trace=%d\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              Opts.Trace ? 1 : 0);
  SpanLog Log;
  Outcome Out = Run(Opts, Log);
  Out.Metrics["peak_rss_mb"] = peakRssMb();
  for (const std::string &Line : Out.Notes)
    std::printf("%s\n", Line.c_str());
  std::printf("fail_frac %s (%llu of %llu operations failed their check)\n",
              formatDouble(double(Out.Failed) / double(Out.Attempted)).c_str(),
              static_cast<unsigned long long>(Out.Failed),
              static_cast<unsigned long long>(Out.Attempted));

  if (Opts.Trace) {
    std::vector<eel::TraceEvent> Events = Log.traceEvents();
    std::printf("benchmark-owned spans: %zu\n", Events.size());
    printPhases(eel::buildPhaseTree(Events), 0);
    if (!TraceOut.empty()) {
      std::string Json = eel::renderChromeTrace(Events);
      eel::Expected<bool> Wrote = eel::writeFileBytes(
          TraceOut, std::vector<uint8_t>(Json.begin(), Json.end()));
      if (Wrote.hasError())
        std::fprintf(stderr, "warning: %s\n",
                     Wrote.error().describe().c_str());
    }
  }

  // Layers a workload does not call report 0 (see WORKLOADS.md).
  const MetricDef *First = Opts.Trace ? std::begin(PerLayer)
                                      : std::begin(EndToEnd);
  const MetricDef *Last = Opts.Trace ? std::end(PerLayer) : std::end(EndToEnd);
  eel::JsonWriter Metrics(/*Indent=*/false);
  Metrics.beginObject();
  for (const MetricDef *D = First; D != Last; ++D) {
    auto It = Out.Metrics.find(D->Name);
    std::string Value = formatDouble(It == Out.Metrics.end() ? 0.0 : It->second);
    std::printf("  %-28s %16s %s\n", D->Name, Value.c_str(), D->Unit);
    Metrics.key(D->Name);
    Metrics.beginObject();
    Metrics.key("value");
    Metrics.valueRaw(Value);
    Metrics.key("unit");
    Metrics.value(D->Unit);
    Metrics.endObject();
  }
  Metrics.endObject();

  eel::JsonWriter Result(/*Indent=*/false);
  Result.beginObject();
  Result.key("correct");
  Result.value(Out.Failed == 0);
  Result.key("attempted");
  Result.value(Out.Attempted);
  Result.key("failed");
  Result.value(Out.Failed);
  Result.key("metrics");
  Result.valueRaw(Metrics.take());
  Result.endObject();
  std::printf("%s\n", Result.take().c_str());
  return 0;
}
