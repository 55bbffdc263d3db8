//===- analysis/Report.h - Machine-readable run reports ---------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "eel-report/1" JSON envelope: one provenance-carrying document
/// combining input identity (content hash), the options a pipeline ran
/// with, a phase-timing tree reconstructed from drained trace spans,
/// counter and histogram tables, and verifier findings. eel-report emits
/// it for edit pipelines, eel-lint --json and sxf-fuzz --json reuse the
/// same envelope for their diagnostics, so downstream tooling parses one
/// schema regardless of which tool produced the document.
///
/// Phase trees are rebuilt from the flat span list by interval
/// containment: spans from one thread are sorted by (start ascending,
/// duration descending, push-sequence descending) and nested with a stack.
/// The sequence tiebreak matters for zero-length spans — rings record
/// spans at completion, so at equal start and duration a parent has a
/// HIGHER sequence number than its children.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_ANALYSIS_REPORT_H
#define EEL_ANALYSIS_REPORT_H

#include "analysis/Diagnostics.h"
#include "core/Executable.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace eel {

/// FNV-1a 64-bit content hash; used for input provenance in run reports.
inline uint64_t fnv1a64(const uint8_t *Data, size_t Size) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I < Size; ++I) {
    H ^= Data[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

/// FNV-1a over a string (tool specs, canonical option strings).
inline uint64_t fnv1a64(std::string_view S) {
  return fnv1a64(reinterpret_cast<const uint8_t *>(S.data()), S.size());
}

/// Canonical, stable rendering of every Executable::Options field, in
/// declaration order (`runtime_translation=1;...;no_symbols=0;`). Two
/// option sets produce the same string iff they configure identical
/// pipelines — the digestable identity of "how" a run was configured,
/// alongside the image hash's "what".
std::string canonicalOptionsString(const Executable::Options &Opts);

/// Digest of an option set, for provenance records and cache keys.
inline uint64_t optionsDigest(const Executable::Options &Opts) {
  return fnv1a64(canonicalOptionsString(Opts));
}

/// Combined provenance key folding the image content hash, the tool-spec
/// digest, and the options digest — in that fixed order — into one value.
/// An edit-result cache MUST key on this (not the image hash alone): the
/// image bytes say nothing about which tool edited them or which options
/// shaped analysis and output, and a cache keyed on content alone serves
/// stale results the moment either differs. (eel-serve's analysis cache
/// passes a zero tool digest: an analysis does not depend on the tool.)
inline uint64_t provenanceKey(uint64_t ImageHash, uint64_t ToolDigest,
                              uint64_t OptsDigest) {
  uint64_t Parts[3] = {ImageHash, ToolDigest, OptsDigest};
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint64_t Part : Parts)
    for (unsigned I = 0; I < 8; ++I) {
      H ^= (Part >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  return H;
}

/// One node of the aggregated phase-timing tree. Spans with the same name
/// under the same parent path merge: Count is how many spans merged,
/// TotalNs their summed duration.
struct PhaseNode {
  std::string Name;
  uint64_t TotalNs = 0;
  uint64_t Count = 0;
  std::vector<PhaseNode> Children;
};

/// Reconstructs an aggregated phase tree from flat \p Events (any thread
/// mix). Per-thread nesting is derived from interval containment; the
/// per-name aggregation across threads makes the tree's *shape* and span
/// counts deterministic even though durations are wall-clock.
std::vector<PhaseNode> buildPhaseTree(const std::vector<TraceEvent> &Events);

/// Builder for one "eel-report/1" document.
class RunReport {
public:
  explicit RunReport(std::string Tool) : Tool(std::move(Tool)) {}

  /// Records one input file: path plus FNV-1a hash of its bytes.
  void addInput(const std::string &Path, uint64_t Hash, uint64_t SizeBytes);

  /// Records the run's full provenance: image content hash plus the
  /// tool-spec and options digests, rendered as a "provenance" object with
  /// the combined provenanceKey(). Reports carrying only the image hash
  /// were ambiguous — identical inputs edited by different tools or under
  /// different options hashed the same.
  void setProvenance(uint64_t ImageHash, uint64_t ToolDigest,
                     uint64_t OptsDigest);

  /// Records one option the run was configured with (stringified value).
  void addOption(const std::string &Key, const std::string &Value);
  void addOption(const std::string &Key, uint64_t Value) {
    addOption(Key, std::to_string(Value));
  }
  void addOption(const std::string &Key, bool Value) {
    addOption(Key, Value ? std::string("true") : std::string("false"));
  }

  /// Snapshots the global counter and histogram registries into the
  /// report. Call from a quiescent point after the instrumented work.
  void captureMetrics();

  /// Takes one request's counters, histograms and phase tree from its
  /// metrics sink (eel-serve's WantMetrics requests).
  void captureMetrics(const MetricsSink &Sink);

  /// Adds counters kept outside the registries (eel-serve's cumulative
  /// service counters) to those captureMetrics() took; the rendered
  /// counters stay sorted by name.
  void addCounters(
      const std::vector<std::pair<std::string, uint64_t>> &Extra);

  /// Builds the phase-timing tree from \p Events (typically
  /// TraceCollector::instance().drain()).
  void capturePhases(const std::vector<TraceEvent> &Events);

  /// Copies verifier findings into the report.
  void captureDiagnostics(const DiagnosticReport &Report);

  /// Extra tool-specific summary fields, spliced verbatim under "summary".
  /// \p Json must be a complete JSON value.
  void setSummaryJson(std::string Json) { SummaryJson = std::move(Json); }

  /// Renders the complete envelope:
  ///   {"schema": "eel-report/1", "tool": ..., "inputs": [...],
  ///    "options": {...}, "phases": [...], "counters": {...},
  ///    "histograms": [...], "diagnostics": [...],
  ///    "checks_run": N, "error_count": N, "summary": ...}
  std::string renderJson() const;

private:
  struct Input {
    std::string Path;
    uint64_t Hash;
    uint64_t SizeBytes;
  };

  struct Provenance {
    uint64_t ImageHash = 0;
    uint64_t ToolDigest = 0;
    uint64_t OptsDigest = 0;
    bool Set = false;
  };

  std::string Tool;
  std::vector<Input> Inputs;
  Provenance Prov;
  std::vector<std::pair<std::string, std::string>> Options;
  std::vector<PhaseNode> Phases;
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<HistogramSnapshot> Histograms;
  std::vector<Diagnostic> Diagnostics;
  unsigned ChecksRun = 0;
  uint64_t DroppedSpans = 0;
  bool HasPhases = false;
  std::string SummaryJson;
};

} // namespace eel

#endif // EEL_ANALYSIS_REPORT_H
