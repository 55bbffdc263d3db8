//===- perfbench/Spans.h - Benchmark-owned layer spans ----------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its own calls into each layer's
/// public entry points (SxfFile::deserialize, Executable::readContents,
/// EditService::handleFrame, ...). They live in memory only and are kept
/// apart from the program's TraceCollector, whose process-wide gate
/// eel-serve toggles per request. At the end of a traced run they are
/// converted to eel::TraceEvent so the existing exporters
/// (renderChromeTrace, buildPhaseTree) write them out.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_PERFBENCH_SPANS_H
#define EEL_PERFBENCH_SPANS_H

#include "support/Trace.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span. Parent is the index of the enclosing span on the
/// same thread, or NoParent.
struct SpanRecord {
  static constexpr uint32_t NoParent = ~0u;
  const char *Name = nullptr; ///< Static literal.
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Parent = NoParent;
  uint32_t Tid = 0;
  uint64_t OpId = 0; ///< Operation (image edit or request) the span serves.
};

/// In-memory span store. Disabled, opening a span costs one branch.
class SpanLog {
public:
  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Opens a span on the calling thread; returns its index.
  uint32_t open(const char *Name, uint64_t OpId);
  void close(uint32_t Index);

  /// Snapshot of every span recorded so far. Call once recording threads
  /// have been joined.
  std::vector<SpanRecord> spans() const;

  /// Sum of self time (duration minus the part covered by child spans),
  /// per span name, over the spans whose index is in [Begin, End).
  std::map<std::string, uint64_t> selfNs(size_t Begin, size_t End) const;

  size_t size() const;

  /// The spans as eel::TraceEvent: the operation id becomes RequestId and
  /// the 1-based span and parent ids (0 = no parent) ride in the two
  /// argument slots.
  std::vector<eel::TraceEvent> traceEvents() const;

private:
  bool Enabled = false;
  mutable std::mutex M; ///< Guards Records and NextTid.
  std::vector<SpanRecord> Records;
  uint32_t NextTid = 0;
};

/// RAII span over the rest of the enclosing scope.
class Span {
public:
  Span(SpanLog &Log, const char *Name, uint64_t OpId = 0) : Log(Log) {
    if (Log.enabled())
      Index = Log.open(Name, OpId);
  }
  ~Span() {
    if (Index != SpanRecord::NoParent)
      Log.close(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanLog &Log;
  uint32_t Index = SpanRecord::NoParent;
};

} // namespace perfbench

#endif // EEL_PERFBENCH_SPANS_H
