//===- support/Trace.h - Request-scoped span tracing -----------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A span-based tracing layer for the editing pipeline. Instrumented scopes
/// open a TraceSpan (via EEL_TRACE_SCOPE) that records its name, optional
/// typed arguments, and start/end timestamps when it closes.
///
/// Spans, like counters and histograms, have one store: the MetricsSink
/// (support/Metrics.h) installed on the calling thread through a
/// TraceRequestScope. The scope carries a request id and the sink, and
/// parallelForEach hands both to its helpers, so a run's spans land in the
/// sink of the run that fanned out, whatever thread recorded them. With
/// no sink installed nothing is recorded.
///
/// Two gates keep the cost out of production runs:
///  - the installed sink: without one, the span constructor is one
///    thread-local load and a branch and the destructor a branch — no
///    clock reads, no allocation, no writes;
///  - the EEL_TRACE_DISABLED compile-time macro, which turns every
///    EEL_TRACE_SCOPE into ((void)0) and every TracePhases into a no-op,
///    so tracing compiles out entirely.
/// bench_overhead asserts the compiled-in path without a sink costs <1% of
/// pipeline time.
///
/// Spans carry nanosecond timestamps from one process-wide steady-clock
/// epoch and the recording thread's dense id (traceThreadId(), which log
/// records stamp too). renderChromeTrace() exports them as Chrome
/// trace-event JSON ("X" complete events, microsecond units), directly
/// loadable in Perfetto or chrome://tracing. Parent/child structure is not
/// recorded explicitly; it is reconstructed from interval containment
/// (analysis/Report.h), which is why each thread's spans carry a push
/// sequence: completion order breaks ties between zero-length nested
/// spans.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_TRACE_H
#define EEL_SUPPORT_TRACE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace eel {

class MetricsSink; // support/Metrics.h

namespace trace_detail {
/// The calling thread's request (see TraceRequestScope).
struct RequestContext {
  uint64_t Id = 0;
  MetricsSink *Sink = nullptr;
};
extern constinit thread_local RequestContext CurrentRequest;
} // namespace trace_detail

/// The calling thread's metrics sink, or null: then spans, counters and
/// histograms are recorded nowhere.
inline MetricsSink *requestSink() { return trace_detail::CurrentRequest.Sink; }

/// The calling thread's current request id (0 = none). Every span recorded
/// while an id is set carries it, and structured log records stamp it, so
/// one request can be correlated across connection thread, pool workers
/// (parallelForEach propagates the submitter's context into helper
/// bodies), log lines, and exported Chrome traces.
inline uint64_t traceRequestId() { return trace_detail::CurrentRequest.Id; }

/// The calling thread's dense id: 0 for the first thread that asks, 1 for
/// the next, and so on, fixed for the thread's life. Spans carry it as
/// their Tid and log records as their `tid`.
uint32_t traceThreadId();

/// RAII: sets the calling thread's request id and metrics sink for the
/// enclosing scope and restores the previous ones on exit (scopes nest).
/// The one way to install a sink.
class TraceRequestScope {
public:
  explicit TraceRequestScope(uint64_t Rid, MetricsSink *Sink = nullptr)
      : Saved(trace_detail::CurrentRequest) {
    trace_detail::CurrentRequest = {Rid, Sink};
  }
  ~TraceRequestScope() { trace_detail::CurrentRequest = Saved; }
  TraceRequestScope(const TraceRequestScope &) = delete;
  TraceRequestScope &operator=(const TraceRequestScope &) = delete;

private:
  trace_detail::RequestContext Saved;
};

/// One completed span. Duration is EndNs - StartNs; both are nanoseconds
/// since the span clock's epoch, so they compare across threads.
struct TraceEvent {
  const char *Name; ///< Static string; instrumentation passes literals.
  uint64_t StartNs;
  uint64_t EndNs;
  uint32_t Tid; ///< The recording thread's traceThreadId().
  uint64_t Seq; ///< Per-thread push sequence (completion order).
  /// Request the span belongs to (0 = none); stamped from the recording
  /// thread's traceRequestId() at span start.
  uint64_t RequestId = 0;
  /// Up to two typed arguments ("routine" names, counts). Keys are static
  /// literals; a null key means the slot is unused.
  const char *Key0 = nullptr;
  std::string Val0;
  const char *Key1 = nullptr;
  uint64_t Val1 = 0;
};

/// The span clock, under the name perfbench's own spans call it by.
class TraceCollector {
public:
  /// Nanoseconds since the process-wide epoch (first use of the clock).
  static uint64_t nowNs();
};

/// RAII span: stamps the start on construction and records into the
/// calling thread's sink on destruction. With no sink installed every
/// constructor is one thread-local load and a branch (no clock read).
class TraceSpan {
public:
  explicit TraceSpan(const char *Name) : Sink(requestSink()) {
    if (Sink)
      begin(Name);
  }
  /// Span with one string argument (e.g. the routine name). By-reference
  /// so the disabled path copies (and allocates) nothing.
  TraceSpan(const char *Name, const char *K0, const std::string &V0)
      : Sink(requestSink()) {
    if (Sink) {
      begin(Name);
      Ev.Key0 = K0;
      Ev.Val0 = V0;
    }
  }
  /// Span with a string argument and an integer argument.
  TraceSpan(const char *Name, const char *K0, const std::string &V0,
            const char *K1, uint64_t V1)
      : Sink(requestSink()) {
    if (Sink) {
      begin(Name);
      Ev.Key0 = K0;
      Ev.Val0 = V0;
      Ev.Key1 = K1;
      Ev.Val1 = V1;
    }
  }
  /// Span with one integer argument.
  TraceSpan(const char *Name, const char *K1, uint64_t V1)
      : Sink(requestSink()) {
    if (Sink) {
      begin(Name);
      Ev.Key1 = K1;
      Ev.Val1 = V1;
    }
  }

  ~TraceSpan() {
    if (Sink)
      end();
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  void begin(const char *Name) {
    Ev.Name = Name;
    Ev.RequestId = traceRequestId();
    Ev.StartNs = TraceCollector::nowNs();
  }
  void end();

  MetricsSink *Sink; ///< Where end() records; null = nowhere.
  TraceEvent Ev;
};

/// Sequential, non-overlapping phase spans over one scope: begin() ends the
/// current phase's span and opens the next, and destruction ends the last.
class TracePhases {
public:
#ifdef EEL_TRACE_DISABLED
  void begin(const char *) {}
#else
  void begin(const char *Name) {
    Current.reset();
    Current.emplace(Name);
  }

private:
  std::optional<TraceSpan> Current;
#endif
};

/// Renders \p Events as a Chrome trace-event JSON document (the
/// {"traceEvents": [...]} envelope with "X" complete events), loadable in
/// Perfetto. Timestamps convert to microseconds with nanosecond remainders
/// preserved as fractions.
std::string renderChromeTrace(const std::vector<TraceEvent> &Events);

#define EEL_TRACE_CAT2(A, B) A##B
#define EEL_TRACE_CAT(A, B) EEL_TRACE_CAT2(A, B)

/// Opens a span covering the rest of the enclosing scope:
///   EEL_TRACE_SCOPE("cfg_build", "routine", R.name());
/// Compiles out entirely under -DEEL_TRACE_DISABLED.
#ifdef EEL_TRACE_DISABLED
#define EEL_TRACE_SCOPE(...) ((void)0)
#else
#define EEL_TRACE_SCOPE(...)                                                   \
  ::eel::TraceSpan EEL_TRACE_CAT(EelTraceSpan_, __LINE__)(__VA_ARGS__)
#endif

} // namespace eel

#endif // EEL_SUPPORT_TRACE_H
