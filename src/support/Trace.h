//===- support/Trace.h - Span tracing with per-thread rings ----*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A span-based tracing layer for the editing pipeline. Instrumented scopes
/// open a TraceSpan (via EEL_TRACE_SCOPE) that records its name, optional
/// typed arguments, and start/end timestamps into the calling thread's ring
/// buffer when it closes. Rings follow the StatRegistry sharding discipline:
/// one per thread, created on first use, owned by the collector and retained
/// for the life of the process, so the hot path never takes a lock or
/// bounces a cache line between workers. drain() merges the rings at
/// quiescent points (after parallelForEach returns, which synchronizes with
/// every worker's writes).
///
/// Two gates keep the cost out of production runs:
///  - a process-wide runtime flag (traceSetEnabled), or a request's
///    metrics sink (below); when neither is on, the span constructor is a
///    relaxed atomic load and a thread-local load, and the destructor a
///    branch — no clock reads, no allocation, no ring writes;
///  - the EEL_TRACE_DISABLED compile-time macro, which turns every
///    EEL_TRACE_SCOPE into ((void)0) and every TracePhases into a no-op,
///    so tracing compiles out entirely.
/// bench_overhead asserts the compiled-in-but-disabled path costs <1% of
/// pipeline time.
///
/// A long-lived process (eel-serve) tags each request's work with a
/// TraceRequestScope: a thread-local request id and optional MetricsSink,
/// which parallelForEach hands to its helpers. While a sink is installed,
/// spans (and bumpStat/bumpHistogram) record into it instead of the
/// process-wide collector and registries.
///
/// Spans carry nanosecond timestamps from one process-wide steady-clock
/// epoch. renderChromeTrace() exports the drained spans as Chrome
/// trace-event JSON ("X" complete events, microsecond units), directly
/// loadable in Perfetto or chrome://tracing. Parent/child structure is not
/// recorded explicitly; it is reconstructed from interval containment
/// (analysis/Report.h), which is why rings store a per-thread push sequence:
/// completion order breaks ties between zero-length nested spans.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_TRACE_H
#define EEL_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace eel {

class MetricsSink; // support/Metrics.h

namespace trace_detail {
extern std::atomic<bool> Enabled;
/// The calling thread's request (see TraceRequestScope).
struct RequestContext {
  uint64_t Id = 0;
  MetricsSink *Sink = nullptr;
};
extern constinit thread_local RequestContext CurrentRequest;
} // namespace trace_detail

/// The calling thread's request metrics sink, or null (the process-wide
/// collector and registries).
inline MetricsSink *requestSink() { return trace_detail::CurrentRequest.Sink; }

/// True when span recording is on: process-wide, or for the calling
/// thread's request while it has a metrics sink installed. Relaxed: the
/// process flag only toggles at quiescent points (Analysis construction,
/// tests), never mid-pipeline.
inline bool traceEnabled() {
  return trace_detail::Enabled.load(std::memory_order_relaxed) ||
         requestSink() != nullptr;
}

/// Turns span recording on or off process-wide. Call only from quiescent
/// points; spans already open keep the enablement they saw at entry.
void traceSetEnabled(bool On);

/// The calling thread's current request id (0 = none). Every span recorded
/// while an id is set carries it, and structured log records stamp it, so
/// one request can be correlated across connection thread, pool workers
/// (parallelForEach propagates the submitter's context into helper
/// bodies), log lines, and exported Chrome traces.
inline uint64_t traceRequestId() { return trace_detail::CurrentRequest.Id; }

/// RAII: sets the calling thread's request id and metrics sink for the
/// enclosing scope and restores the previous ones on exit (scopes nest).
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
/// since the collector's steady-clock epoch, so they compare across
/// threads.
struct TraceEvent {
  const char *Name; ///< Static string; instrumentation passes literals.
  uint64_t StartNs;
  uint64_t EndNs;
  uint32_t Tid; ///< Collector-assigned dense thread id (stable per ring).
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

/// Process-wide span collector: per-thread overwrite-oldest ring buffers
/// merged at quiescent points.
class TraceCollector {
public:
  /// Ring capacity per thread. Power of two; a full edit pipeline over the
  /// bench workloads records a few thousand spans per thread, so 32K keeps
  /// everything with headroom while bounding memory (~2 MiB/thread).
  static constexpr size_t RingCapacity = size_t(1) << 15;

  static TraceCollector &instance();

  /// Records one completed span into the calling thread's ring (lock-free
  /// once the ring exists; overwrites the oldest entry when full).
  void record(TraceEvent Ev);

  /// Merges every ring's contents, ordered by (Tid, Seq). Does not clear
  /// the rings. Safe concurrent with recorders (each ring carries its own
  /// mutex, so live daemons can drain slow-request exemplars and serve
  /// scrapes mid-load); the result is a consistent per-ring snapshot,
  /// though spans completing during the drain may or may not appear.
  std::vector<TraceEvent> drain() const;

  /// Clears ring contents and the dropped-span count. Ring buffers
  /// themselves are never freed — cached thread-local pointers into them
  /// must stay valid for the life of the process (StatRegistry rule).
  void reset();

  /// Number of per-thread rings ever created. With tracing disabled this
  /// must not grow: the hot path allocates nothing.
  size_t bufferCount() const;

  /// Total spans recorded (and retained) across all rings.
  size_t recordedCount() const;

  /// Spans overwritten because a ring wrapped. Exposed so exports can
  /// disclose truncation instead of silently presenting a partial timeline.
  uint64_t droppedCount() const;

  /// Nanoseconds since the collector's epoch (first use of the clock).
  static uint64_t nowNs();

private:
  struct Ring {
    explicit Ring(uint32_t Tid) : Tid(Tid) { Events.resize(RingCapacity); }
    /// Guards Events/Pushed so drain()/reset() are safe concurrent with the
    /// owning thread's record(). The owner is the only writer, so its lock
    /// acquisition is uncontended except during a drain.
    mutable std::mutex RM;
    std::vector<TraceEvent> Events;
    uint64_t Pushed = 0; ///< Total pushes; count retained = min(Pushed, cap).
    uint32_t Tid;
  };

  Ring &localRing();

  mutable std::mutex M; ///< Guards the ring list, not ring contents.
  std::vector<std::unique_ptr<Ring>> Rings;
};

/// RAII span: stamps the start on construction, records into the ring (or
/// the request's sink) on destruction. All constructors no-op (no clock
/// read) when tracing is runtime-disabled.
class TraceSpan {
public:
  explicit TraceSpan(const char *Name) {
    if (traceEnabled())
      begin(Name);
  }
  /// Span with one string argument (e.g. the routine name). By-reference
  /// so the disabled path copies (and allocates) nothing.
  TraceSpan(const char *Name, const char *K0, const std::string &V0) {
    if (traceEnabled()) {
      begin(Name);
      Ev.Key0 = K0;
      Ev.Val0 = V0;
    }
  }
  /// Span with a string argument and an integer argument.
  TraceSpan(const char *Name, const char *K0, const std::string &V0,
            const char *K1, uint64_t V1) {
    if (traceEnabled()) {
      begin(Name);
      Ev.Key0 = K0;
      Ev.Val0 = V0;
      Ev.Key1 = K1;
      Ev.Val1 = V1;
    }
  }
  /// Span with one integer argument.
  TraceSpan(const char *Name, const char *K1, uint64_t V1) {
    if (traceEnabled()) {
      begin(Name);
      Ev.Key1 = K1;
      Ev.Val1 = V1;
    }
  }

  ~TraceSpan() {
    if (Live)
      end();
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  void begin(const char *Name) {
    Live = true;
    Sink = requestSink();
    Ev.Name = Name;
    Ev.RequestId = traceRequestId();
    Ev.StartNs = TraceCollector::nowNs();
  }
  void end();

  bool Live = false;
  MetricsSink *Sink = nullptr; ///< Where end() records; null = collector.
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
