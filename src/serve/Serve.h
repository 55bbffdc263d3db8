//===- serve/Serve.h - Long-lived edit service ------------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// eel-serve: the edit pipeline as a long-lived service instead of a
/// one-shot tool. A daemon (tools/eel_serve_main.cpp) or an in-process
/// client hands EditService a stream of ServeRequests — an SXF image plus
/// a tool spec — and gets back an eel-report/1 JSON envelope and the
/// edited image.
///
/// The service fixes the three single-shot-lifetime assumptions the
/// one-shot tools never exercised, and shares no mutable edit state
/// between requests:
///
///  * Analysis is cached, content-addressed, and shared read-only. The
///    expensive work — routine discovery, CFG construction, liveness,
///    slicing — depends only on (image bytes, options) and is frozen once
///    readContents() returns (core/Executable.h), so every request runs
///    instrument + layout + write through its own fresh Executable over
///    the cached Analysis, concurrently with any other request over it.
///    The cache key folds the image hash and the options digest; the tool
///    is not part of it, since edits never reach the analysis.
///
///  * Admission control bounds the damage of a flood: too many in-flight
///    requests, an oversized image, or an unknown tool spec produce a
///    structured rejection (ErrorCode in the envelope), and dispatch uses
///    ThreadPool::trySubmit so a saturated pool rejects instead of
///    running requests inline on the acceptor thread.
///
///  * Metrics are scoped per request. A request with WantMetrics records
///    into its own support/Metrics.h MetricsSink, installed through its
///    request scope, so its envelope's pipeline counters, histograms, and
///    phase tree cover exactly that request while other requests run
///    beside it. The cumulative `serve.*` counters never live in the
///    registries: the service counts them itself and adds them to the
///    envelope.
///
/// The operational layer: every request carries a 64-bit RequestId
/// (client-supplied or daemon-minted) stamped on its spans, log records,
/// envelope, and response frame. The service keeps its cumulative
/// counters in plain atomics (plus the cache's own hit/miss/eviction
/// counts) and records latency/per-phase durations into AtomicHistograms,
/// each service its own, so an ELSt status frame
/// (handleFrame/handleStatus) can snapshot a live, saturated daemon
/// without touching the sharded registries or admission control —
/// scrapes never block behind an edit and never consume an in-flight
/// slot. Requests slower than
/// ServeLimits::SlowRequestUs drain their spans into a bounded
/// worst-N exemplar ring (Chrome trace JSON keyed by RequestId),
/// fetchable through the same status frame.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SERVE_SERVE_H
#define EEL_SERVE_SERVE_H

#include "core/Executable.h"
#include "serve/Protocol.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace eel {

/// Service configuration and admission limits.
struct ServeLimits {
  /// Requests admitted but not yet answered; one more is rejected with
  /// ServerSaturated. 0 disables the bound.
  unsigned MaxInFlight = 8;
  /// Largest request image accepted, in bytes (pre-decode, so a hostile
  /// length can't size an allocation). 0 disables the bound.
  uint64_t MaxImageBytes = 64u << 20;
  /// Analysis cache capacity, in entries. 0 disables caching entirely
  /// (every request runs cold) — the bench's cold baseline.
  size_t CacheCapacity = 16;
  /// Worker threads of the dispatch pool requests run on. 0 picks a small
  /// default from hardware concurrency.
  unsigned DispatchWorkers = 0;
  /// Latency threshold for slow-request exemplar capture, in microseconds.
  /// A request slower than this drains its trace spans into the exemplar
  /// ring. 0 disables capture (and leaves the trace gate alone); nonzero
  /// turns the process-wide trace gate on for the service's lifetime.
  uint64_t SlowRequestUs = 0;
  /// Worst-N exemplars retained (by latency). Ignored when SlowRequestUs
  /// is 0.
  size_t ExemplarCapacity = 4;
};

/// Content-addressed LRU cache of finished, read-only analyses.
///
/// A hit hands out a shared reference and leaves the entry in place,
/// touched as most recently used; any number of requests edit over one
/// entry at once, each through its own Executable. An entry evicted while
/// requests still use it lives until the last of them finishes. Two
/// requests that miss on one key together both analyze; the first insert
/// wins.
class AnalysisCache {
public:
  explicit AnalysisCache(size_t Capacity) : Capacity(Capacity) {}

  /// The analysis cached under \p Key, or null on miss.
  std::shared_ptr<const Analysis> find(uint64_t Key);

  /// Inserts \p An as most-recently-used under \p Key, unless an
  /// (identical) entry is already there, and evicts from the LRU end
  /// beyond capacity; with capacity 0 it drops \p An. \p ImageBytes is the
  /// source image size the entry stands for, feeding the bytes gauge.
  void insert(uint64_t Key, std::shared_ptr<const Analysis> An,
              uint64_t ImageBytes);

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t Entries = 0;
    /// Sum of the source-image sizes of resident entries: an operational
    /// gauge of cache footprint (the analyzed form is larger, but scales
    /// with the image).
    uint64_t Bytes = 0;
  };
  Stats stats() const;

private:
  struct Entry {
    uint64_t Key;
    std::shared_ptr<const Analysis> An;
    uint64_t ImageBytes;
  };
  using LruList = std::list<Entry>;

  mutable std::mutex M;
  size_t Capacity;
  LruList Lru; ///< Front = most recently used.
  std::unordered_map<uint64_t, LruList::iterator> Index;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t CurrentBytes = 0;
};

/// Tool specs a request may name.
enum class ServeTool : uint8_t {
  Null,      ///< "null": analyze + re-lay-out + write, no instrumentation.
  QptBlocks, ///< "qpt:blocks": block-count profiling only.
  QptEdges,  ///< "qpt:edges": edge-count profiling only.
  QptAll,    ///< "qpt:all": blocks + edges.
  Tracer,    ///< "tracer": memory-reference tracing.
};

/// Parses a request's tool spec; BadToolSpec on anything unknown.
Expected<ServeTool> parseToolSpec(const std::string &Spec);

/// One retained slow-request exemplar: everything needed to answer "why
/// was that request slow" after the fact.
struct SlowExemplar {
  uint64_t RequestId = 0;
  uint64_t LatencyUs = 0;
  std::string ToolSpec;
  uint64_t ImageHash = 0;
  bool CacheHit = false;
  uint64_t CapturedUnixMs = 0; ///< Wall clock, for operator correlation.
  /// Chrome trace-event JSON of the request's spans (renderChromeTrace
  /// over the drained collector filtered by RequestId).
  std::string TraceJson;
};

/// The edit service: admission control, dispatch onto a bounded
/// ThreadPool, content-addressed analysis reuse, per-request envelopes.
/// handle() is safe to call from many threads concurrently (the daemon
/// calls it from per-connection acceptor threads).
class EditService {
public:
  explicit EditService(ServeLimits Limits);
  ~EditService();

  EditService(const EditService &) = delete;
  EditService &operator=(const EditService &) = delete;

  /// Admits, runs, and answers one request. Never blocks indefinitely on
  /// saturation: over-limit requests come back ServeStatus::Rejected with
  /// the ErrorCode in the envelope's summary.
  ServeResponse handle(const ServeRequest &Req);

  /// decodeRequest + handle; malformed payloads come back
  /// ServeStatus::Error with the decode taxonomy code in the envelope.
  ServeResponse handleEncoded(const std::vector<uint8_t> &Payload);

  /// Transport entry point: classifies \p Payload by magic and routes it
  /// to the edit path (handleEncoded) or the status path (handleStatus),
  /// returning the matching encoded response frame. Every input, however
  /// hostile, gets a decodable answer.
  std::vector<uint8_t> handleFrame(const std::vector<uint8_t> &Payload);

  /// Answers one control-plane scrape. Lock-light by construction: reads
  /// the service's atomic counters, AtomicHistograms, cache stats, and
  /// pool gauges — never admission control — so a scrape returns promptly
  /// even while the daemon is saturated.
  StatusResponse handleStatus(const StatusRequest &Req);

  /// Snapshot of the retained slow-request exemplars, worst first.
  /// \p MaxN caps the result; 0 means all.
  std::vector<SlowExemplar> slowExemplars(size_t MaxN) const;

  const ServeLimits &limits() const { return Limits; }
  AnalysisCache::Stats cacheStats() const { return Cache.stats(); }

private:
  friend struct ServeTestAccess; ///< Tests occupy the dispatch pool.

  /// The service's cumulative counters: the one source for both the scrape
  /// and WantMetrics envelopes. Plain atomics, so either reads them
  /// without the sharded registries' quiescence contract.
  struct ServiceCounters {
    std::atomic<uint64_t> Requests{0};
    std::atomic<uint64_t> Ok{0};
    std::atomic<uint64_t> Rejected{0};
    std::atomic<uint64_t> Errors{0};
    std::atomic<uint64_t> StatusRequests{0};
    std::atomic<uint64_t> SlowCaptured{0};
  };

  ServeResponse runPipeline(const ServeRequest &Req, ServeTool Tool,
                            uint64_t Rid);
  ServeResponse reject(ErrorCode Code, const std::string &Message,
                       uint64_t Rid);
  ServeResponse errorResponse(const Error &E, uint64_t Rid);
  /// Captures a slow request's spans into the exemplar ring (worst-N by
  /// latency, guarded by ExemplarM): from \p Sink when the request had
  /// one, else from the process-wide collector.
  void maybeCaptureSlow(uint64_t Rid, uint64_t LatencyUs,
                        const std::string &ToolSpec, uint64_t ImageHash,
                        bool CacheHit, const MetricsSink *Sink);
  /// Renders the JSON status snapshot (an eel-report/1 envelope).
  std::string statusJson(const StatusRequest &Req);
  /// Renders the Prometheus text snapshot.
  std::string statusPrometheus();
  /// The seven cumulative `serve.*` counters (requests, ok, rejected,
  /// errors, cache hits/misses/evictions), read from the atomics and
  /// \p CS. Envelopes and the Prometheus scrape both render these.
  std::vector<std::pair<std::string, uint64_t>>
  cumulativeCounters(const AnalysisCache::Stats &CS) const;

  ServeLimits Limits;
  AnalysisCache Cache;
  ThreadPool Pool;
  std::atomic<unsigned> InFlight{0};

  ServiceCounters Counters;
  AtomicHistogram LatencyHist;    ///< serve.latency_us (Ok requests).
  AtomicHistogram AnalyzeHist;    ///< serve.phase.analyze_us.
  AtomicHistogram InstrumentHist; ///< serve.phase.instrument_us.
  AtomicHistogram WriteHist;      ///< serve.phase.write_us.
  AtomicHistogram ScrapeHist;     ///< serve.scrape_us (status requests).
  std::chrono::steady_clock::time_point StartedAt;
  std::atomic<uint64_t> NextMintedId{1};

  mutable std::mutex ExemplarM;
  std::vector<SlowExemplar> Exemplars; ///< Sorted worst (slowest) first.
};

} // namespace eel

#endif // EEL_SERVE_SERVE_H
