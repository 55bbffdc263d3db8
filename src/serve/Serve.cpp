//===- serve/Serve.cpp - Long-lived edit service --------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "analysis/Report.h"
#include "support/Json.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "sxf/Sxf.h"
#include "tools/Qpt.h"
#include "tools/Tracer.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <optional>
#include <thread>

using namespace eel;

namespace {

uint64_t elapsedUs(std::chrono::steady_clock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Since)
          .count());
}

uint64_t unixMillisNow() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

} // namespace

// --- AnalysisCache ----------------------------------------------------------

std::shared_ptr<const Analysis> AnalysisCache::find(uint64_t Key) {
  std::lock_guard<std::mutex> G(M);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++Misses;
    return nullptr;
  }
  ++Hits;
  Lru.splice(Lru.begin(), Lru, It->second);
  return It->second->An;
}

void AnalysisCache::insert(uint64_t Key, std::shared_ptr<const Analysis> An,
                           uint64_t ImageBytes) {
  if (Capacity == 0)
    return;
  std::lock_guard<std::mutex> G(M);
  // A concurrent cold run of the same image got here first; the two
  // analyses are identical, so keep the resident one.
  if (Index.count(Key))
    return;
  Lru.push_front(Entry{Key, std::move(An), ImageBytes});
  Index[Key] = Lru.begin();
  CurrentBytes += ImageBytes;
  while (Lru.size() > Capacity) {
    EEL_LOG(LogLevel::Info, "serve.cache_evict",
            logNum("key", Lru.back().Key),
            logNum("image_bytes", Lru.back().ImageBytes));
    CurrentBytes -= Lru.back().ImageBytes;
    Index.erase(Lru.back().Key);
    Lru.pop_back();
    ++Evictions;
  }
}

AnalysisCache::Stats AnalysisCache::stats() const {
  std::lock_guard<std::mutex> G(M);
  Stats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Entries = Lru.size();
  S.Bytes = CurrentBytes;
  return S;
}

// --- Tool specs -------------------------------------------------------------

Expected<ServeTool> eel::parseToolSpec(const std::string &Spec) {
  if (Spec == "null")
    return ServeTool::Null;
  if (Spec == "qpt:blocks")
    return ServeTool::QptBlocks;
  if (Spec == "qpt:edges")
    return ServeTool::QptEdges;
  if (Spec == "qpt:all")
    return ServeTool::QptAll;
  if (Spec == "tracer")
    return ServeTool::Tracer;
  return Error(ErrorCode::BadToolSpec,
               "unknown tool spec '" + Spec +
                   "' (expected null, qpt:blocks, qpt:edges, qpt:all, "
                   "or tracer)")
      .inField("tool_spec");
}

// --- Envelopes --------------------------------------------------------------

namespace {

/// Renders the minimal eel-report/1 envelope for a request that never ran
/// the pipeline: the taxonomy code and message under "summary".
std::string failureEnvelope(const char *Status, const Error &E, uint64_t Rid,
                            const char *ToolName = "eel-serve") {
  RunReport Report(ToolName);
  JsonWriter S(/*Indent=*/false);
  S.beginObject();
  S.key("status");
  S.value(Status);
  S.key("request_id");
  S.value(Rid);
  S.key("error_code");
  S.value(errorCodeName(E.code()));
  S.key("error");
  S.value(E.describe());
  S.endObject();
  Report.setSummaryJson(S.take());
  return Report.renderJson();
}

/// Trace capacity for "tracer" requests: fixed so identical requests
/// produce identical images whatever served them.
constexpr uint32_t ServeTracerCapacity = 4096;

} // namespace

// --- EditService ------------------------------------------------------------

EditService::EditService(ServeLimits LimitsIn)
    : Limits(LimitsIn), Cache(LimitsIn.CacheCapacity),
      Pool(LimitsIn.DispatchWorkers
               ? LimitsIn.DispatchWorkers
               : std::max(2u, std::min(4u,
                                       std::thread::hardware_concurrency()))),
      StartedAt(std::chrono::steady_clock::now()) {
  EEL_LOG(LogLevel::Info, "serve.start",
          logNum("max_inflight", Limits.MaxInFlight),
          logNum("cache_capacity", Limits.CacheCapacity),
          logNum("slow_request_us", Limits.SlowRequestUs));
}

EditService::~EditService() = default;

ServeResponse EditService::reject(ErrorCode Code, const std::string &Message,
                                  uint64_t Rid) {
  Counters.Rejected.fetch_add(1, std::memory_order_relaxed);
  EEL_LOG(LogLevel::Warn, "serve.rejected",
          logStr("error_code", errorCodeName(Code)),
          logStr("message", Message));
  ServeResponse Resp;
  Resp.Status = ServeStatus::Rejected;
  Resp.RequestId = Rid;
  Resp.EnvelopeJson = failureEnvelope("rejected", Error(Code, Message), Rid);
  return Resp;
}

ServeResponse EditService::errorResponse(const Error &E, uint64_t Rid) {
  Counters.Errors.fetch_add(1, std::memory_order_relaxed);
  EEL_LOG(LogLevel::Error, "serve.error",
          logStr("error_code", errorCodeName(E.code())),
          logStr("message", E.describe()));
  ServeResponse Resp;
  Resp.Status = ServeStatus::Error;
  Resp.RequestId = Rid;
  Resp.EnvelopeJson = failureEnvelope("error", E, Rid);
  return Resp;
}

ServeResponse EditService::handleEncoded(const std::vector<uint8_t> &Payload) {
  Expected<ServeRequest> Req = decodeRequest(Payload);
  if (Req.hasError()) {
    Counters.Requests.fetch_add(1, std::memory_order_relaxed);
    return errorResponse(Req.error(), /*Rid=*/0);
  }
  return handle(Req.value());
}

std::vector<uint8_t>
EditService::handleFrame(const std::vector<uint8_t> &Payload) {
  if (classifyFrame(Payload) == FrameKind::StatusRequest) {
    Expected<StatusRequest> Req = decodeStatusRequest(Payload);
    if (Req.hasError()) {
      Counters.StatusRequests.fetch_add(1, std::memory_order_relaxed);
      EEL_LOG(LogLevel::Warn, "serve.scrape_error",
              logStr("error_code", errorCodeName(Req.error().code())),
              logStr("message", Req.error().describe()));
      StatusResponse Resp;
      Resp.Status = ServeStatus::Error;
      Resp.Format = StatusFormat::Json;
      Resp.Body = failureEnvelope("error", Req.error(), /*Rid=*/0,
                                  "eel-serve-status");
      return encodeStatusResponse(Resp);
    }
    return encodeStatusResponse(handleStatus(Req.value()));
  }
  // Everything else — edit requests and garbage alike — goes through the
  // edit decoder, whose taxonomy covers unknown magics.
  return encodeResponse(handleEncoded(Payload));
}

ServeResponse EditService::handle(const ServeRequest &Req) {
  // Effective correlation id: client-supplied, or minted so every request
  // is traceable even when the client doesn't care.
  uint64_t Rid = Req.RequestId
                     ? Req.RequestId
                     : NextMintedId.fetch_add(1, std::memory_order_relaxed);
  TraceRequestScope RidScope(Rid);
  Counters.Requests.fetch_add(1, std::memory_order_relaxed);
  EEL_LOG(LogLevel::Debug, "serve.request", logStr("tool", Req.ToolSpec),
          logNum("image_bytes", Req.ImageBytes.size()),
          logNum("threads", Req.Threads));

  // Admission: image size first (checked before any decode so a hostile
  // length never sizes an allocation), then the tool spec, then load.
  if (Limits.MaxImageBytes && Req.ImageBytes.size() > Limits.MaxImageBytes)
    return reject(ErrorCode::ImageTooLarge,
                  "request image is " + std::to_string(Req.ImageBytes.size()) +
                      " bytes; the service accepts at most " +
                      std::to_string(Limits.MaxImageBytes),
                  Rid);
  Expected<ServeTool> Tool = parseToolSpec(Req.ToolSpec);
  if (Tool.hasError())
    return reject(ErrorCode::BadToolSpec, Tool.error().describe(), Rid);
  unsigned Prior = InFlight.fetch_add(1, std::memory_order_acq_rel);
  if (Limits.MaxInFlight && Prior >= Limits.MaxInFlight) {
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
    return reject(ErrorCode::ServerSaturated,
                  "service already has " + std::to_string(Prior) +
                      " requests in flight (limit " +
                      std::to_string(Limits.MaxInFlight) + "); retry",
                  Rid);
  }

  // Dispatch onto the pool. trySubmit never runs the request inline on
  // this (acceptor) thread: a saturated queue is a structured rejection,
  // not a stack-recursive pipeline run.
  struct Waiter {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    ServeResponse Resp;
  };
  auto W = std::make_shared<Waiter>();
  ServeTool ToolV = Tool.value();
  bool Accepted = Pool.trySubmit([this, &Req, ToolV, W, Rid] {
    ServeResponse R = runPipeline(Req, ToolV, Rid);
    std::lock_guard<std::mutex> G(W->M);
    W->Resp = std::move(R);
    W->Done = true;
    W->CV.notify_one();
  });
  if (!Accepted) {
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
    return reject(ErrorCode::ServerSaturated,
                  "dispatch queue is saturated; retry", Rid);
  }
  std::unique_lock<std::mutex> G(W->M);
  W->CV.wait(G, [&] { return W->Done; });
  InFlight.fetch_sub(1, std::memory_order_acq_rel);
  return std::move(W->Resp);
}

ServeResponse EditService::runPipeline(const ServeRequest &Req, ServeTool Tool,
                                       uint64_t Rid) {
  auto Start = std::chrono::steady_clock::now();
  // The pool worker running this request adopts its context: spans and
  // log records from here down (and from parallelForEach helpers, which
  // inherit it) carry the id. A request that wants metrics, or that may
  // become a slow-request exemplar, records its counters, histograms and
  // spans into its own sink, whatever runs beside it; any other request
  // records nothing.
  bool KeepsExemplars = Limits.SlowRequestUs && Limits.ExemplarCapacity;
  std::optional<MetricsSink> Sink;
  if (Req.WantMetrics || KeepsExemplars)
    Sink.emplace();
  TraceRequestScope RequestScope(Rid, Sink ? &*Sink : nullptr);

  Executable::Options EOpts;
  EOpts.Threads = Req.Threads;
  EOpts.Verify = Req.Verify;

  uint64_t ImageHash = fnv1a64(Req.ImageBytes.data(), Req.ImageBytes.size());
  uint64_t ToolDigest = fnv1a64(std::string_view(Req.ToolSpec));
  uint64_t OptsDigest = optionsDigest(EOpts);
  // The analysis depends on the image and the options, not on the tool,
  // whose edits stay in this request's own Executable.
  uint64_t Key = provenanceKey(ImageHash, /*ToolDigest=*/0, OptsDigest);

  // Every request edits through a fresh Executable: over the cached
  // analysis on a hit, over the one it just analyzed (and cached) on a
  // miss.
  auto AnalyzeStart = std::chrono::steady_clock::now();
  std::unique_ptr<Executable> Exec;
  std::shared_ptr<const Analysis> Cached = Cache.find(Key);
  bool CacheHit = Cached != nullptr;
  EEL_LOG(LogLevel::Debug, "serve.cache",
          logStr("result", CacheHit ? "hit" : "miss"), logNum("key", Key));
  if (CacheHit) {
    Exec = std::make_unique<Executable>(std::move(Cached));
  } else {
    Expected<SxfFile> Image = SxfFile::deserialize(Req.ImageBytes);
    if (Image.hasError())
      return errorResponse(Image.error(), Rid);
    Expected<std::unique_ptr<Executable>> Opened =
        Executable::openImage(std::move(Image.value()), EOpts);
    if (Opened.hasError())
      return errorResponse(Opened.error(), Rid);
    Exec = std::move(Opened.value());
    Expected<bool> Read = Exec->readContents();
    if (Read.hasError())
      return errorResponse(Read.error(), Rid);
    Cache.insert(Key, Exec->sharedAnalysis(), Req.ImageBytes.size());
  }
  AnalyzeHist.record(elapsedUs(AnalyzeStart));

  // Instrument. Tool objects stay alive through the write below.
  auto InstrumentStart = std::chrono::steady_clock::now();
  std::unique_ptr<Qpt2Profiler> Qpt;
  std::unique_ptr<MemoryTracer> Tracer;
  switch (Tool) {
  case ServeTool::Null:
    break;
  case ServeTool::QptBlocks:
  case ServeTool::QptEdges:
  case ServeTool::QptAll: {
    Qpt2Profiler::Options QOpts;
    QOpts.CountBlocks = Tool != ServeTool::QptEdges;
    QOpts.CountEdges = Tool != ServeTool::QptBlocks;
    Qpt = std::make_unique<Qpt2Profiler>(*Exec, QOpts);
    Qpt->instrument();
    break;
  }
  case ServeTool::Tracer:
    Tracer = std::make_unique<MemoryTracer>(*Exec, ServeTracerCapacity);
    Tracer->instrument();
    break;
  }
  InstrumentHist.record(elapsedUs(InstrumentStart));

  auto WriteStart = std::chrono::steady_clock::now();
  Expected<SxfFile> Edited = Exec->writeEditedExecutable();
  if (Edited.hasError())
    return errorResponse(Edited.error(), Rid);

  ServeResponse Resp;
  Resp.Status = ServeStatus::Ok;
  Resp.RequestId = Rid;
  Resp.EditedImage = Edited.value().serialize();
  WriteHist.record(elapsedUs(WriteStart));
  Executable::EditStats ES = Exec->editStats();

  uint64_t LatencyUs = elapsedUs(Start);
  Counters.Ok.fetch_add(1, std::memory_order_relaxed);
  LatencyHist.record(LatencyUs);
  EEL_LOG(LogLevel::Info, "serve.ok", logStr("tool", Req.ToolSpec),
          logNum("latency_us", LatencyUs),
          logNum("cache_hit", CacheHit ? 1 : 0),
          logNum("edited_image_bytes", Resp.EditedImage.size()));
  // Every thread that recorded into the sink has finished: the
  // pipeline's fan-outs returned.
  bool Slow = KeepsExemplars && LatencyUs > Limits.SlowRequestUs;
  MetricsSnapshot Snap;
  if (Req.WantMetrics || Slow)
    Snap = Sink->snapshot();
  if (Slow)
    captureSlow(Rid, LatencyUs, Req.ToolSpec, ImageHash, CacheHit,
                Snap.Spans);

  RunReport Report("eel-serve");
  Report.addInput("<request>", ImageHash, Req.ImageBytes.size());
  Report.setProvenance(ImageHash, ToolDigest, OptsDigest);
  Report.addOption("tool", Req.ToolSpec);
  Report.addOption("threads", uint64_t(Req.Threads));
  Report.addOption("verify", Req.Verify);
  Report.addOption("metrics", Req.WantMetrics);
  AnalysisCache::Stats CS = Cache.stats();
  if (Req.WantMetrics) {
    Report.capture(Snap);
    Report.addCounters(cumulativeCounters(CS));
  }
  JsonWriter S(/*Indent=*/false);
  S.beginObject();
  S.key("status");
  S.value("ok");
  S.key("request_id");
  S.value(Rid);
  S.key("cache_hit");
  S.value(CacheHit);
  S.key("latency_us");
  S.value(LatencyUs);
  S.key("edited_image_bytes");
  S.value(uint64_t(Resp.EditedImage.size()));
  S.key("routines_edited");
  S.value(uint64_t(ES.RoutinesEdited));
  S.key("routines_verbatim");
  S.value(uint64_t(ES.RoutinesVerbatim));
  S.key("translation_sites");
  S.value(uint64_t(ES.TranslationSites));
  S.key("snippet_instances");
  S.value(uint64_t(ES.SnippetInstances));
  S.key("cache");
  S.beginObject();
  S.key("hits");
  S.value(CS.Hits);
  S.key("misses");
  S.value(CS.Misses);
  S.key("evictions");
  S.value(CS.Evictions);
  S.key("entries");
  S.value(CS.Entries);
  S.key("bytes");
  S.value(CS.Bytes);
  S.endObject();
  S.endObject();
  Report.setSummaryJson(S.take());
  Resp.EnvelopeJson = Report.renderJson();
  return Resp;
}

// --- Slow-request exemplars -------------------------------------------------

void EditService::captureSlow(uint64_t Rid, uint64_t LatencyUs,
                              const std::string &ToolSpec, uint64_t ImageHash,
                              bool CacheHit,
                              const std::vector<TraceEvent> &Spans) {
  SlowExemplar Ex;
  Ex.RequestId = Rid;
  Ex.LatencyUs = LatencyUs;
  Ex.ToolSpec = ToolSpec;
  Ex.ImageHash = ImageHash;
  Ex.CacheHit = CacheHit;
  Ex.CapturedUnixMs = unixMillisNow();
  Ex.TraceJson = renderChromeTrace(Spans);

  Counters.SlowCaptured.fetch_add(1, std::memory_order_relaxed);
  EEL_LOG(LogLevel::Warn, "serve.slow", logStr("tool", ToolSpec),
          logNum("latency_us", LatencyUs),
          logNum("threshold_us", Limits.SlowRequestUs),
          logNum("spans", Spans.size()));

  std::lock_guard<std::mutex> G(ExemplarM);
  // Worst-N ring: insert in descending-latency order, drop from the tail.
  auto Pos = std::find_if(Exemplars.begin(), Exemplars.end(),
                          [&](const SlowExemplar &Other) {
                            return Other.LatencyUs < Ex.LatencyUs;
                          });
  Exemplars.insert(Pos, std::move(Ex));
  if (Exemplars.size() > Limits.ExemplarCapacity)
    Exemplars.resize(Limits.ExemplarCapacity);
}

std::vector<SlowExemplar> EditService::slowExemplars(size_t MaxN) const {
  std::lock_guard<std::mutex> G(ExemplarM);
  std::vector<SlowExemplar> Out = Exemplars;
  if (MaxN && Out.size() > MaxN)
    Out.resize(MaxN);
  return Out;
}

// --- Control-plane scrape ---------------------------------------------------

StatusResponse EditService::handleStatus(const StatusRequest &Req) {
  auto Start = std::chrono::steady_clock::now();
  Counters.StatusRequests.fetch_add(1, std::memory_order_relaxed);
  StatusResponse Resp;
  Resp.Status = ServeStatus::Ok;
  Resp.Format = Req.Format;
  Resp.Body = Req.Format == StatusFormat::Prometheus ? statusPrometheus()
                                                     : statusJson(Req);
  ScrapeHist.record(elapsedUs(Start));
  EEL_LOG(LogLevel::Debug, "serve.scrape",
          logStr("format", Req.Format == StatusFormat::Prometheus
                               ? "prometheus"
                               : "json"));
  // Observing the daemon also drains buffered log records: a scrape is
  // exactly when an operator wants the stream current.
  Logger::instance().flushAll();
  return Resp;
}

std::vector<std::pair<std::string, uint64_t>>
EditService::cumulativeCounters(const AnalysisCache::Stats &CS) const {
  return {
      {"serve.requests", Counters.Requests.load(std::memory_order_relaxed)},
      {"serve.ok", Counters.Ok.load(std::memory_order_relaxed)},
      {"serve.rejected", Counters.Rejected.load(std::memory_order_relaxed)},
      {"serve.errors", Counters.Errors.load(std::memory_order_relaxed)},
      {"serve.cache_hits", CS.Hits},
      {"serve.cache_misses", CS.Misses},
      {"serve.cache_evictions", CS.Evictions},
  };
}

std::string EditService::statusPrometheus() {
  AnalysisCache::Stats CS = Cache.stats();
  uint64_t UptimeMs = elapsedUs(StartedAt) / 1000;
  std::vector<std::pair<std::string, uint64_t>> Cnts = cumulativeCounters(CS);
  Cnts.insert(Cnts.end(),
              {{"serve.cache_entries", CS.Entries},
               {"serve.cache_bytes", CS.Bytes},
               {"serve.status_requests",
                Counters.StatusRequests.load(std::memory_order_relaxed)},
               {"serve.slow_captured",
                Counters.SlowCaptured.load(std::memory_order_relaxed)},
               {"serve.in_flight", InFlight.load(std::memory_order_relaxed)},
               {"serve.pool_workers", Pool.workerCount()},
               {"serve.pool_pending", Pool.pendingTasks()},
               {"serve.uptime_ms", UptimeMs}});
  std::vector<HistogramSnapshot> Hists = {
      LatencyHist.snapshot("serve.latency_us"),
      AnalyzeHist.snapshot("serve.phase.analyze_us"),
      InstrumentHist.snapshot("serve.phase.instrument_us"),
      WriteHist.snapshot("serve.phase.write_us"),
      ScrapeHist.snapshot("serve.scrape_us"),
  };
  return metricsPrometheus(Cnts, Hists);
}

std::string EditService::statusJson(const StatusRequest &Req) {
  AnalysisCache::Stats CS = Cache.stats();
  std::vector<HistogramSnapshot> Hists = {
      LatencyHist.snapshot("serve.latency_us"),
      AnalyzeHist.snapshot("serve.phase.analyze_us"),
      InstrumentHist.snapshot("serve.phase.instrument_us"),
      WriteHist.snapshot("serve.phase.write_us"),
      ScrapeHist.snapshot("serve.scrape_us"),
  };

  RunReport Report("eel-serve-status");
  JsonWriter S(/*Indent=*/false);
  S.beginObject();
  S.key("status");
  S.value("ok");
  S.key("uptime_ms");
  S.value(elapsedUs(StartedAt) / 1000);
  S.key("in_flight");
  S.value(uint64_t(InFlight.load(std::memory_order_relaxed)));
  S.key("counters");
  S.beginObject();
  S.key("requests");
  S.value(Counters.Requests.load(std::memory_order_relaxed));
  S.key("ok");
  S.value(Counters.Ok.load(std::memory_order_relaxed));
  S.key("rejected");
  S.value(Counters.Rejected.load(std::memory_order_relaxed));
  S.key("errors");
  S.value(Counters.Errors.load(std::memory_order_relaxed));
  S.key("status_requests");
  S.value(Counters.StatusRequests.load(std::memory_order_relaxed));
  S.key("slow_captured");
  S.value(Counters.SlowCaptured.load(std::memory_order_relaxed));
  S.endObject();
  S.key("cache");
  S.beginObject();
  S.key("entries");
  S.value(CS.Entries);
  S.key("bytes");
  S.value(CS.Bytes);
  S.key("hits");
  S.value(CS.Hits);
  S.key("misses");
  S.value(CS.Misses);
  S.key("evictions");
  S.value(CS.Evictions);
  S.key("hit_rate_pct");
  S.value(CS.Hits + CS.Misses
              ? 100.0 * static_cast<double>(CS.Hits) /
                    static_cast<double>(CS.Hits + CS.Misses)
              : 0.0);
  S.endObject();
  S.key("pool");
  S.beginObject();
  S.key("workers");
  S.value(uint64_t(Pool.workerCount()));
  S.key("pending");
  S.value(uint64_t(Pool.pendingTasks()));
  S.key("queue_capacity");
  S.value(uint64_t(Pool.queueCapacity()));
  S.endObject();
  S.key("slow");
  S.beginObject();
  S.key("threshold_us");
  S.value(Limits.SlowRequestUs);
  S.key("capacity");
  S.value(uint64_t(Limits.SlowRequestUs ? Limits.ExemplarCapacity : 0));
  S.key("captured");
  S.value(Counters.SlowCaptured.load(std::memory_order_relaxed));
  if (Req.WantExemplars) {
    S.key("exemplars");
    S.beginArray();
    for (const SlowExemplar &Ex : slowExemplars(Req.MaxExemplars)) {
      S.beginObject();
      S.key("request_id");
      S.value(Ex.RequestId);
      S.key("latency_us");
      S.value(Ex.LatencyUs);
      S.key("tool");
      S.value(Ex.ToolSpec);
      S.key("image_fnv1a64");
      S.valueHex(Ex.ImageHash);
      S.key("cache_hit");
      S.value(Ex.CacheHit);
      S.key("captured_unix_ms");
      S.value(Ex.CapturedUnixMs);
      S.key("trace");
      S.valueRaw(Ex.TraceJson);
      S.endObject();
    }
    S.endArray();
  }
  S.endObject();
  S.key("histograms");
  S.valueRaw(metricsJson(Hists));
  S.endObject();
  Report.setSummaryJson(S.take());
  return Report.renderJson();
}
