//===- perfbench/ServeMixed.cpp - eel-serve under a mixed load ------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve_mixed: eel-serve run in process. Closed-loop clients (eel-serve
/// clients wait for their edited image) send encoded ELRq frames to
/// EditService::handleFrame with default limits and Threads = 1 per
/// request. Each client draws from its own seeded mix:
///  * 90% hit one of 8 hot (image, tool) keys, primed in set-up;
///  * 5% send qpt:edges on an image never sent before (a cold analysis,
///    an insert and an LRU eviction);
///  * 5% are hot-key requests that set WantMetrics, which run isolated
///    under the service's exclusive metrics lock.
/// Every Ok response must be byte-identical to a cold single-shot edit of
/// the same (image, tool) that passed the VM check.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checker.h"

#include "analysis/Report.h"
#include "serve/Protocol.h"
#include "serve/Serve.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

using namespace eel;
using namespace perfbench;

namespace {

constexpr unsigned Clients = 4;
constexpr unsigned ImageRoutines = 100;
constexpr TargetArch HotArches[] = {TargetArch::Srisc, TargetArch::Mrisc,
                                    TargetArch::Arisc, TargetArch::Srisc};
constexpr const char *HotTools[] = {"qpt:edges", "tracer"};
constexpr unsigned ColdBases = 6;
/// The cold pool holds enough never-sent images for this request rate
/// (about 3x what a 4-core host sustains today); past it, cold draws fall
/// back to hot keys and the run says so.
constexpr double ColdPoolRate = 2000.0;
/// edit_s is the median time the service takes to complete this many
/// consecutive requests.
constexpr size_t BlockRequests = 100;

enum class ReqClass : uint8_t { Hot, Cold, Metrics };

struct HotKey {
  size_t Image = 0;
  const char *Tool = "";
  std::vector<uint8_t> Expected; ///< The cold single-shot edit.
  Verdict Checked;               ///< Its VM check.
};

struct ServeState {
  std::vector<std::vector<uint8_t>> HotImages;
  std::vector<Reference> HotRefs;
  std::vector<HotKey> Keys;
  std::vector<Reference> BaseRefs;
  /// Never-sent images: a base image plus a unique build-id symbol, the
  /// way a rebuilt binary differs from its predecessor.
  std::vector<std::vector<uint8_t>> ColdPool;
  std::unique_ptr<EditService> Service;
  uint64_t ImageBytes = 0;
};

struct Sample {
  ReqClass Class = ReqClass::Hot;
  uint32_t Index = 0; ///< Hot key or cold pool index.
  bool Traced = false;
  bool Decoded = false;
  ServeStatus Status = ServeStatus::Error;
  bool Match = false; ///< Hot: bytes equal the key's reference.
  uint64_t Hash = 0;  ///< Cold: FNV-1a of the edited image.
  uint64_t LatencyNs = 0;
  uint64_t DoneNs = 0;
  std::string Envelope;
};

ServeRequest makeRequest(const char *Tool, const std::vector<uint8_t> &Image) {
  ServeRequest Req;
  Req.ToolSpec = Tool;
  Req.Threads = 1;
  Req.ImageBytes = Image;
  return Req;
}

/// One set-up repetition: generate, run the originals, make and check the
/// hot keys' reference edits, build the cold pool, then prime and warm a
/// fresh service.
ServeState prepare(const RunOptions &Opts) {
  ServeState St;
  ServeLimits RefLimits;
  RefLimits.CacheCapacity = 0; // Every request cold: a single-shot edit.
  EditService RefService(RefLimits);

  for (size_t I = 0; I < std::size(HotArches); ++I) {
    SxfFile File = generateWorkload(HotArches[I],
                                    suiteOptions(Opts.Seed * 1000 + 500 + I, ImageRoutines));
    St.HotRefs.push_back(runReference(File, /*WithTallies=*/false));
    St.HotImages.push_back(File.serialize());
    St.ImageBytes += St.HotImages.back().size();
    for (const char *Tool : HotTools) {
      HotKey K;
      K.Image = I;
      K.Tool = Tool;
      ServeResponse R = RefService.handle(makeRequest(Tool, St.HotImages[I]));
      if (R.Status == ServeStatus::Ok) {
        K.Expected = std::move(R.EditedImage);
        K.Checked = checkEdit(K.Expected, St.HotRefs[I]);
      } else {
        K.Checked.Why = "reference edit failed: " + R.EnvelopeJson;
      }
      St.Keys.push_back(std::move(K));
    }
  }

  size_t PoolSize = static_cast<size_t>(
      std::ceil(Opts.Seconds * ColdPoolRate * 0.05)) + 64;
  std::vector<SxfFile> Bases;
  for (unsigned I = 0; I < ColdBases; ++I) {
    Bases.push_back(generateWorkload(AllTargetArches[I % 3],
                                     suiteOptions(Opts.Seed * 1000 + 600 + I, ImageRoutines)));
    St.BaseRefs.push_back(runReference(Bases.back(), /*WithTallies=*/false));
  }
  for (size_t N = 0; N < PoolSize; ++N) {
    SxfFile Variant = Bases[N % ColdBases];
    SxfSymbol Stamp;
    Stamp.Name = "build_id_" + std::to_string(N);
    const SxfSegment *Data = Variant.segment(SegKind::Data);
    Stamp.Value = Data ? Data->VAddr : Variant.Entry;
    Stamp.Kind = SymKind::Object;
    Variant.Symbols.push_back(std::move(Stamp));
    St.ColdPool.push_back(Variant.serialize());
  }

  ServeLimits Limits; // 8 in flight, 16 cache entries.
  Limits.DispatchWorkers = 4;
  St.Service = std::make_unique<EditService>(Limits);
  // Prime every hot key, then one warm round.
  for (unsigned Round = 0; Round < 2; ++Round)
    for (const HotKey &K : St.Keys)
      St.Service->handle(makeRequest(K.Tool, St.HotImages[K.Image]));
  return St;
}

/// One closed-loop client until \p DeadlineNs.
void client(ServeState &St, SpanLog &Log, Rng &R, bool Traced,
            uint64_t DeadlineNs, std::atomic<uint64_t> &NextRid,
            std::atomic<size_t> &NextCold, std::atomic<uint64_t> &Exhausted,
            std::vector<Sample> &Out) {
  const size_t Keys = St.Keys.size();
  while (TraceCollector::nowNs() < DeadlineNs) {
    unsigned U = static_cast<unsigned>(R.below(100));
    uint32_t Key = static_cast<uint32_t>(R.below(Keys));
    Sample S;
    S.Traced = Traced;
    S.Class = U < 90 ? ReqClass::Hot
                     : U < 95 ? ReqClass::Cold : ReqClass::Metrics;
    S.Index = Key;
    if (S.Class == ReqClass::Cold) {
      size_t N = NextCold.fetch_add(1, std::memory_order_relaxed);
      if (N < St.ColdPool.size()) {
        S.Index = static_cast<uint32_t>(N);
      } else {
        Exhausted.fetch_add(1, std::memory_order_relaxed);
        S.Class = ReqClass::Hot;
      }
    }
    ServeRequest Req =
        S.Class == ReqClass::Cold
            ? makeRequest("qpt:edges", St.ColdPool[S.Index])
            : makeRequest(St.Keys[Key].Tool, St.HotImages[St.Keys[Key].Image]);
    Req.WantMetrics = S.Class == ReqClass::Metrics;
    // The same id names the benchmark's spans and the service's own.
    Req.RequestId = NextRid.fetch_add(1, std::memory_order_relaxed);
    std::vector<uint8_t> Frame = encodeRequest(Req);

    uint64_t Start = TraceCollector::nowNs();
    Expected<ServeResponse> Resp = Error("no response");
    {
      Span Request(Log, "bench.request", Req.RequestId);
      std::vector<uint8_t> Reply;
      {
        Span Handle(Log, "serve.handle_frame", Req.RequestId);
        Reply = St.Service->handleFrame(Frame);
      }
      Span Decode(Log, "serve.decode", Req.RequestId);
      Resp = decodeResponse(Reply);
    }
    S.DoneNs = TraceCollector::nowNs();
    S.LatencyNs = S.DoneNs - Start;

    if (Resp.hasValue()) {
      ServeResponse &RV = Resp.value();
      S.Decoded = true;
      S.Status = RV.Status;
      S.Envelope = std::move(RV.EnvelopeJson);
      if (RV.Status == ServeStatus::Ok) {
        if (S.Class == ReqClass::Cold)
          S.Hash = fnv1a64(RV.EditedImage.data(), RV.EditedImage.size());
        else
          S.Match = RV.EditedImage == St.Keys[Key].Expected;
      }
    }
    Out.push_back(std::move(S));
  }
}

/// The reference for one cold image: a single-shot edit and its VM check.
struct ColdRef {
  bool Ok = false;
  uint64_t Hash = 0;
};

std::vector<ColdRef> coldReferences(const ServeState &St,
                                    const std::vector<bool> &Used) {
  ServeLimits L;
  L.CacheCapacity = 0;
  L.DispatchWorkers = Clients;
  EditService RefService(L);
  std::vector<ColdRef> Refs(St.ColdPool.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Clients; ++W)
    Workers.emplace_back([&] {
      for (size_t N; (N = Next.fetch_add(1)) < Refs.size();) {
        if (!Used[N])
          continue;
        ServeResponse R =
            RefService.handle(makeRequest("qpt:edges", St.ColdPool[N]));
        if (R.Status != ServeStatus::Ok)
          continue;
        Refs[N].Ok =
            checkEdit(R.EditedImage, St.BaseRefs[N % ColdBases]).Ok;
        Refs[N].Hash = fnv1a64(R.EditedImage.data(), R.EditedImage.size());
      }
    });
  for (std::thread &T : Workers)
    T.join();
  return Refs;
}

/// cache_hit and latency_us from an Ok envelope's eel-report/1 summary.
bool parseSummary(const std::string &Envelope, bool &CacheHit,
                  double &LatencyUs) {
  Expected<JsonValue> Doc = parseJson(Envelope);
  if (Doc.hasError())
    return false;
  const JsonValue *Summary = Doc.value().find("summary");
  const JsonValue *Hit = Summary ? Summary->find("cache_hit") : nullptr;
  const JsonValue *Lat = Summary ? Summary->find("latency_us") : nullptr;
  if (!Hit || !Lat || Hit->K != JsonValue::Kind::Bool ||
      Lat->K != JsonValue::Kind::Number)
    return false;
  CacheHit = Hit->B;
  LatencyUs = Lat->asNumber();
  return true;
}

double ms(uint64_t Ns) { return double(Ns) * 1e-6; }

} // namespace

Outcome perfbench::runServeMixed(const RunOptions &Opts, SpanLog &Log) {
  Outcome Out;
  ServeState St;
  std::vector<double> SetupSec;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    St = ServeState();
    auto Start = std::chrono::steady_clock::now();
    St = prepare(Opts);
    SetupSec.push_back(secondsSince(Start));
  }

  // A traced run alternates untraced and traced quarters of the window.
  const unsigned Segments = Opts.Trace ? 4 : 1;
  const uint64_t SegmentNs =
      static_cast<uint64_t>(Opts.Seconds * 1e9 / Segments);
  std::vector<Rng> Rngs;
  for (unsigned C = 0; C < Clients; ++C)
    Rngs.emplace_back(Opts.Seed * 7919 + C + 1);
  std::atomic<uint64_t> NextRid{1};
  std::atomic<size_t> NextCold{0};
  std::atomic<uint64_t> Exhausted{0};
  std::vector<Sample> Samples;
  double WallSec[2] = {0, 0};
  std::vector<double> BlockSec;
  uint64_t Evictions = 0;
  size_t SpanBegin = Log.size();
  for (unsigned Seg = 0; Seg < Segments; ++Seg) {
    bool Traced = Opts.Trace && Seg % 2 == 1;
    Log.setEnabled(Traced);
    AnalysisCache::Stats Before = St.Service->cacheStats();
    std::vector<std::vector<Sample>> PerClient(Clients);
    uint64_t Start = TraceCollector::nowNs();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        client(St, Log, Rngs[C], Traced, Start + SegmentNs, NextRid, NextCold,
               Exhausted, PerClient[C]);
      });
    for (std::thread &T : Threads)
      T.join();
    uint64_t WallNs = TraceCollector::nowNs() - Start;
    if (Traced || !Opts.Trace)
      Evictions += St.Service->cacheStats().Evictions - Before.Evictions;
    WallSec[Traced] += double(WallNs) * 1e-9;
    std::vector<uint64_t> Done;
    for (std::vector<Sample> &V : PerClient)
      for (Sample &S : V) {
        Done.push_back(S.DoneNs);
        Samples.push_back(std::move(S));
      }
    std::sort(Done.begin(), Done.end());
    if (!Traced)
      for (size_t I = BlockRequests; I < Done.size(); I += BlockRequests)
        BlockSec.push_back(double(Done[I] - Done[I - BlockRequests]) * 1e-9);
  }
  Log.setEnabled(false);

  // --- Checks and accounting, after the window ------------------------------
  std::vector<bool> ColdUsed(St.ColdPool.size(), false);
  for (const Sample &S : Samples)
    if (S.Class == ReqClass::Cold)
      ColdUsed[S.Index] = true;
  std::vector<ColdRef> Refs = coldReferences(St, ColdUsed);

  struct ClassStats {
    std::vector<double> Latency[3]; // by ReqClass
    std::vector<double> All, Service, Wait;
    uint64_t Ok = 0, Rejected = 0, Errors = 0;
    uint64_t HotHits = 0, HotMisses = 0, ColdMisses = 0;
  } Stat[2];
  for (const Sample &S : Samples) {
    ClassStats &CS = Stat[S.Traced];
    double LatencyMs = ms(S.LatencyNs);
    CS.All.push_back(LatencyMs);
    CS.Latency[static_cast<unsigned>(S.Class)].push_back(LatencyMs);
    bool Ok = S.Decoded && S.Status == ServeStatus::Ok;
    std::string Why;
    if (!S.Decoded) {
      ++CS.Errors;
      Why = "undecodable response";
    } else if (S.Status == ServeStatus::Rejected) {
      ++CS.Rejected;
      Why = "rejected: " + S.Envelope;
    } else if (S.Status == ServeStatus::Error) {
      ++CS.Errors;
      Why = "error: " + S.Envelope;
    } else if (S.Class == ReqClass::Cold) {
      Ok = Refs[S.Index].Ok && S.Hash == Refs[S.Index].Hash;
      Why = "cold image " + std::to_string(S.Index) +
            " differs from its checked single-shot edit";
    } else {
      Ok = S.Match && St.Keys[S.Index].Checked.Ok;
      Why = std::string("hot key ") + St.Keys[S.Index].Tool + "/" +
            std::to_string(St.Keys[S.Index].Image) + ": " +
            (S.Match ? St.Keys[S.Index].Checked.Why
                     : "bytes differ from the single-shot edit");
    }
    bool Hit = false;
    double LatencyUs = 0;
    if (S.Decoded && S.Status == ServeStatus::Ok) {
      ++CS.Ok;
      if (!parseSummary(S.Envelope, Hit, LatencyUs)) {
        Ok = false;
        Why = "envelope summary lacks cache_hit/latency_us";
      } else {
        double ServiceMs = LatencyUs * 1e-3;
        CS.Service.push_back(ServiceMs);
        CS.Wait.push_back(std::max(0.0, LatencyMs - ServiceMs));
        if (S.Class == ReqClass::Cold)
          CS.ColdMisses += !Hit;
        else
          (Hit ? CS.HotHits : CS.HotMisses) += 1;
      }
    }
    Out.record(Ok, Why);
  }

  std::vector<double> Growth, Overhead;
  for (const HotKey &K : St.Keys)
    if (K.Checked.Ok) {
      const Reference &Ref = St.HotRefs[K.Image];
      Growth.push_back(double(K.Checked.TextBytes) / double(Ref.TextBytes));
      Overhead.push_back(double(K.Checked.Instructions) /
                         double(Ref.Instructions));
    }

  auto &M = Out.Metrics;
  const ClassStats &U = Stat[0];
  if (!Opts.Trace) {
    M["edit_s"] = median(BlockSec);
    M["edits_per_s"] = double(U.Ok) / WallSec[0];
    M["latency_p50_ms"] = quantile(U.All, 0.50);
    M["latency_p99_ms"] = quantile(U.All, 0.99);
  } else {
    const ClassStats &T = Stat[1];
    uint64_t HotTotal = T.HotHits + T.HotMisses;
    M["serve.hit_frac"] = HotTotal ? double(T.HotHits) / double(HotTotal) : 0;
    M["serve.claim_misses"] = double(T.HotMisses);
    M["serve.cold_misses"] = double(T.ColdMisses);
    M["serve.evictions"] = double(Evictions);
    M["serve.hot_p50_ms"] = median(T.Latency[0]);
    M["serve.cold_p50_ms"] = median(T.Latency[1]);
    M["serve.metrics_p50_ms"] = median(T.Latency[2]);
    M["serve.service_p50_ms"] = median(T.Service);
    M["serve.wait_p50_ms"] = quantile(T.Wait, 0.50);
    M["serve.wait_p99_ms"] = quantile(T.Wait, 0.99);
    M["serve.rejected"] = double(T.Rejected);
    M["serve.errors"] = double(T.Errors);
    // Time per Ok edit, traced over untraced.
    double UntracedRate = double(U.Ok) / WallSec[0];
    double TracedRate = double(T.Ok) / WallSec[1];
    M["bench.trace_overhead_frac"] = UntracedRate / TracedRate - 1.0;
    M["bench.span_coverage_frac"] =
        spanCoverage(Log.spans(), SpanBegin, Log.size());
  }
  M["text_growth"] = geomean(Growth);
  M["run_overhead"] = geomean(Overhead);
  M["setup_s"] = median(SetupSec);

  Out.Notes.push_back(
      "hot images " + std::to_string(St.HotImages.size()) + " x " +
      std::to_string(ImageRoutines) + " generated routines (" +
      std::to_string(St.ImageBytes) + " bytes), hot keys " +
      std::to_string(St.Keys.size()) + ", cold pool " +
      std::to_string(St.ColdPool.size()) + ", clients " +
      std::to_string(Clients) + " closed-loop, mix 90% hot / 5% cold / 5% "
      "metrics");
  Out.Notes.push_back(
      "requests " + std::to_string(Samples.size()) + " (latency samples " +
      std::to_string(U.All.size()) + " untraced, " +
      std::to_string(Stat[1].All.size()) + " traced), ok " +
      std::to_string(U.Ok + Stat[1].Ok) + ", cold pool exhausted " +
      std::to_string(Exhausted.load()) + " times");
  return Out;
}
