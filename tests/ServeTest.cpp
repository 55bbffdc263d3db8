//===- tests/ServeTest.cpp - eel-serve service tests ----------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The edit service end to end: wire-protocol round-trips and hostile
/// frames, content-addressed cache hit/miss/eviction (options are part of
/// the key, the tool is not), admission-control rejections with
/// structured envelopes, byte identity of warm hits, of concurrent
/// identical submissions and of concurrent edit sessions over one shared
/// analysis, thread-count determinism through the service, and
/// per-request metrics sinks that stay exact beside other traffic.
///
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "core/Executable.h"
#include "serve/Protocol.h"
#include "serve/Serve.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "tools/Qpt.h"
#include "tools/Tracer.h"
#include "vm/Machine.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace eel {

/// Befriended by EditService: lets a test occupy the dispatch pool, so an
/// admitted request waits in its queue for as long as the test needs.
struct ServeTestAccess {
  static ThreadPool &dispatchPool(EditService &S) { return S.Pool; }
};

} // namespace eel

using namespace eel;

namespace {

std::vector<uint8_t> makeImage(uint64_t Seed, unsigned Routines = 10,
                               TargetArch Arch = TargetArch::Srisc) {
  WorkloadOptions Opts;
  Opts.Seed = Seed;
  Opts.Routines = Routines;
  Opts.SwitchPercent = 30;
  return generateWorkload(Arch, Opts).serialize();
}

ServeRequest makeRequest(std::vector<uint8_t> Image,
                         const std::string &Tool = "null") {
  ServeRequest Req;
  Req.ToolSpec = Tool;
  Req.Threads = 1;
  Req.ImageBytes = std::move(Image);
  return Req;
}

/// Parses an envelope and returns the named field of its "summary" object.
const JsonValue *summaryField(const JsonValue &Doc, const std::string &Name) {
  const JsonValue *Summary = Doc.find("summary");
  return Summary ? Summary->find(Name) : nullptr;
}

JsonValue parseEnvelope(const ServeResponse &Resp) {
  Expected<JsonValue> Doc = parseJson(Resp.EnvelopeJson);
  EXPECT_TRUE(Doc.hasValue()) << Resp.EnvelopeJson;
  return Doc.hasValue() ? Doc.takeValue() : JsonValue();
}

/// The five tool specs the service accepts.
const char *const ToolSpecs[] = {"null", "qpt:blocks", "qpt:edges",
                                  "qpt:all", "tracer"};

/// Instruments \p Exec as the service does for \p Spec (the service's
/// tracer capacity is a fixed 4096 entries). The returned tool must
/// outlive the write, as in the service.
std::shared_ptr<void> instrumentLike(Executable &Exec,
                                     const std::string &Spec) {
  if (Spec == "null")
    return nullptr;
  if (Spec == "tracer") {
    auto Tracer = std::make_shared<MemoryTracer>(Exec, 4096);
    Tracer->instrument();
    return Tracer;
  }
  Qpt2Profiler::Options QOpts;
  QOpts.CountBlocks = Spec != "qpt:edges";
  QOpts.CountEdges = Spec != "qpt:blocks";
  auto Qpt = std::make_shared<Qpt2Profiler>(Exec, QOpts);
  Qpt->instrument();
  return Qpt;
}

/// A cold single-shot edit: open, analyze, instrument, write.
std::vector<uint8_t> coldEdit(const std::vector<uint8_t> &Bytes,
                              const std::string &Spec) {
  Expected<SxfFile> Image = SxfFile::deserialize(Bytes);
  EXPECT_TRUE(Image.hasValue());
  Executable::Options EOpts;
  EOpts.Threads = 1;
  Executable Exec(Image.takeValue(), EOpts);
  EXPECT_TRUE(Exec.readContents().hasValue());
  std::shared_ptr<void> Tool = instrumentLike(Exec, Spec);
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  EXPECT_TRUE(Edited.hasValue()) << Edited.error().describe();
  return Edited.hasValue() ? Edited.value().serialize()
                           : std::vector<uint8_t>();
}

} // namespace

// --- Protocol ---------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTrip) {
  ServeRequest Req;
  Req.ToolSpec = "qpt:edges";
  Req.Threads = 4;
  Req.Verify = true;
  Req.WantMetrics = true;
  Req.ImageBytes = {1, 2, 3, 4, 5};
  Expected<ServeRequest> Back = decodeRequest(encodeRequest(Req));
  ASSERT_TRUE(Back.hasValue()) << Back.error().describe();
  EXPECT_EQ(Back.value().ToolSpec, "qpt:edges");
  EXPECT_EQ(Back.value().Threads, 4u);
  EXPECT_TRUE(Back.value().Verify);
  EXPECT_TRUE(Back.value().WantMetrics);
  EXPECT_EQ(Back.value().ImageBytes, Req.ImageBytes);
}

TEST(ServeProtocol, ResponseRoundTrip) {
  ServeResponse Resp;
  Resp.Status = ServeStatus::Rejected;
  Resp.EnvelopeJson = "{\"status\": \"rejected\"}";
  Expected<ServeResponse> Back = decodeResponse(encodeResponse(Resp));
  ASSERT_TRUE(Back.hasValue()) << Back.error().describe();
  EXPECT_EQ(Back.value().Status, ServeStatus::Rejected);
  EXPECT_EQ(Back.value().EnvelopeJson, Resp.EnvelopeJson);
  EXPECT_TRUE(Back.value().EditedImage.empty());
}

TEST(ServeProtocol, HostileFramesGetTaxonomyCodes) {
  ServeRequest Req = makeRequest({1, 2, 3});
  std::vector<uint8_t> Good = encodeRequest(Req);

  // Wrong magic.
  std::vector<uint8_t> BadMagicFrame = Good;
  BadMagicFrame[0] ^= 0xff;
  Expected<ServeRequest> R1 = decodeRequest(BadMagicFrame);
  ASSERT_TRUE(R1.hasError());
  EXPECT_EQ(R1.error().code(), ErrorCode::BadMagic);

  // Unknown version.
  std::vector<uint8_t> BadVersion = Good;
  BadVersion[4] = 99;
  Expected<ServeRequest> R2 = decodeRequest(BadVersion);
  ASSERT_TRUE(R2.hasError());
  EXPECT_EQ(R2.error().code(), ErrorCode::BadHeader);

  // Reserved flag bits: bit 1 and bits 3-7.
  for (uint8_t Reserved : {0x02, 0x08, 0x80}) {
    std::vector<uint8_t> BadFlags = Good;
    BadFlags[5] = Reserved;
    Expected<ServeRequest> R3 = decodeRequest(BadFlags);
    ASSERT_TRUE(R3.hasError()) << "flags 0x" << std::hex << int(Reserved);
    EXPECT_EQ(R3.error().code(), ErrorCode::BadHeader);
  }

  // Truncation at every prefix length must produce Truncated or
  // ImplausibleCount, never a crash or acceptance.
  for (size_t Len = 0; Len < Good.size(); ++Len) {
    std::vector<uint8_t> Prefix(Good.begin(), Good.begin() + Len);
    Expected<ServeRequest> R = decodeRequest(Prefix);
    ASSERT_TRUE(R.hasError()) << "accepted truncated frame of " << Len;
    EXPECT_TRUE(R.error().code() == ErrorCode::Truncated ||
                R.error().code() == ErrorCode::ImplausibleCount)
        << errorCodeName(R.error().code()) << " at len " << Len;
  }

  // Trailing bytes after a well-formed request.
  std::vector<uint8_t> Trailing = Good;
  Trailing.push_back(0);
  Expected<ServeRequest> R4 = decodeRequest(Trailing);
  ASSERT_TRUE(R4.hasError());
  EXPECT_EQ(R4.error().code(), ErrorCode::TrailingBytes);

  // Hostile image length (exceeds remaining payload).
  std::vector<uint8_t> BadLen = Good;
  size_t LenOff = Good.size() - Req.ImageBytes.size() - 4;
  BadLen[LenOff] = 0xff;
  BadLen[LenOff + 1] = 0xff;
  BadLen[LenOff + 2] = 0xff;
  BadLen[LenOff + 3] = 0x7f;
  Expected<ServeRequest> R5 = decodeRequest(BadLen);
  ASSERT_TRUE(R5.hasError());
  EXPECT_EQ(R5.error().code(), ErrorCode::ImplausibleCount);
}

// --- One shared analysis, many edit sessions -------------------------------

TEST(ServeShare, ConcurrentSessionsOverOneAnalysisMatchCold) {
  // Two Executables over one finished analysis, instrumented and written
  // on two threads at once: the analysis is read-only, each session owns
  // its edits, so each output is byte-identical to a cold run.
  for (TargetArch Arch : AllTargetArches) {
    std::vector<uint8_t> Bytes = makeImage(11, 8, Arch);
    Executable::Options EOpts;
    EOpts.Threads = 2;
    Expected<SxfFile> Image = SxfFile::deserialize(Bytes);
    ASSERT_TRUE(Image.hasValue());
    Executable First(Image.takeValue(), EOpts);
    ASSERT_TRUE(First.readContents().hasValue());
    std::shared_ptr<const Analysis> Shared = First.sharedAnalysis();

    const std::string Specs[2] = {"qpt:all", "tracer"};
    std::vector<uint8_t> Out[2];
    std::vector<std::thread> Sessions;
    for (unsigned I = 0; I < 2; ++I)
      Sessions.emplace_back([&, I] {
        Executable Exec(Shared);
        std::shared_ptr<void> Tool = instrumentLike(Exec, Specs[I]);
        Expected<SxfFile> Edited = Exec.writeEditedExecutable();
        ASSERT_TRUE(Edited.hasValue()) << Edited.error().describe();
        Out[I] = Edited.value().serialize();
      });
    for (std::thread &T : Sessions)
      T.join();
    for (unsigned I = 0; I < 2; ++I)
      EXPECT_EQ(Out[I], coldEdit(Bytes, Specs[I]))
          << "arch=" << static_cast<int>(Arch) << " spec=" << Specs[I];
  }
}

// --- Cache ------------------------------------------------------------------

TEST(ServeCache, HitMissEvictionAccounting) {
  ServeLimits Limits;
  Limits.CacheCapacity = 1;
  EditService Service(Limits);
  std::vector<uint8_t> Image1 = makeImage(1);
  std::vector<uint8_t> Image2 = makeImage(2);

  ServeResponse R1 = Service.handle(makeRequest(Image1));
  ASSERT_EQ(R1.Status, ServeStatus::Ok);
  JsonValue D1 = parseEnvelope(R1);
  ASSERT_NE(summaryField(D1, "cache_hit"), nullptr);
  EXPECT_FALSE(summaryField(D1, "cache_hit")->B);

  // Same image, same spec, same options: hit.
  ServeResponse R2 = Service.handle(makeRequest(Image1));
  ASSERT_EQ(R2.Status, ServeStatus::Ok);
  EXPECT_TRUE(summaryField(parseEnvelope(R2), "cache_hit")->B);
  EXPECT_EQ(R2.EditedImage, R1.EditedImage);

  // A different image evicts (capacity 1), then the first misses again.
  ASSERT_EQ(Service.handle(makeRequest(Image2)).Status, ServeStatus::Ok);
  ServeResponse R3 = Service.handle(makeRequest(Image1));
  ASSERT_EQ(R3.Status, ServeStatus::Ok);
  EXPECT_FALSE(summaryField(parseEnvelope(R3), "cache_hit")->B);
  EXPECT_EQ(R3.EditedImage, R1.EditedImage);

  AnalysisCache::Stats S = Service.cacheStats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_GE(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(ServeCache, ToolSpecsShareOneAnalysisAndMatchCold) {
  // The analysis does not depend on the tool, so the five specs on one
  // image share one cache entry: one miss, then hits. Every response, the
  // miss included, equals a cold single-shot edit with that spec.
  for (TargetArch Arch : AllTargetArches) {
    EditService Service(ServeLimits{});
    std::vector<uint8_t> Image = makeImage(3, 10, Arch);
    for (int Round = 0; Round < 2; ++Round)
      for (const char *Spec : ToolSpecs) {
        ServeResponse R = Service.handle(makeRequest(Image, Spec));
        ASSERT_EQ(R.Status, ServeStatus::Ok) << R.EnvelopeJson;
        bool First = Round == 0 && std::string(Spec) == ToolSpecs[0];
        EXPECT_EQ(summaryField(parseEnvelope(R), "cache_hit")->B, !First)
            << Spec;
        EXPECT_EQ(R.EditedImage, coldEdit(Image, Spec))
            << "arch=" << static_cast<int>(Arch) << " spec=" << Spec;
      }
    AnalysisCache::Stats S = Service.cacheStats();
    EXPECT_EQ(S.Misses, 1u);
    EXPECT_EQ(S.Hits, 2 * std::size(ToolSpecs) - 1);
    EXPECT_EQ(S.Entries, 1u);
  }
}

TEST(ServeCache, DifferentOptionsMissEachOther) {
  EditService Service(ServeLimits{});
  std::vector<uint8_t> Image = makeImage(4);
  ServeRequest Plain = makeRequest(Image);
  ServeRequest Verified = makeRequest(Image);
  Verified.Verify = true;

  ASSERT_EQ(Service.handle(Plain).Status, ServeStatus::Ok);
  ServeResponse R = Service.handle(Verified);
  ASSERT_EQ(R.Status, ServeStatus::Ok);
  EXPECT_FALSE(summaryField(parseEnvelope(R), "cache_hit")->B);
  EXPECT_EQ(Service.cacheStats().Hits, 0u);
}

// A request carrying any supported architecture is served: the edited
// image comes back instrumented, verified, and behaving identically, and
// a resubmission hits the cache with the same bytes.
TEST(ServeCrossIsa, EveryArchitectureServed) {
  EditService Service(ServeLimits{});
  for (TargetArch Arch : AllTargetArches) {
    std::vector<uint8_t> Image = makeImage(33, 8, Arch);
    ServeRequest Req = makeRequest(Image, "qpt:edges");
    Req.Verify = true;
    ServeResponse R = Service.handle(Req);
    ASSERT_EQ(R.Status, ServeStatus::Ok)
        << "arch=" << static_cast<int>(Arch) << ": " << R.EnvelopeJson;
    ASSERT_FALSE(R.EditedImage.empty());

    Expected<SxfFile> Orig = SxfFile::deserialize(Image);
    Expected<SxfFile> Edit = SxfFile::deserialize(R.EditedImage);
    ASSERT_TRUE(Orig.hasValue());
    ASSERT_TRUE(Edit.hasValue());
    RunResult Before = runToCompletion(Orig.value());
    RunResult After = runToCompletion(Edit.value());
    EXPECT_EQ(Before.ExitCode, After.ExitCode);
    EXPECT_EQ(Before.Output, After.Output);

    ServeResponse Warm = Service.handle(Req);
    ASSERT_EQ(Warm.Status, ServeStatus::Ok);
    EXPECT_TRUE(summaryField(parseEnvelope(Warm), "cache_hit")->B);
    EXPECT_EQ(Warm.EditedImage, R.EditedImage);
  }
}

// --- Admission control ------------------------------------------------------

TEST(ServeAdmission, OversizedImageRejectedWithStructuredEnvelope) {
  ServeLimits Limits;
  Limits.MaxImageBytes = 64;
  EditService Service(Limits);
  ServeResponse R = Service.handle(makeRequest(makeImage(5)));
  ASSERT_EQ(R.Status, ServeStatus::Rejected);
  EXPECT_TRUE(R.EditedImage.empty());
  JsonValue Doc = parseEnvelope(R);
  ASSERT_NE(summaryField(Doc, "error_code"), nullptr);
  EXPECT_EQ(summaryField(Doc, "error_code")->Str, "image_too_large");
}

TEST(ServeAdmission, UnknownToolSpecRejected) {
  EditService Service(ServeLimits{});
  ServeResponse R = Service.handle(makeRequest(makeImage(5), "qpt:nope"));
  ASSERT_EQ(R.Status, ServeStatus::Rejected);
  EXPECT_EQ(summaryField(parseEnvelope(R), "error_code")->Str,
            "bad_tool_spec");
}

TEST(ServeAdmission, SaturationRejectsWithRetryableCode) {
  ServeLimits Limits;
  Limits.MaxInFlight = 1;
  Limits.DispatchWorkers = 1;
  EditService Service(Limits);
  // Park the admitted blocker on purpose: a task parked on the service's
  // only dispatch worker keeps it busy, so the blocker takes the one
  // in-flight slot and then waits in the dispatch queue until the parked
  // task is released. The blocker starts only once the worker is parked:
  // a worker pops its own deque LIFO, so a blocker queued first would run
  // first.
  std::mutex ParkM;
  std::condition_variable ParkCV;
  bool Occupied = false, Released = false;
  ServeTestAccess::dispatchPool(Service).submit([&] {
    std::unique_lock<std::mutex> L(ParkM);
    Occupied = true;
    ParkCV.notify_all();
    ParkCV.wait(L, [&] { return Released; });
  });
  {
    std::unique_lock<std::mutex> L(ParkM);
    ParkCV.wait(L, [&] { return Occupied; });
  }
  auto Release = [&] {
    {
      std::lock_guard<std::mutex> L(ParkM);
      Released = true;
    }
    ParkCV.notify_all();
  };
  std::thread Blocker([&] {
    ServeResponse R = Service.handle(makeRequest(makeImage(6, 4)));
    EXPECT_EQ(R.Status, ServeStatus::Ok);
  });
  // The public scrape shows when the blocker holds the slot.
  auto InFlight = [&] {
    Expected<JsonValue> Doc =
        parseJson(Service.handleStatus(StatusRequest{}).Body);
    EXPECT_TRUE(Doc.hasValue());
    return Doc.hasValue() ? summaryField(Doc.value(), "in_flight")->asNumber()
                          : -1.0;
  };
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool Parked = false;
  while (!(Parked = InFlight() == 1.0) &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
  EXPECT_TRUE(Parked) << "the blocker never took the in-flight slot";

  bool SawRejection = false;
  if (Parked) {
    ServeResponse Probe = Service.handle(makeRequest(makeImage(7, 4)));
    SawRejection = Probe.Status == ServeStatus::Rejected;
    if (SawRejection) {
      EXPECT_EQ(summaryField(parseEnvelope(Probe), "error_code")->Str,
                "server_saturated");
    }
  }
  Release();
  Blocker.join();
  EXPECT_TRUE(SawRejection);
}

TEST(ServeAdmission, MalformedPayloadGetsErrorEnvelope) {
  EditService Service(ServeLimits{});
  ServeResponse R = Service.handleEncoded({0xde, 0xad, 0xbe, 0xef});
  ASSERT_EQ(R.Status, ServeStatus::Error);
  EXPECT_EQ(summaryField(parseEnvelope(R), "error_code")->Str, "bad_magic");
}

TEST(ServeAdmission, NonExecutableImageGetsErrorEnvelope) {
  EditService Service(ServeLimits{});
  ServeResponse R = Service.handle(makeRequest({1, 2, 3, 4}));
  ASSERT_EQ(R.Status, ServeStatus::Error);
  JsonValue Doc = parseEnvelope(R);
  ASSERT_NE(summaryField(Doc, "error_code"), nullptr);
  EXPECT_NE(summaryField(Doc, "error_code")->Str, "");
}

// --- Concurrency and determinism --------------------------------------------

TEST(ServeConcurrency, ConcurrentIdenticalSubmissionsAreByteIdentical) {
  EditService Service(ServeLimits{});
  std::vector<uint8_t> Image = makeImage(8, 12);
  constexpr unsigned N = 8;
  std::vector<ServeResponse> Responses(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back(
        [&, I] { Responses[I] = Service.handle(makeRequest(Image)); });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned I = 0; I < N; ++I) {
    ASSERT_EQ(Responses[I].Status, ServeStatus::Ok) << "request " << I;
    EXPECT_EQ(Responses[I].EditedImage, Responses[0].EditedImage)
        << "request " << I;
  }
  // Every submission was served (a hit or a miss, never dropped).
  AnalysisCache::Stats S = Service.cacheStats();
  EXPECT_EQ(S.Hits + S.Misses, uint64_t(N));
}

TEST(ServeConcurrency, ThreadCountDoesNotChangeOutput) {
  EditService Service(ServeLimits{});
  std::vector<uint8_t> Image = makeImage(9, 12);
  ServeRequest One = makeRequest(Image, "qpt:all");
  One.Threads = 1;
  ServeRequest Eight = makeRequest(Image, "qpt:all");
  Eight.Threads = 8;
  ServeResponse R1 = Service.handle(One);
  ServeResponse R8 = Service.handle(Eight);
  ASSERT_EQ(R1.Status, ServeStatus::Ok);
  ASSERT_EQ(R8.Status, ServeStatus::Ok);
  EXPECT_EQ(R1.EditedImage, R8.EditedImage);
  // Different Threads settings are distinct cache keys (options digest),
  // so neither run reused the other's analysis.
  EXPECT_EQ(Service.cacheStats().Hits, 0u);
}

// --- Per-request metrics isolation ------------------------------------------

TEST(ServeMetrics, BackToBackEnvelopesAreIsolated) {
  // With caching disabled both requests run the identical cold pipeline,
  // so their envelope counters must match exactly — a second envelope
  // with doubled pipeline counters means the first request's metrics
  // leaked through. Cumulative serve.* counters must keep growing.
  ServeLimits Limits;
  Limits.CacheCapacity = 0;
  EditService Service(Limits);
  ServeRequest Req = makeRequest(makeImage(10, 8));
  Req.WantMetrics = true;

  ServeResponse First = Service.handle(Req);
  ServeResponse Second = Service.handle(Req);
  ASSERT_EQ(First.Status, ServeStatus::Ok);
  ASSERT_EQ(Second.Status, ServeStatus::Ok);
  JsonValue D1 = parseEnvelope(First);
  JsonValue D2 = parseEnvelope(Second);

  const JsonValue *C1 = D1.find("counters");
  const JsonValue *C2 = D2.find("counters");
  ASSERT_NE(C1, nullptr);
  ASSERT_NE(C2, nullptr);
  ASSERT_TRUE(C1->isObject());
  unsigned PipelineCountersCompared = 0;
  for (const auto &[Name, Value] : C1->Obj) {
    const JsonValue *Other = C2->find(Name);
    ASSERT_NE(Other, nullptr) << Name;
    if (Name.rfind("serve.", 0) == 0) {
      EXPECT_GE(Other->asNumber(), Value.asNumber()) << Name;
      continue;
    }
    EXPECT_EQ(Other->Num, Value.Num) << Name << " leaked between requests";
    ++PipelineCountersCompared;
  }
  EXPECT_GT(PipelineCountersCompared, 0u);

  // serve.requests is cumulative across the two envelopes.
  const JsonValue *Req1 = C1->find("serve.requests");
  const JsonValue *Req2 = C2->find("serve.requests");
  ASSERT_NE(Req1, nullptr);
  ASSERT_NE(Req2, nullptr);
  EXPECT_GT(Req2->asNumber(), Req1->asNumber());
}

TEST(ServeMetrics, SinkMatchesSoloColdRunBesidePlainTraffic) {
  // A WantMetrics request records into its own sink, so plain requests
  // running beside it on the same pool threads change nothing in its
  // envelope: counters and histograms equal those of the same request
  // served alone. Caching is off, so every request analyzes (cold).
  ServeLimits Limits;
  Limits.CacheCapacity = 0;
  for (unsigned Threads : {1u, 4u}) {
    ServeRequest Req = makeRequest(makeImage(60, 12), "qpt:all");
    Req.Threads = Threads;
    Req.WantMetrics = true;
    auto pipelineMetrics = [](const ServeResponse &R) {
      JsonValue Doc = parseEnvelope(R);
      JsonValue Counters;
      Counters.K = JsonValue::Kind::Object;
      if (const JsonValue *C = Doc.find("counters"))
        for (const auto &[Name, Value] : C->Obj)
          if (Name.rfind("serve.", 0) != 0)
            Counters.Obj.emplace_back(Name, Value);
      const JsonValue *Hists = Doc.find("histograms");
      return std::make_pair(dumpJson(Counters),
                            Hists ? dumpJson(*Hists) : std::string());
    };

    std::pair<std::string, std::string> Solo;
    {
      EditService Alone(Limits);
      ServeResponse R = Alone.handle(Req);
      ASSERT_EQ(R.Status, ServeStatus::Ok);
      Solo = pipelineMetrics(R);
    }
    ASSERT_NE(Solo.first.find("eel.cfg.built"), std::string::npos);
    ASSERT_NE(Solo.second.find("cfg.blocks_per_routine"), std::string::npos);

    EditService Service(Limits);
    std::atomic<bool> Stop{false};
    std::vector<std::thread> Traffic;
    for (unsigned W = 0; W < 3; ++W)
      Traffic.emplace_back([&, W] {
        ServeRequest Plain = makeRequest(makeImage(61 + W, 12), "qpt:edges");
        Plain.Threads = Threads;
        while (!Stop.load(std::memory_order_relaxed))
          EXPECT_EQ(Service.handle(Plain).Status, ServeStatus::Ok);
      });
    for (int I = 0; I < 3; ++I) {
      ServeResponse R = Service.handle(Req);
      ASSERT_EQ(R.Status, ServeStatus::Ok);
      EXPECT_EQ(pipelineMetrics(R), Solo) << "threads=" << Threads;
    }
    Stop.store(true, std::memory_order_relaxed);
    for (std::thread &T : Traffic)
      T.join();
  }
}

TEST(ServeMetrics, EnvelopeCarriesProvenanceAndParses) {
  EditService Service(ServeLimits{});
  std::vector<uint8_t> Image = makeImage(12, 6);
  ServeResponse R = Service.handle(makeRequest(Image, "qpt:edges"));
  ASSERT_EQ(R.Status, ServeStatus::Ok);
  JsonValue Doc = parseEnvelope(R);
  ASSERT_NE(Doc.find("schema"), nullptr);
  EXPECT_EQ(Doc.find("schema")->Str, "eel-report/1");
  const JsonValue *Prov = Doc.find("provenance");
  ASSERT_NE(Prov, nullptr);
  EXPECT_NE(Prov->find("image_fnv1a64"), nullptr);
  EXPECT_NE(Prov->find("tool_digest"), nullptr);
  EXPECT_NE(Prov->find("options_digest"), nullptr);
  EXPECT_NE(Prov->find("combined"), nullptr);

  // The provenance matches what the request's bytes and spec digest to.
  uint64_t ImageHash = fnv1a64(Image.data(), Image.size());
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%llx",
                static_cast<unsigned long long>(ImageHash));
  EXPECT_EQ(Prov->find("image_fnv1a64")->Str, Buf);
}

// --- Wire round-trip through handleEncoded ----------------------------------

TEST(ServeWire, EncodedRequestRoundTripsThroughService) {
  EditService Service(ServeLimits{});
  ServeRequest Req = makeRequest(makeImage(13, 6));
  ServeResponse Direct = Service.handle(Req);
  ASSERT_EQ(Direct.Status, ServeStatus::Ok);

  ServeResponse ViaWire = Service.handleEncoded(encodeRequest(Req));
  ASSERT_EQ(ViaWire.Status, ServeStatus::Ok);
  // Second submission of the same request: a cache hit, byte-identical.
  EXPECT_EQ(ViaWire.EditedImage, Direct.EditedImage);

  Expected<ServeResponse> Decoded =
      decodeResponse(encodeResponse(ViaWire));
  ASSERT_TRUE(Decoded.hasValue());
  EXPECT_EQ(Decoded.value().EditedImage, Direct.EditedImage);
  EXPECT_TRUE(parseJson(Decoded.value().EnvelopeJson).hasValue());
}

// --- Request-id propagation -------------------------------------------------

TEST(ServeRequestId, ClientIdEchoedEverywhere) {
  EditService Service(ServeLimits{});
  ServeRequest Req = makeRequest(makeImage(20, 6));
  Req.RequestId = 0xabcdef12345678ull;
  ServeResponse R = Service.handle(Req);
  ASSERT_EQ(R.Status, ServeStatus::Ok);
  EXPECT_EQ(R.RequestId, Req.RequestId);
  JsonValue Envelope = parseEnvelope(R);
  const JsonValue *Rid = summaryField(Envelope, "request_id");
  ASSERT_NE(Rid, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(Rid->asNumber()), Req.RequestId);

  // The id survives the wire: frame in, frame out.
  Req.RequestId = 77;
  Expected<ServeResponse> Wire =
      decodeResponse(Service.handleFrame(encodeRequest(Req)));
  ASSERT_TRUE(Wire.hasValue());
  EXPECT_EQ(Wire.value().RequestId, 77u);
}

TEST(ServeRequestId, ZeroIdGetsMinted) {
  EditService Service(ServeLimits{});
  ServeRequest Req = makeRequest(makeImage(21, 6));
  ASSERT_EQ(Req.RequestId, 0u);
  ServeResponse R1 = Service.handle(Req);
  ServeResponse R2 = Service.handle(Req);
  ASSERT_EQ(R1.Status, ServeStatus::Ok);
  ASSERT_EQ(R2.Status, ServeStatus::Ok);
  EXPECT_NE(R1.RequestId, 0u);
  EXPECT_NE(R2.RequestId, 0u);
  EXPECT_NE(R1.RequestId, R2.RequestId);
  // Rejections carry the effective id too.
  ServeRequest Bad = makeRequest(makeImage(21, 6), "qpt:nope");
  Bad.RequestId = 99;
  EXPECT_EQ(Service.handle(Bad).RequestId, 99u);
}

// --- Status (scrape) protocol -----------------------------------------------

TEST(ServeStatusProtocol, RoundTrip) {
  StatusRequest Req;
  Req.Format = StatusFormat::Prometheus;
  Req.WantExemplars = true;
  Req.MaxExemplars = 3;
  Expected<StatusRequest> Back = decodeStatusRequest(encodeStatusRequest(Req));
  ASSERT_TRUE(Back.hasValue()) << Back.error().describe();
  EXPECT_EQ(Back.value().Format, StatusFormat::Prometheus);
  EXPECT_TRUE(Back.value().WantExemplars);
  EXPECT_EQ(Back.value().MaxExemplars, 3u);

  StatusResponse Resp;
  Resp.Status = ServeStatus::Ok;
  Resp.Format = StatusFormat::Json;
  Resp.Body = "{\"status\": \"ok\"}";
  Expected<StatusResponse> RBack =
      decodeStatusResponse(encodeStatusResponse(Resp));
  ASSERT_TRUE(RBack.hasValue()) << RBack.error().describe();
  EXPECT_EQ(RBack.value().Status, ServeStatus::Ok);
  EXPECT_EQ(RBack.value().Body, Resp.Body);
}

TEST(ServeStatusProtocol, HostileStatusFramesGetTaxonomyCodes) {
  // The control plane gets the same hostile-input treatment as the edit
  // plane: every malformed byte maps to one taxonomy code.
  std::vector<uint8_t> Good = encodeStatusRequest(StatusRequest{});

  std::vector<uint8_t> BadMagicFrame = Good;
  BadMagicFrame[0] ^= 0xff;
  Expected<StatusRequest> R1 = decodeStatusRequest(BadMagicFrame);
  ASSERT_TRUE(R1.hasError());
  EXPECT_EQ(R1.error().code(), ErrorCode::BadMagic);

  std::vector<uint8_t> BadVersion = Good;
  BadVersion[4] = 99;
  Expected<StatusRequest> R2 = decodeStatusRequest(BadVersion);
  ASSERT_TRUE(R2.hasError());
  EXPECT_EQ(R2.error().code(), ErrorCode::BadHeader);

  std::vector<uint8_t> BadFormat = Good;
  BadFormat[5] = 7; // Outside the StatusFormat enum.
  Expected<StatusRequest> R3 = decodeStatusRequest(BadFormat);
  ASSERT_TRUE(R3.hasError());
  EXPECT_EQ(R3.error().code(), ErrorCode::BadHeader);

  std::vector<uint8_t> BadFlags = Good;
  BadFlags[6] = 0x80; // Reserved flag bits.
  Expected<StatusRequest> R4 = decodeStatusRequest(BadFlags);
  ASSERT_TRUE(R4.hasError());
  EXPECT_EQ(R4.error().code(), ErrorCode::BadHeader);

  for (size_t Len = 0; Len < Good.size(); ++Len) {
    std::vector<uint8_t> Prefix(Good.begin(), Good.begin() + Len);
    Expected<StatusRequest> R = decodeStatusRequest(Prefix);
    ASSERT_TRUE(R.hasError()) << "accepted truncated status frame of " << Len;
    EXPECT_EQ(R.error().code(), ErrorCode::Truncated) << "at len " << Len;
  }

  std::vector<uint8_t> Trailing = Good;
  Trailing.push_back(0);
  Expected<StatusRequest> R5 = decodeStatusRequest(Trailing);
  ASSERT_TRUE(R5.hasError());
  EXPECT_EQ(R5.error().code(), ErrorCode::TrailingBytes);
}

TEST(ServeStatusProtocol, SeededMutationFuzz) {
  // sxf-fuzz discipline for the control plane: mutate valid ELSt frames
  // and require every outcome to be a clean decode or a taxonomy error —
  // and require handleFrame to answer every mutant with a frame that
  // decodes as one of the two response kinds.
  EditService Service(ServeLimits{});
  Rng R(0x5374);
  for (unsigned Iter = 0; Iter < 300; ++Iter) {
    StatusRequest Req;
    Req.Format = R.chance(50) ? StatusFormat::Json : StatusFormat::Prometheus;
    Req.WantExemplars = R.chance(30);
    Req.MaxExemplars = static_cast<uint32_t>(R.below(5));
    std::vector<uint8_t> Frame = encodeStatusRequest(Req);

    unsigned Mutations = 1 + static_cast<unsigned>(R.below(3));
    for (unsigned M = 0; M < Mutations; ++M) {
      switch (R.below(3)) {
      case 0: // Flip a byte.
        if (!Frame.empty())
          Frame[R.below(Frame.size())] ^= static_cast<uint8_t>(R.range(1, 255));
        break;
      case 1: // Truncate.
        if (!Frame.empty())
          Frame.resize(R.below(Frame.size()));
        break;
      default: // Extend with junk.
        Frame.push_back(static_cast<uint8_t>(R.below(256)));
      }
    }

    Expected<StatusRequest> Decoded = decodeStatusRequest(Frame);
    if (Decoded.hasValue()) {
      // Survivors must re-encode to a decodable frame (round-trip sanity).
      EXPECT_TRUE(
          decodeStatusRequest(encodeStatusRequest(Decoded.value())).hasValue());
    } else {
      ErrorCode Code = Decoded.error().code();
      EXPECT_TRUE(Code == ErrorCode::BadMagic || Code == ErrorCode::BadHeader ||
                  Code == ErrorCode::Truncated ||
                  Code == ErrorCode::TrailingBytes ||
                  Code == ErrorCode::ImplausibleCount)
          << errorCodeName(Code);
    }

    std::vector<uint8_t> Answer = Service.handleFrame(Frame);
    EXPECT_TRUE(decodeStatusResponse(Answer).hasValue() ||
                decodeResponse(Answer).hasValue())
        << "handleFrame answered a mutant with an undecodable frame";
  }
}

// --- Live scrape ------------------------------------------------------------

TEST(ServeStatus, SnapshotCarriesLiveCounters) {
  EditService Service(ServeLimits{});
  std::vector<uint8_t> Image = makeImage(22, 6);
  ASSERT_EQ(Service.handle(makeRequest(Image)).Status, ServeStatus::Ok);
  ASSERT_EQ(Service.handle(makeRequest(Image)).Status, ServeStatus::Ok);
  ASSERT_EQ(Service.handle(makeRequest(Image, "qpt:nope")).Status,
            ServeStatus::Rejected);

  StatusResponse Resp = Service.handleStatus(StatusRequest{});
  ASSERT_EQ(Resp.Status, ServeStatus::Ok);
  Expected<JsonValue> Doc = parseJson(Resp.Body);
  ASSERT_TRUE(Doc.hasValue()) << Resp.Body;
  EXPECT_EQ(Doc.value().find("schema")->Str, "eel-report/1");
  const JsonValue *Summary = Doc.value().find("summary");
  ASSERT_NE(Summary, nullptr);
  const JsonValue *Counters = Summary->find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->find("requests")->asNumber(), 3.0);
  EXPECT_EQ(Counters->find("ok")->asNumber(), 2.0);
  EXPECT_EQ(Counters->find("rejected")->asNumber(), 1.0);
  const JsonValue *CacheV = Summary->find("cache");
  ASSERT_NE(CacheV, nullptr);
  EXPECT_EQ(CacheV->find("hits")->asNumber(), 1.0);
  EXPECT_EQ(CacheV->find("misses")->asNumber(), 1.0);
  EXPECT_GT(CacheV->find("bytes")->asNumber(), 0.0);
  const JsonValue *Hists = Summary->find("histograms");
  ASSERT_NE(Hists, nullptr);
  ASSERT_TRUE(Hists->isArray());
  bool SawLatency = false;
  for (const JsonValue &H : Hists->Arr)
    if (H.find("name") && H.find("name")->Str == "serve.latency_us") {
      SawLatency = true;
      EXPECT_EQ(H.find("count")->asNumber(), 2.0);
      EXPECT_GT(H.find("p99")->asNumber(), 0.0);
    }
  EXPECT_TRUE(SawLatency);

  // The Prometheus rendering exposes the same counters as text.
  StatusRequest PromReq;
  PromReq.Format = StatusFormat::Prometheus;
  StatusResponse Prom = Service.handleStatus(PromReq);
  ASSERT_EQ(Prom.Status, ServeStatus::Ok);
  EXPECT_NE(Prom.Body.find("serve_requests 3"), std::string::npos)
      << Prom.Body;
  EXPECT_NE(Prom.Body.find("serve_ok 2"), std::string::npos);
  EXPECT_NE(Prom.Body.find("serve_latency_us_count 2"), std::string::npos);
}

TEST(ServeStatus, ScrapeNeverBlocksBehindEdits) {
  // The scrape path must stay answerable while edits are in flight —
  // WantMetrics edits included. Workers hammer the service; the main
  // thread scrapes continuously and every scrape must succeed and parse.
  EditService Service(ServeLimits{});
  constexpr unsigned Workers = 4, PerWorker = 6;
  std::atomic<bool> Done{false};
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < Workers; ++W)
    Threads.emplace_back([&, W] {
      std::vector<uint8_t> Image = makeImage(30 + W, 16);
      for (unsigned I = 0; I < PerWorker; ++I) {
        ServeRequest Req = makeRequest(Image, "qpt:all");
        Req.WantMetrics = (I % 2) == 0;
        EXPECT_EQ(Service.handle(Req).Status, ServeStatus::Ok);
      }
    });

  uint64_t Scrapes = 0;
  double MaxInFlight = 0;
  std::thread Closer([&] {
    for (std::thread &T : Threads)
      T.join();
    Done.store(true, std::memory_order_release);
  });
  while (!Done.load(std::memory_order_acquire)) {
    std::vector<uint8_t> Answer =
        Service.handleFrame(encodeStatusRequest(StatusRequest{}));
    Expected<StatusResponse> Resp = decodeStatusResponse(Answer);
    ASSERT_TRUE(Resp.hasValue());
    ASSERT_EQ(Resp.value().Status, ServeStatus::Ok);
    Expected<JsonValue> Doc = parseJson(Resp.value().Body);
    ASSERT_TRUE(Doc.hasValue());
    const JsonValue *Summary = Doc.value().find("summary");
    ASSERT_NE(Summary, nullptr);
    const JsonValue *InFlight = Summary->find("in_flight");
    ASSERT_NE(InFlight, nullptr);
    MaxInFlight = std::max(MaxInFlight, InFlight->asNumber());
    ++Scrapes;
  }
  Closer.join();
  // The scraper kept running the whole time (it is strictly faster than
  // an edit, so many scrapes land per request) and saw the load.
  EXPECT_GE(Scrapes, uint64_t(Workers * PerWorker));
  EXPECT_GT(MaxInFlight, 0.0);

  StatusResponse Final = Service.handleStatus(StatusRequest{});
  Expected<JsonValue> Doc = parseJson(Final.Body);
  ASSERT_TRUE(Doc.hasValue());
  EXPECT_EQ(Doc.value()
                .find("summary")
                ->find("counters")
                ->find("ok")
                ->asNumber(),
            double(Workers * PerWorker));
}

// --- Slow-request exemplars -------------------------------------------------

TEST(ServeSlow, ExemplarCapturedWithRequestId) {
  ServeLimits Limits;
  Limits.SlowRequestUs = 1; // Everything is "slow".
  Limits.ExemplarCapacity = 2;
  EditService Service(Limits);

  for (uint64_t Id : {101u, 102u, 103u}) {
    ServeRequest Req = makeRequest(makeImage(40, 8), "qpt:all");
    Req.RequestId = Id;
    ASSERT_EQ(Service.handle(Req).Status, ServeStatus::Ok);
  }

  std::vector<SlowExemplar> Exs = Service.slowExemplars(0);
  ASSERT_EQ(Exs.size(), 2u) << "ring must cap at ExemplarCapacity";
  EXPECT_GE(Exs[0].LatencyUs, Exs[1].LatencyUs) << "worst first";
  for (const SlowExemplar &Ex : Exs) {
    EXPECT_TRUE(Ex.RequestId == 101 || Ex.RequestId == 102 ||
                Ex.RequestId == 103);
    EXPECT_GT(Ex.LatencyUs, Limits.SlowRequestUs);
    EXPECT_EQ(Ex.ToolSpec, "qpt:all");
    Expected<JsonValue> Trace = parseJson(Ex.TraceJson);
    ASSERT_TRUE(Trace.hasValue());
    const JsonValue *Events = Trace.value().find("traceEvents");
    ASSERT_NE(Events, nullptr);
    ASSERT_TRUE(Events->isArray());
    ASSERT_FALSE(Events->Arr.empty())
        << "a slow request must retain its spans";
    // Every span in the exemplar belongs to this request.
    for (const JsonValue &Ev : Events->Arr) {
      const JsonValue *Args = Ev.find("args");
      ASSERT_NE(Args, nullptr);
      ASSERT_NE(Args->find("request_id"), nullptr);
      EXPECT_EQ(Args->find("request_id")->asNumber(), double(Ex.RequestId));
    }
  }

  // The exemplars are fetchable through the scrape frame.
  StatusRequest Req;
  Req.WantExemplars = true;
  Req.MaxExemplars = 1;
  StatusResponse Resp = Service.handleStatus(Req);
  Expected<JsonValue> Doc = parseJson(Resp.Body);
  ASSERT_TRUE(Doc.hasValue()) << Resp.Body;
  const JsonValue *Slow = Doc.value().find("summary")->find("slow");
  ASSERT_NE(Slow, nullptr);
  EXPECT_EQ(Slow->find("captured")->asNumber(), 3.0);
  const JsonValue *ExArr = Slow->find("exemplars");
  ASSERT_NE(ExArr, nullptr);
  ASSERT_EQ(ExArr->Arr.size(), 1u) << "MaxExemplars caps the reply";
  EXPECT_EQ(ExArr->Arr[0].find("request_id")->asNumber(),
            double(Exs[0].RequestId));
}

TEST(ServeSlow, ThresholdZeroCapturesNothing) {
  EditService Service(ServeLimits{});
  ASSERT_EQ(Service.handle(makeRequest(makeImage(41, 6))).Status,
            ServeStatus::Ok);
  EXPECT_TRUE(Service.slowExemplars(0).empty());
}

// --- Metrics-scope gap regression -------------------------------------------

TEST(ServeMetrics, CumulativeCountersSurviveScopedRequests) {
  // Cache evictions and admission rejections around WantMetrics requests
  // must still be counted: a request's sink holds only its own pipeline
  // work, and serve.* counters live in the service. With a capacity-1
  // cache, back-to-back metrics requests for two images evict each
  // other; a rejection rides along.
  ServeLimits Limits;
  Limits.CacheCapacity = 1;
  EditService Service(Limits);
  std::vector<uint8_t> Image1 = makeImage(50, 6);
  std::vector<uint8_t> Image2 = makeImage(51, 6);

  for (int Round = 0; Round < 2; ++Round)
    for (const std::vector<uint8_t> *Image : {&Image1, &Image2}) {
      ServeRequest Req = makeRequest(*Image);
      Req.WantMetrics = true;
      ASSERT_EQ(Service.handle(Req).Status, ServeStatus::Ok);
    }
  ASSERT_EQ(Service.handle(makeRequest(Image1, "qpt:nope")).Status,
            ServeStatus::Rejected);

  // Read the cumulative counters through a final scoped envelope:
  // everything above must still be there.
  ServeRequest Last = makeRequest(Image2);
  Last.WantMetrics = true;
  ServeResponse R = Service.handle(Last);
  ASSERT_EQ(R.Status, ServeStatus::Ok);
  JsonValue Envelope = parseEnvelope(R);
  const JsonValue *Counters = Envelope.find("counters");
  ASSERT_NE(Counters, nullptr);
  const JsonValue *Evictions = Counters->find("serve.cache_evictions");
  ASSERT_NE(Evictions, nullptr) << "evictions missing from the envelope";
  EXPECT_GE(Evictions->asNumber(), 3.0);
  const JsonValue *Rejected = Counters->find("serve.rejected");
  ASSERT_NE(Rejected, nullptr);
  EXPECT_GE(Rejected->asNumber(), 1.0);
  const JsonValue *Requests = Counters->find("serve.requests");
  ASSERT_NE(Requests, nullptr);
  EXPECT_EQ(Requests->asNumber(), 6.0);

  // The scrape sees the same history through its own (atomic) path.
  StatusResponse Status = Service.handleStatus(StatusRequest{});
  Expected<JsonValue> Doc = parseJson(Status.Body);
  ASSERT_TRUE(Doc.hasValue());
  const JsonValue *Summary = Doc.value().find("summary");
  EXPECT_EQ(Summary->find("counters")->find("requests")->asNumber(), 6.0);
  EXPECT_GE(Summary->find("cache")->find("evictions")->asNumber(), 3.0);
}

TEST(ServeMetrics, EachServiceReportsItsOwnCounters) {
  // serve.* counters belong to a service, not to the process: two services
  // side by side each report their own request count in WantMetrics
  // envelopes, and every envelope agrees with that service's scrape.
  EditService A(ServeLimits{});
  EditService B(ServeLimits{});
  std::vector<uint8_t> Image = makeImage(52, 6);
  auto envelopeRequests = [&](EditService &S) {
    ServeRequest Req = makeRequest(Image);
    Req.WantMetrics = true;
    ServeResponse R = S.handle(Req);
    EXPECT_EQ(R.Status, ServeStatus::Ok);
    JsonValue Envelope = parseEnvelope(R);
    const JsonValue *N = Envelope.find("counters")->find("serve.requests");
    return N ? N->asNumber() : -1.0;
  };
  auto scrapeRequests = [](EditService &S) {
    StatusRequest Prom;
    Prom.Format = StatusFormat::Prometheus;
    std::string Body = S.handleStatus(Prom).Body;
    std::string Key = "serve_requests ";
    size_t At = Body.find("\n" + Key);
    EXPECT_NE(At, std::string::npos) << Body;
    return At == std::string::npos
               ? -1.0
               : std::stod(Body.substr(At + 1 + Key.size()));
  };

  ASSERT_EQ(A.handle(makeRequest(Image)).Status, ServeStatus::Ok);
  ASSERT_EQ(A.handle(makeRequest(Image, "qpt:nope")).Status,
            ServeStatus::Rejected);
  EXPECT_EQ(envelopeRequests(A), 3.0);
  EXPECT_EQ(scrapeRequests(A), 3.0);
  EXPECT_EQ(envelopeRequests(B), 1.0);
  EXPECT_EQ(scrapeRequests(B), 1.0);
  EXPECT_EQ(envelopeRequests(A), 4.0);
  EXPECT_EQ(scrapeRequests(A), 4.0);
}
