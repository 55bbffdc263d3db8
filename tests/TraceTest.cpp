//===- tests/TraceTest.cpp - Observability layer tests -------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the tracing/metrics/report stack (label: obs):
///
///  * histogram bucketing boundaries and the value-keyed determinism
///    guarantee — full counter and histogram snapshots from the same
///    pipeline are bit-identical at 1 and 8 worker threads;
///  * the span-name multiset is thread-count-deterministic too (only
///    pool.worker spans excluded — worker occupancy is schedule-dependent
///    by design), and both widths run the same "analyze" phase, so layout
///    never builds an analysis lazily;
///  * exported Chrome trace JSON and eel-report JSON parse with the strict
///    in-tree parser and are dump/parse round-trip fixpoints;
///  * with no metrics sink installed nothing is recorded anywhere; a sink
///    created where a freed one lived, or installed by a second client on
///    the same pool, sees exactly its own work;
///  * phase-tree reconstruction from interval containment, including the
///    zero-length-span sequence tiebreak;
///  * Prometheus text exposition shape and malformed-JSON rejection.
///
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "analysis/Verifier.h"
#include "core/Executable.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace eel;

namespace {

/// Everything one traced pipeline run leaves behind: its sink's snapshot
/// and the verifier's tally.
struct PipelineArtifacts : MetricsSnapshot {
  unsigned VerifierChecks = 0;
  unsigned VerifierErrors = 0;
};

/// Runs generate -> readContents -> writeEditedExecutable -> verifyEdit
/// with \p Threads workers, recording into a fresh sink.
PipelineArtifacts runTracedPipeline(unsigned Threads) {
  WorkloadOptions WOpts;
  WOpts.Seed = 11;
  WOpts.Routines = 16;
  WOpts.SwitchPercent = 35;
  WOpts.TailCallPercent = 10;
  SxfFile File = generateWorkload(TargetArch::Srisc, WOpts);

  Executable::Options EOpts;
  EOpts.Threads = Threads;
  MetricsSink Sink;
  TraceRequestScope Scope(/*Rid=*/0, &Sink);
  Executable Exec(std::move(File), EOpts);
  Expected<bool> Read = Exec.readContents();
  EXPECT_FALSE(Read.hasError());
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  EXPECT_FALSE(Edited.hasError());

  DiagnosticReport Findings;
  if (Edited.hasValue()) {
    VerifyOptions VOpts;
    VOpts.Threads = Threads;
    Findings = verifyEdit(Exec, Edited.value(), VOpts);
  }
  return {Sink.snapshot(), Findings.checksRun(), Findings.errorCount()};
}

bool isScheduleDependentSpan(const std::string &Name) {
  return Name == "pool.worker";
}

} // namespace

//===----------------------------------------------------------------------===//
// Histogram bucketing
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(histogramBucket(0), 0u);
  EXPECT_EQ(histogramBucket(1), 1u);
  EXPECT_EQ(histogramBucket(2), 2u);
  EXPECT_EQ(histogramBucket(3), 2u);
  EXPECT_EQ(histogramBucket(4), 3u);
  EXPECT_EQ(histogramBucket(7), 3u);
  EXPECT_EQ(histogramBucket(8), 4u);
  EXPECT_EQ(histogramBucket(std::numeric_limits<uint64_t>::max()), 64u);

  EXPECT_EQ(histogramBucketLe(0), 0u);
  EXPECT_EQ(histogramBucketLe(1), 1u);
  EXPECT_EQ(histogramBucketLe(2), 3u);
  EXPECT_EQ(histogramBucketLe(3), 7u);
  EXPECT_EQ(histogramBucketLe(64), std::numeric_limits<uint64_t>::max());

  // Every sample lands in the bucket whose le bound covers it.
  for (uint64_t V : {0ull, 1ull, 2ull, 5ull, 1000ull, 123456789ull}) {
    unsigned B = histogramBucket(V);
    EXPECT_LE(V, histogramBucketLe(B));
    if (B > 0) {
      EXPECT_GT(V, histogramBucketLe(B - 1));
    }
  }
}

namespace {

/// Records \p Values, \p Repeat times over, into histogram \p Name of a
/// fresh sink and returns its snapshot.
MetricsSnapshot recordHistogram(const char *Name,
                                std::initializer_list<uint64_t> Values,
                                int Repeat = 1) {
  MetricsSink Sink;
  {
    TraceRequestScope Scope(/*Rid=*/0, &Sink);
    for (int I = 0; I < Repeat; ++I)
      for (uint64_t V : Values)
        bumpHistogram(Name, V);
  }
  return Sink.snapshot();
}

} // namespace

TEST(Histogram, RecordAndQuantile) {
  MetricsSnapshot Snap =
      recordHistogram("test.hist.record", {1ull, 2ull, 3ull, 100ull});
  HistogramSnapshot H = Snap.histogram("test.hist.record");
  EXPECT_EQ(H.Count, 4u);
  EXPECT_EQ(H.Sum, 106u);
  EXPECT_EQ(H.Min, 1u);
  EXPECT_EQ(H.Max, 100u);
  // Median sample is 2 or 3, both in bucket [2,3] -> le bound 3.
  EXPECT_EQ(H.quantileUpperBound(0.5), 3u);
  // The top quantile lands in 100's bucket: [64,127] -> le bound 127.
  EXPECT_EQ(H.quantileUpperBound(1.0), 127u);
  // Absent histograms read back empty rather than failing.
  EXPECT_EQ(Snap.histogram("test.hist.absent").Count, 0u);
}

//===----------------------------------------------------------------------===//
// Thread-count determinism
//===----------------------------------------------------------------------===//

TEST(Determinism, SnapshotsIdenticalAcrossThreadCounts) {
  PipelineArtifacts Serial = runTracedPipeline(1);
  PipelineArtifacts Parallel = runTracedPipeline(8);

  // Counters: the full snapshots are bit-identical; no name is exempt.
  EXPECT_EQ(Serial.Counters, Parallel.Counters);

  // Histograms: same set of names, and every field of every snapshot
  // matches, bucket by bucket.
  const std::vector<HistogramSnapshot> &A = Serial.Histograms;
  const std::vector<HistogramSnapshot> &B = Parallel.Histograms;
  ASSERT_EQ(A.size(), B.size());
  EXPECT_GE(A.size(), 3u); // the acceptance floor: >= 3 histograms populated
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Name, B[I].Name);
    EXPECT_EQ(A[I].Count, B[I].Count) << A[I].Name;
    EXPECT_EQ(A[I].Sum, B[I].Sum) << A[I].Name;
    EXPECT_EQ(A[I].Min, B[I].Min) << A[I].Name;
    EXPECT_EQ(A[I].Max, B[I].Max) << A[I].Name;
    for (unsigned J = 0; J < HistogramBuckets; ++J)
      EXPECT_EQ(A[I].Buckets[J], B[I].Buckets[J]) << A[I].Name << " bucket "
                                                  << J;
  }

  // The verifier did the same amount of work either way.
  EXPECT_EQ(Serial.VerifierChecks, Parallel.VerifierChecks);
  EXPECT_EQ(Serial.VerifierErrors, 0u);
  EXPECT_EQ(Parallel.VerifierErrors, 0u);
}

TEST(Determinism, SpanNamesIdenticalAcrossThreadCounts) {
#ifdef EEL_TRACE_DISABLED
  GTEST_SKIP() << "spans compile out under EEL_TRACE_DISABLED";
#endif
  PipelineArtifacts Serial = runTracedPipeline(1);
  PipelineArtifacts Parallel = runTracedPipeline(8);
  ASSERT_FALSE(Serial.Spans.empty());

  auto names = [](const std::vector<TraceEvent> &Spans) {
    std::multiset<std::string> Out;
    for (const TraceEvent &Ev : Spans)
      if (!isScheduleDependentSpan(Ev.Name))
        Out.insert(Ev.Name);
    return Out;
  };
  EXPECT_EQ(names(Serial.Spans), names(Parallel.Spans));
  EXPECT_GT(names(Serial.Spans).count("analyze"), 0u);
  EXPECT_GT(names(Parallel.Spans).count("analyze"), 0u);

  // Every span is well-formed: end >= start, and nothing was dropped on a
  // workload this small.
  for (const TraceEvent &Ev : Serial.Spans)
    EXPECT_GE(Ev.EndNs, Ev.StartNs);
  EXPECT_EQ(Serial.DroppedSpans, 0u);
  EXPECT_EQ(Parallel.DroppedSpans, 0u);
}

TEST(Determinism, LayoutBuildsNoAnalysisAtAnyWidth) {
#ifdef EEL_TRACE_DISABLED
  GTEST_SKIP() << "spans compile out under EEL_TRACE_DISABLED";
#endif
  // readContents() runs the per-routine analyses at every width, so the
  // write path only reads cached CFGs, slices, and liveness: no analysis
  // span may open inside a layout_routine span, at 1 thread or at 4.
  WorkloadOptions WOpts;
  WOpts.Seed = 12;
  WOpts.Routines = 16;
  WOpts.SwitchPercent = 35;
  WOpts.TailCallPercent = 10;
  SxfFile File = generateWorkload(TargetArch::Srisc, WOpts);
  for (unsigned Threads : {1u, 4u}) {
    Executable::Options EOpts;
    EOpts.Threads = Threads;
    MetricsSink Sink;
    {
      TraceRequestScope Scope(/*Rid=*/0, &Sink);
      Executable Exec(SxfFile(File), EOpts);
      ASSERT_FALSE(Exec.readContents().hasError());
      ASSERT_FALSE(Exec.writeEditedExecutable().hasError());
    }
    std::vector<TraceEvent> Spans = Sink.snapshot().Spans;

    auto isAnalysis = [](const TraceEvent &Ev) {
      std::string_view Name = Ev.Name;
      return Name == "cfg_build" || Name == "liveness" ||
             Name == "slice.resolve_indirect";
    };
    std::vector<const TraceEvent *> Layouts;
    unsigned Analyses = 0;
    for (const TraceEvent &Ev : Spans) {
      if (std::string_view(Ev.Name) == "layout_routine")
        Layouts.push_back(&Ev);
      Analyses += isAnalysis(Ev);
    }
    ASSERT_FALSE(Layouts.empty()) << Threads << " threads";
    ASSERT_GT(Analyses, 0u) << Threads << " threads";
    for (const TraceEvent &Ev : Spans) {
      if (!isAnalysis(Ev))
        continue;
      for (const TraceEvent *L : Layouts)
        EXPECT_FALSE(L->Tid == Ev.Tid && L->StartNs <= Ev.StartNs &&
                     Ev.EndNs <= L->EndNs)
            << Ev.Name << " for routine " << Ev.Val0
            << " ran inside layout_routine at " << Threads << " threads";
    }
  }
}

//===----------------------------------------------------------------------===//
// Export formats
//===----------------------------------------------------------------------===//

TEST(Export, ChromeTraceParsesAndRoundTrips) {
#ifdef EEL_TRACE_DISABLED
  GTEST_SKIP() << "spans compile out under EEL_TRACE_DISABLED";
#endif
  PipelineArtifacts Run = runTracedPipeline(1);
  ASSERT_FALSE(Run.Spans.empty());
  std::string Text = renderChromeTrace(Run.Spans);

  Expected<JsonValue> Doc = parseJson(Text);
  ASSERT_FALSE(Doc.hasError()) << Doc.error().message();
  ASSERT_TRUE(Doc.value().isObject());
  const JsonValue *Events = Doc.value().find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  EXPECT_EQ(Events->Arr.size(), Run.Spans.size());
  for (const JsonValue &Ev : Events->Arr) {
    ASSERT_TRUE(Ev.isObject());
    EXPECT_NE(Ev.find("name"), nullptr);
    ASSERT_NE(Ev.find("ph"), nullptr);
    EXPECT_EQ(Ev.find("ph")->Str, "X");
    EXPECT_NE(Ev.find("ts"), nullptr);
    EXPECT_NE(Ev.find("dur"), nullptr);
    EXPECT_NE(Ev.find("tid"), nullptr);
  }

  // Canonical dump is a parse/dump fixpoint.
  std::string Dump = dumpJson(Doc.value());
  Expected<JsonValue> Again = parseJson(Dump);
  ASSERT_FALSE(Again.hasError());
  EXPECT_EQ(dumpJson(Again.value()), Dump);
}

TEST(Export, RunReportParsesAndRoundTrips) {
  PipelineArtifacts Run = runTracedPipeline(1);

  RunReport Report("trace-test");
  Report.addInput("<generated>", 0x1234, 99);
  Report.addOption("threads", uint64_t(1));
  Report.capture(Run);
  std::string Text = Report.renderJson();

  Expected<JsonValue> Doc = parseJson(Text);
  ASSERT_FALSE(Doc.hasError()) << Doc.error().message();
  const JsonValue &Root = Doc.value();
  ASSERT_TRUE(Root.isObject());
  ASSERT_NE(Root.find("schema"), nullptr);
  EXPECT_EQ(Root.find("schema")->Str, "eel-report/1");
  EXPECT_EQ(Root.find("tool")->Str, "trace-test");

  // The phase tree covers both halves of the pipeline at top level.
  const JsonValue *Phases = Root.find("phases");
  ASSERT_NE(Phases, nullptr);
  ASSERT_TRUE(Phases->isArray());
#ifndef EEL_TRACE_DISABLED
  std::set<std::string> TopLevel;
  for (const JsonValue &P : Phases->Arr)
    TopLevel.insert(P.find("name")->Str);
  EXPECT_TRUE(TopLevel.count("readContents"));
  EXPECT_TRUE(TopLevel.count("writeEditedExecutable"));
#endif

  const JsonValue *Hists = Root.find("histograms");
  ASSERT_NE(Hists, nullptr);
  EXPECT_GE(Hists->Arr.size(), 3u);

  std::string Dump = dumpJson(Root);
  Expected<JsonValue> Again = parseJson(Dump);
  ASSERT_FALSE(Again.hasError());
  EXPECT_EQ(dumpJson(Again.value()), Dump);
}

TEST(Export, PrometheusTextFormat) {
  MetricsSink Sink;
  {
    TraceRequestScope Scope(/*Rid=*/0, &Sink);
    bumpStat("test.prom.counter", 7);
    bumpHistogram("test.prom.hist", 5); // bucket [4,7], le bound 7
  }

  MetricsSnapshot Snap = Sink.snapshot();
  std::string Text = metricsPrometheus(Snap.Counters, Snap.Histograms);
  EXPECT_NE(Text.find("test_prom_counter 7"), std::string::npos);
  EXPECT_NE(Text.find("test_prom_hist_bucket{le=\"7\"} 1"), std::string::npos);
  EXPECT_NE(Text.find("test_prom_hist_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("test_prom_hist_sum 5"), std::string::npos);
  EXPECT_NE(Text.find("test_prom_hist_count 1"), std::string::npos);
  // Exactly one +Inf series per histogram (the bucket-64 dedup).
  size_t First = Text.find("le=\"+Inf\"");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Text.find("le=\"+Inf\"", First + 1), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Disabled mode
//===----------------------------------------------------------------------===//

TEST(Disabled, RecordsNothingAndCreatesNoRings) {
  // With no sink installed, spans and bumps are recorded nowhere: there is
  // no process-wide store to land in.
  ASSERT_EQ(requestSink(), nullptr);
  std::string Routine = "some_routine";
  for (int I = 0; I < 10000; ++I) {
    EEL_TRACE_SCOPE("test.disabled", "routine", Routine);
    bumpStat("test.disabled");
    bumpHistogram("test.disabled", uint64_t(I));
  }

  // A sink installed afterwards holds only what ran under its scope.
  MetricsSink Sink;
  {
    TraceRequestScope Scope(/*Rid=*/0, &Sink);
    EXPECT_EQ(requestSink(), &Sink);
    EEL_TRACE_SCOPE("test.enabled", "routine", Routine);
  }
  EXPECT_EQ(requestSink(), nullptr);
  MetricsSnapshot Snap = Sink.snapshot();
  EXPECT_TRUE(Snap.Counters.empty());
  EXPECT_TRUE(Snap.Histograms.empty());
#ifdef EEL_TRACE_DISABLED
  EXPECT_TRUE(Snap.Spans.empty());
#else
  ASSERT_EQ(Snap.Spans.size(), 1u);
  EXPECT_STREQ(Snap.Spans[0].Name, "test.enabled");
#endif
}

//===----------------------------------------------------------------------===//
// Sinks on shared pool threads
//===----------------------------------------------------------------------===//

namespace {

[[maybe_unused]] size_t spansNamed(const MetricsSnapshot &Snap,
                                   std::string_view Name) {
  return std::count_if(Snap.Spans.begin(), Snap.Spans.end(),
                       [Name](const TraceEvent &Ev) { return Ev.Name == Name; });
}

} // namespace

TEST(Sink, FreshSinkEachRoundOnTheSamePoolThreads) {
  // Each round's sink lives in the same stack slot, so it is created at
  // the address of the one freed the round before, and the pool threads
  // that record into it still cache the old one: a cache keyed by address
  // would send this round's work to the freed sink.
  for (int Round = 0; Round < 200; ++Round) {
    MetricsSink Sink;
    {
      TraceRequestScope Scope(uint64_t(Round + 1), &Sink);
      parallelForEach(4, 64, [](size_t) {
        EEL_TRACE_SCOPE("test.round_body");
        bumpStat("test.round_bumps");
      });
    }
    MetricsSnapshot Snap = Sink.snapshot();
    ASSERT_EQ(Snap.counter("test.round_bumps"), 64u) << "round " << Round;
#ifndef EEL_TRACE_DISABLED
    ASSERT_EQ(spansNamed(Snap, "test.round_body"), 64u) << "round " << Round;
#endif
  }
}

TEST(Sink, ConcurrentClientsSeeOnlyTheirOwnWork) {
  // Two client threads, each with its own sink, fan out over the one
  // shared pool at the same time, so pool workers switch between the
  // sinks from task to task.
  constexpr int Reps = 20;
  const char *const Names[2] = {"test.client0", "test.client1"};
  MetricsSink Sinks[2];
  std::atomic<int> Started{0};
  auto Client = [&](int C) {
    TraceRequestScope Scope(uint64_t(C + 1), &Sinks[C]);
    Started.fetch_add(1);
    while (Started.load() < 2)
      std::this_thread::yield();
    for (int Rep = 0; Rep < Reps; ++Rep)
      parallelForEach(4, 64, [&, C](size_t) {
        EEL_TRACE_SCOPE(Names[C]);
        bumpStat(Names[C]);
        bumpHistogram("test.client", uint64_t(C));
      });
  };
  std::thread A(Client, 0), B(Client, 1);
  A.join();
  B.join();

  for (int C = 0; C < 2; ++C) {
    SCOPED_TRACE(Names[C]);
    MetricsSnapshot Snap = Sinks[C].snapshot();
    EXPECT_EQ(Snap.counter(Names[C]), uint64_t(Reps * 64));
    EXPECT_EQ(Snap.counter(Names[1 - C]), 0u);
    HistogramSnapshot H = Snap.histogram("test.client");
    EXPECT_EQ(H.Count, uint64_t(Reps * 64));
    EXPECT_EQ(H.Min, uint64_t(C));
    EXPECT_EQ(H.Max, uint64_t(C));
#ifndef EEL_TRACE_DISABLED
    EXPECT_EQ(spansNamed(Snap, Names[C]), size_t(Reps * 64));
    EXPECT_EQ(spansNamed(Snap, Names[1 - C]), 0u);
    // A worker that switched sinks kept one push order per sink.
    std::set<std::pair<uint32_t, uint64_t>> Keys;
    for (const TraceEvent &Ev : Snap.Spans) {
      EXPECT_EQ(Ev.RequestId, uint64_t(C + 1));
      Keys.emplace(Ev.Tid, Ev.Seq);
    }
    EXPECT_EQ(Keys.size(), Snap.Spans.size());
#endif
  }
}

//===----------------------------------------------------------------------===//
// Phase-tree reconstruction
//===----------------------------------------------------------------------===//

namespace {
TraceEvent mkSpan(const char *Name, uint64_t Start, uint64_t End, uint32_t Tid,
                  uint64_t Seq) {
  TraceEvent Ev;
  Ev.Name = Name;
  Ev.StartNs = Start;
  Ev.EndNs = End;
  Ev.Tid = Tid;
  Ev.Seq = Seq;
  return Ev;
}
} // namespace

TEST(PhaseTree, NestsByContainmentAndAggregatesByName) {
  // Rings record at completion, so children precede their parent.
  std::vector<TraceEvent> Events;
  Events.push_back(mkSpan("child", 10, 20, 0, 0));
  Events.push_back(mkSpan("child", 30, 40, 0, 1));
  Events.push_back(mkSpan("other", 50, 60, 0, 2));
  Events.push_back(mkSpan("parent", 0, 100, 0, 3));
  Events.push_back(mkSpan("sibling", 200, 230, 0, 4));

  std::vector<PhaseNode> Tree = buildPhaseTree(Events);
  ASSERT_EQ(Tree.size(), 2u); // siblings sorted by name
  EXPECT_EQ(Tree[0].Name, "parent");
  EXPECT_EQ(Tree[0].TotalNs, 100u);
  EXPECT_EQ(Tree[0].Count, 1u);
  EXPECT_EQ(Tree[1].Name, "sibling");

  ASSERT_EQ(Tree[0].Children.size(), 2u);
  EXPECT_EQ(Tree[0].Children[0].Name, "child"); // two spans merged
  EXPECT_EQ(Tree[0].Children[0].Count, 2u);
  EXPECT_EQ(Tree[0].Children[0].TotalNs, 20u);
  EXPECT_EQ(Tree[0].Children[1].Name, "other");
  EXPECT_EQ(Tree[0].Children[1].Count, 1u);
}

TEST(PhaseTree, ZeroLengthSpansNestByCompletionOrder) {
  // Both spans are [5,5]; the parent completed after the child, so its
  // sequence number is higher and it must come out on top.
  std::vector<TraceEvent> Events;
  Events.push_back(mkSpan("inner", 5, 5, 0, 0));
  Events.push_back(mkSpan("outer", 5, 5, 0, 1));
  std::vector<PhaseNode> Tree = buildPhaseTree(Events);
  ASSERT_EQ(Tree.size(), 1u);
  EXPECT_EQ(Tree[0].Name, "outer");
  ASSERT_EQ(Tree[0].Children.size(), 1u);
  EXPECT_EQ(Tree[0].Children[0].Name, "inner");
}

TEST(PhaseTree, ThreadsDoNotNestAcrossEachOther) {
  // Identical intervals on different threads are independent roots.
  std::vector<TraceEvent> Events;
  Events.push_back(mkSpan("a", 0, 100, 0, 0));
  Events.push_back(mkSpan("b", 10, 20, 1, 0));
  std::vector<PhaseNode> Tree = buildPhaseTree(Events);
  ASSERT_EQ(Tree.size(), 2u);
  EXPECT_TRUE(Tree[0].Children.empty());
  EXPECT_TRUE(Tree[1].Children.empty());
}

//===----------------------------------------------------------------------===//
// JSON parser strictness
//===----------------------------------------------------------------------===//

TEST(Json, RejectsMalformedDocuments) {
  for (const char *Bad :
       {"", "{", "[1,2", "{\"a\":1,}", "{} trailing", "nul", "{\"a\" 1}",
        "\"unterminated", "{\"a\":01}", "[1 2]", "{1: 2}"}) {
    EXPECT_TRUE(parseJson(Bad).hasError()) << "accepted: " << Bad;
  }
}

//===----------------------------------------------------------------------===//
// Histogram quantile interpolation
//===----------------------------------------------------------------------===//

TEST(HistogramQuantile, EmptyAndZeroSamples) {
  HistogramSnapshot Empty;
  EXPECT_EQ(Empty.quantile(0.5), 0.0);
  EXPECT_EQ(Empty.quantile(0.99), 0.0);

  HistogramSnapshot H =
      recordHistogram("test.q.zeros", {0}, 5).histogram("test.q.zeros");
  // The zero bucket holds only exact zeros; no interpolation applies.
  EXPECT_EQ(H.quantile(0.5), 0.0);
  EXPECT_EQ(H.quantile(1.0), 0.0);
}

TEST(HistogramQuantile, SingleValueReportsItself) {
  // The min/max clamp makes a degenerate histogram exact: every quantile
  // of 100 identical samples is the sample, not a bucket midpoint.
  HistogramSnapshot H =
      recordHistogram("test.q.single", {10}, 100).histogram("test.q.single");
  for (double Q : {0.0, 0.25, 0.5, 0.99, 1.0})
    EXPECT_EQ(H.quantile(Q), 10.0) << "q=" << Q;

  // A lone sample near its bucket's low edge clamps to the observed max.
  HistogramSnapshot L = // bucket [64,127]
      recordHistogram("test.q.lone", {65}).histogram("test.q.lone");
  EXPECT_EQ(L.quantile(1.0), 65.0);
}

TEST(HistogramQuantile, InterpolatesDeterministically) {
  // 50 samples of 1 (bucket le=1) and 50 of 100 (bucket [64,127]): the
  // 25th percentile sits in the first bucket exactly, the 75th a known
  // fraction into the second.
  HistogramSnapshot H =
      recordHistogram("test.q.two", {1, 100}, 50).histogram("test.q.two");
  EXPECT_EQ(H.quantile(0.25), 1.0);
  // Rank 75: 25 of the 50 samples into [64,127] -> 64 + 63 * 0.5 = 95.5.
  EXPECT_DOUBLE_EQ(H.quantile(0.75), 95.5);

  // Monotone in Q, and always inside [Min, Max].
  double Prev = 0.0;
  for (double Q = 0.0; Q <= 1.0; Q += 0.05) {
    double V = H.quantile(Q);
    EXPECT_GE(V, Prev) << "q=" << Q;
    EXPECT_GE(V, static_cast<double>(H.Min));
    EXPECT_LE(V, static_cast<double>(H.Max));
    Prev = V;
  }
}

TEST(HistogramQuantile, AtomicHistogramMatchesRegistry) {
  // AtomicHistogram (the serve scrape path) and a sink's sharded
  // histograms are two recorders of the same distribution; their
  // snapshots must agree.
  AtomicHistogram A;
  for (uint64_t V : {1ull, 2ull, 3ull, 100ull, 250ull, 4096ull})
    A.record(V);
  HistogramSnapshot R =
      recordHistogram("test.q.pair", {1, 2, 3, 100, 250, 4096})
          .histogram("test.q.pair");
  HistogramSnapshot S = A.snapshot("test.q.pair");
  EXPECT_EQ(S.Count, R.Count);
  EXPECT_EQ(S.Sum, R.Sum);
  EXPECT_EQ(S.Min, R.Min);
  EXPECT_EQ(S.Max, R.Max);
  for (unsigned I = 0; I < HistogramBuckets; ++I)
    EXPECT_EQ(S.Buckets[I], R.Buckets[I]) << "bucket " << I;
  EXPECT_EQ(S.quantile(0.5), R.quantile(0.5));
  EXPECT_EQ(S.quantile(0.99), R.quantile(0.99));
}

//===----------------------------------------------------------------------===//
// Structured logging
//===----------------------------------------------------------------------===//

namespace {

/// Restores the global logging state however a test exits.
struct LogStateGuard {
  ~LogStateGuard() {
    Logger::instance().flushAll();
    Logger::instance().useStderr();
    Logger::instance().setRateLimit(0);
    Logger::instance().resetCounts();
    logSetLevel(LogLevel::Off);
  }
};

std::vector<std::string> readLogLines(const std::string &Path) {
  Logger::instance().flushAll();
  std::vector<std::string> Lines;
  Expected<std::vector<uint8_t>> Bytes = readFileBytes(Path);
  if (!Bytes.hasValue())
    return Lines;
  std::string Text(Bytes.value().begin(), Bytes.value().end());
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Text.size();
    if (Nl > Pos)
      Lines.push_back(Text.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  return Lines;
}

std::string logTestPath(const char *Name) {
  return ::testing::TempDir() + "eel-log-test-" + Name + ".jsonl";
}

} // namespace

TEST(Log, LevelGateFiltersRecords) {
  LogStateGuard Guard;
  std::string Path = logTestPath("gate");
  std::remove(Path.c_str());
  ASSERT_TRUE(Logger::instance().setPath(Path));
  Logger::instance().resetCounts();

  logSetLevel(LogLevel::Warn);
  for (int I = 0; I < 100; ++I)
    EEL_LOG(LogLevel::Debug, "test.below", logNum("i", uint64_t(I)));
  EXPECT_EQ(Logger::instance().emittedCount(), 0u)
      << "records below the threshold must not even be formatted";
  EEL_LOG(LogLevel::Error, "test.above");
  EXPECT_EQ(Logger::instance().emittedCount(), 1u);

  // Off disables everything, including Error.
  logSetLevel(LogLevel::Off);
  EEL_LOG(LogLevel::Error, "test.off");
  EXPECT_EQ(Logger::instance().emittedCount(), 1u);

  std::vector<std::string> Lines = readLogLines(Path);
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_NE(Lines[0].find("test.above"), std::string::npos);
}

TEST(Log, LinesAreStrictJsonlWithPrelude) {
  LogStateGuard Guard;
  std::string Path = logTestPath("jsonl");
  std::remove(Path.c_str());
  ASSERT_TRUE(Logger::instance().setPath(Path));
  logSetLevel(LogLevel::Info);

  EEL_LOG(LogLevel::Info, "test.fields", logStr("tool", "qpt:all"),
          logNum("latency_us", 1234));
  EEL_LOG(LogLevel::Warn, "test.escape",
          logStr("msg", "quote \" backslash \\ newline \n tab \t"));

  std::vector<std::string> Lines = readLogLines(Path);
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &Line : Lines) {
    Expected<JsonValue> Doc = parseJson(Line);
    ASSERT_TRUE(Doc.hasValue()) << Line;
    ASSERT_TRUE(Doc.value().isObject());
    EXPECT_NE(Doc.value().find("ts_ms"), nullptr);
    EXPECT_NE(Doc.value().find("level"), nullptr);
    EXPECT_NE(Doc.value().find("event"), nullptr);
    EXPECT_NE(Doc.value().find("tid"), nullptr);
  }
  Expected<JsonValue> First = parseJson(Lines[0]);
  EXPECT_EQ(First.value().find("event")->Str, "test.fields");
  EXPECT_EQ(First.value().find("tool")->Str, "qpt:all");
  EXPECT_EQ(First.value().find("latency_us")->asNumber(), 1234.0);
  Expected<JsonValue> Second = parseJson(Lines[1]);
  EXPECT_EQ(Second.value().find("msg")->Str,
            "quote \" backslash \\ newline \n tab \t");
}

TEST(Log, RateLimitCountsAndDisclosesDrops) {
  LogStateGuard Guard;
  std::string Path = logTestPath("rate");
  std::remove(Path.c_str());
  ASSERT_TRUE(Logger::instance().setPath(Path));
  Logger::instance().resetCounts();
  logSetLevel(LogLevel::Info);
  Logger::instance().setRateLimit(2);

  for (int I = 0; I < 10; ++I)
    EEL_LOG(LogLevel::Info, "test.flood", logNum("i", uint64_t(I)));
  // 10 writes against a 2/sec window: at most two windows were touched,
  // so at least 6 were dropped — and the count is monotonic.
  EXPECT_GE(Logger::instance().droppedCount(), 6u);
  EXPECT_LE(Logger::instance().emittedCount(), 4u);

  // The next admitted record (new window) is preceded by an in-stream
  // log.rate_limited disclosure carrying the suppressed count.
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  EEL_LOG(LogLevel::Info, "test.after_window");
  std::vector<std::string> Lines = readLogLines(Path);
  bool SawDisclosure = false;
  for (const std::string &Line : Lines) {
    Expected<JsonValue> Doc = parseJson(Line);
    ASSERT_TRUE(Doc.hasValue()) << Line;
    if (Doc.value().find("event")->Str == "log.rate_limited") {
      SawDisclosure = true;
      EXPECT_GE(Doc.value().find("dropped")->asNumber(), 6.0);
    }
  }
  EXPECT_TRUE(SawDisclosure);
}

TEST(Log, RequestIdStampedFromTraceScope) {
  LogStateGuard Guard;
  std::string Path = logTestPath("rid");
  std::remove(Path.c_str());
  ASSERT_TRUE(Logger::instance().setPath(Path));
  logSetLevel(LogLevel::Info);

  EEL_LOG(LogLevel::Info, "test.no_rid");
  {
    TraceRequestScope Scope(0xbeef);
    EEL_LOG(LogLevel::Info, "test.with_rid");
  }
  EEL_LOG(LogLevel::Info, "test.after_scope");

  std::vector<std::string> Lines = readLogLines(Path);
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_EQ(parseJson(Lines[0]).value().find("request_id"), nullptr);
  JsonValue WithRid = parseJson(Lines[1]).takeValue();
  const JsonValue *Rid = WithRid.find("request_id");
  ASSERT_NE(Rid, nullptr);
  EXPECT_EQ(Rid->asNumber(), double(0xbeef));
  EXPECT_EQ(parseJson(Lines[2]).value().find("request_id"), nullptr);
}

TEST(Log, RecordsKeepWriteOrderAcrossThreads) {
  // Thread A's Info record is buffered when thread B's Warn flushes: the
  // flush writes both, in the order they were written. Each line's tid is
  // its writer's traceThreadId(), the id its spans carry.
  LogStateGuard Guard;
  std::string Path = logTestPath("order");
  std::remove(Path.c_str());
  ASSERT_TRUE(Logger::instance().setPath(Path));
  logSetLevel(LogLevel::Info);

  uint32_t TidA = 0, TidB = 0;
  std::thread A([&] {
    TidA = traceThreadId();
    EEL_LOG(LogLevel::Info, "test.order_a");
  });
  A.join();
  std::thread B([&] {
    TidB = traceThreadId();
    EEL_LOG(LogLevel::Warn, "test.order_b");
  });
  B.join();
  Logger::instance().flushAll();

  std::vector<std::string> Lines = readLogLines(Path);
  ASSERT_EQ(Lines.size(), 2u);
  JsonValue First = parseJson(Lines[0]).takeValue();
  JsonValue Second = parseJson(Lines[1]).takeValue();
  EXPECT_EQ(First.find("event")->Str, "test.order_a");
  EXPECT_EQ(Second.find("event")->Str, "test.order_b");
  EXPECT_NE(TidA, TidB);
  EXPECT_EQ(First.find("tid")->asNumber(), double(TidA));
  EXPECT_EQ(Second.find("tid")->asNumber(), double(TidB));
}

//===----------------------------------------------------------------------===//
// Request-id propagation through spans
//===----------------------------------------------------------------------===//

TEST(RequestId, PropagatesThroughParallelForEach) {
#ifdef EEL_TRACE_DISABLED
  GTEST_SKIP() << "spans compile out under EEL_TRACE_DISABLED";
#endif
  // A request id set on the submitting thread must reach spans recorded
  // by pool helper threads — that is what makes slow-request exemplars
  // complete for multi-threaded edits.
  MetricsSink Sink;
  {
    TraceRequestScope Scope(4242, &Sink);
    parallelForEach(4, 32, [](size_t) {
      EEL_TRACE_SCOPE("test.rid_body");
    });
  }

  unsigned Bodies = 0;
  for (const TraceEvent &Ev : Sink.snapshot().Spans)
    if (std::string(Ev.Name) == "test.rid_body") {
      ++Bodies;
      EXPECT_EQ(Ev.RequestId, 4242u) << "span lost its request id";
    }
  EXPECT_EQ(Bodies, 32u);

  // Under a scope without an id, spans carry none.
  MetricsSink NoId;
  {
    TraceRequestScope Scope(/*Rid=*/0, &NoId);
    EEL_TRACE_SCOPE("test.rid_none");
  }
  std::vector<TraceEvent> Spans = NoId.snapshot().Spans;
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].RequestId, 0u);
}

TEST(Json, AcceptsAndRoundTripsValidDocuments) {
  for (const char *Good :
       {"{}", "[]", "null", "true", "-1.5e3", "\"s\\u00e9q\"",
        "{\"a\": [1, 2.5, \"x\", null, true], \"b\": {\"c\": []}}"}) {
    Expected<JsonValue> Doc = parseJson(Good);
    ASSERT_FALSE(Doc.hasError()) << Good << ": " << Doc.error().message();
    std::string Dump = dumpJson(Doc.value());
    Expected<JsonValue> Again = parseJson(Dump);
    ASSERT_FALSE(Again.hasError()) << Dump;
    EXPECT_EQ(dumpJson(Again.value()), Dump) << Good;
  }
}
