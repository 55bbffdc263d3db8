//===- tests/ParallelTest.cpp - Parallel pipeline determinism tests ---------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel editing pipeline's contract is bit-identical output: for any
/// Threads setting, the edited image and the full statistics snapshot must
/// equal what Threads = 1 (the same schedule, run inline) produces. These
/// tests run the full pipeline — readContents, deterministic edits, and
/// writeEditedExecutable — at Threads = 1 and Threads = 8 over SRISC, MRISC
/// and ARISC workloads, including the DisableSlicing / DisableDelayFolding
/// ablations, and compare byte-for-byte; one case also compares the
/// routine maps of multi-chunk images at Threads = 1, 2 and 8, and another
/// checks the decode table of the same images at those widths. Also
/// unit-tests the thread pool's parallelForEach (exactly-once coverage,
/// nesting), and builds the three targets from three threads at once.
///
/// Registered under the ctest label `par` so a -DEEL_SANITIZE=thread build
/// can run just these under TSan: `ctest -L par`.
///
//===----------------------------------------------------------------------===//

#include "core/Executable.h"
#include "support/BitOps.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "tools/Qpt.h"
#include "vm/Machine.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace eel;

namespace {

// --- ThreadPool unit tests --------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t N = 1000;
  std::vector<std::atomic<unsigned>> Hits(N);
  parallelForEach(8, N, [&Hits](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPoolTest, ChunkedClaimsCoverEveryIndexOnce) {
  // Participants claim chunks of N / (32 * participants) indices: sizes
  // around the points where a chunk grows from one index to two, and one
  // whose chunks do not divide it, at several widths.
  for (unsigned Threads : {2u, 3u, 4u, 8u})
    for (size_t N : {size_t(1), size_t(2), size_t(63), size_t(64),
                     size_t(65), size_t(127), size_t(128), size_t(129),
                     size_t(256), size_t(257), size_t(10007)}) {
      SCOPED_TRACE(testing::Message() << "threads " << Threads << ", n " << N);
      std::vector<std::atomic<unsigned>> Hits(N);
      parallelForEach(Threads, N, [&Hits](size_t I) {
        Hits[I].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t I = 0; I < N; ++I)
        ASSERT_EQ(Hits[I].load(), 1u) << "index " << I;
    }
}

TEST(ThreadPoolTest, FanOutNestedInsideAChunk) {
  // Every outer index of a chunk runs an inner fan-out before the chunk's
  // next index starts: the claiming participant helps the inner one along
  // and then resumes its chunk.
  constexpr size_t Outer = 300, Inner = 129;
  std::vector<std::atomic<unsigned>> Hits(Outer * Inner);
  parallelForEach(4, Outer, [&Hits](size_t O) {
    parallelForEach(3, Inner, [&Hits, O](size_t I) {
      Hits[O * Inner + I].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t I = 0; I < Hits.size(); ++I)
    ASSERT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPoolTest, SerialPathRunsInIndexOrder) {
  std::vector<size_t> Order;
  parallelForEach(1, 16, [&Order](size_t I) { Order.push_back(I); });
  ASSERT_EQ(Order.size(), 16u);
  for (size_t I = 0; I < Order.size(); ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPoolTest, NestedFanOutCompletes) {
  // A body that itself calls parallelForEach must not deadlock: blocked
  // callers help execute pool tasks.
  constexpr size_t Outer = 6, Inner = 40;
  std::atomic<unsigned> Total{0};
  parallelForEach(4, Outer, [&Total](size_t) {
    parallelForEach(4, Inner, [&Total](size_t) {
      Total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(Total.load(), Outer * Inner);
}

TEST(ThreadPoolTest, SaturatedSubmitNeverRunsInlineAndTrySubmitRejects) {
  // Regression test for the eel-serve overflow hazard: with the queue
  // saturated, submit() used to be allowed to fall back to running the
  // task inline on the submitter, letting a request handler re-enter the
  // pipeline on its own stack. The contract now is: trySubmit() rejects,
  // and blocking submit() enqueues only — no submitted task may ever
  // execute on the submitting thread (which never helps the pool).
  ThreadPool Pool(2);
  Pool.setQueueCapacity(4);

  std::atomic<bool> Gate{false};
  std::atomic<unsigned> Blocked{0};
  // Park both workers so nothing drains while we saturate the queue.
  for (int I = 0; I < 2; ++I)
    Pool.submit([&Gate, &Blocked] {
      Blocked.fetch_add(1);
      while (!Gate.load(std::memory_order_acquire))
        std::this_thread::yield();
    });
  while (Blocked.load() < 2)
    std::this_thread::yield();

  const std::thread::id Submitter = std::this_thread::get_id();
  std::atomic<bool> RanOnSubmitter{false};
  std::atomic<unsigned> Ran{0};
  auto Work = [&RanOnSubmitter, &Ran, Submitter] {
    if (std::this_thread::get_id() == Submitter)
      RanOnSubmitter.store(true);
    Ran.fetch_add(1);
  };

  unsigned Accepted = 0;
  bool SawRejection = false;
  for (int I = 0; I < 64; ++I) {
    if (Pool.trySubmit(Work))
      ++Accepted;
    else
      SawRejection = true;
  }
  EXPECT_TRUE(SawRejection) << "saturated trySubmit must reject";
  EXPECT_GE(Accepted, 2u); // capacity minus the two parked tasks
  EXPECT_FALSE(RanOnSubmitter.load())
      << "trySubmit executed a task inline on the submitter";

  Gate.store(true, std::memory_order_release);
  while (Ran.load() < Accepted)
    std::this_thread::yield();
  EXPECT_EQ(Ran.load(), Accepted); // every accepted task ran exactly once
  EXPECT_FALSE(RanOnSubmitter.load())
      << "a pool task ran on the submitting thread";
}

TEST(ThreadPoolTest, NestedSubmitFromSaturatedPoolTaskCompletes) {
  // A task already running on the pool must be able to submit past the
  // capacity bound without blocking or running inline: blocking every
  // worker in submit() would leave nobody to drain the queue (the
  // nested-submit deadlock the bounded path must not introduce).
  ThreadPool Pool(2);
  Pool.setQueueCapacity(1);
  std::atomic<unsigned> Done{0};
  constexpr unsigned Outer = 4, Inner = 8;
  for (unsigned I = 0; I < Outer; ++I)
    Pool.submit([&Pool, &Done] {
      for (unsigned J = 0; J < Inner; ++J)
        Pool.submit([&Done] { Done.fetch_add(1); });
    });
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Done.load() < Outer * Inner) {
    ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
        << "nested submits deadlocked under saturation";
    std::this_thread::yield();
  }
  EXPECT_EQ(Done.load(), Outer * Inner);
}

TEST(ThreadPoolTest, TrySubmitRejectsOnWorkerlessPool) {
  // With no workers the only way to run a task is inline on the caller —
  // the exact hazard trySubmit exists to avoid — so it must reject.
  ThreadPool Pool(0);
  bool Ran = false;
  EXPECT_FALSE(Pool.trySubmit([&Ran] { Ran = true; }));
  EXPECT_FALSE(Ran);
}

TEST(ThreadPoolTest, PendingCountNeverWrapsUnderClosedLoopSubmits) {
  // A task must be counted before any worker can take it: counted after
  // the push, a worker could run and finish it first, and the decrement
  // would wrap the count to SIZE_MAX, so every trySubmit until the late
  // increment landed saw a saturated queue. Each submitter keeps one tiny
  // task outstanding and submits the next as soon as it has run; a task
  // signals before its own decrement, so at most two per submitter are
  // ever counted, far below the capacity.
  constexpr unsigned Submitters = 4, PerSubmitter = 20000;
  constexpr size_t Bound = 2 * Submitters;
  ThreadPool Pool(3);
  Pool.setQueueCapacity(64 * Bound);

  std::atomic<bool> Stop{false};
  std::atomic<size_t> MaxSeen{0};
  std::thread Watcher([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      size_t P = Pool.pendingTasks();
      if (P > MaxSeen.load(std::memory_order_relaxed))
        MaxSeen.store(P, std::memory_order_relaxed);
    }
  });

  std::atomic<unsigned> Rejected{0};
  std::vector<std::thread> Threads;
  for (unsigned S = 0; S < Submitters; ++S)
    Threads.emplace_back([&] {
      for (unsigned I = 0; I < PerSubmitter; ++I) {
        auto Done = std::make_shared<std::atomic<bool>>(false);
        if (!Pool.trySubmit(
                [Done] { Done->store(true, std::memory_order_release); })) {
          Rejected.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        while (!Done->load(std::memory_order_acquire))
          std::this_thread::yield();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Stop.store(true, std::memory_order_release);
  Watcher.join();

  EXPECT_EQ(Rejected.load(), 0u)
      << "trySubmit rejected with at most " << Bound << " tasks outstanding";
  EXPECT_LE(MaxSeen.load(), Bound) << "pendingTasks() read " << MaxSeen.load();
}

TEST(ThreadPoolTest, ShardedStatsMergeAcrossThreads) {
  MetricsSink Sink;
  constexpr size_t N = 500;
  {
    TraceRequestScope Scope(/*Rid=*/0, &Sink);
    parallelForEach(8, N, [](size_t) { bumpStat("test.parallel_bumps"); });
  }
  EXPECT_EQ(Sink.snapshot().counter("test.parallel_bumps"), N);
}

// --- Pipeline determinism ---------------------------------------------------------

/// What §3.1 refinement decided about one routine.
struct RoutineFacts {
  std::string Name;
  Addr Lo = 0, Hi = 0;
  std::vector<Addr> Entries;
  bool Hidden = false, Data = false;
  bool operator==(const RoutineFacts &) const = default;
};

/// Everything the pipeline produces that must be schedule-independent.
struct PipelineResult {
  std::vector<uint8_t> Bytes; ///< Serialized edited image.
  Executable::EditStats Stats;
  std::vector<std::pair<std::string, uint64_t>> Counters; ///< Full snapshot.
  std::vector<HistogramSnapshot> Histograms;                 ///< Likewise.
  std::vector<RoutineFacts> Routines; ///< The routine map, in order.
  size_t TextWords = 0;
  SxfFile EditedFile;
  SxfFile OriginalFile;
};

/// Runs the full pipeline on \p Original at the given thread count:
/// analyze, apply a deterministic edit to every supported routine (a
/// counter bump before its first instruction), and write the edited
/// executable.
PipelineResult runPipeline(SxfFile Original, Executable::Options EOpts,
                           unsigned Threads) {
  EOpts.Threads = Threads;
  MetricsSink Sink;
  TraceRequestScope Scope(/*Rid=*/0, &Sink);

  PipelineResult Result;
  Result.OriginalFile = std::move(Original);
  Executable Exec(Result.OriginalFile, EOpts);
  Exec.readContents();
  const Analysis &An = Exec.analysis();
  Result.TextWords = (An.textEnd() - An.textBase()) / 4;
  for (const auto &R : Exec.routines())
    Result.Routines.push_back({R->name(), R->startAddr(), R->endAddr(),
                               R->entryPoints(), R->hidden(), R->isData()});

  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    if (G->unsupported() || !G->complete())
      continue;
    BasicBlock *First = nullptr;
    for (const auto &B : G->blocks())
      if (B->kind() == BlockKind::Normal && !B->insts().empty()) {
        First = B;
        break;
      }
    if (!First)
      continue;
    Addr Counter = Exec.appendData(4, 4);
    std::vector<MachWord> Body;
    const unsigned RegA = 1, RegB = 2;
    const TargetInfo &T = Exec.target();
    T.emitLoadConst(RegA, Counter, Body);
    T.emitLoadWord(RegB, RegA, 0, Body);
    T.emitAddImm(RegB, RegB, 1, Body);
    T.emitStoreWord(RegB, RegA, 0, Body);
    Exec.addCodeBefore(
        First, 0, std::make_shared<CodeSnippet>(Body, RegSet{RegA, RegB}));
  }

  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  EXPECT_FALSE(Edited.hasError())
      << (Edited.hasError() ? Edited.error().message() : "");
  if (Edited.hasError())
    return Result;
  Result.EditedFile = Edited.takeValue();
  Result.Bytes = Result.EditedFile.serialize();
  Result.Stats = Exec.editStats();
  MetricsSnapshot Snap = Sink.snapshot();
  Result.Counters = std::move(Snap.Counters);
  Result.Histograms = std::move(Snap.Histograms);
  return Result;
}

PipelineResult runPipeline(TargetArch Arch, const WorkloadOptions &WOpts,
                           Executable::Options EOpts, unsigned Threads) {
  return runPipeline(generateWorkload(Arch, WOpts), EOpts, Threads);
}

void expectIdentical(const PipelineResult &Serial,
                     const PipelineResult &Parallel) {
  EXPECT_TRUE(Serial.Routines == Parallel.Routines) << "routine maps differ";
  EXPECT_EQ(Serial.Bytes, Parallel.Bytes) << "edited images differ";

  const Executable::EditStats &A = Serial.Stats, &B = Parallel.Stats;
  EXPECT_EQ(A.RoutinesEdited, B.RoutinesEdited);
  EXPECT_EQ(A.RoutinesVerbatim, B.RoutinesVerbatim);
  EXPECT_EQ(A.DispatchEntriesRewritten, B.DispatchEntriesRewritten);
  EXPECT_EQ(A.DataPointersRewritten, B.DataPointersRewritten);
  EXPECT_EQ(A.CellPointersRewritten, B.CellPointersRewritten);
  EXPECT_EQ(A.TranslationSites, B.TranslationSites);
  EXPECT_EQ(A.TranslationEntries, B.TranslationEntries);
  EXPECT_EQ(A.DelaySlotsFolded, B.DelaySlotsFolded);
  EXPECT_EQ(A.DelaySlotsMaterialized, B.DelaySlotsMaterialized);
  EXPECT_EQ(A.SnippetInstances, B.SnippetInstances);
  EXPECT_EQ(A.SnippetSpills, B.SnippetSpills);
  EXPECT_EQ(A.SnippetCCSaves, B.SnippetCCSaves);

  EXPECT_EQ(Serial.Counters, Parallel.Counters)
      << "merged stat snapshots differ";
  ASSERT_EQ(Serial.Histograms.size(), Parallel.Histograms.size());
  for (size_t I = 0; I < Serial.Histograms.size(); ++I) {
    const HistogramSnapshot &L = Serial.Histograms[I],
                            &R = Parallel.Histograms[I];
    EXPECT_EQ(L.Name, R.Name);
    EXPECT_EQ(L.Count, R.Count) << L.Name;
    EXPECT_EQ(L.Sum, R.Sum) << L.Name;
    EXPECT_EQ(L.Min, R.Min) << L.Name;
    EXPECT_EQ(L.Max, R.Max) << L.Name;
    EXPECT_TRUE(std::equal(std::begin(L.Buckets), std::end(L.Buckets),
                           std::begin(R.Buckets)))
        << L.Name;
  }
}

/// The widths every determinism case compares with Threads = 1.
constexpr unsigned ParallelWidths[] = {2, 4, 8};

/// Runs the pipeline over \p W's image at Threads = 1 and at every
/// ParallelWidths width, and requires identical results.
void expectSameAtEveryWidth(TargetArch Arch, const WorkloadOptions &W,
                            const Executable::Options &E) {
  SxfFile File = generateWorkload(Arch, W);
  PipelineResult Serial = runPipeline(File, E, 1);
  ASSERT_FALSE(Serial.Bytes.empty());
  for (unsigned Threads : ParallelWidths) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    expectIdentical(Serial, runPipeline(File, E, Threads));
  }
}

WorkloadOptions bigWorkload() {
  WorkloadOptions W;
  W.Seed = 42;
  W.Routines = 24;
  W.SegmentsPerRoutine = 6;
  W.SwitchPercent = 40;
  W.TailCallPercent = 25; // unanalyzable indirect jumps -> translator
  W.SymbolPathologies = true;
  return W;
}

TEST(TargetConstruction, FirstUseFromThreeThreadsAtOnce) {
  // ctest runs each case in a process of its own, so no target exists yet:
  // three threads each build one (parsing and compiling its description)
  // at the same moment, and each target must come out whole.
  std::latch Start(3);
  const TargetInfo *Built[3] = {};
  DecodedWord Nop[3];
  std::vector<std::thread> Threads;
  for (TargetArch Arch : AllTargetArches)
    Threads.emplace_back([&, Arch] {
      Start.arrive_and_wait();
      const TargetInfo &T = targetFor(Arch);
      Built[static_cast<unsigned>(Arch)] = &T;
      Nop[static_cast<unsigned>(Arch)] = T.decode(T.nopWord());
    });
  for (std::thread &T : Threads)
    T.join();
  for (TargetArch Arch : AllTargetArches) {
    unsigned I = static_cast<unsigned>(Arch);
    ASSERT_EQ(Built[I], &targetFor(Arch));
    EXPECT_EQ(Built[I]->arch(), Arch);
    EXPECT_EQ(Nop[I].Category, InstCategory::Computation);
    EXPECT_TRUE(Nop[I].Writes.empty());
  }
}

TEST(ParallelDeterminism, SriscMatchesSerial) {
  expectSameAtEveryWidth(TargetArch::Srisc, bigWorkload(), {});
}

TEST(ParallelDeterminism, MriscMatchesSerial) {
  WorkloadOptions W = bigWorkload();
  W.AnnulledBranches = false; // SRISC-only idiom
  expectSameAtEveryWidth(TargetArch::Mrisc, W, {});
}

TEST(ParallelDeterminism, AriscMatchesSerial) {
  WorkloadOptions W = bigWorkload();
  W.AnnulledBranches = false; // SRISC-only idiom
  expectSameAtEveryWidth(TargetArch::Arisc, W, {});
}

TEST(ParallelDeterminism, DisableSlicingAblation) {
  Executable::Options E;
  E.DisableSlicing = true;
  expectSameAtEveryWidth(TargetArch::Srisc, bigWorkload(), E);
}

TEST(ParallelDeterminism, DisableDelayFoldingAblation) {
  Executable::Options E;
  E.DisableDelayFolding = true;
  expectSameAtEveryWidth(TargetArch::Srisc, bigWorkload(), E);
}

TEST(ParallelDeterminism, EveryWriterPathMatchesAcrossWidths) {
  // One image that reaches every per-routine path of the writer: dispatch
  // tables, Word32 data relocations, translator sites, and a name defined
  // twice with different bindings, first as a data object. The edited
  // routine takes the binding of the name's first definition.
  WorkloadOptions W = bigWorkload();
  W.Routines = 120;
  SxfFile File = generateWorkload(TargetArch::Srisc, W);
  const SxfSegment *Data = File.segment(SegKind::Data);
  ASSERT_NE(Data, nullptr);
  ASSERT_FALSE(File.Relocs.empty());
  const SxfSymbol *Twice = nullptr;
  for (const SxfSymbol &Sym : File.Symbols)
    if (Sym.Kind == SymKind::Routine && Sym.Value != File.Entry) {
      Twice = &Sym;
      break;
    }
  ASSERT_NE(Twice, nullptr);
  const std::string Name = Twice->Name;
  const SymBinding Routine = Twice->Binding;
  const SymBinding First = Routine == SymBinding::Global ? SymBinding::Local
                                                         : SymBinding::Global;
  File.Symbols.insert(File.Symbols.begin(),
                      {Name, Data->VAddr, 4, SymKind::Object, First});

  Executable::Options E;
  PipelineResult Serial = runPipeline(File, E, 1);
  ASSERT_FALSE(Serial.Bytes.empty());
  EXPECT_GT(Serial.Stats.DispatchEntriesRewritten, 0u);
  EXPECT_GT(Serial.Stats.DataPointersRewritten, 0u);
  EXPECT_GT(Serial.Stats.TranslationSites, 0u);
  unsigned Found = 0;
  for (const SxfSymbol &Sym : Serial.EditedFile.Symbols)
    if (Sym.Name == Name) {
      ++Found;
      EXPECT_EQ(Sym.Binding, First) << "at 0x" << std::hex << Sym.Value;
    }
  EXPECT_EQ(Found, 2u); // the edited routine and the data object
  for (unsigned Threads : ParallelWidths) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    expectIdentical(Serial, runPipeline(File, E, Threads));
  }
}

/// A compiler style §3.1 refinement distinguishes.
struct Style {
  const char *Name;
  unsigned TailCallPercent;
  bool Pathologies;
  bool Strip;
};
const Style Styles[] = {{"gcc", 0, false, false},
                        {"sunpro", 35, false, false},
                        {"stripped_gcc", 0, false, true},
                        {"pathologies", 0, true, false}};

/// A 300-routine image of \p Arch in style \p S: several scan chunks of
/// text. The pathologies style also loses two consecutive routine names
/// in every five.
SxfFile styledImage(TargetArch Arch, const Style &S) {
  WorkloadOptions W;
  W.Seed = 11;
  W.Routines = 300;
  W.SegmentsPerRoutine = 6;
  W.TailCallPercent = S.TailCallPercent;
  W.SymbolPathologies = S.Pathologies;
  W.AnnulledBranches = Arch == TargetArch::Srisc; // SRISC-only idiom
  SxfFile File = generateWorkload(Arch, W);
  if (S.Strip)
    File.strip();
  if (S.Pathologies) {
    std::vector<SxfSymbol> Kept;
    unsigned Seen = 0;
    for (const SxfSymbol &Sym : File.Symbols)
      if (Sym.Kind != SymKind::Routine || Sym.Value == File.Entry ||
          ++Seen % 5 > 1)
        Kept.push_back(Sym);
    File.Symbols = std::move(Kept);
  }
  return File;
}

std::string styleTrace(TargetArch Arch, const Style &S) {
  return std::string("arch=") + std::to_string(static_cast<int>(Arch)) +
         " style=" + S.Name;
}

TEST(ParallelDeterminism, DecodeTableMatchesTextAtEveryWidth) {
  // The decode table an analysis builds at construction, at every width:
  // each text address's instruction carries the image's word there,
  // equal words share one object, the objects number the distinct text
  // words and eel.inst.allocated counts exactly those, and instAt() has
  // nothing outside the text or between its words.
  for (TargetArch Arch : AllTargetArches) {
    for (const Style &S : Styles) {
      SCOPED_TRACE(styleTrace(Arch, S));
      SxfFile File = styledImage(Arch, S);
      for (unsigned Threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(Threads));
        MetricsSink Sink;
        TraceRequestScope Scope(/*Rid=*/0, &Sink);
        Executable::Options E;
        E.Threads = Threads;
        Analysis An(SxfFile(File), E);
        std::unordered_map<MachWord, const Instruction *> ByWord;
        for (Addr A = An.textBase(); A < An.textEnd(); A += 4) {
          const Instruction *I = An.instAt(A);
          ASSERT_NE(I, nullptr);
          ASSERT_EQ(I->word(), *File.readWord(A));
          EXPECT_EQ(ByWord.emplace(I->word(), I).first->second, I);
        }
        EXPECT_EQ(An.pool().distinct(), ByWord.size());
        EXPECT_EQ(Sink.snapshot().counter("eel.inst.allocated"),
                  ByWord.size());
        EXPECT_EQ(An.instAt(An.textBase() - 4), nullptr);
        EXPECT_EQ(An.instAt(An.textEnd()), nullptr);
        EXPECT_EQ(An.instAt(An.textBase() + 2), nullptr);
        EXPECT_EQ(An.instAt(An.textEnd() - 1), nullptr);
      }
    }
  }
  // A text of 12,288 pseudo-random words, each twice: more distinct words
  // than one arena chunk holds instructions.
  std::vector<uint8_t> Text(8 * 3 * 4096);
  uint32_t X = 2463534242u;
  for (size_t I = 0; I < Text.size(); I += 8) {
    X ^= X << 13;
    X ^= X >> 17;
    X ^= X << 5;
    storeLE32(&Text[I], X);
    storeLE32(&Text[I + 4], X);
  }
  for (TargetArch Arch : AllTargetArches) {
    SCOPED_TRACE("random text, arch=" +
                 std::to_string(static_cast<int>(Arch)));
    DecodeTable Table(targetFor(Arch), 0x1000, Text);
    EXPECT_EQ(Table.distinct(), Text.size() / 8);
    for (Addr A = 0x1000; A < 0x1000 + Text.size(); A += 8) {
      const Instruction *I = Table.at(A);
      ASSERT_NE(I, nullptr);
      ASSERT_EQ(I->word(), loadLE32(&Text[A - 0x1000]));
      ASSERT_EQ(Table.at(A + 4), I);
    }
  }
}

TEST(ParallelDeterminism, ChunkedRefinementMatchesAcrossWidths) {
  // Images large enough that the transfer scan and stage 3 split into
  // several chunks and stage 4 into hundreds of tasks, in every compiler
  // style refinement distinguishes: the routine map, the edited bytes and
  // the whole counter snapshot must not depend on the width. In the
  // pathologies style calls into the unnamed routines land inside their
  // predecessor, and stage 3 gives it several extra entry points, found
  // in many chunks.
  size_t MultiEntry = 0, Hidden = 0, Data = 0;
  for (TargetArch Arch : AllTargetArches) {
    for (const Style &S : Styles) {
      SCOPED_TRACE(styleTrace(Arch, S));
      SxfFile File = styledImage(Arch, S);
      Executable::Options E;
      PipelineResult Serial = runPipeline(File, E, 1);
      ASSERT_GE(Serial.TextWords, 4 * Analysis::ScanChunkWords);
      for (const RoutineFacts &R : Serial.Routines) {
        MultiEntry += R.Entries.size() > 2;
        Hidden += R.Hidden;
        Data += R.Data;
      }
      for (unsigned Threads : ParallelWidths) {
        SCOPED_TRACE("threads=" + std::to_string(Threads));
        expectIdentical(Serial, runPipeline(File, E, Threads));
      }
    }
  }
  // The merges under test all had something to merge.
  EXPECT_GT(MultiEntry, 0u);
  EXPECT_GT(Hidden, 0u);
  EXPECT_GT(Data, 0u);
}

TEST(ParallelDeterminism, EditedProgramStillBehaves) {
  // Beyond byte-identity: the parallel-edited image runs like the original.
  Executable::Options E;
  PipelineResult P = runPipeline(TargetArch::Srisc, bigWorkload(), E, 8);
  ASSERT_FALSE(P.Bytes.empty());
  RunResult Original = runToCompletion(P.OriginalFile);
  RunResult Edited = runToCompletion(P.EditedFile);
  EXPECT_EQ(static_cast<int>(Original.Reason),
            static_cast<int>(Edited.Reason));
  EXPECT_EQ(Original.ExitCode, Edited.ExitCode);
  EXPECT_EQ(Original.Output, Edited.Output);
}

TEST(ParallelDeterminism, SnippetStatsCountEveryPlacedSite) {
  // Layout records eel.snippet.* and scavenge.*_per_site once per routine,
  // from a tally of its sites: the totals must still be those of one
  // record per placed snippet, at every width. Every qpt2 site is granted
  // exactly its counter snippet's two placeholders.
  for (TargetArch Arch : AllTargetArches)
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "arch " << static_cast<int>(Arch)
                                      << ", threads " << Threads);
      WorkloadOptions W = bigWorkload();
      W.TailCallPercent = 0;
      Executable::Options Opts;
      Opts.Threads = Threads;
      MetricsSink Sink;
      uint64_t Placed = 0;
      Executable::EditStats Stats;
      {
        TraceRequestScope Scope(1, &Sink);
        Executable Exec(generateWorkload(Arch, W), Opts);
        Qpt2Profiler Profiler(Exec);
        Profiler.instrument();
        Expected<SxfFile> Edited = Exec.writeEditedExecutable();
        ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
        Placed = Profiler.counters().size();
        Stats = Exec.editStats();
      }
      ASSERT_GT(Placed, 0u);
      MetricsSnapshot Snap = Sink.snapshot();
      EXPECT_EQ(Stats.SnippetInstances, Placed);
      EXPECT_EQ(Snap.counter("eel.snippet.instances"), Placed);
      EXPECT_EQ(Snap.counter("eel.snippet.spills"), Stats.SnippetSpills);
      EXPECT_EQ(Snap.counter("eel.snippet.ccsaves"), Stats.SnippetCCSaves);
      HistogramSnapshot Granted = Snap.histogram("scavenge.granted_per_site");
      EXPECT_EQ(Granted.Count, Placed);
      EXPECT_EQ(Granted.Sum, 2 * Placed);
      HistogramSnapshot Spilled = Snap.histogram("scavenge.spilled_per_site");
      EXPECT_EQ(Spilled.Count, Placed);
      EXPECT_EQ(Spilled.Sum, Stats.SnippetSpills);
    }

  // A pass that places no snippet records no snippet statistic at all.
  MetricsSink Sink;
  {
    TraceRequestScope Scope(1, &Sink);
    Executable::Options Opts;
    Opts.Threads = 4;
    Executable Exec(generateWorkload(TargetArch::Srisc, bigWorkload()), Opts);
    ASSERT_TRUE(Exec.writeEditedExecutable().hasValue());
  }
  MetricsSnapshot Snap = Sink.snapshot();
  for (const auto &[Name, Value] : Snap.Counters)
    EXPECT_FALSE(Name.starts_with("eel.snippet.")) << Name << " = " << Value;
  for (const HistogramSnapshot &H : Snap.Histograms)
    EXPECT_FALSE(H.Name.starts_with("scavenge.")) << H.Name;
}

} // namespace
