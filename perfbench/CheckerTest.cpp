//===- perfbench/CheckerTest.cpp - The output check has teeth ------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's output check must count a broken edit as a failure.
/// Each case corrupts a good qpt2 edit, so the tests stay valid after the
/// editor's own defects are fixed: an image whose text runs into its data
/// segment, one whose program prints something else, and one whose
/// counters disagree with the original run.
///
//===----------------------------------------------------------------------===//

#include "Checker.h"

#include "core/Executable.h"
#include "tools/Qpt.h"
#include "vm/Machine.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

using namespace eel;
using namespace perfbench;

namespace {

struct GoodEdit {
  SxfFile Original;
  Reference Ref;
  SxfFile Edited;
  std::vector<Qpt2Profiler::CounterInfo> Counters;
};

GoodEdit makeGoodEdit() {
  WorkloadOptions Opts;
  Opts.Seed = 3;
  Opts.Routines = 12;
  Opts.SwitchPercent = 35;
  GoodEdit G;
  G.Original = generateWorkload(TargetArch::Srisc, Opts);
  G.Ref = runReference(G.Original, /*WithTallies=*/true);
  Executable Exec((SxfFile(G.Original)));
  Qpt2Profiler Profiler(Exec);
  Profiler.instrument();
  G.Edited = Exec.writeEditedExecutable().takeValue();
  G.Counters = Profiler.counters();
  return G;
}

} // namespace

TEST(PerfbenchChecker, GoodEditPasses) {
  GoodEdit G = makeGoodEdit();
  ASSERT_TRUE(G.Ref.Ok) << G.Ref.Why;
  Verdict V = checkEdit(G.Edited.serialize(), G.Ref, &G.Counters);
  EXPECT_TRUE(V.Ok) << V.Why;
  EXPECT_GT(V.TextBytes, G.Ref.TextBytes);
  EXPECT_GT(V.Instructions, G.Ref.Instructions);
}

TEST(PerfbenchChecker, TextOverlappingDataFails) {
  // The shape of an oversized relayout: the edited text grows past the
  // start of the data segment.
  GoodEdit G = makeGoodEdit();
  SxfSegment *Text = G.Edited.segment(SegKind::Text);
  const SxfSegment *Data = G.Edited.segment(SegKind::Data);
  ASSERT_TRUE(Text && Data);
  ASSERT_LT(Text->VAddr, Data->VAddr);
  uint32_t Size = Data->VAddr - Text->VAddr + 4096;
  Text->Bytes.resize(Size, 0);
  Text->MemSize = Size;

  Verdict V = checkEdit(G.Edited.serialize(), G.Ref, &G.Counters);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Why.find("segment_overlap"), std::string::npos) << V.Why;
}

TEST(PerfbenchChecker, DifferentOutputFails) {
  // Flip data words of the edited image until one changes what the
  // program prints, confirmed by running it directly.
  GoodEdit G = makeGoodEdit();
  const SxfSegment *Data = G.Edited.segment(SegKind::Data);
  ASSERT_NE(Data, nullptr);
  bool Found = false;
  for (uint32_t Off = 0; Off + 4 <= Data->Bytes.size() && !Found; Off += 4) {
    SxfFile Corrupt = G.Edited;
    Addr A = Data->VAddr + Off;
    ASSERT_TRUE(Corrupt.writeWord(A, *Corrupt.readWord(A) ^ 0x15u));
    RunResult R = Machine(Corrupt).run(1'000'000);
    if (R.Reason != StopReason::Exited || R.Output == G.Ref.Output)
      continue;
    Found = true;
    Verdict V = checkEdit(Corrupt.serialize(), G.Ref);
    EXPECT_FALSE(V.Ok);
    EXPECT_EQ(V.Why, "output differs from the original's");
  }
  EXPECT_TRUE(Found) << "no data word changed the program's output";
}

TEST(PerfbenchChecker, WrongCounterFails) {
  // The program never reads its counters, so only the oracle notices.
  GoodEdit G = makeGoodEdit();
  ASSERT_FALSE(G.Counters.empty());
  Addr Counter = G.Counters.front().CounterAddr;
  ASSERT_TRUE(G.Edited.writeWord(Counter, 7));
  Verdict V = checkEdit(G.Edited.serialize(), G.Ref, &G.Counters);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Why.find("qpt2 counter"), std::string::npos) << V.Why;
}
