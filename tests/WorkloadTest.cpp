//===- tests/WorkloadTest.cpp - Workload generator + editing properties -----===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property suite over generated SPEC-ish programs: generation is
/// deterministic, programs run to a clean exit, symbol pathologies are
/// discovered by refinement, and — the central soundness property — the
/// identity rewrite preserves behaviour exactly across seeds, styles, and
/// both architectures.
///
//===----------------------------------------------------------------------===//

#include "core/CallGraph.h"
#include "core/Executable.h"
#include "vm/Machine.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

using namespace eel;

namespace {

struct Style {
  const char *Name;
  WorkloadOptions Base;
};

std::vector<Style> styles() {
  WorkloadOptions Gcc;
  Gcc.SwitchPercent = 40;
  Gcc.TailCallPercent = 0;
  WorkloadOptions Sunpro;
  Sunpro.SwitchPercent = 30;
  Sunpro.TailCallPercent = 40;
  WorkloadOptions Pathological;
  Pathological.SymbolPathologies = true;
  Pathological.SwitchPercent = 25;
  return {{"gcc", Gcc}, {"sunpro", Sunpro}, {"pathological", Pathological}};
}

} // namespace

TEST(Workload, Deterministic) {
  WorkloadOptions Opts;
  Opts.Seed = 7;
  EXPECT_EQ(generateWorkloadAsm(TargetArch::Srisc, Opts),
            generateWorkloadAsm(TargetArch::Srisc, Opts));
  Opts.Seed = 8;
  EXPECT_NE(generateWorkloadAsm(TargetArch::Srisc, WorkloadOptions()),
            generateWorkloadAsm(TargetArch::Srisc, Opts));
}

TEST(Workload, RunsToCleanExit) {
  for (TargetArch Arch : AllTargetArches) {
    for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
      WorkloadOptions Opts;
      Opts.Seed = Seed;
      if (Arch == TargetArch::Srisc)
        Opts.TailCallPercent = 30;
      SxfFile File = generateWorkload(Arch, Opts);
      RunResult R = runToCompletion(File);
      EXPECT_EQ(R.Reason, StopReason::Exited)
          << "arch=" << static_cast<int>(Arch) << " seed=" << Seed
          << " fault@0x" << std::hex << R.FaultPC;
      EXPECT_EQ(R.ExitCode, 0);
      EXPECT_FALSE(R.Output.empty());
      EXPECT_EQ(R.Output.back(), '\n');
      EXPECT_GT(R.Instructions, 100u);
    }
  }
}

TEST(Workload, PathologiesAreDiscovered) {
  WorkloadOptions Opts;
  Opts.Seed = 3;
  Opts.SymbolPathologies = true;
  Opts.Routines = 16;
  Executable Exec(generateWorkload(TargetArch::Srisc, Opts));
  Exec.readContents();
  // The text-embedded data table is classified as data.
  Routine *Table = Exec.findRoutine("text_table");
  ASSERT_NE(Table, nullptr);
  EXPECT_TRUE(Table->isData());
  // Debug/temp labels never became routines.
  for (const auto &R : Exec.routines()) {
    EXPECT_EQ(R->name().find("dbg_"), std::string::npos);
    EXPECT_EQ(R->name().find("tmp_"), std::string::npos);
    EXPECT_EQ(R->name().find("skip_"), std::string::npos);
  }
}

TEST(Workload, CallGraphIsAcyclicDag) {
  WorkloadOptions Opts;
  Opts.Seed = 11;
  Executable Exec(generateWorkload(TargetArch::Srisc, Opts));
  Exec.readContents();
  CallGraph CG = CallGraph::build(Exec.analysis());
  Routine *Main = Exec.findRoutine("main");
  ASSERT_NE(Main, nullptr);
  const CallGraph::Node *MainNode = CG.node(Main);
  ASSERT_NE(MainNode, nullptr);
  EXPECT_GE(MainNode->Callees.size(), 2u);
  EXPECT_TRUE(MainNode->Callers.empty());
  // main reaches a good portion of the program.
  std::vector<Routine *> Order = CG.postorderFrom(Main);
  EXPECT_GE(Order.size(), 4u);
  EXPECT_EQ(Order.back(), Main); // post-order ends at the root
}

/// The central soundness property: re-laying out a program without edits
/// preserves its observable behaviour exactly.
TEST(WorkloadProperty, IdentityRewritePreservesBehavior) {
  for (TargetArch Arch : AllTargetArches) {
    for (const Style &S : styles()) {
      if (Arch == TargetArch::Mrisc && S.Base.SymbolPathologies)
        continue; // text-embedded tables decode as valid words on MRISC
      for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
        WorkloadOptions Opts = S.Base;
        Opts.Seed = Seed;
        SxfFile File = generateWorkload(Arch, Opts);
        RunResult Original = runToCompletion(File);
        ASSERT_EQ(Original.Reason, StopReason::Exited);

        Executable Exec((SxfFile(File)));
        Expected<SxfFile> Edited = Exec.writeEditedExecutable();
        ASSERT_TRUE(Edited.hasValue())
            << "arch=" << static_cast<int>(Arch) << " style=" << S.Name
            << " seed=" << Seed << ": " << Edited.error().message();
        RunResult After = runToCompletion(Edited.value());
        EXPECT_EQ(static_cast<int>(After.Reason),
                  static_cast<int>(Original.Reason))
            << "arch=" << static_cast<int>(Arch) << " style=" << S.Name
            << " seed=" << Seed;
        EXPECT_EQ(After.ExitCode, Original.ExitCode);
        EXPECT_EQ(After.Output, Original.Output)
            << "arch=" << static_cast<int>(Arch) << " style=" << S.Name
            << " seed=" << Seed;
      }
    }
  }
}

TEST(WorkloadProperty, SunproStyleNeedsTranslationOrCells) {
  // Tail-call-heavy programs contain unanalyzable (cell-pointer) indirect
  // jumps, reproducing the §3.3 Solaris observation; the editor keeps them
  // working.
  WorkloadOptions Opts;
  Opts.Seed = 21;
  Opts.TailCallPercent = 70;
  Opts.Routines = 14;
  SxfFile File = generateWorkload(TargetArch::Srisc, Opts);
  RunResult Original = runToCompletion(File);

  Executable Exec((SxfFile(File)));
  Exec.readContents();
  unsigned Unanalyzable = 0, TailCalls = 0;
  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    for (const IndirectSite &Site : G->indirectSites()) {
      if (Site.IsCall)
        continue;
      if (Site.Resolution.K == IndirectResolution::Kind::CellPointer ||
          Site.Resolution.K == IndirectResolution::Kind::Unanalyzable) {
        ++Unanalyzable;
        if (Site.Resolution.TailCallIdiom ||
            Site.Resolution.K == IndirectResolution::Kind::CellPointer)
          ++TailCalls;
      }
    }
  }
  EXPECT_GT(Unanalyzable, 0u);

  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  RunResult After = runToCompletion(Edited.value());
  EXPECT_EQ(After.Output, Original.Output);
  EXPECT_EQ(After.ExitCode, Original.ExitCode);
}
