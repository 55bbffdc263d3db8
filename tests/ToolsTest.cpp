//===- tests/ToolsTest.cpp - Tool validation against VM ground truth --------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the §5 applications end-to-end: every tool's measurements are
/// compared against ground truth collected by simulator hooks on the
/// *original* program, and every instrumented program must behave exactly
/// like the original.
///
//===----------------------------------------------------------------------===//

#include "tools/ActiveMem.h"
#include "tools/AdhocQpt.h"
#include "tools/Qpt.h"
#include "tools/Sandbox.h"
#include "tools/Tracer.h"
#include "tools/WindTunnel.h"
#include "tools/Optimizer.h"
#include "tools/RegFree.h"
#include "isa/SriscEncoding.h"
#include "asmkit/Assembler.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <map>

using namespace eel;

namespace {

WorkloadOptions baseOptions(uint64_t Seed) {
  WorkloadOptions Opts;
  Opts.Seed = Seed;
  Opts.Routines = 10;
  Opts.SwitchPercent = 35;
  return Opts;
}

} // namespace

// --- qpt2 -----------------------------------------------------------------------

TEST(Qpt2, EdgeCountsMatchGroundTruth) {
  for (TargetArch Arch : AllTargetArches) {
    for (uint64_t Seed : {1u, 2u, 3u}) {
      SxfFile File = generateWorkload(Arch, baseOptions(Seed));

      // Ground truth: per-(branch, taken) tallies from the original run.
      Machine Original(File);
      std::map<std::pair<Addr, bool>, uint64_t> BranchTally;
      Original.OnTransfer = [&](Addr PC, Addr, bool Taken) {
        BranchTally[{PC, Taken}]++;
      };
      RunResult OrigResult = Original.run();
      ASSERT_EQ(OrigResult.Reason, StopReason::Exited);

      Executable Exec((SxfFile(File)));
      Qpt2Profiler::Options ProfOpts;
      ProfOpts.CountBlocks = false; // edges only in this test
      Qpt2Profiler Profiler(Exec, ProfOpts);
      Profiler.instrument();
      ASSERT_GT(Profiler.counters().size(), 4u);

      Expected<SxfFile> Edited = Exec.writeEditedExecutable();
      ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
      Machine Instrumented(Edited.value());
      RunResult InstResult = Instrumented.run();
      EXPECT_EQ(InstResult.Output, OrigResult.Output);
      EXPECT_EQ(InstResult.ExitCode, OrigResult.ExitCode);

      std::vector<uint64_t> Counts =
          Profiler.readCounts(Instrumented.memory());
      unsigned Checked = 0;
      for (size_t I = 0; I < Counts.size(); ++I) {
        const Qpt2Profiler::CounterInfo &Info = Profiler.counters()[I];
        if (Info.K != Qpt2Profiler::CounterInfo::Kind::Edge)
          continue;
        if (Info.Edge == EdgeKind::Taken) {
          EXPECT_EQ(Counts[I], (BranchTally[{Info.TermAddr, true}]))
              << "taken edge @0x" << std::hex << Info.TermAddr;
          ++Checked;
        } else if (Info.Edge == EdgeKind::NotTaken) {
          EXPECT_EQ(Counts[I], (BranchTally[{Info.TermAddr, false}]))
              << "fall edge @0x" << std::hex << Info.TermAddr;
          ++Checked;
        }
      }
      EXPECT_GT(Checked, 4u);
    }
  }
}

TEST(Qpt2, BlockCountsMatchGroundTruth) {
  SxfFile File = generateWorkload(TargetArch::Srisc, baseOptions(5));
  Machine Original(File);
  std::map<Addr, uint64_t> InstTally;
  Original.OnInst = [&](Addr PC, MachWord) { InstTally[PC]++; };
  RunResult OrigResult = Original.run();
  ASSERT_EQ(OrigResult.Reason, StopReason::Exited);

  Executable Exec((SxfFile(File)));
  Qpt2Profiler::Options ProfOpts;
  ProfOpts.CountEdges = false;
  Qpt2Profiler Profiler(Exec, ProfOpts);
  Profiler.instrument();
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  Machine Instrumented(Edited.value());
  RunResult InstResult = Instrumented.run();
  EXPECT_EQ(InstResult.Output, OrigResult.Output);

  std::vector<uint64_t> Counts = Profiler.readCounts(Instrumented.memory());
  unsigned Checked = 0, NonZero = 0;
  for (size_t I = 0; I < Counts.size(); ++I) {
    const Qpt2Profiler::CounterInfo &Info = Profiler.counters()[I];
    ASSERT_EQ(Info.K, Qpt2Profiler::CounterInfo::Kind::Block);
    // A block executes as often as its first instruction.
    EXPECT_EQ(Counts[I], InstTally[Info.BlockAnchor])
        << "block @0x" << std::hex << Info.BlockAnchor;
    ++Checked;
    if (Counts[I])
      ++NonZero;
  }
  EXPECT_GT(Checked, 20u);
  EXPECT_GT(NonZero, 10u);
}

// --- adhoc qpt baseline -------------------------------------------------------------

TEST(AdhocQpt, BehaviorAndCounts) {
  for (uint64_t Seed : {1u, 4u}) {
    SxfFile File = generateWorkload(TargetArch::Srisc, baseOptions(Seed));
    Machine Original(File);
    std::map<Addr, uint64_t> InstTally;
    Original.OnInst = [&](Addr PC, MachWord) { InstTally[PC]++; };
    RunResult OrigResult = Original.run();
    ASSERT_EQ(OrigResult.Reason, StopReason::Exited);

    Expected<AdhocResult> Result = adhocInstrument(File);
    ASSERT_TRUE(Result.hasValue()) << Result.error().message();
    Machine Instrumented(Result.value().Edited);
    RunResult InstResult = Instrumented.run();
    EXPECT_EQ(InstResult.Reason, StopReason::Exited);
    EXPECT_EQ(InstResult.Output, OrigResult.Output);
    EXPECT_EQ(InstResult.ExitCode, OrigResult.ExitCode);

    std::vector<uint64_t> Counts =
        adhocReadCounts(Result.value(), Instrumented.memory());
    for (size_t I = 0; I < Counts.size(); ++I) {
      Addr Block = Result.value().Counters[I].first;
      EXPECT_EQ(Counts[I], InstTally[Block])
          << "adhoc block @0x" << std::hex << Block;
    }
  }
}

TEST(AdhocQpt, RejectsMrisc) {
  SxfFile File = generateWorkload(TargetArch::Mrisc, baseOptions(1));
  EXPECT_TRUE(adhocInstrument(File).hasError());
}

// --- Active Memory ------------------------------------------------------------------

namespace {

/// Reference direct-mapped cache simulation over a recorded address trace.
struct RefCache {
  explicit RefCache(CacheConfig C) : Config(C), Tags(C.Lines, 0xFFFFFFFFu) {}
  void access(Addr A) {
    ++Accesses;
    uint32_t Line = A / Config.LineBytes;
    uint32_t Index = Line & (Config.Lines - 1);
    if (Tags[Index] != Line) {
      ++Misses;
      Tags[Index] = Line;
    }
  }
  CacheConfig Config;
  std::vector<uint32_t> Tags;
  uint64_t Accesses = 0, Misses = 0;
};

} // namespace

TEST(ActiveMem, MatchesReferenceSimulation) {
  for (TargetArch Arch : AllTargetArches) {
    SxfFile File = generateWorkload(Arch, baseOptions(2));
    CacheConfig Config;
    Config.LineBytes = 16;
    Config.Lines = 32;

    // Reference: feed the original run's data addresses through a model.
    Machine Original(File);
    RefCache Reference(Config);
    Original.OnMemory = [&](Addr, Addr EA, unsigned, bool) {
      Reference.access(EA);
    };
    RunResult OrigResult = Original.run();
    ASSERT_EQ(OrigResult.Reason, StopReason::Exited);

    Executable Exec((SxfFile(File)));
    ActiveMemory AM(Exec, Config);
    AM.instrument();
    ASSERT_GT(AM.sitesInstrumented(), 10u);
    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();

    Machine Instrumented(Edited.value());
    RunResult InstResult = Instrumented.run();
    EXPECT_EQ(InstResult.Output, OrigResult.Output);
    EXPECT_EQ(InstResult.ExitCode, OrigResult.ExitCode);

    EXPECT_EQ(AM.accesses(Instrumented.memory()), Reference.Accesses);
    EXPECT_EQ(AM.misses(Instrumented.memory()), Reference.Misses);
    EXPECT_GT(Reference.Accesses, 50u);
    EXPECT_GT(Reference.Misses, 0u);

    // The §1/§5 claim: inline tests cost a single-digit slowdown.
    double Slowdown = static_cast<double>(InstResult.Instructions) /
                      static_cast<double>(OrigResult.Instructions);
    EXPECT_GT(Slowdown, 1.0);
    EXPECT_LT(Slowdown, 12.0);
  }
}

// --- Sandbox ---------------------------------------------------------------------------

TEST(Sandbox, AllowsWellBehavedProgram) {
  SxfFile File = generateWorkload(TargetArch::Srisc, baseOptions(3));
  RunResult OrigResult = runToCompletion(File);

  Executable Exec((SxfFile(File)));
  Sandboxer SFI(Exec, /*DataRegionBase=*/0x400000,
                /*StackRegionBase=*/0x7FE00000);
  SFI.instrument();
  ASSERT_GT(SFI.sitesInstrumented(), 5u);
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  RunResult InstResult = runToCompletion(Edited.value());
  EXPECT_EQ(InstResult.Output, OrigResult.Output);
  EXPECT_EQ(InstResult.ExitCode, OrigResult.ExitCode);
}

TEST(Sandbox, CatchesWildStore) {
  for (TargetArch Arch : AllTargetArches) {
    const char *Source = nullptr;
    switch (Arch) {
    case TargetArch::Srisc:
      Source = R"(
.text
main:
  set 0x200000, %o1     ! outside data and stack regions
  mov 7, %o2
  st %o2, [%o1 + 0]
  mov 0, %o0
  sys 0
  ret
  nop
)";
      break;
    case TargetArch::Mrisc:
      Source = R"(
.text
main:
  li $t0, 0x200000
  li $t1, 7
  sw $t1, 0($t0)
  li $a0, 0
  li $v0, 0
  syscall
  jr $ra
  nop
)";
      break;
    case TargetArch::Arisc:
      Source = R"(
.text
main:
  li $t0, 0x200000
  li $t1, 7
  stw $t1, 0($t0)
  li $a0, 0
  sys 0
  ret
)";
      break;
    }
    Executable Exec(assembleOrDie(Arch, Source));
    Sandboxer SFI(Exec, 0x400000, 0x7FE00000);
    SFI.instrument();
    ASSERT_EQ(SFI.sitesInstrumented(), 1u);
    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
    RunResult R = runToCompletion(Edited.value());
    EXPECT_EQ(R.Reason, StopReason::Exited);
    EXPECT_EQ(R.ExitCode, Sandboxer::ViolationExitCode);
  }
}

// --- Tracer ---------------------------------------------------------------------------

TEST(Tracer, TraceMatchesGroundTruthExactly) {
  for (TargetArch Arch : AllTargetArches) {
    SxfFile File = generateWorkload(Arch, baseOptions(6));
    Machine Original(File);
    std::vector<Addr> GroundTruth;
    Original.OnMemory = [&](Addr, Addr EA, unsigned, bool) {
      GroundTruth.push_back(EA);
    };
    RunResult OrigResult = Original.run();
    ASSERT_EQ(OrigResult.Reason, StopReason::Exited);
    ASSERT_GT(GroundTruth.size(), 20u);

    Executable Exec((SxfFile(File)));
    MemoryTracer Tracer(Exec, /*CapacityEntries=*/1u << 18);
    Tracer.instrument();
    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();

    Machine Instrumented(Edited.value());
    RunResult InstResult = Instrumented.run();
    EXPECT_EQ(InstResult.Output, OrigResult.Output);
    std::vector<Addr> Trace = Tracer.readTrace(Instrumented.memory());
    EXPECT_EQ(Trace, GroundTruth);
  }
}

TEST(Tracer, SaturatesAtCapacity) {
  SxfFile File = generateWorkload(TargetArch::Srisc, baseOptions(7));
  Executable Exec((SxfFile(File)));
  MemoryTracer Tracer(Exec, /*CapacityEntries=*/16);
  Tracer.instrument();
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue());
  Machine Instrumented(Edited.value());
  RunResult R = Instrumented.run();
  EXPECT_EQ(R.Reason, StopReason::Exited); // no buffer overrun crash
  EXPECT_EQ(Tracer.readTrace(Instrumented.memory()).size(), 16u);
}

// --- Wind Tunnel cycle counting (§1) --------------------------------------------------

TEST(WindTunnel, VirtualCyclesExactlyMatchRetiredInstructions) {
  for (TargetArch Arch : AllTargetArches) {
    for (uint64_t Seed : {3u, 8u}) {
      SxfFile File = generateWorkload(Arch, baseOptions(Seed));
      RunResult Original = runToCompletion(File);
      ASSERT_EQ(Original.Reason, StopReason::Exited);

      Executable Exec((SxfFile(File)));
      CycleCounter Counter(Exec, /*Quantum=*/0);
      Counter.instrument();
      Expected<SxfFile> Edited = Exec.writeEditedExecutable();
      ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
      Machine M(Edited.value());
      RunResult After = M.run();
      EXPECT_EQ(After.Output, Original.Output);
      EXPECT_EQ(After.ExitCode, Original.ExitCode);
      // The whole point: the virtual cycle counter equals the simulator's
      // retired-instruction count for the ORIGINAL program, exactly.
      EXPECT_EQ(Counter.cycles(M.memory()), Original.Instructions)
          << "arch=" << static_cast<int>(Arch) << " seed=" << Seed;
    }
  }
}

TEST(WindTunnel, QuantumExpirationsAreExact) {
  SxfFile File = generateWorkload(TargetArch::Srisc, baseOptions(9));
  RunResult Original = runToCompletion(File);
  const uint32_t Quantum = 500;

  Executable Exec((SxfFile(File)));
  CycleCounter Counter(Exec, Quantum);
  Counter.instrument();
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  Machine M(Edited.value());
  RunResult After = M.run();
  EXPECT_EQ(After.Output, Original.Output);

  uint64_t Cycles = Counter.cycles(M.memory());
  EXPECT_EQ(Cycles, Original.Instructions);
  // Expiration checks run at every block boundary, whose weights are far
  // smaller than the quantum, so the count is exact.
  EXPECT_EQ(Counter.quantumExpirations(M.memory()), Cycles / Quantum);
  EXPECT_GT(Counter.quantumExpirations(M.memory()), 0u);
}

TEST(WindTunnel, AnnulledDelayAccounting) {
  // An annulled branch's delay instruction executes only when taken; the
  // cycle counter must charge it on exactly that path.
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 0, %o4
  mov 3, %o5
.Lloop:
  cmp %o5, 1
  bg,a .Lcont
  add %o4, 1, %o4      ! delay: executes only when the loop continues
.Lcont:
  sub %o5, 1, %o5
  cmp %o5, 0
  bg .Lloop
  nop
  mov %o4, %o0
  sys 0
  ret
  nop
)");
  RunResult Original = runToCompletion(File);
  Executable Exec((SxfFile(File)));
  CycleCounter Counter(Exec);
  Counter.instrument();
  EXPECT_GT(Counter.edgeIncrements(), 0u); // the annulled-taken edge
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  Machine M(Edited.value());
  RunResult After = M.run();
  EXPECT_EQ(After.ExitCode, Original.ExitCode);
  EXPECT_EQ(Counter.cycles(M.memory()), Original.Instructions);
}

// --- Dead-code elimination (the §1 optimization use) ---------------------------------

TEST(Optimizer, RemovesObviouslyDeadComputations) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 11, %o3          ! dead: o3 never read
  add %o3, 5, %o4      ! dead once o3's reader dies
  smul %o4, 3, %o5     ! dead: o5 never read
  mov 7, %o0           ! live: the exit status
  cmp %o0, 7           ! dead CC: no branch reads it
  sys 0
  ret
  nop
)"));
  RunResult Original = runToCompletion(Exec.image());
  DeadCodeEliminator DCE(Exec);
  unsigned Removed = DCE.run();
  EXPECT_GE(Removed, 4u);
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  RunResult After = runToCompletion(Edited.value());
  EXPECT_EQ(After.ExitCode, Original.ExitCode);
  EXPECT_EQ(After.ExitCode, 7);
  EXPECT_LT(After.Instructions, Original.Instructions);
}

TEST(Optimizer, PreservesLiveComputationsAndBehavior) {
  for (TargetArch Arch : AllTargetArches) {
    for (uint64_t Seed : {2u, 5u, 9u}) {
      SxfFile File = generateWorkload(Arch, baseOptions(Seed));
      RunResult Original = runToCompletion(File);
      Executable Exec(std::move(File));
      DeadCodeEliminator DCE(Exec);
      DCE.run();
      Expected<SxfFile> Edited = Exec.writeEditedExecutable();
      ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
      RunResult After = runToCompletion(Edited.value());
      EXPECT_EQ(After.Output, Original.Output)
          << "arch=" << static_cast<int>(Arch) << " seed=" << Seed
          << " removed=" << DCE.removed();
      EXPECT_EQ(After.ExitCode, Original.ExitCode);
      EXPECT_LE(After.Instructions, Original.Instructions);
    }
  }
}

// --- Register liberation (the §3.5 footnote's future mechanism) ---------------------

TEST(RegFree, FreesARegisterProgramWide) {
  for (TargetArch Arch : AllTargetArches) {
    SxfFile File = generateWorkload(Arch, baseOptions(4));
    RunResult Original = runToCompletion(File);
    Executable Exec(std::move(File));
    // Free the workload's primary scratch (SRISC %o3 = r11, MRISC $t0 = r8,
    // ARISC $t0 = r2).
    unsigned Reg = Arch == TargetArch::Srisc   ? 11u
                   : Arch == TargetArch::Mrisc ? 8u
                                               : 2u;
    RegFreeResult Freed = freeRegisterEverywhere(Exec, Reg);
    ASSERT_TRUE(Freed.Success)
        << "failed in " << Freed.FailedRoutines.size() << " routine(s)";
    EXPECT_GT(Freed.InstructionsRewritten, 10u);

    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
    RunResult After = runToCompletion(Edited.value());
    EXPECT_EQ(After.Output, Original.Output);
    EXPECT_EQ(After.ExitCode, Original.ExitCode);

    // The freed register no longer appears anywhere in the edited text
    // (no tool code was inserted to use it in this test).
    const TargetInfo &T = Exec.target();
    const SxfSegment *Text = Edited.value().segment(SegKind::Text);
    unsigned Uses = 0;
    for (size_t Off = 0; Off + 4 <= Text->Bytes.size(); Off += 4) {
      MachWord W = *Edited.value().readWord(Text->VAddr + Off);
      DecodedWord D = T.decode(W);
      if (D.Category == InstCategory::Invalid)
        continue;
      if (D.Reads.contains(Reg) || D.Writes.contains(Reg))
        ++Uses;
    }
    EXPECT_EQ(Uses, 0u) << "arch=" << static_cast<int>(Arch);
  }
}

TEST(RegFree, RejectsReservedAndLinkRegisters) {
  SxfFile File = generateWorkload(TargetArch::Srisc, baseOptions(1));
  Executable Exec(std::move(File));
  EXPECT_FALSE(freeRegisterEverywhere(Exec, 0).Success);
  EXPECT_FALSE(freeRegisterEverywhere(Exec, 14).Success); // %sp
  EXPECT_FALSE(freeRegisterEverywhere(Exec, 15).Success); // %o7 (link)
}

TEST(RegFree, ReplaceInstPrimitive) {
  // Direct use of the instruction-modification primitive: turn an add
  // into a subtract in place.
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 10, %o0
  add %o0, 3, %o0
  sys 0
  ret
  nop
)"));
  Exec.readContents();
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  BasicBlock *B = G->blockAt(Exec.analysis().textBase());
  ASSERT_NE(B, nullptr);
  using namespace srisc;
  Exec.replaceInst(B, 1, encodeArithImm(Op3Sub, 8, 8, 3));
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue());
  EXPECT_EQ(runToCompletion(Edited.value()).ExitCode, 7); // 10 - 3
}
