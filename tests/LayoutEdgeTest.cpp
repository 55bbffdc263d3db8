//===- tests/LayoutEdgeTest.cpp - Layout-engine corner cases ----------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Corner cases of edited-routine production (§3.3.1): branches to their
/// own fallthrough, branches into delay slots, conditional branches that
/// leave the routine, edit ordering at one point, deletion of branch
/// targets, multi-entry routines, and assembler/VM failure paths.
///
//===----------------------------------------------------------------------===//

#include "asmkit/Assembler.h"
#include "core/Executable.h"
#include "tools/Qpt.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

using namespace eel;

namespace {

RunResult editAndRun(Executable &Exec) {
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  EXPECT_TRUE(Edited.hasValue()) << Edited.error().message();
  return runToCompletion(Edited.value());
}

} // namespace

TEST(LayoutEdge, BranchToOwnFallthrough) {
  // Taken and not-taken both land at A+8: two distinct CFG edges to one
  // block.
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  cmp %o0, 0
  be .Lnext
  nop
.Lnext:
  mov 4, %o0
  sys 0
  ret
  nop
)"));
  RunResult Original = runToCompletion(Exec.image());
  Exec.readContents();
  // Instrument both edges.
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  Addr C1 = Exec.appendData(4, 4), C2 = Exec.appendData(4, 4);
  BasicBlock *B = G->blockAt(Exec.analysis().textBase());
  ASSERT_NE(B, nullptr);
  ASSERT_EQ(B->succ().size(), 2u);
  Exec.addCodeAlong(B->succ()[0],
                    makeCounterIncrementSnippet(Exec.target(), C1));
  Exec.addCodeAlong(B->succ()[1],
                    makeCounterIncrementSnippet(Exec.target(), C2));
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  Machine M(Edited.value());
  RunResult After = M.run();
  EXPECT_EQ(After.ExitCode, Original.ExitCode);
  // Exactly one of the two edges was traversed.
  EXPECT_EQ(M.memory().readWord(C1) + M.memory().readWord(C2), 1u);
}

TEST(LayoutEdge, BranchIntoDelaySlotEncoded) {
  // Build the program with a hand-patched branch displacement so a branch
  // genuinely targets a delay-slot word, then verify editing preserves it.
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 0, %o4
  ba .Lcheck
  add %o4, 1, %o4
.Lcheck:
  cmp %o4, 3
  bl .Lcheck           ! placeholder target, patched below
  nop
  mov %o4, %o0
  sys 0
  ret
  nop
)");
  // Retarget the `bl` (at +16) to the `add` in the delay slot (at +8).
  const TargetInfo &T = sriscTarget();
  Addr BlAddr = File.segment(SegKind::Text)->VAddr + 16;
  Addr AddAddr = File.segment(SegKind::Text)->VAddr + 8;
  MachWord Bl = *File.readWord(BlAddr);
  std::optional<MachWord> Patched =
      retargetDirect(T.decode(Bl), Bl, BlAddr, AddAddr);
  ASSERT_TRUE(Patched.has_value());
  ASSERT_TRUE(File.writeWord(BlAddr, *Patched));
  // Semantics: o4 increments until 3 (once as delay, twice via the loop:
  // add -> cmp -> bl...).
  RunResult Original = runToCompletion(File);
  EXPECT_EQ(Original.ExitCode, 3);

  Executable Exec(std::move(File));
  RunResult After = editAndRun(Exec);
  EXPECT_EQ(After.ExitCode, Original.ExitCode);
}

TEST(LayoutEdge, ConditionalBranchOutOfRoutine) {
  // A conditional branch whose taken target is another routine's entry
  // (a conditional tail jump): its taken edge leaves the CFG.
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  cmp %o0, 0
  be other
  nop
  mov 1, %o0
  sys 0
  ret
  nop
other:
  mov 9, %o0
  sys 0
  ret
  nop
)"));
  RunResult Original = runToCompletion(Exec.image());
  EXPECT_EQ(Original.ExitCode, 9);
  RunResult After = editAndRun(Exec);
  EXPECT_EQ(After.ExitCode, 9);
}

TEST(LayoutEdge, DelaySlotHoldingTheNextRoutineIsMappedOnce) {
  // main's last word is a call whose delay slot is tail's first word, the
  // one way two routines' code could share an original address. Only the
  // routine whose extent holds an address maps it: main's graph has its
  // delay slot outside it, so main is copied verbatim over its own two
  // words, and tail alone maps its start, to its edited start.
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 1, %o0
  call tail
tail:
  add %o0, 2, %o0
  sys 0
  ret
  nop
)"));
  RunResult Original = runToCompletion(Exec.image());
  EXPECT_EQ(Original.ExitCode, 5); // the add runs in the slot and at tail
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  ASSERT_EQ(Exec.routines().size(), 2u);
  EXPECT_EQ(Exec.editStats().RoutinesVerbatim, 1u);
  const FlatAddrMap &Map = Exec.addrMap();
  EXPECT_EQ(Map.size(), 6u); // every text word once
  Addr Tail = Exec.image().findSymbol("tail")->Value;
  const SxfSymbol *EditedTail = Edited.value().findSymbol("tail");
  ASSERT_NE(EditedTail, nullptr);
  ASSERT_EQ(Map.count(Tail), 1u);
  EXPECT_EQ(Map.at(Tail), EditedTail->Value);
  EXPECT_EQ(runToCompletion(Edited.value()).ExitCode, 5);
}

TEST(LayoutEdge, EditOrderingAtOnePoint) {
  // Two snippets at the same point apply in insertion order: the second
  // one doubles, so (0 + 5) * 2 != (0 * 2) + 5 distinguishes orders.
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 0, %o0
  sys 0
  ret
  nop
.data
.align 4
cell: .word 0
)"));
  Exec.readContents();
  Addr Cell = Exec.image().findSymbol("cell")->Value;
  const TargetInfo &T = Exec.target();
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  BasicBlock *B = G->blockAt(Exec.analysis().textBase());
  ASSERT_NE(B, nullptr);

  auto Add5 = [&] {
    std::vector<MachWord> W;
    T.emitLoadConst(1, Cell, W);
    T.emitLoadWord(2, 1, 0, W);
    T.emitAddImm(2, 2, 5, W);
    T.emitStoreWord(2, 1, 0, W);
    return std::make_shared<CodeSnippet>(W, RegSet{1, 2});
  }();
  auto Double = [&] {
    std::vector<MachWord> W;
    T.emitLoadConst(1, Cell, W);
    T.emitLoadWord(2, 1, 0, W);
    T.emitAddReg(2, 2, 2, W);
    T.emitStoreWord(2, 1, 0, W);
    return std::make_shared<CodeSnippet>(W, RegSet{1, 2});
  }();
  Exec.addCodeBefore(B, 0, Add5);
  Exec.addCodeBefore(B, 0, Double);

  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue());
  Machine M(Edited.value());
  M.run();
  EXPECT_EQ(M.memory().readWord(Cell), 10u); // (0+5)*2, not (0*2)+5
}

TEST(LayoutEdge, EditOrderingAtOnePointAfterAndAlongEdges) {
  // The same guarantee for code after an instruction and along an edge,
  // with the batch interleaving the edits of several points, so the
  // layouter's index must keep each point's edits in batch order. Snippet
  // D shifts digit D into a cell (cell = cell * 16 + D): the cell spells
  // the order in which the snippets ran.
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 1, %o1
  cmp %o1, 0
  bne .Ltaken
  nop
  mov 2, %o1
.Ltaken:
  mov 0, %o0
  sys 0
  ret
  nop
.data
.align 4
cell: .word 0
)"));
  Exec.readContents();
  Addr Cell = Exec.image().findSymbol("cell")->Value;
  const TargetInfo &T = Exec.target();
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  BasicBlock *B = G->blockAt(Exec.analysis().textBase());
  ASSERT_NE(B, nullptr);
  ASSERT_EQ(B->size(), 3u); // mov, cmp, bne
  const Edge *Taken = nullptr, *NotTaken = nullptr;
  for (const Edge *E : B->succ()) {
    if (E->kind() == EdgeKind::Taken)
      Taken = E;
    else if (E->kind() == EdgeKind::NotTaken)
      NotTaken = E;
  }
  ASSERT_NE(Taken, nullptr);
  ASSERT_NE(NotTaken, nullptr);

  auto ShiftIn = [&](unsigned Digit) {
    std::vector<MachWord> W;
    T.emitLoadConst(1, Cell, W);
    T.emitLoadWord(2, 1, 0, W);
    T.emitAluImm(DataOpKind::Sll, 2, 2, 4, W);
    T.emitAddImm(2, 2, static_cast<int32_t>(Digit), W);
    T.emitStoreWord(2, 1, 0, W);
    return std::make_shared<CodeSnippet>(W, RegSet{1, 2});
  };
  // Runs as 1 2 (before mov), 3 4 (after mov), 5 6 (after cmp), 7 8
  // (along the taken edge); the not-taken edge's 9 never runs.
  Exec.addCodeAlong(Taken, ShiftIn(7));
  Exec.addCodeBefore(B, 0, ShiftIn(1));
  Exec.addCodeAfter(B, 1, ShiftIn(5));
  Exec.addCodeAfter(B, 0, ShiftIn(3));
  Exec.addCodeAlong(NotTaken, ShiftIn(9));
  Exec.addCodeAlong(Taken, ShiftIn(8));
  Exec.addCodeBefore(B, 0, ShiftIn(2));
  Exec.addCodeAfter(B, 1, ShiftIn(6));
  Exec.addCodeAfter(B, 0, ShiftIn(4));

  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  Machine M(Edited.value());
  M.run();
  EXPECT_EQ(M.memory().readWord(Cell), 0x12345678u);
}

TEST(LayoutEdge, DeletedJumpTargetFallsThrough) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  ba .Ltgt
  nop
  mov 1, %o0
.Ltgt:
  mov 7, %o0           ! to be deleted: jump should land on the next inst
  add %o0, 2, %o0
  sys 0
  ret
  nop
)"));
  Exec.readContents();
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  BasicBlock *Target = G->blockAt(Exec.analysis().textBase() + 12);
  ASSERT_NE(Target, nullptr);
  Exec.deleteInst(Target, 0);
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue());
  // o0 is never set to 7; add sees whatever o0 was (0 at startup) + 2.
  EXPECT_EQ(runToCompletion(Edited.value()).ExitCode, 2);
}

TEST(LayoutEdge, MultiEntryRoutineInstrumented) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  call body_alt        ! enters compute at its second entry
  nop
  mov %o0, %o0
  sys 0
  ret
  nop
compute:
  mov 100, %o0
.hidden
body_alt:
  add %o0, 23, %o0
  ret
  nop
)"));
  RunResult Original = runToCompletion(Exec.image());
  EXPECT_EQ(Original.ExitCode, 23);
  Exec.readContents();
  Routine *Compute = Exec.findRoutine("compute");
  ASSERT_NE(Compute, nullptr);
  ASSERT_EQ(Compute->entryPoints().size(), 2u);
  // Count executions of the second entry's block.
  Addr Counter = Exec.appendData(4, 4);
  Cfg *G = Compute->controlFlowGraph();
  BasicBlock *Alt = G->blockAt(Compute->entryPoints()[1]);
  ASSERT_NE(Alt, nullptr);
  Exec.addCodeBefore(Alt, 0,
                     makeCounterIncrementSnippet(Exec.target(), Counter));
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  Machine M(Edited.value());
  RunResult After = M.run();
  EXPECT_EQ(After.ExitCode, 23);
  EXPECT_EQ(M.memory().readWord(Counter), 1u);
}

TEST(LayoutEdge, MriscInternalJumpsRetargeted) {
  // MRISC `j` is absolute-region: inserting code before it moves both the
  // jump and its target, so the layout must rewrite the index.
  Executable Exec(assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  li $a0, 1
  j .Lover
  nop
  li $a0, 99
.Lover:
  addi $a0, $a0, 2
  li $v0, 0
  syscall
  jr $ra
  nop
)"));
  RunResult Original = runToCompletion(Exec.image());
  EXPECT_EQ(Original.ExitCode, 3);
  Exec.readContents();
  Addr Counter = Exec.appendData(4, 4);
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  BasicBlock *B = G->blockAt(Exec.analysis().textBase());
  ASSERT_NE(B, nullptr);
  Exec.addCodeBefore(B, 0,
                     makeCounterIncrementSnippet(Exec.target(), Counter));
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue());
  RunResult After = runToCompletion(Edited.value());
  EXPECT_EQ(After.ExitCode, 3);
}

// --- Assembler error paths (MRISC) -------------------------------------------------

TEST(AsmErrors, MriscDiagnostics) {
  EXPECT_TRUE(
      assembleProgram(TargetArch::Mrisc, "add $t0, $t1\n").hasError());
  EXPECT_TRUE(
      assembleProgram(TargetArch::Mrisc, "addi $t0, $t1, 99999\n")
          .hasError());
  EXPECT_TRUE(
      assembleProgram(TargetArch::Mrisc, "lw $t0, 8[$sp]\n").hasError());
  EXPECT_TRUE(
      assembleProgram(TargetArch::Mrisc, "sll $t0, $t1, 32\n").hasError());
  EXPECT_TRUE(
      assembleProgram(TargetArch::Mrisc, "add $t0, $t1, $zz\n").hasError());
  Expected<SxfFile> R =
      assembleProgram(TargetArch::Mrisc, "nop\nbogus $t0\n");
  ASSERT_TRUE(R.hasError());
  EXPECT_NE(R.error().message().find("line 2"), std::string::npos);
}

// --- VM fault paths --------------------------------------------------------------------

TEST(VmFaults, MisalignedLoadStops) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  set 0x400001, %o1
  ld [%o1 + 0], %o2
  sys 0
  ret
  nop
)");
  RunResult R = runToCompletion(File);
  EXPECT_EQ(R.Reason, StopReason::BadAlignment);
}

TEST(VmFaults, MisalignedPcStops) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  set main, %o1
  add %o1, 2, %o1
  jmpl %o1 + 0, %g0
  nop
  ret
  nop
)");
  RunResult R = runToCompletion(File);
  EXPECT_EQ(R.Reason, StopReason::BadAlignment);
}
