//===- tests/AriscCoreTest.cpp - delay-slot-free core regressions -----------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression tests for the SPARC-isms the ARISC port flushed out of the
/// machine-independent core. ARISC has no delay slots, so every site that
/// silently assumed "a transfer occupies eight bytes" or "a delay-slot
/// block hangs off every transfer edge" is pinned here, one test per fixed
/// site:
///
///  * CfgBuild — branch fallthrough and call continuation at A+4, taken
///    edges direct to their destination, dispatch case edges hanging off
///    the jump block itself, and no DelaySlot blocks anywhere;
///  * SymbolRefine — stripped-binary reachability past a call at A+4;
///  * Layout — edited branches/calls/returns re-emitted without slot
///    words, checked end-to-end by behaviour;
///  * Translate — the $t14/$at run-time translation protocol;
///  * VerifyPasses — the flipped invariant: a delay-slot block on a
///    delay-slot-free machine is now the *error*.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "asmkit/Assembler.h"
#include "core/Executable.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

using namespace eel;

namespace {

Executable makeExec(const std::string &Source) {
  return Executable(assembleOrDie(TargetArch::Arisc, Source));
}

unsigned countBlocks(const Cfg *G, BlockKind K) {
  unsigned N = 0;
  for (const auto &B : G->blocks())
    if (B->kind() == K)
      ++N;
  return N;
}

/// No block in any routine of \p Exec may be a DelaySlot block: the
/// machine has no delay slots, so growing one is a builder bug.
void expectNoDelayBlocks(Executable &Exec) {
  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    if (!G)
      continue;
    EXPECT_EQ(countBlocks(G, BlockKind::DelaySlot), 0u)
        << "routine " << R->name() << " grew a delay-slot block";
  }
}

} // namespace

// --- CfgBuild: fallthrough/continuation at A+4, direct edges -----------------

// Regression for CfgBuild::discover/connectBlock assuming the branch
// fallthrough starts at A+8 (past a delay slot that does not exist here).
TEST(AriscCfg, BranchFallthroughAtNextWord) {
  Executable Exec = makeExec(R"(
.text
main:
  li $a0, 1
  beq $a0, $zero, .Ldone
  addi $a0, $a0, 1
.Ldone:
  sys 0
  ret
)");
  Exec.readContents();
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  EXPECT_TRUE(G->complete());
  expectNoDelayBlocks(Exec);

  Addr BranchAddr = Exec.analysis().textBase() + 4;
  BasicBlock *BranchBlock = G->blockAt(Exec.analysis().textBase());
  ASSERT_NE(BranchBlock, nullptr);
  ASSERT_EQ(BranchBlock->succ().size(), 2u);
  const Edge *Taken = nullptr, *NotTaken = nullptr;
  for (const Edge *E : BranchBlock->succ()) {
    if (E->kind() == EdgeKind::Taken)
      Taken = E;
    if (E->kind() == EdgeKind::NotTaken)
      NotTaken = E;
  }
  ASSERT_NE(Taken, nullptr);
  ASSERT_NE(NotTaken, nullptr);
  // The taken edge lands on the destination block directly.
  EXPECT_EQ(Taken->dst()->kind(), BlockKind::Normal);
  EXPECT_EQ(Taken->dst()->anchor(), BranchAddr + 8); // .Ldone
  // The fallthrough begins at the very next word, not at A+8.
  EXPECT_EQ(NotTaken->dst()->kind(), BlockKind::Normal);
  EXPECT_EQ(NotTaken->dst()->anchor(), BranchAddr + 4);
}

// Regression for the call path: the surrogate hangs directly off the call
// block and the continuation starts at A+4.
TEST(AriscCfg, CallSurrogateDirect) {
  Executable Exec = makeExec(R"(
.text
main:
  bsr f
  li $a0, 0
  sys 0
  ret
f:
  ret
)");
  Exec.readContents();
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  EXPECT_TRUE(G->complete());
  expectNoDelayBlocks(Exec);
  EXPECT_EQ(countBlocks(G, BlockKind::CallSurrogate), 1u);

  BasicBlock *CallBlock = G->blockAt(Exec.analysis().textBase());
  ASSERT_NE(CallBlock, nullptr);
  ASSERT_EQ(CallBlock->succ().size(), 1u);
  const Edge *ToSurrogate = CallBlock->succ()[0];
  ASSERT_EQ(ToSurrogate->dst()->kind(), BlockKind::CallSurrogate);
  EXPECT_TRUE(ToSurrogate->dst()->empty());
  Routine *F = Exec.findRoutine("f");
  EXPECT_EQ(ToSurrogate->dst()->callTarget(),
            std::optional<Addr>(F->startAddr()));
  // The continuation block is the instruction after the call, not A+8.
  ASSERT_EQ(ToSurrogate->dst()->succ().size(), 1u);
  EXPECT_EQ(ToSurrogate->dst()->succ()[0]->dst()->anchor(),
            Exec.analysis().textBase() + 4);
}

// Regression for the indirect-jump path: case edges hang off the jump
// block itself (on delay-slot machines they transit a shared delay block),
// and the CfgWellFormed arity rule accepts that shape.
TEST(AriscCfg, DispatchCaseEdgesOffJumpBlock) {
  Executable Exec = makeExec(R"(
.text
main:
  li $a0, 1
  andi $t0, $a0, 3
  cmplti $at, $t0, 4
  beq $at, $zero, .Ldef
  slli $t1, $t0, 2
  ldih $t2, %hi(table)
  ori $t2, $t2, %lo(table)
  add $t2, $t2, $t1
  ldw $t3, 0($t2)
  jmp ($t3)
.Lc0:
  li $a0, 10
  sys 0
.Lc1:
  li $a0, 20
  sys 0
.Lc2:
  li $a0, 30
  sys 0
.Lc3:
  li $a0, 40
  sys 0
.Ldef:
  li $a0, 99
  sys 0
  ret
.data
.align 4
table: .word .Lc0, .Lc1, .Lc2, .Lc3
)");
  Exec.readContents();
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  EXPECT_TRUE(G->complete());
  expectNoDelayBlocks(Exec);
  ASSERT_EQ(G->indirectSites().size(), 1u);
  const IndirectSite &Site = G->indirectSites()[0];
  EXPECT_EQ(Site.Resolution.K, IndirectResolution::Kind::DispatchTable);
  EXPECT_EQ(Site.Resolution.EntryCount, 4u);
  EXPECT_TRUE(Site.Resolution.BoundsProven);

  BasicBlock *JumpBlock = Site.Block;
  ASSERT_NE(JumpBlock, nullptr);
  ASSERT_EQ(JumpBlock->succ().size(), 4u);
  for (const Edge *E : JumpBlock->succ()) {
    EXPECT_EQ(E->kind(), EdgeKind::SwitchCase);
    EXPECT_NE(E->dst()->kind(), BlockKind::DelaySlot);
  }
}

// --- SymbolRefine: stripped-binary scan past a call at A+4 -------------------

// Regression for scanReachable() skipping A+8 past every call: on ARISC
// that would treat the word after the continuation as the resume point and
// misplace the routine boundary in a stripped binary.
TEST(AriscRefine, StrippedCallContinuation) {
  SxfFile File = assembleOrDie(TargetArch::Arisc, R"(
.text
main:
  bsr f
  li $a0, 0
  sys 0
  ret
f:
  ret
)");
  File.strip();
  Executable Exec((SxfFile(File)));
  Exec.readContents();
  ASSERT_EQ(Exec.routines().size(), 2u);
  // main is exactly four words: bsr, li, sys, ret.
  EXPECT_EQ(Exec.routines()[0]->endAddr(),
            Exec.routines()[0]->startAddr() + 16);
  EXPECT_EQ(Exec.routines()[1]->startAddr(),
            Exec.routines()[0]->endAddr());
}

// --- Layout: no slot words in re-emitted transfers ---------------------------

// Regression for lowerBranch/lowerCall/lowerReturn emitting origWordAt(A+4)
// after every transfer. Instrument a branch-heavy loop so every block
// moves, then require identical behaviour and an exact dynamic count.
TEST(AriscEdit, EditedLoopBehavesIdentically) {
  Executable Exec = makeExec(R"(
.text
main:
  li $t0, 0
  li $t1, 1
.Lloop:
  add $t0, $t0, $t1
  addi $t1, $t1, 1
  cmplti $at, $t1, 11
  bne $at, $zero, .Lloop
  move $a0, $t0
  sys 0
  ret
.data
.align 4
counter: .word 0
)");
  RunResult Original = runToCompletion(Exec.image());
  ASSERT_EQ(Original.Reason, StopReason::Exited);
  ASSERT_EQ(Original.ExitCode, 55);

  Exec.readContents();
  Addr CounterAddr = Exec.image().findSymbol("counter")->Value;
  const TargetInfo &T = Exec.target();
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  BasicBlock *LoopBlock = G->blockAt(Exec.analysis().textBase() + 8);
  ASSERT_NE(LoopBlock, nullptr);
  std::vector<MachWord> Body;
  T.emitLoadConst(1, CounterAddr, Body);
  T.emitLoadWord(2, 1, 0, Body);
  T.emitAddImm(2, 2, 1, Body);
  T.emitStoreWord(2, 1, 0, Body);
  Exec.addCodeBefore(LoopBlock, 0,
                     std::make_shared<CodeSnippet>(Body, RegSet{1, 2}));

  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue())
      << (Edited.hasError() ? Edited.error().describe() : "");
  Machine M(Edited.value());
  RunResult After = M.run();
  EXPECT_EQ(After.Reason, StopReason::Exited);
  EXPECT_EQ(After.ExitCode, 55);
  EXPECT_EQ(M.memory().readWord(CounterAddr), 10u); // loop body ran 10x

  DiagnosticReport Report = verifyEdit(Exec, Edited.value(), {});
  EXPECT_EQ(Report.errorCount(), 0u) << Report.renderText();
}

// --- Translate: the $t14/$at translation protocol ----------------------------

// Regression for emitTranslationSite/translatorAsm: an unanalyzable
// cell-pointer tail call must survive editing via run-time translation —
// the site loads the target into $t14 and jumps through $at without a
// delay word.
TEST(AriscEdit, RunTimeTranslationPreservesTailCall) {
  Executable Exec = makeExec(R"(
.text
main:
  addi $sp, $sp, -32
  stw $ra, 4($sp)
  bsr compute
  ldw $ra, 4($sp)
  addi $sp, $sp, 32
  move $a0, $v0
  sys 0
  ret
compute:
  ldih $t0, %hi(fptr)
  ori $t0, $t0, %lo(fptr)
  ldw $t1, 0($t0)
  jmp ($t1)
target:
  li $v0, 7
  ret
.data
.align 4
fptr: .word target
)");
  RunResult Original = runToCompletion(Exec.image());
  ASSERT_EQ(Original.Reason, StopReason::Exited);
  ASSERT_EQ(Original.ExitCode, 7);

  Exec.readContents();
  Routine *Compute = Exec.findRoutine("compute");
  ASSERT_NE(Compute, nullptr);
  Cfg *G = Compute->controlFlowGraph();
  EXPECT_FALSE(G->complete());
  EXPECT_FALSE(G->unsupported()); // editable via translation
  ASSERT_EQ(G->indirectSites().size(), 1u);
  EXPECT_EQ(G->indirectSites()[0].Resolution.K,
            IndirectResolution::Kind::CellPointer);

  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue())
      << (Edited.hasError() ? Edited.error().describe() : "");
  RunResult After = runToCompletion(Edited.value());
  EXPECT_EQ(After.Reason, StopReason::Exited);
  EXPECT_EQ(After.ExitCode, 7);
}

// --- VerifyPasses: the invariant flips on a delay-slot-free machine ----------

// Regression for checkDelaySlotsIR demanding a delay block after every
// transfer: on ARISC the pass must accept delay-free shapes (and the
// other direction — flagging a grown delay block — is exercised by the
// pass on every CFG above).
TEST(AriscVerify, LintAcceptsDelayFreePrograms) {
  SxfFile Image = assembleOrDie(TargetArch::Arisc, R"(
.text
main:
  li $t0, 3
.Lloop:
  addi $t0, $t0, -1
  blt $zero, $t0, .Lloop
  bsr f
  li $a0, 0
  sys 0
  ret
f:
  ret
)");
  DiagnosticReport Report = lintImage(Image);
  EXPECT_FALSE(Report.hasErrors()) << Report.renderText();
  EXPECT_GT(Report.checksRun(), 0u);
}
