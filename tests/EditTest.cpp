//===- tests/EditTest.cpp - EEL core: end-to-end editing tests --------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The editing pipeline verified end-to-end: assemble a program, run it in
/// the VM for ground truth, edit it (snippets before/after instructions,
/// along edges, deletions, high register pressure, dispatch tables,
/// run-time translation), write the edited executable, run it again, and
/// require identical observable behaviour plus correct instrumentation
/// results.
///
//===----------------------------------------------------------------------===//

#include "asmkit/Assembler.h"
#include "core/Executable.h"
#include "core/Liveness.h"
#include "isa/SriscEncoding.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

using namespace eel;

namespace {

/// A snippet incrementing a 32-bit counter in memory, built from the
/// target's codegen helpers with placeholder registers 1 and 2 — the
/// Figure 5 snippet, machine-independently.
SnippetPtr makeCounterSnippet(const TargetInfo &T, Addr CounterAddr) {
  std::vector<MachWord> Body;
  const unsigned RegA = 1, RegB = 2;
  T.emitLoadConst(RegA, CounterAddr, Body);
  T.emitLoadWord(RegB, RegA, 0, Body);
  T.emitAddImm(RegB, RegB, 1, Body);
  T.emitStoreWord(RegB, RegA, 0, Body);
  return std::make_shared<CodeSnippet>(Body, RegSet{RegA, RegB});
}

struct EditedRun {
  RunResult Original;
  RunResult Edited;
  SxfFile EditedFile;
};

/// Writes the edited executable and runs both versions.
EditedRun runBoth(Executable &Exec) {
  EditedRun R;
  R.Original = runToCompletion(Exec.image());
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  if (Edited.hasError())
    ADD_FAILURE() << "writeEditedExecutable: " << Edited.error().message();
  R.EditedFile = Edited.takeValue();
  R.Edited = runToCompletion(R.EditedFile);
  return R;
}

void expectSameBehavior(const EditedRun &R) {
  EXPECT_EQ(static_cast<int>(R.Original.Reason),
            static_cast<int>(R.Edited.Reason));
  EXPECT_EQ(R.Original.ExitCode, R.Edited.ExitCode);
  EXPECT_EQ(R.Original.Output, R.Edited.Output);
}

/// Reads a counter out of the edited program's final memory.
uint32_t counterAfterRun(const SxfFile &File, Addr CounterAddr,
                         int *ExitCode = nullptr) {
  Machine M(File);
  RunResult R = M.run();
  EXPECT_EQ(R.Reason, StopReason::Exited);
  if (ExitCode)
    *ExitCode = R.ExitCode;
  return M.memory().readWord(CounterAddr);
}

const char *LoopProgram = R"(
.text
main:
  mov 0, %o4
  mov 1, %o5
.Lloop:
  add %o4, %o5, %o4
  add %o5, 1, %o5
  cmp %o5, 10
  ble .Lloop
  nop
  mov %o4, %o0
  sys 0
  ret
  nop
)";

} // namespace

// --- Identity rewrites: no edits, identical behaviour ------------------------------

TEST(IdentityRewrite, LoopProgram) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, LoopProgram));
  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(R.Edited.ExitCode, 55);
}

TEST(IdentityRewrite, CallsAndAnnulledBranches) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  call twice
  mov 5, %o0
  cmp %o0, 10
  be,a .Lok
  add %o0, 1, %o0      ! annulled delay: executes only if equal
  mov 0, %o0
.Lok:
  sys 0
  ret
  nop
twice:
  ret
  add %o0, %o0, %o0
)"));
  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(R.Edited.ExitCode, 11);
}

TEST(IdentityRewrite, DispatchTable) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  set selector, %o5
  ld [%o5 + 0], %o1     ! dynamic selector: the slicer cannot fold it
  cmp %o1, 2
  bgu .Ldefault
  nop
  sll %o1, 2, %o2
  set table, %o3
  ld [%o3 + %o2], %o4
  jmpl %o4 + 0, %g0
  nop
.Lcase0:
  mov 10, %o0
  sys 0
.Lcase1:
  mov 20, %o0
  sys 0
.Lcase2:
  mov 30, %o0
  sys 0
.Ldefault:
  mov 99, %o0
  sys 0
  ret
  nop
.data
.align 4
selector: .word 1
table: .word .Lcase0, .Lcase1, .Lcase2
)"));
  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(R.Edited.ExitCode, 20);
  EXPECT_EQ(Exec.editStats().DispatchEntriesRewritten, 3u);
}

TEST(IdentityRewrite, FunctionPointerThroughData) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  set fptr, %o1
  ld [%o1 + 0], %o2
  jmpl %o2 + 0, %o7     ! indirect call through a data cell
  nop
  sys 0
  ret
  nop
.hidden
secret:
  ret
  mov 42, %o0
.data
.align 4
fptr: .word secret
)"));
  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(R.Edited.ExitCode, 42);
  EXPECT_GE(Exec.editStats().DataPointersRewritten, 1u);
}

TEST(IdentityRewrite, MriscPrograms) {
  Executable Exec(assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  li $t0, 5
  li $a0, 0
.Lloop:
  add $a0, $a0, $t0
  addi $t0, $t0, -1
  bgtz $t0, .Lloop
  nop
  jal f
  nop
  li $v0, 0
  syscall
  jr $ra
  nop
f:
  addi $a0, $a0, 100
  jr $ra
  nop
)"));
  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(R.Edited.ExitCode, 115);
}

// --- Snippet insertion ------------------------------------------------------------

TEST(SnippetEdit, CountBeforeInstruction) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, LoopProgram));
  Exec.readContents();
  Addr Counter = Exec.appendData(4, 4);
  Routine *Main = Exec.findRoutine("main");
  Cfg *G = Main->controlFlowGraph();
  // Count executions of the loop body's first instruction.
  BasicBlock *LoopHead = G->blockAt(Exec.analysis().textBase() + 8);
  ASSERT_NE(LoopHead, nullptr);
  Exec.addCodeBefore(LoopHead, 0, makeCounterSnippet(Exec.target(), Counter));

  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(counterAfterRun(R.EditedFile, Counter), 10u);
}

TEST(SnippetEdit, CountAlongBranchEdges) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, LoopProgram));
  Exec.readContents();
  Addr TakenCounter = Exec.appendData(4, 4);
  Addr FallCounter = Exec.appendData(4, 4);
  Routine *Main = Exec.findRoutine("main");
  Cfg *G = Main->controlFlowGraph();
  // The ble's block: find its taken / not-taken edges.
  BasicBlock *BranchBlock = nullptr;
  for (const auto &B : G->blocks())
    if (B->kind() == BlockKind::Normal && B->terminator() &&
        B->terminator()->kind() == InstKind::Branch)
      BranchBlock = B;
  ASSERT_NE(BranchBlock, nullptr);
  for (Edge *E : BranchBlock->succ()) {
    if (E->kind() == EdgeKind::Taken)
      Exec.addCodeAlong(E, makeCounterSnippet(Exec.target(), TakenCounter));
    if (E->kind() == EdgeKind::NotTaken)
      Exec.addCodeAlong(E, makeCounterSnippet(Exec.target(), FallCounter));
  }

  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  // Loop iterates o5 = 1..10: ble taken 9 times, falls through once.
  EXPECT_EQ(counterAfterRun(R.EditedFile, TakenCounter), 9u);
  EXPECT_EQ(counterAfterRun(R.EditedFile, FallCounter), 1u);
}

TEST(SnippetEdit, CcLivenessSaveRestore) {
  // The snippet sits between the cmp and the branch that consumes the
  // condition codes, and declares it clobbers them: EEL must wrap it with
  // CC save/restore (the Blizzard-S situation from §5).
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 7, %o4
  cmp %o4, 7
  mov 0, %o5          ! insertion point: CC live here
  be .Leq
  nop
  mov 1, %o0
  sys 0
.Leq:
  mov 0, %o0
  sys 0
  ret
  nop
)"));
  Exec.readContents();
  Addr Counter = Exec.appendData(4, 4);
  Routine *Main = Exec.findRoutine("main");
  Cfg *G = Main->controlFlowGraph();
  BasicBlock *Body = G->blockAt(Exec.analysis().textBase());
  ASSERT_NE(Body, nullptr);
  // A CC-clobbering counting snippet (uses subcc to do its addition).
  std::vector<MachWord> Words;
  const TargetInfo &T = Exec.target();
  T.emitLoadConst(1, Counter, Words);
  T.emitLoadWord(2, 1, 0, Words);
  using namespace srisc;
  Words.push_back(encodeArithImm(Op3AddCC, 2, 2, 1)); // addcc: clobbers CC
  T.emitStoreWord(2, 1, 0, Words);
  auto Snip = std::make_shared<CodeSnippet>(Words, RegSet{1, 2});
  Snip->setClobbersCC(true);
  Exec.addCodeBefore(Body, 2, Snip);

  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(R.Edited.ExitCode, 0); // branch outcome preserved
  EXPECT_EQ(counterAfterRun(R.EditedFile, Counter), 1u);
  EXPECT_EQ(Exec.editStats().SnippetCCSaves, 1u);
}

TEST(SnippetEdit, HighRegisterPressureSpills) {
  // Every scavengeable register is live at the insertion point, so the
  // snippet must spill.
  std::string Source = ".text\nmain:\n";
  // Make registers 1..13 and 16..31 live across the insertion point by
  // defining them before and using them after.
  for (unsigned Reg = 1; Reg < 32; ++Reg) {
    if (Reg == 14 || Reg == 15 || Reg == 30)
      continue; // sp, link, fp
    Source += "  mov " + std::to_string(Reg) + ", %r" +
              std::to_string(Reg) + "\n";
  }
  Source += "  mov 0, %o0\n"; // insertion point target
  for (unsigned Reg = 1; Reg < 32; ++Reg) {
    if (Reg == 14 || Reg == 15 || Reg == 30 || Reg == 8)
      continue;
    Source += "  add %o0, %r" + std::to_string(Reg) + ", %o0\n";
  }
  Source += "  sys 0\n  ret\n  nop\n";
  Executable Exec(assembleOrDie(TargetArch::Srisc, Source));
  Exec.readContents();
  Addr Counter = Exec.appendData(4, 4);
  Routine *Main = Exec.findRoutine("main");
  Cfg *G = Main->controlFlowGraph();
  BasicBlock *Body = G->blockAt(Exec.analysis().textBase());
  ASSERT_NE(Body, nullptr);
  // Find the "mov 0, %o0" instruction index (28 defs before it).
  unsigned InsertAt = 28;
  ASSERT_EQ(Body->insts()[InsertAt].Inst->dataOp().Kind, DataOpKind::Or);
  Exec.addCodeBefore(Body, InsertAt,
                     makeCounterSnippet(Exec.target(), Counter));

  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(counterAfterRun(R.EditedFile, Counter), 1u);
  EXPECT_GT(Exec.editStats().SnippetSpills, 0u);
}

TEST(SnippetEdit, DeleteInstruction) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 5, %o0
  add %o0, 100, %o0   ! to be deleted
  sys 0
  ret
  nop
)"));
  Exec.readContents();
  Routine *Main = Exec.findRoutine("main");
  Cfg *G = Main->controlFlowGraph();
  BasicBlock *Body = G->blockAt(Exec.analysis().textBase());
  ASSERT_NE(Body, nullptr);
  Exec.deleteInst(Body, 1);
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  RunResult R = runToCompletion(Edited.value());
  EXPECT_EQ(R.ExitCode, 5); // the +100 never happens
}

TEST(SnippetEdit, TaggedSnippetAndCallback) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, LoopProgram));
  Exec.readContents();
  Addr Counter = Exec.appendData(4, 4);
  Routine *Main = Exec.findRoutine("main");
  Cfg *G = Main->controlFlowGraph();
  BasicBlock *Body = G->blockAt(Exec.analysis().textBase());
  ASSERT_NE(Body, nullptr);

  // Build the snippet with a placeholder constant, then patch the counter
  // address through findInst (the Figure 5 pattern), and observe the
  // callback's final address and register assignment.
  const TargetInfo &T = Exec.target();
  std::vector<MachWord> Words;
  T.emitLoadConst(1, 0x12345678u, Words); // sethi+or pair to patch
  ASSERT_EQ(Words.size(), 2u);
  T.emitLoadWord(2, 1, 0, Words);
  T.emitAddImm(2, 2, 1, Words);
  T.emitStoreWord(2, 1, 0, Words);
  auto Snip = std::make_shared<TaggedCodeSnippet>(Words, RegSet{1, 2});
  {
    using namespace srisc;
    Snip->findInst(0) = encodeSethi(1, Counter >> 10);
    Snip->findInst(1) =
        encodeArithImm(Op3Or, 1, 1, static_cast<int32_t>(Counter & 0x3FF));
  }
  bool CallbackRan = false;
  Addr CallbackAddr = 0;
  Snip->setCallback([&](SnippetInstance &Inst) {
    CallbackRan = true;
    CallbackAddr = Inst.StartAddr;
    // Placeholders were rebound to real registers.
    EXPECT_NE(Inst.RegMap[1], 1u);
  });
  Exec.addCodeBefore(Body, 0, Snip);

  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_TRUE(CallbackRan);
  EXPECT_GE(CallbackAddr, Exec.analysis().textBase());
  EXPECT_EQ(counterAfterRun(R.EditedFile, Counter), 1u);
}

// --- Run-time translation -----------------------------------------------------------

TEST(Translation, TaggedPointerJump) {
  // The program obfuscates a code pointer (stores target+4) so neither
  // slicing nor data rewriting can fix it statically; only the run-time
  // translator can keep the edited program working.
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  set fptr, %o1
  ld [%o1 + 0], %o2
  sub %o2, 1, %o2      ! strip the tag: a value the slice cannot follow
  jmpl %o2 + 0, %g0
  nop
.Lnever:
  mov 1, %o0
  sys 0
landing:
  mov 77, %o0
  sys 0
  ret
  nop
.data
.align 4
fptr: .word landing + 1
)"));
  Exec.readContents();
  Routine *Main = Exec.findRoutine("main");
  Cfg *G = Main->controlFlowGraph();
  EXPECT_FALSE(G->complete());

  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(R.Edited.ExitCode, 77);
  EXPECT_GE(Exec.editStats().TranslationSites, 1u);
  EXPECT_GT(Exec.editStats().TranslationEntries, 0u);
}

TEST(Translation, EditedProgramWithTranslation) {
  // Combine: instrument a program whose control flow needs translation.
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  set fptr, %o1
  ld [%o1 + 0], %o2
  sub %o2, 1, %o2
  jmpl %o2 + 0, %g0
  nop
landing:
  mov 3, %o0
  sys 0
  ret
  nop
.data
.align 4
fptr: .word landing + 1
)"));
  Exec.readContents();
  Addr Counter = Exec.appendData(4, 4);
  // `landing` carries a symbol, so it is its own routine; instrument it.
  Routine *LandingR = Exec.findRoutine("landing");
  ASSERT_NE(LandingR, nullptr);
  Cfg *G = LandingR->controlFlowGraph();
  BasicBlock *Landing = G->blockAt(LandingR->startAddr());
  ASSERT_NE(Landing, nullptr);
  Exec.addCodeBefore(Landing, 0, makeCounterSnippet(Exec.target(), Counter));

  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(R.Edited.ExitCode, 3);
  // The indirect jump lands on the instrumented block: counter == 1.
  EXPECT_EQ(counterAfterRun(R.EditedFile, Counter), 1u);
}

TEST(Translation, MriscJumpThroughRegister) {
  Executable Exec(assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  la $t0, fptr
  lw $t1, 0($t0)
  addi $t1, $t1, -1    # strip tag
  jr $t1
  nop
.Lnever:
  li $a0, 1
  li $v0, 0
  syscall
landing:
  li $a0, 9
  li $v0, 0
  syscall
  jr $ra
  nop
.data
.align 4
fptr: .word landing + 1
)"));
  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(R.Edited.ExitCode, 9);
}

// --- Edge instrumentation of switch cases ----------------------------------------

TEST(SwitchEdit, CountCaseEdges) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 0, %l0            ! loop index
  mov 0, %l1            ! sum
.Louter:
  and %l0, 3, %o1
  cmp %o1, 3
  bgu .Ldefault
  nop
  sll %o1, 2, %o2
  set table, %o3
  ld [%o3 + %o2], %o4
  jmpl %o4 + 0, %g0
  nop
.Lcase0:
  ba .Lnext
  add %l1, 1, %l1
.Lcase1:
  ba .Lnext
  add %l1, 10, %l1
.Lcase2:
  ba .Lnext
  add %l1, 100, %l1
.Lcase3:
  ba .Lnext
  add %l1, 1000, %l1
.Ldefault:
  add %l1, 0, %l1
.Lnext:
  add %l0, 1, %l0
  cmp %l0, 8
  bl .Louter
  nop
  mov %l1, %o0
  sys 0
  ret
  nop
.data
.align 4
table: .word .Lcase0, .Lcase1, .Lcase2, .Lcase3
)"));
  Exec.readContents();
  Routine *Main = Exec.findRoutine("main");
  Cfg *G = Main->controlFlowGraph();
  ASSERT_EQ(G->indirectSites().size(), 1u);
  const IndirectSite &Site = G->indirectSites()[0];
  ASSERT_EQ(Site.Resolution.K, IndirectResolution::Kind::DispatchTable);
  ASSERT_EQ(Site.Resolution.EntryCount, 4u);

  // Count every case edge.
  std::vector<Addr> Counters;
  const Edge *ToDelay = nullptr;
  for (const Edge *E : Site.Block->succ())
    if (E->kind() == EdgeKind::SwitchCase)
      ToDelay = E;
  ASSERT_NE(ToDelay, nullptr);
  for (Edge *E : ToDelay->dst()->succ()) {
    Addr C = Exec.appendData(4, 4);
    Counters.push_back(C);
    Exec.addCodeAlong(E, makeCounterSnippet(Exec.target(), C));
  }
  ASSERT_EQ(Counters.size(), 4u);

  EditedRun R = runBoth(Exec);
  expectSameBehavior(R);
  EXPECT_EQ(R.Edited.ExitCode, 2222); // 2 * (1 + 10 + 100 + 1000)
  for (Addr C : Counters)
    EXPECT_EQ(counterAfterRun(R.EditedFile, C), 2u);
}

// --- Symbol table of the edited program ---------------------------------------------

TEST(EditedOutput, SymbolsUpdated) {
  // The debug label emits a second, local symbol named "main" after the
  // global one; the edited routine keeps the first symbol's binding.
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
.global main
main:
  call f
  nop
  sys 0
.debuglabel main
  ret
  nop
f:
  ret
  mov 1, %o0
.data
obj: .word 7
)"));
  std::vector<SymBinding> MainBindings;
  for (const SxfSymbol &Sym : Exec.image().Symbols)
    if (Sym.Name == "main")
      MainBindings.push_back(Sym.Binding);
  ASSERT_EQ(MainBindings, (std::vector<SymBinding>{SymBinding::Global,
                                                   SymBinding::Local}));
  Exec.readContents();
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue());
  const SxfFile &Out = Edited.value();
  const SxfSymbol *MainSym = Out.findSymbol("main");
  ASSERT_NE(MainSym, nullptr);
  EXPECT_EQ(MainSym->Value, Exec.editedAddr(Exec.image().Entry));
  EXPECT_EQ(MainSym->Binding, SymBinding::Global);
  const SxfSymbol *FSym = Out.findSymbol("f");
  ASSERT_NE(FSym, nullptr);
  EXPECT_EQ(FSym->Value,
            Exec.editedAddr(Exec.findRoutine("f")->startAddr()));
  // Data symbols keep their addresses.
  const SxfSymbol *Obj = Out.findSymbol("obj");
  ASSERT_NE(Obj, nullptr);
  EXPECT_EQ(Obj->Value, Exec.image().findSymbol("obj")->Value);
  EXPECT_EQ(Out.Entry, Exec.editedAddr(Exec.image().Entry));
}

TEST(EditedOutput, TextRunningIntoDataIsAnError) {
  // Data sits on the page right after the original text, exactly where the
  // edited text is placed, so any edit collides with it. The writer must
  // report the collision instead of returning an image the loader rejects.
  AsmOptions Layout;
  Layout.DataBase = 0x11000;
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 0, %o0
  sys 0
  ret
  nop
.data
obj: .word 7
)",
                                Layout));
  ASSERT_LT(Exec.analysis().textEnd(), Layout.DataBase);
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasError());
  EXPECT_EQ(Edited.error().code(), ErrorCode::SegmentOverlap);
  EXPECT_NE(Edited.error().message().find("edited text [0x11000, 0x11010)"),
            std::string::npos)
      << Edited.error().message();
  EXPECT_NE(Edited.error().message().find("data segment [0x11000, 0x11004)"),
            std::string::npos)
      << Edited.error().message();
}
