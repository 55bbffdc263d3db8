//===- tests/VmTest.cpp - Simulator tests ----------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "asmkit/Assembler.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

using namespace eel;

TEST(VmSrisc, ExitCode) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 42, %o0
  sys 0
)");
  RunResult R = runToCompletion(File);
  EXPECT_EQ(R.Reason, StopReason::Exited);
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(VmSrisc, ReturnFromMainExits) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 7, %o0
  ret
  nop
)");
  RunResult R = runToCompletion(File);
  EXPECT_EQ(R.Reason, StopReason::Exited);
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(VmSrisc, ArithmeticAndLoop) {
  // Sum 1..10 = 55.
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 0, %o0
  mov 1, %o1
loop:
  add %o0, %o1, %o0
  add %o1, 1, %o1
  cmp %o1, 10
  ble loop
  nop
  sys 0
)");
  RunResult R = runToCompletion(File);
  EXPECT_EQ(R.ExitCode, 55);
}

TEST(VmSrisc, MemoryAndStrings) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 1, %o0
  set msg, %o1
  mov 6, %o2
  sys 1
  set value, %o3
  ld [%o3 + 0], %o0
  sys 0
.data
msg: .asciz "hello\n"
.align 4
value: .word 99
)");
  RunResult R = runToCompletion(File);
  EXPECT_EQ(R.Output, "hello\n");
  EXPECT_EQ(R.ExitCode, 99);
}

TEST(VmSrisc, DelaySlotExecutesBeforeTransfer) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 0, %o0
  ba done
  add %o0, 5, %o0     ! delay slot: executes
  add %o0, 100, %o0   ! skipped
done:
  sys 0
)");
  EXPECT_EQ(runToCompletion(File).ExitCode, 5);
}

TEST(VmSrisc, AnnulledBranchTaken) {
  // be,a with the branch taken: delay slot executes.
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 0, %o0
  cmp %g0, 0
  be,a done
  add %o0, 5, %o0     ! executes: branch taken
  add %o0, 100, %o0
done:
  sys 0
)");
  EXPECT_EQ(runToCompletion(File).ExitCode, 5);
}

TEST(VmSrisc, AnnulledBranchUntakenSquashesDelay) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 0, %o0
  cmp %g0, 1
  be,a elsewhere
  add %o0, 5, %o0     ! squashed: annulled, branch untaken
  add %o0, 100, %o0   ! falls through to here
  sys 0
elsewhere:
  mov 77, %o0
  sys 0
)");
  EXPECT_EQ(runToCompletion(File).ExitCode, 100);
}

TEST(VmSrisc, BaAnnulAlwaysSquashes) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 0, %o0
  ba,a done
  add %o0, 5, %o0     ! squashed: ba,a annuls its delay slot
done:
  sys 0
)");
  EXPECT_EQ(runToCompletion(File).ExitCode, 0);
}

TEST(VmSrisc, CallAndReturn) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  call double_it
  mov 21, %o0         ! delay slot sets the argument
  sys 0
double_it:
  ret
  add %o0, %o0, %o0   ! delay slot of ret computes the result
)");
  EXPECT_EQ(runToCompletion(File).ExitCode, 42);
}

TEST(VmSrisc, IndirectJumpThroughTable) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  set table, %o1
  ld [%o1 + 4], %o2   ! second entry
  jmpl %o2 + 0, %g0
  nop
case0:
  mov 10, %o0
  sys 0
case1:
  mov 20, %o0
  sys 0
.data
.align 4
table: .word case0, case1
)");
  EXPECT_EQ(runToCompletion(File).ExitCode, 20);
}

TEST(VmSrisc, ConditionCodeAccess) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  cmp %g0, 0           ! sets Z
  rdcc %o1
  cmp %g0, 1           ! clears Z
  wrcc %o1             ! restore Z
  be yes
  nop
  mov 0, %o0
  sys 0
yes:
  mov 1, %o0
  sys 0
)");
  EXPECT_EQ(runToCompletion(File).ExitCode, 1);
}

TEST(VmSrisc, SbrkAndHooks) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  mov 64, %o0
  sys 2                ! sbrk(64)
  mov %o0, %o3
  mov 7, %o4
  st %o4, [%o3 + 0]
  ld [%o3 + 0], %o0
  sys 0
)");
  Machine M(File);
  unsigned MemOps = 0, Transfers = 0;
  uint64_t Insts = 0;
  M.OnMemory = [&](Addr, Addr, unsigned, bool) { ++MemOps; };
  M.OnTransfer = [&](Addr, Addr, bool) { ++Transfers; };
  M.OnInst = [&](Addr, MachWord) { ++Insts; };
  RunResult R = M.run();
  EXPECT_EQ(R.ExitCode, 7);
  EXPECT_EQ(MemOps, 2u);
  EXPECT_EQ(Transfers, 0u);
  EXPECT_EQ(Insts, R.Instructions);
}

TEST(VmSrisc, StepLimitAndBadInstruction) {
  SxfFile Loop = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  ba main
  nop
)");
  RunResult R = runToCompletion(Loop, 1000);
  EXPECT_EQ(R.Reason, StopReason::StepLimit);

  SxfFile Bad = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  nop
.word 0
)");
  R = runToCompletion(Bad);
  EXPECT_EQ(R.Reason, StopReason::BadInstruction);
}

// --- MRISC ---------------------------------------------------------------------

TEST(VmMrisc, ExitAndArithmetic) {
  SxfFile File = assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  li $t0, 6
  li $t1, 7
  mul $a0, $t0, $t1
  li $v0, 0
  syscall
)");
  RunResult R = runToCompletion(File);
  EXPECT_EQ(R.Reason, StopReason::Exited);
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(VmMrisc, ReturnFromMainExits) {
  SxfFile File = assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  li $v0, 9
  jr $ra
  nop
)");
  RunResult R = runToCompletion(File);
  EXPECT_EQ(R.Reason, StopReason::Exited);
  EXPECT_EQ(R.ExitCode, 9);
}

TEST(VmMrisc, LoopAndMemory) {
  // Sum array {3, 5, 9} = 17.
  SxfFile File = assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  la $t0, arr
  li $t1, 3
  li $a0, 0
loop:
  lw $t2, 0($t0)
  add $a0, $a0, $t2
  addi $t0, $t0, 4
  addi $t1, $t1, -1
  bgtz $t1, loop
  nop
  li $v0, 0
  syscall
.data
.align 4
arr: .word 3, 5, 9
)");
  EXPECT_EQ(runToCompletion(File).ExitCode, 17);
}

TEST(VmMrisc, DelaySlotSemantics) {
  SxfFile File = assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  li $a0, 0
  j done
  addi $a0, $a0, 5    ! delay slot executes
  addi $a0, $a0, 100  ! skipped
done:
  li $v0, 0
  syscall
)");
  EXPECT_EQ(runToCompletion(File).ExitCode, 5);
}

TEST(VmMrisc, CallAndIndirect) {
  SxfFile File = assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  jal triple
  li $a0, 5           ! delay slot: argument
  move $a0, $v1
  li $v0, 0
  syscall
triple:
  add $v1, $a0, $a0
  jr $ra
  add $v1, $v1, $a0   ! delay slot finishes the sum
)");
  EXPECT_EQ(runToCompletion(File).ExitCode, 15);
}

TEST(VmMrisc, WriteSyscall) {
  SxfFile File = assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  li $a0, 1
  la $a1, msg
  li $a2, 3
  li $v0, 1
  syscall
  li $a0, 0
  li $v0, 0
  syscall
.data
msg: .asciz "ok\n"
)");
  RunResult R = runToCompletion(File);
  EXPECT_EQ(R.Output, "ok\n");
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(VmMrisc, FunctionPointerCall) {
  SxfFile File = assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  la $t0, fptr
  lw $t1, 0($t0)
  jalr $t1
  nop
  move $a0, $v1
  li $v0, 0
  syscall
target:
  li $v1, 33
  jr $ra
  nop
.data
.align 4
fptr: .word target
)");
  EXPECT_EQ(runToCompletion(File).ExitCode, 33);
}

// --- Semantics every ISA shares ---------------------------------------------
//
// Each case below is written from the ISA's encoding header: the division,
// shift and load-extension rules, the alignment stops, the invalid-word stop
// and the step limit, which every interpreter must agree on.

namespace {

struct MemEvent {
  Addr PC;
  Addr EffAddr;
  unsigned Width;
  bool IsStore;
};

struct TransferEvent {
  Addr PC;
  Addr Target;
  bool Taken;
};

/// One assembled program run to its stop; keeps the machine, the result
/// and every hook event for inspection.
struct Trial {
  SxfFile File;
  Machine M;
  RunResult Result;
  uint64_t Fetched = 0;
  std::vector<MemEvent> Mem;
  std::vector<TransferEvent> Transfers;

  Trial(TargetArch Arch, const std::string &Src, uint64_t MaxSteps = 10'000)
      : File(assembleOrDie(Arch, Src)), M(File) {
    M.OnInst = [this](Addr, MachWord) { ++Fetched; };
    M.OnMemory = [this](Addr PC, Addr A, unsigned Width, bool IsStore) {
      Mem.push_back({PC, A, Width, IsStore});
    };
    M.OnTransfer = [this](Addr PC, Addr Target, bool Taken) {
      Transfers.push_back({PC, Target, Taken});
    };
    Result = M.run(MaxSteps);
  }

  Addr sym(const std::string &Name) const {
    const SxfSymbol *S = File.findSymbol(Name);
    EXPECT_NE(S, nullptr) << Name;
    return S ? S->Value : 0;
  }
  uint32_t reg(unsigned R) { return M.cpu().Regs[R]; }
};

/// A misaligned access at `fault`, after \p Retired instructions: the run
/// stops there with BadAlignment, the access does not retire, OnMemory sees
/// it exactly once, and neither the data word nor \p LoadDest changes.
void expectMisalignedStop(TargetArch Arch, const std::string &Prologue,
                          const std::string &Access, unsigned Retired,
                          unsigned Offset, unsigned Width, bool IsStore,
                          unsigned LoadDest) {
  SCOPED_TRACE(Access);
  Trial T(Arch, ".text\nmain:\n" + Prologue + "fault:\n  " + Access +
                    "\n  nop\n.data\n.align 4\ndata: .word 0\n");
  EXPECT_EQ(T.Result.Reason, StopReason::BadAlignment);
  EXPECT_EQ(T.Result.FaultPC, T.sym("fault"));
  EXPECT_EQ(T.Result.Instructions, Retired);
  ASSERT_EQ(T.Mem.size(), 1u);
  EXPECT_EQ(T.Mem[0].PC, T.sym("fault"));
  EXPECT_EQ(T.Mem[0].EffAddr, T.sym("data") + Offset);
  EXPECT_EQ(T.Mem[0].Width, Width);
  EXPECT_EQ(T.Mem[0].IsStore, IsStore);
  EXPECT_EQ(T.M.memory().readWord(T.sym("data")), 0u);
  EXPECT_EQ(T.reg(LoadDest), 0u);
}

constexpr uint32_t IntMin = 0x80000000u;

} // namespace

TEST(VmSrisc, DivRemShiftAndMultiplyRules) {
  Trial T(TargetArch::Srisc, R"(
.text
main:
  set 0x80000000, %o1
  sub %g0, 1, %o2
  mov 7, %o3
  sdiv %o3, %g0, %l0   ! x / 0 = 0
  srem %o3, %g0, %l1   ! x % 0 = x
  sdiv %o1, %o2, %l2   ! INT32_MIN / -1 = INT32_MIN
  srem %o1, %o2, %l3   ! INT32_MIN % -1 = 0
  sub %g0, 7, %o4
  sdiv %o4, 2, %l4     ! truncates toward zero: -3
  srem %o4, 2, %l5     ! -1
  mov 33, %o5
  mov 1, %g1
  sll %g1, %o5, %l6    ! shift amounts use 5 bits: 1 << 1
  srl %o1, %o5, %l7
  sra %o1, %o5, %i0
  smul %o1, %o2, %i1   ! wraps
  mov 0, %o0
  sys 0
)");
  ASSERT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.reg(16), 0u);
  EXPECT_EQ(T.reg(17), 7u);
  EXPECT_EQ(T.reg(18), IntMin);
  EXPECT_EQ(T.reg(19), 0u);
  EXPECT_EQ(T.reg(20), static_cast<uint32_t>(-3));
  EXPECT_EQ(T.reg(21), static_cast<uint32_t>(-1));
  EXPECT_EQ(T.reg(22), 2u);
  EXPECT_EQ(T.reg(23), 0x40000000u);
  EXPECT_EQ(T.reg(24), 0xC0000000u);
  EXPECT_EQ(T.reg(25), IntMin);
}

TEST(VmSrisc, SignedAndUnsignedByteAndHalfLoads) {
  Trial T(TargetArch::Srisc, R"(
.text
main:
  set data, %o1
  ldsb [%o1 + 0], %l0
  ldub [%o1 + 0], %l1
  ldsb [%o1 + 1], %l2
  ldsh [%o1 + 2], %l3
  lduh [%o1 + 2], %l4
  ld [%o1 + 4], %l5
  stb %l0, [%o1 + 8]
  sth %l3, [%o1 + 10]
  ld [%o1 + 8], %l6
  mov 0, %o0
  sys 0
.data
.align 4
data: .byte 0x80, 0x7f
  .half 0x8001
  .word 0x12345678, 0
)");
  ASSERT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.reg(16), 0xFFFFFF80u);
  EXPECT_EQ(T.reg(17), 0x80u);
  EXPECT_EQ(T.reg(18), 0x7Fu);
  EXPECT_EQ(T.reg(19), 0xFFFF8001u);
  EXPECT_EQ(T.reg(20), 0x8001u);
  EXPECT_EQ(T.reg(21), 0x12345678u);
  EXPECT_EQ(T.reg(22), 0x80010080u);
  EXPECT_EQ(T.Mem.size(), 9u);
}

TEST(VmSrisc, MisalignedAccessStopsUnretired) {
  const char *Prologue = "  set data, %o1\n  mov 5, %o2\n";
  expectMisalignedStop(TargetArch::Srisc, Prologue, "lduh [%o1 + 1], %o3", 3,
                       1, 2, false, 11);
  expectMisalignedStop(TargetArch::Srisc, Prologue, "ld [%o1 + 2], %o3", 3, 2,
                       4, false, 11);
  expectMisalignedStop(TargetArch::Srisc, Prologue, "sth %o2, [%o1 + 1]", 3,
                       1, 2, true, 11);
  expectMisalignedStop(TargetArch::Srisc, Prologue, "st %o2, [%o1 + 2]", 3, 2,
                       4, true, 11);
}

TEST(VmSrisc, MisalignedJumpTargetStops) {
  Trial T(TargetArch::Srisc, R"(
.text
main:
  set target, %o1
  jmpl %o1 + 2, %g0
  nop                  ! the delay slot still retires
target:
  sys 0
)");
  EXPECT_EQ(T.Result.Reason, StopReason::BadAlignment);
  EXPECT_EQ(T.Result.FaultPC, T.sym("target") + 2);
  EXPECT_EQ(T.Result.Instructions, 4u);
  ASSERT_EQ(T.Transfers.size(), 1u);
  EXPECT_EQ(T.Transfers[0].Target, T.sym("target") + 2);
  EXPECT_TRUE(T.Transfers[0].Taken);
}

TEST(VmSrisc, InvalidWordStopsUnretired) {
  Trial T(TargetArch::Srisc, R"(
.text
main:
  nop
bad:
  .word 0
)");
  EXPECT_EQ(T.Result.Reason, StopReason::BadInstruction);
  EXPECT_EQ(T.Result.FaultPC, T.sym("bad"));
  EXPECT_EQ(T.Result.Instructions, 1u);
  EXPECT_EQ(T.Fetched, 2u); // OnInst saw the invalid word too
}

TEST(VmSrisc, UndefinedMemoryOp3IsInvalidWithoutAnAccess) {
  // op=3 with op3 = 0x05 names no load or store: the word stops the run as
  // an invalid instruction before any data access, so OnMemory stays quiet
  // (the description interpreter agrees).
  Trial T(TargetArch::Srisc, R"(
.text
main:
  nop
bad:
  .word 0xC0280000
)");
  EXPECT_EQ(T.Result.Reason, StopReason::BadInstruction);
  EXPECT_EQ(T.Result.FaultPC, T.sym("bad"));
  EXPECT_EQ(T.Result.Instructions, 1u);
  EXPECT_TRUE(T.Mem.empty());
}

TEST(VmSrisc, StepLimitStopsAtTheBudget) {
  Trial T(TargetArch::Srisc, R"(
.text
main:
  ba main
  nop
)",
          1001);
  EXPECT_EQ(T.Result.Reason, StopReason::StepLimit);
  EXPECT_EQ(T.Result.Instructions, 1001u);
  EXPECT_EQ(T.Result.FaultPC, T.sym("main") + 4);
}

TEST(VmSrisc, ZeroBudgetStopsAtTheEntry) {
  // A zero budget runs nothing and says so: not a clean exit with code 0.
  Trial T(TargetArch::Srisc, ".text\nmain:\n  mov 3, %o0\n  sys 0\n", 0);
  EXPECT_EQ(T.Result.Reason, StopReason::StepLimit);
  EXPECT_EQ(T.Result.FaultPC, T.sym("main"));
  EXPECT_EQ(T.Result.Instructions, 0u);
  EXPECT_EQ(T.Fetched, 0u);
}

TEST(VmMrisc, DivRemShiftAndMultiplyRules) {
  Trial T(TargetArch::Mrisc, R"(
.text
main:
  li $t0, 0x80000000
  li $t1, -1
  li $t2, 7
  div $s0, $t2, $zero  ! x / 0 = 0
  rem $s1, $t2, $zero  ! x % 0 = x
  div $s2, $t0, $t1    ! INT32_MIN / -1 = INT32_MIN
  rem $s3, $t0, $t1    ! INT32_MIN % -1 = 0
  li $t3, -7
  li $t4, 2
  div $s4, $t3, $t4    ! truncates toward zero: -3
  rem $s5, $t3, $t4    ! -1
  li $t5, 33
  li $t6, 1
  sllv $s6, $t6, $t5   ! shift amounts use 5 bits: 1 << 1
  srlv $s7, $t0, $t5
  srav $t7, $t0, $t5
  mul $t8, $t0, $t1    ! wraps
  slt $t9, $t1, $t2    ! signed: -1 < 7
  sra $a1, $t0, 31
  li $a0, 0
  li $v0, 0
  syscall
)");
  ASSERT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.reg(16), 0u);
  EXPECT_EQ(T.reg(17), 7u);
  EXPECT_EQ(T.reg(18), IntMin);
  EXPECT_EQ(T.reg(19), 0u);
  EXPECT_EQ(T.reg(20), static_cast<uint32_t>(-3));
  EXPECT_EQ(T.reg(21), static_cast<uint32_t>(-1));
  EXPECT_EQ(T.reg(22), 2u);
  EXPECT_EQ(T.reg(23), 0x40000000u);
  EXPECT_EQ(T.reg(15), 0xC0000000u);
  EXPECT_EQ(T.reg(24), IntMin);
  EXPECT_EQ(T.reg(25), 1u);
  EXPECT_EQ(T.reg(5), 0xFFFFFFFFu);
}

TEST(VmMrisc, SignedAndUnsignedByteAndHalfLoads) {
  Trial T(TargetArch::Mrisc, R"(
.text
main:
  la $t0, data
  lb $s0, 0($t0)
  lbu $s1, 0($t0)
  lb $s2, 1($t0)
  lh $s3, 2($t0)
  lhu $s4, 2($t0)
  lw $s5, 4($t0)
  sb $s0, 8($t0)
  sh $s3, 10($t0)
  lw $s6, 8($t0)
  li $a0, 0
  li $v0, 0
  syscall
.data
.align 4
data: .byte 0x80, 0x7f
  .half 0x8001
  .word 0x12345678, 0
)");
  ASSERT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.reg(16), 0xFFFFFF80u);
  EXPECT_EQ(T.reg(17), 0x80u);
  EXPECT_EQ(T.reg(18), 0x7Fu);
  EXPECT_EQ(T.reg(19), 0xFFFF8001u);
  EXPECT_EQ(T.reg(20), 0x8001u);
  EXPECT_EQ(T.reg(21), 0x12345678u);
  EXPECT_EQ(T.reg(22), 0x80010080u);
  EXPECT_EQ(T.Mem.size(), 9u);
}

TEST(VmMrisc, MisalignedAccessStopsUnretired) {
  const char *Prologue = "  la $t0, data\n  li $t1, 5\n";
  expectMisalignedStop(TargetArch::Mrisc, Prologue, "lhu $t2, 1($t0)", 3, 1, 2,
                       false, 10);
  expectMisalignedStop(TargetArch::Mrisc, Prologue, "lw $t2, 2($t0)", 3, 2, 4,
                       false, 10);
  expectMisalignedStop(TargetArch::Mrisc, Prologue, "sh $t1, 1($t0)", 3, 1, 2,
                       true, 10);
  expectMisalignedStop(TargetArch::Mrisc, Prologue, "sw $t1, 2($t0)", 3, 2, 4,
                       true, 10);
}

TEST(VmMrisc, MisalignedJumpTargetStops) {
  Trial T(TargetArch::Mrisc, R"(
.text
main:
  la $t0, target
  addi $t0, $t0, 2
  jr $t0
  nop                  ! the delay slot still retires
target:
  syscall
)");
  EXPECT_EQ(T.Result.Reason, StopReason::BadAlignment);
  EXPECT_EQ(T.Result.FaultPC, T.sym("target") + 2);
  EXPECT_EQ(T.Result.Instructions, 5u);
  ASSERT_EQ(T.Transfers.size(), 1u);
  EXPECT_EQ(T.Transfers[0].Target, T.sym("target") + 2);
  EXPECT_TRUE(T.Transfers[0].Taken);
}

TEST(VmMrisc, InvalidWordStopsUnretired) {
  Trial T(TargetArch::Mrisc, R"(
.text
main:
  nop
bad:
  .word 0xFC000000
)");
  EXPECT_EQ(T.Result.Reason, StopReason::BadInstruction);
  EXPECT_EQ(T.Result.FaultPC, T.sym("bad"));
  EXPECT_EQ(T.Result.Instructions, 1u);
  EXPECT_EQ(T.Fetched, 2u);
}

TEST(VmMrisc, StepLimitStopsAtTheBudget) {
  Trial T(TargetArch::Mrisc, R"(
.text
main:
  j main
  nop
)",
          1001);
  EXPECT_EQ(T.Result.Reason, StopReason::StepLimit);
  EXPECT_EQ(T.Result.Instructions, 1001u);
  EXPECT_EQ(T.Result.FaultPC, T.sym("main") + 4);
}

TEST(VmMrisc, ZeroBudgetStopsAtTheEntry) {
  Trial T(TargetArch::Mrisc, ".text\nmain:\n  li $v0, 3\n  jr $ra\n  nop\n",
          0);
  EXPECT_EQ(T.Result.Reason, StopReason::StepLimit);
  EXPECT_EQ(T.Result.FaultPC, T.sym("main"));
  EXPECT_EQ(T.Result.Instructions, 0u);
  EXPECT_EQ(T.Fetched, 0u);
}

// --- ARISC -------------------------------------------------------------------

TEST(VmArisc, OperateForms) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  li $t0, 12
  li $t1, 5
  add $s0, $t0, $t1
  sub $s1, $t1, $t0
  and $s2, $t0, $t1
  or $s3, $t0, $t1
  xor $s4, $t0, $t1
  mul $s5, $t0, $t1
  cmplt $t2, $t1, $t0
  cmplt $t3, $t0, $t1
  sll $t4, $t1, $t1
  srl $t5, $t0, $t1
  add $zero, $t0, $t1  ! the hard zero stays zero
  li $a0, 0
  sys 0
)");
  ASSERT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.reg(10), 17u);
  EXPECT_EQ(T.reg(11), static_cast<uint32_t>(-7));
  EXPECT_EQ(T.reg(12), 4u);
  EXPECT_EQ(T.reg(13), 13u);
  EXPECT_EQ(T.reg(14), 9u);
  EXPECT_EQ(T.reg(31), 60u);
  EXPECT_EQ(T.reg(4), 1u);
  EXPECT_EQ(T.reg(5), 0u);
  EXPECT_EQ(T.reg(6), 160u);
  EXPECT_EQ(T.reg(7), 0u);
  EXPECT_EQ(T.reg(0), 0u);
}

TEST(VmArisc, ImmediateForms) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  li $t0, 12
  addi $s0, $t0, -20   ! -8: sign-extended immediate
  cmplti $s1, $s0, -7
  cmplti $s2, $t0, 12
  andi $s3, $s0, 0xFFFF ! zero-extended immediates
  ori $s4, $zero, 0x8000
  xori $s5, $s0, 0xFFFF
  slli $t2, $t0, 4
  srli $t3, $s0, 28
  srai $t4, $s0, 2
  li $a0, 0
  sys 0
)");
  ASSERT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.reg(10), static_cast<uint32_t>(-8));
  EXPECT_EQ(T.reg(11), 1u);
  EXPECT_EQ(T.reg(12), 0u);
  EXPECT_EQ(T.reg(13), 0xFFF8u);
  EXPECT_EQ(T.reg(14), 0x8000u);
  EXPECT_EQ(T.reg(31), 0xFFFF0007u);
  EXPECT_EQ(T.reg(4), 192u);
  EXPECT_EQ(T.reg(5), 0xFu);
  EXPECT_EQ(T.reg(6), static_cast<uint32_t>(-2));
}

TEST(VmArisc, Ldih) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  ldih $t0, 0x1234
  ldih $t1, 0xFFFF
  li $t2, 0x12345678
  li $a0, 0
  sys 0
)");
  ASSERT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.reg(2), 0x12340000u);
  EXPECT_EQ(T.reg(3), 0xFFFF0000u);
  EXPECT_EQ(T.reg(4), 0x12345678u);
}

TEST(VmArisc, ConditionalBranchesRelativeToTheNextWord) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  li $t0, 1
  li $t1, 2
  beq $t0, $t1, bad    ! untaken
  bne $t0, $t1, l1     ! taken
  br bad
l1:
  blt $t1, $t0, bad    ! untaken
  blt $t0, $t1, l2     ! taken
  br bad
l2:
  ble $t1, $t0, bad    ! untaken
  ble $t0, $t0, l3     ! taken on equality
  br bad
l3:
  beq $t0, $t0, l4     ! displacement 0: the next word
l4:
  li $a0, 42
  sys 0
bad:
  li $a0, 1
  sys 0
)");
  ASSERT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.Result.ExitCode, 42);
  ASSERT_EQ(T.Transfers.size(), 7u);
  const bool Taken[] = {false, true, false, true, false, true, true};
  const char *Target[] = {"bad", "l1", "bad", "l2", "bad", "l3", "l4"};
  for (size_t I = 0; I < 7; ++I) {
    EXPECT_EQ(T.Transfers[I].Taken, Taken[I]) << I;
    EXPECT_EQ(T.Transfers[I].Target, T.sym(Target[I])) << I;
  }
  EXPECT_EQ(T.Transfers[6].Target, T.Transfers[6].PC + 4);
  EXPECT_EQ(T.Result.Instructions, 11u);
}

TEST(VmArisc, BrBsrAndJmpLinks) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  bsr f                ! $ra := the next word
back:
  la $t0, g
  jmp $t1, ($t0)       ! $t1 := the next word
after:
  br done              ! writes no link
f:
  move $s0, $ra
  ret
g:
  move $s1, $t1
  jmp ($t1)
done:
  li $a0, 3
  sys 0
)");
  ASSERT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.Result.ExitCode, 3);
  EXPECT_EQ(T.reg(10), T.sym("back"));
  EXPECT_EQ(T.reg(11), T.sym("after"));
  EXPECT_EQ(T.reg(26), T.sym("back"));
  EXPECT_EQ(T.Transfers.size(), 5u);
}

TEST(VmArisc, SysWriteAndExit) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  li $a0, 1
  la $a1, msg
  li $a2, 3
  sys 1
  move $s0, $v0        ! write returns the length
  li $a0, 9
  sys 0
.data
msg: .asciz "hi\n"
)");
  EXPECT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.Result.ExitCode, 9);
  EXPECT_EQ(T.Result.Output, "hi\n");
  EXPECT_EQ(T.reg(10), 3u);
  EXPECT_EQ(T.Result.Instructions, 8u);
}

TEST(VmArisc, ReturnFromMainExits) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  li $v0, 11
  ret
)");
  EXPECT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.Result.ExitCode, 11);
  EXPECT_EQ(T.Result.Instructions, 2u);
}

TEST(VmArisc, DivRemShiftAndMultiplyRules) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  li $t0, 0x80000000
  li $t1, -1
  li $t2, 7
  div $s0, $t2, $zero  ! x / 0 = 0
  rem $s1, $t2, $zero  ! x % 0 = x
  div $s2, $t0, $t1    ! INT32_MIN / -1 = INT32_MIN
  rem $s3, $t0, $t1    ! INT32_MIN % -1 = 0
  li $t3, -7
  li $t4, 2
  div $s4, $t3, $t4    ! truncates toward zero: -3
  rem $s5, $t3, $t4    ! -1
  li $t5, 33
  li $t6, 1
  sll $t7, $t6, $t5    ! shift amounts use 5 bits: 1 << 1
  srl $t8, $t0, $t5
  sra $t9, $t0, $t5
  mul $t10, $t0, $t1   ! wraps
  cmplt $t11, $t1, $t2 ! signed: -1 < 7
  li $a0, 0
  sys 0
)");
  ASSERT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.reg(10), 0u);
  EXPECT_EQ(T.reg(11), 7u);
  EXPECT_EQ(T.reg(12), IntMin);
  EXPECT_EQ(T.reg(13), 0u);
  EXPECT_EQ(T.reg(14), static_cast<uint32_t>(-3));
  EXPECT_EQ(T.reg(31), static_cast<uint32_t>(-1));
  EXPECT_EQ(T.reg(9), 2u);
  EXPECT_EQ(T.reg(20), 0x40000000u);
  EXPECT_EQ(T.reg(21), 0xC0000000u);
  EXPECT_EQ(T.reg(22), IntMin);
  EXPECT_EQ(T.reg(23), 1u);
}

TEST(VmArisc, SignedAndUnsignedByteAndHalfLoads) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  la $t0, data
  ldb $s0, 0($t0)
  ldbu $s1, 0($t0)
  ldb $s2, 1($t0)
  ldh $s3, 2($t0)
  ldhu $s4, 2($t0)
  ldw $s5, 4($t0)
  stb $s0, 8($t0)
  sth $s3, 10($t0)
  ldw $t1, 8($t0)
  li $a0, 0
  sys 0
.data
.align 4
data: .byte 0x80, 0x7f
  .half 0x8001
  .word 0x12345678, 0
)");
  ASSERT_EQ(T.Result.Reason, StopReason::Exited);
  EXPECT_EQ(T.reg(10), 0xFFFFFF80u);
  EXPECT_EQ(T.reg(11), 0x80u);
  EXPECT_EQ(T.reg(12), 0x7Fu);
  EXPECT_EQ(T.reg(13), 0xFFFF8001u);
  EXPECT_EQ(T.reg(14), 0x8001u);
  EXPECT_EQ(T.reg(31), 0x12345678u);
  EXPECT_EQ(T.reg(3), 0x80010080u);
  EXPECT_EQ(T.Mem.size(), 9u);
}

TEST(VmArisc, MisalignedAccessStopsUnretired) {
  const char *Prologue = "  la $t0, data\n  li $t1, 5\n";
  expectMisalignedStop(TargetArch::Arisc, Prologue, "ldhu $t2, 1($t0)", 3, 1,
                       2, false, 4);
  expectMisalignedStop(TargetArch::Arisc, Prologue, "ldw $t2, 2($t0)", 3, 2, 4,
                       false, 4);
  expectMisalignedStop(TargetArch::Arisc, Prologue, "sth $t1, 1($t0)", 3, 1, 2,
                       true, 4);
  expectMisalignedStop(TargetArch::Arisc, Prologue, "stw $t1, 2($t0)", 3, 2, 4,
                       true, 4);
}

TEST(VmArisc, MisalignedJumpTargetStops) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  la $t0, target
  addi $t0, $t0, 2
  jmp ($t0)
target:
  sys 0
)");
  EXPECT_EQ(T.Result.Reason, StopReason::BadAlignment);
  EXPECT_EQ(T.Result.FaultPC, T.sym("target") + 2);
  EXPECT_EQ(T.Result.Instructions, 4u);
  ASSERT_EQ(T.Transfers.size(), 1u);
  EXPECT_EQ(T.Transfers[0].Target, T.sym("target") + 2);
  EXPECT_TRUE(T.Transfers[0].Taken);
}

TEST(VmArisc, InvalidWordStopsUnretired) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  nop
bad:
  .word 0
)");
  EXPECT_EQ(T.Result.Reason, StopReason::BadInstruction);
  EXPECT_EQ(T.Result.FaultPC, T.sym("bad"));
  EXPECT_EQ(T.Result.Instructions, 1u);
  EXPECT_EQ(T.Fetched, 2u);
}

TEST(VmArisc, StepLimitStopsAtTheBudget) {
  Trial T(TargetArch::Arisc, R"(
.text
main:
  addi $t0, $t0, 1
  br main
)",
          1001);
  EXPECT_EQ(T.Result.Reason, StopReason::StepLimit);
  EXPECT_EQ(T.Result.Instructions, 1001u);
  EXPECT_EQ(T.Result.FaultPC, T.sym("main") + 4);
  EXPECT_EQ(T.reg(2), 501u);
}

TEST(VmArisc, ZeroBudgetStopsAtTheEntry) {
  Trial T(TargetArch::Arisc, ".text\nmain:\n  addi $t0, $t0, 1\n  br main\n",
          0);
  EXPECT_EQ(T.Result.Reason, StopReason::StepLimit);
  EXPECT_EQ(T.Result.FaultPC, T.sym("main"));
  EXPECT_EQ(T.Result.Instructions, 0u);
  EXPECT_EQ(T.Fetched, 0u);
  EXPECT_EQ(T.reg(2), 0u);
}
