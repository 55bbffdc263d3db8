//===- tests/AsmTest.cpp - Assembler tests ---------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "asmkit/Assembler.h"
#include "isa/MriscEncoding.h"
#include "isa/SriscEncoding.h"

#include <gtest/gtest.h>

using namespace eel;

static MachWord textWord(const SxfFile &File, unsigned Index) {
  const SxfSegment *Text = File.segment(SegKind::Text);
  EXPECT_NE(Text, nullptr);
  return File.readWord(Text->VAddr + 4 * Index).value();
}

TEST(SriscAsm, BasicInstructions) {
  using namespace srisc;
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  add %o1, %o2, %o3
  sub %o1, -12, %o3
  sethi 0x1234, %g1
  nop
  mov 5, %o0
  cmp %o0, 7
  sys 1
  rdcc %l0
  wrcc %l0
  ret
  nop
)");
  EXPECT_EQ(textWord(File, 0), encodeArithReg(Op3Add, 11, 9, 10));
  EXPECT_EQ(textWord(File, 1), encodeArithImm(Op3Sub, 11, 9, -12));
  EXPECT_EQ(textWord(File, 2), encodeSethi(1, 0x1234));
  EXPECT_EQ(textWord(File, 3), nop());
  EXPECT_EQ(textWord(File, 4), encodeArithImm(Op3Or, 8, 0, 5));
  EXPECT_EQ(textWord(File, 5), encodeArithImm(Op3SubCC, 0, 8, 7));
  EXPECT_EQ(textWord(File, 6), encodeSys(1));
  EXPECT_EQ(textWord(File, 7), encodeRdCC(16));
  EXPECT_EQ(textWord(File, 8), encodeWrCC(16));
  EXPECT_EQ(textWord(File, 9), encodeJmplImm(0, 15, 8));
  EXPECT_EQ(File.Entry, File.segment(SegKind::Text)->VAddr);
}

TEST(SriscAsm, BranchesAndCalls) {
  using namespace srisc;
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  ba done
  nop
loop:
  be,a loop
  nop
  call main
  nop
done:
  ret
  nop
)");
  const TargetInfo &T = sriscTarget();
  Addr Base = File.segment(SegKind::Text)->VAddr;
  // ba done: done is at word index 6.
  EXPECT_EQ(T.decode(textWord(File, 0)).directTarget(Base),
            std::optional<Addr>(Base + 24));
  // be,a loop at index 2 targets itself.
  MachWord Be = textWord(File, 2);
  EXPECT_EQ(fieldAnnul(Be), 1u);
  EXPECT_EQ(T.decode(Be).directTarget(Base + 8), std::optional<Addr>(Base + 8));
  // call main at index 4.
  EXPECT_EQ(T.decode(textWord(File, 4)).directTarget(Base + 16),
            std::optional<Addr>(Base));
}

TEST(SriscAsm, MemoryAndHiLo) {
  using namespace srisc;
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  sethi %hi(counter), %o1
  ld [%o1 + %lo(counter)], %o2
  st %o2, [%o1 + %lo(counter)]
  ld [%sp - 8], %o3
  ld [%o1 + %o4], %o5
  set counter, %g5
.data
.align 4
counter: .word 99
)");
  Addr CounterAddr = File.findSymbol("counter")->Value;
  MachWord Hi = textWord(File, 0);
  MachWord Ld = textWord(File, 1);
  EXPECT_EQ(fieldImm22(Hi) << 10, CounterAddr & ~0x3FFu);
  EXPECT_EQ(static_cast<uint32_t>(fieldSimm13(Ld)), CounterAddr & 0x3FFu);
  // set expands to sethi+or computing the full address.
  MachWord SetHi = textWord(File, 5), SetLo = textWord(File, 6);
  EXPECT_EQ((fieldImm22(SetHi) << 10) | fieldSimm13(SetLo), CounterAddr);
  EXPECT_EQ(File.readWord(CounterAddr), 99u);
}

TEST(SriscAsm, DataDirectivesAndDispatchTable) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  nop
L1:
  nop
L2:
  nop
.data
table: .word L1, L2, main
str:   .asciz "hi\n"
half:  .half 513
byte:  .byte 7
.align 8
big:   .space 16
)");
  Addr Base = File.segment(SegKind::Text)->VAddr;
  Addr Table = File.findSymbol("table")->Value;
  EXPECT_EQ(File.readWord(Table), Base + 4);
  EXPECT_EQ(File.readWord(Table + 4), Base + 8);
  EXPECT_EQ(File.readWord(Table + 8), Base);
  const SxfSegment *Data = File.segment(SegKind::Data);
  Addr Str = File.findSymbol("str")->Value;
  EXPECT_EQ(Data->Bytes[Str - Data->VAddr], 'h');
  EXPECT_EQ(Data->Bytes[Str - Data->VAddr + 2], '\n');
  EXPECT_EQ(Data->Bytes[Str - Data->VAddr + 3], 0);
  Addr Big = File.findSymbol("big")->Value;
  EXPECT_EQ(Big % 8, 0u);
}

TEST(SriscAsm, SymbolKindsAndHidden) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
.global main
main:
  nop
.hidden
secret:
  nop
.L_local:
  nop
.debuglabel dbg1
.templabel tmp1
other:
  nop
.data
obj: .word 1
)");
  const SxfSymbol *Main = File.findSymbol("main");
  ASSERT_NE(Main, nullptr);
  EXPECT_EQ(Main->Kind, SymKind::Routine);
  EXPECT_EQ(Main->Binding, SymBinding::Global);
  EXPECT_EQ(File.findSymbol("secret"), nullptr);  // hidden
  EXPECT_EQ(File.findSymbol(".L_local"), nullptr); // assembler-local
  ASSERT_NE(File.findSymbol("dbg1"), nullptr);
  EXPECT_EQ(File.findSymbol("dbg1")->Kind, SymKind::Debug);
  ASSERT_NE(File.findSymbol("tmp1"), nullptr);
  EXPECT_EQ(File.findSymbol("tmp1")->Kind, SymKind::Temp);
  ASSERT_NE(File.findSymbol("obj"), nullptr);
  EXPECT_EQ(File.findSymbol("obj")->Kind, SymKind::Object);
}

TEST(SriscAsm, Errors) {
  EXPECT_TRUE(assembleProgram(TargetArch::Srisc, "bogus %o1, %o2\n")
                  .hasError());
  EXPECT_TRUE(assembleProgram(TargetArch::Srisc, "ba nowhere\nnop\n")
                  .hasError());
  EXPECT_TRUE(assembleProgram(TargetArch::Srisc, "add %o1, 99999, %o2\n")
                  .hasError());
  EXPECT_TRUE(
      assembleProgram(TargetArch::Srisc, "x: nop\nx: nop\n").hasError());
  EXPECT_TRUE(
      assembleProgram(TargetArch::Srisc, ".data\nnop\n").hasError());
  // Error messages carry line numbers.
  Expected<SxfFile> R =
      assembleProgram(TargetArch::Srisc, "nop\nbogus\n");
  ASSERT_TRUE(R.hasError());
  EXPECT_NE(R.error().message().find("line 2"), std::string::npos);
}

TEST(MriscAsm, BasicInstructions) {
  using namespace mrisc;
  SxfFile File = assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  add $t0, $t1, $t2
  addi $t0, $t1, -4
  sll $t0, $t1, 3
  sllv $t0, $t1, $t2
  lui $t0, 0x1234
  ori $t0, $t0, 0x5678
  lw $t3, 8($sp)
  sw $t3, 8($sp)
  syscall
  jr $ra
  nop
)");
  EXPECT_EQ(textWord(File, 0), encodeRType(9, 10, 8, 0, FnAdd));
  EXPECT_EQ(textWord(File, 1), encodeIType(OpAddi, 9, 8, 0xFFFC));
  EXPECT_EQ(textWord(File, 2), encodeRType(0, 9, 8, 3, FnSll));
  EXPECT_EQ(textWord(File, 3), encodeRType(10, 9, 8, 0, FnSllv));
  EXPECT_EQ(textWord(File, 4), encodeIType(OpLui, 0, 8, 0x1234));
  EXPECT_EQ(textWord(File, 5), encodeIType(OpOri, 8, 8, 0x5678));
  EXPECT_EQ(textWord(File, 6), encodeIType(OpLw, 29, 11, 8));
  EXPECT_EQ(textWord(File, 7), encodeIType(OpSw, 29, 11, 8));
  EXPECT_EQ(textWord(File, 8), encodeRType(0, 0, 0, 0, FnSyscall));
  EXPECT_EQ(textWord(File, 9), encodeRType(31, 0, 0, 0, FnJr));
}

TEST(MriscAsm, BranchesJumpsPseudos) {
  using namespace mrisc;
  SxfFile File = assembleOrDie(TargetArch::Mrisc, R"(
.text
main:
  beq $t0, $t1, done
  nop
  bne $t0, $zero, main
  nop
  blez $t0, done
  nop
  j done
  nop
  jal main
  nop
  b done
  nop
  move $t5, $t6
  li $v0, 70000
done:
  jr $ra
  nop
)");
  const TargetInfo &T = mriscTarget();
  Addr Base = File.segment(SegKind::Text)->VAddr;
  Addr Done = File.findSymbol("done")->Value;
  EXPECT_EQ(T.decode(textWord(File, 0)).directTarget(Base),
            std::optional<Addr>(Done));
  EXPECT_EQ(T.decode(textWord(File, 2)).directTarget(Base + 8),
            std::optional<Addr>(Base));
  EXPECT_EQ(T.decode(textWord(File, 4)).directTarget(Base + 16),
            std::optional<Addr>(Done));
  EXPECT_EQ(T.decode(textWord(File, 6)).directTarget(Base + 24),
            std::optional<Addr>(Done));
  EXPECT_EQ(T.decode(textWord(File, 8)).Category, InstCategory::CallDirect);
  // b expands to beq $zero, $zero.
  EXPECT_EQ(T.decode(textWord(File, 10)).Category, InstCategory::BranchDirect);
  EXPECT_EQ(T.decode(textWord(File, 10)).directTarget(Base + 40),
            std::optional<Addr>(Done));
  // li of a value > 16 bits expands to lui+ori.
  EXPECT_EQ(textWord(File, 13), encodeIType(OpLui, 0, 2, 1));
  EXPECT_EQ(textWord(File, 14), encodeIType(OpOri, 2, 2, 70000 & 0xFFFF));
}
