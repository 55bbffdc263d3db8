//===- tests/SpawnTest.cpp - Machine-description subsystem tests -----------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the spawn pipeline: lexer, description parser, per-word
/// analysis, the decode table every target compiles from its description
/// (whose decode() answers are checked equal to the interpretive
/// analyzeWord over random and structured word samples that reach every
/// table entry), and the description-driven interpreter (checked against
/// the VM on whole programs).
///
//===----------------------------------------------------------------------===//

#include "WordSamples.h"

#include "asmkit/Assembler.h"
#include "isa/Descriptions.h"
#include "isa/SriscEncoding.h"
#include "spawn/Analysis.h"
#include "spawn/Codegen.h"
#include "spawn/Eval.h"
#include "spawn/Lexer.h"
#include "support/FileIO.h"
#include "support/Rng.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace eel;
using namespace eel::spawn;

// --- Lexer ----------------------------------------------------------------

TEST(SpawnLexer, TokensAndComments) {
  Expected<std::vector<Token>> Tokens = lexDescription(
      "-- comment line\n"
      "pat foo is op=0x2a && rd=[1 2]\n"
      "val f(x) is x := PC + (sx(d) << 2)\n");
  ASSERT_TRUE(Tokens.hasValue());
  const std::vector<Token> &T = Tokens.value();
  EXPECT_EQ(T[0].Text, "pat");
  EXPECT_TRUE(T[0].StartOfLine);
  EXPECT_EQ(T[0].Line, 2u);
  EXPECT_FALSE(T[1].StartOfLine);
  // 0x2a lexes as one number token with value 42.
  bool Found42 = false, FoundAssign = false, FoundShl = false;
  for (const Token &Tok : T) {
    if (Tok.isNumber() && Tok.Value == 42)
      Found42 = true;
    if (Tok.is(":="))
      FoundAssign = true;
    if (Tok.is("<<"))
      FoundShl = true;
  }
  EXPECT_TRUE(Found42);
  EXPECT_TRUE(FoundAssign);
  EXPECT_TRUE(FoundShl);
}

TEST(SpawnLexer, RejectsUnknownCharacters) {
  EXPECT_TRUE(lexDescription("pat foo is op=`2`\n").hasError());
}

// --- Parser ----------------------------------------------------------------

TEST(SpawnParser, ParsesEmbeddedDescriptions) {
  Expected<std::shared_ptr<MachineDesc>> Srisc =
      parseMachineDescription(sriscDescription());
  ASSERT_TRUE(Srisc.hasValue()) << Srisc.error().message();
  const MachineDesc &S = *Srisc.value();
  EXPECT_EQ(S.ArchName, "srisc");
  EXPECT_EQ(S.Fields.size(), 14u);
  // 16 branches + sethi + call + 11 alu + 5 alucc + rdcc + wrcc + jmpl +
  // sys + 8 memory = 46 patterns.
  EXPECT_EQ(S.Patterns.size(), 46u);
  EXPECT_EQ(S.ZeroRegId, 0);

  Expected<std::shared_ptr<MachineDesc>> Mrisc =
      parseMachineDescription(mriscDescription());
  ASSERT_TRUE(Mrisc.hasValue()) << Mrisc.error().message();
  EXPECT_EQ(Mrisc.value()->ArchName, "mrisc");
}

TEST(SpawnParser, DecodeMatchesPatterns) {
  Expected<std::shared_ptr<MachineDesc>> DescE =
      parseMachineDescription(sriscDescription());
  ASSERT_TRUE(DescE.hasValue());
  const MachineDesc &Desc = *DescE.value();
  int Idx = Desc.decode(srisc::encodeArithReg(srisc::Op3Add, 1, 2, 3));
  ASSERT_GE(Idx, 0);
  EXPECT_EQ(Desc.Patterns[Idx].Name, "add");
  Idx = Desc.decode(srisc::encodeBicc(true, srisc::CondNE, 5));
  ASSERT_GE(Idx, 0);
  EXPECT_EQ(Desc.Patterns[Idx].Name, "bne");
  EXPECT_EQ(Desc.decode(0), -1);
  EXPECT_EQ(Desc.decode(0xFFFFFFFFu), -1);
}

TEST(SpawnParser, ErrorsAreDiagnosed) {
  // Unknown field in a pattern.
  EXPECT_TRUE(parseMachineDescription("arch x\nfields f 0:3\n"
                                      "pat a is nofield=1\n"
                                      "sem a is skip\n")
                  .hasError());
  // Overlapping patterns.
  EXPECT_TRUE(parseMachineDescription("arch x\nfields f 0:3, g 4:5\n"
                                      "pat a is f=1\npat b is f=1 && g=2\n"
                                      "sem a is skip\nsem b is skip\n")
                  .hasError());
  // Pattern without semantics.
  EXPECT_TRUE(parseMachineDescription("arch x\nfields f 0:3\n"
                                      "pat a is f=1\n")
                  .hasError());
  // Zip arity mismatch.
  EXPECT_TRUE(parseMachineDescription("arch x\nfields f 0:3\n"
                                      "register int{32} R[4]\n"
                                      "pat [a b] is f=[1 2]\n"
                                      "val m(z) is R[0] := z(R[1], R[2])\n"
                                      "sem [a b] is m @ [add]\n")
                  .hasError());
}

TEST(SpawnParser, SmallCustomDescription) {
  // A miniature ISA exercising the parser paths directly.
  const char *Source = R"(
arch tiny
wordsize 32
fields op 28:31, ra 24:27, rb 20:23, imm 0:19, i 19:19, rc 0:3, simm 0:15
register int{32} G[16]
zero G[0]
pat inc is op=1
pat jmp is op=2
pat halt is op=3
pat add2 is op=4
sem inc is G[ra] := G[rb] + 1
sem jmp is t := PC + (sx(imm) << 2) ; pc := t
sem halt is trap imm
sem add2 is G[ra] := G[rb] + (i = 1 ? sx(simm) : G[rc])
)";
  Expected<std::shared_ptr<MachineDesc>> DescE =
      parseMachineDescription(Source);
  ASSERT_TRUE(DescE.hasValue()) << DescE.error().message();
  const MachineDesc &Desc = *DescE.value();
  MachWord Inc = insertBits(insertBits(insertBits(0, 28, 31, 1), 24, 27, 5),
                            20, 23, 6);
  DecodedWord S = analyzeWord(Desc, Inc);
  EXPECT_EQ(S.Category, InstCategory::Computation);
  EXPECT_EQ(S.Reads, (RegSet{6}));
  EXPECT_EQ(S.Writes, (RegSet{5}));
  EXPECT_EQ(S.Op.Kind, DataOpKind::Add);
  EXPECT_EQ(S.Op.Rs1, 6u);
  EXPECT_TRUE(S.Op.HasImm);
  EXPECT_EQ(S.Op.Imm, 1);
  ASSERT_EQ(S.NumRegFields, 2u);
  EXPECT_EQ(S.RegFields[0], (BitRange{20, 23}));
  EXPECT_EQ(S.RegFields[1], (BitRange{24, 27}));

  MachWord Jmp = insertBits(insertBits(0, 28, 31, 2), 0, 19, 6);
  S = analyzeWord(Desc, Jmp);
  EXPECT_EQ(S.Category, InstCategory::JumpDirect);
  EXPECT_TRUE(S.hasDelaySlot());
  EXPECT_TRUE(S.Direct.HasField);
  EXPECT_EQ(S.directTarget(0x1000), std::optional<Addr>(0x1000u + 24u));

  MachWord Halt = insertBits(insertBits(0, 28, 31, 3), 0, 19, 7);
  S = analyzeWord(Desc, Halt);
  EXPECT_EQ(S.Category, InstCategory::System);
  EXPECT_EQ(S.TrapNumber, std::optional<unsigned>(7));

  // add2 folds its i bit in a ternary, so the compiled table keys it by
  // pattern and i: two entries, each equal to the interpretive answer.
  CompiledDecoder Table(DescE.value(), TargetConventions());
  MachWord Add2 = insertBits(insertBits(insertBits(0, 28, 31, 4), 24, 27, 5),
                             20, 23, 6);
  MachWord Add2Reg = insertBits(Add2, 0, 3, 7);
  MachWord Add2Imm = insertBits(insertBits(Add2, 19, 19, 1), 0, 15, 0xFFFE);
  EXPECT_NE(Table.entryOf(Add2Reg), Table.entryOf(Add2Imm));
  EXPECT_NE(Table.entryOf(Add2Reg), 0u);
  EXPECT_NE(Table.entryOf(Add2Imm), 0u);
  for (MachWord W : {Inc, Jmp, Halt, Add2Reg, Add2Imm})
    EXPECT_EQ(Table.decode(W), analyzeWord(Desc, W)) << std::hex << W;
  S = Table.decode(Add2Reg);
  EXPECT_EQ(S.Reads, (RegSet{6, 7}));
  EXPECT_FALSE(S.Op.HasImm);
  EXPECT_EQ(S.Op.Rs2, 7u);
  S = Table.decode(Add2Imm);
  EXPECT_EQ(S.Reads, (RegSet{6}));
  EXPECT_TRUE(S.Op.HasImm);
  EXPECT_EQ(S.Op.Imm, -2);
  EXPECT_EQ(S.Op.Rd, 5u);
}

// --- Decode table vs interpretation ---------------------------------------------

namespace {

/// Every member of \p D, for a failure message.
std::string describe(const DecodedWord &D) {
  std::ostringstream OS;
  const DirectShape &S = D.Direct;
  OS << "cat=" << int(D.Category) << " reads=0x" << std::hex
     << D.Reads.mask() << " writes=0x" << D.Writes.mask() << std::dec
     << " delay=" << int(D.Delay) << " cond=" << D.Conditional
     << " direct={region=" << S.Region << " field=" << S.HasField << ":"
     << int(S.Field.Lo) << "-" << int(S.Field.Hi) << " shift=" << int(S.Shift)
     << " signed=" << S.Signed << " value=" << S.Value
     << " mask=" << S.RegionMask << " bias=" << S.Bias << "}"
     << " indirect={" << int(D.Indirect.BaseReg) << ","
     << D.Indirect.HasIndex << "," << int(D.Indirect.IndexReg) << ","
     << D.Indirect.Offset << "," << int(D.Indirect.LinkReg) << "}"
     << " op={" << int(D.Op.Kind) << "," << int(D.Op.Rd) << ","
     << int(D.Op.Rs1) << "," << int(D.Op.Rs2) << "," << D.Op.HasImm << ","
     << D.Op.Imm << "," << D.Op.SetsCC << "}"
     << " mem={" << D.Mem.IsLoad << D.Mem.IsStore << ","
     << int(D.Mem.Width) << "," << D.Mem.SignExtendLoad << ","
     << int(D.Mem.AddrBase) << "," << D.Mem.HasIndex << ","
     << int(D.Mem.AddrIndex) << "," << D.Mem.Offset << ","
     << int(D.Mem.DataReg) << "}"
     << " trap=" << (D.TrapNumber ? int(*D.TrapNumber) : -1) << " fields=";
  for (unsigned I = 0; I < D.NumRegFields; ++I)
    OS << int(D.RegFields[I].Lo) << "-" << int(D.RegFields[I].Hi) << " ";
  OS << "fixed=0x" << std::hex << D.FixedRegs.mask();
  return OS.str();
}

/// Requires the target's decode() answer, read from its compiled table,
/// to equal the interpretive analyzeWord answer with the target's trap
/// conventions laid over it, whole, for every word of \p Words: every
/// fact, the direct-target shape and the register fields, so that
/// retargetDirect and rewriteRegisters agree too.
void expectSameAnalysis(TargetArch Arch, const std::vector<MachWord> &Words) {
  const TargetInfo &T = targetFor(Arch);
  for (MachWord W : Words) {
    DecodedWord Table = T.decode(W);
    DecodedWord Interp = analyzeWord(T.desc(), W, T.conventions());
    if (Table == Interp)
      continue;
    ADD_FAILURE() << "word=0x" << std::hex << W << " ["
                  << T.disassemble(W, 0) << "]\n  table:  " << describe(Table)
                  << "\n  interp: " << describe(Interp);
  }
}

} // namespace

TEST(SpawnEquivalence, SriscRandomSweep) {
  expectSameAnalysis(TargetArch::Srisc, randomWords(TargetArch::Srisc));
}

TEST(SpawnEquivalence, MriscRandomSweep) {
  expectSameAnalysis(TargetArch::Mrisc, randomWords(TargetArch::Mrisc));
}

TEST(SpawnEquivalence, AriscRandomSweep) {
  expectSameAnalysis(TargetArch::Arisc, randomWords(TargetArch::Arisc));
}

TEST(SpawnEquivalence, SriscStructuredSweep) {
  expectSameAnalysis(TargetArch::Srisc, structuredWords(TargetArch::Srisc));
}

TEST(SpawnEquivalence, MriscStructuredSweep) {
  expectSameAnalysis(TargetArch::Mrisc, structuredWords(TargetArch::Mrisc));
}

TEST(SpawnEquivalence, AriscStructuredSweep) {
  expectSameAnalysis(TargetArch::Arisc, structuredWords(TargetArch::Arisc));
}

TEST(SpawnEquivalence, SweepsReachEveryTableEntry) {
  // Every entry (a pattern with one value of its steering bits) decodes at
  // least one sweep word, so the sweeps above check the whole table.
  for (TargetArch Arch : AllTargetArches) {
    const TargetInfo &T = targetFor(Arch);
    const CompiledDecoder &Table = T.decoder();
    std::vector<bool> Hit(Table.numEntries());
    for (const std::vector<MachWord> &Words :
         {randomWords(Arch), structuredWords(Arch)})
      for (MachWord W : Words)
        Hit[Table.entryOf(W)] = true;
    // A pattern's entries start at its match word's entry (steering bits
    // clear), which names the pattern an unreached entry belongs to.
    auto Owner = [&](unsigned E) {
      std::string Name;
      unsigned Best = 0;
      for (const InstPattern &P : T.desc().Patterns)
        if (unsigned First = Table.entryOf(P.Match); First <= E && First > Best)
          Best = First, Name = P.Name;
      return Name;
    };
    for (unsigned E = 1; E < Hit.size(); ++E)
      EXPECT_TRUE(Hit[E]) << T.name() << ": no sweep word reaches entry " << E
                          << " of pattern " << Owner(E);
  }
}

// --- Description-driven interpreter ----------------------------------------------

namespace {

/// Runs a program under both interpreters and requires identical behaviour.
void expectSameExecution(TargetArch Arch, const std::string &Source) {
  SxfFile File = assembleOrDie(Arch, Source);
  RunResult Hand = runToCompletion(File);
  RunResult Spawn = runWithDescription(targetFor(Arch).desc(), File);
  EXPECT_EQ(static_cast<int>(Hand.Reason), static_cast<int>(Spawn.Reason));
  EXPECT_EQ(Hand.ExitCode, Spawn.ExitCode);
  EXPECT_EQ(Hand.Instructions, Spawn.Instructions);
  EXPECT_EQ(Hand.Output, Spawn.Output);
}

} // namespace

TEST(SpawnInterp, SriscPrograms) {
  expectSameExecution(TargetArch::Srisc, R"(
.text
main:
  mov 0, %o0
  mov 1, %o1
loop:
  add %o0, %o1, %o0
  add %o1, 1, %o1
  cmp %o1, 50
  ble,a loop
  nop
  smul %o0, 3, %o0
  sdiv %o0, 7, %o0
  srem %o0, 100, %o0
  sys 0
)");
  expectSameExecution(TargetArch::Srisc, R"(
.text
main:
  call f
  mov 11, %o0
  set buf, %o1
  st %o0, [%o1 + 0]
  ldsh [%o1 + 0], %o2
  ldub [%o1 + 0], %o3
  add %o2, %o3, %o0
  ba,a done
  mov 99, %o0
done:
  sys 0
f:
  ret
  add %o0, 100, %o0
.data
.align 4
buf: .word 0
)");
  expectSameExecution(TargetArch::Srisc, R"(
.text
main:
  cmp %g0, 0
  rdcc %l1
  be,a skip
  mov 5, %o0
skip:
  wrcc %l1
  mov 1, %o0
  set msg, %o1
  mov 3, %o2
  sys 1
  mov 0, %o0
  sys 0
.data
msg: .asciz "ab\n"
)");
}

TEST(SpawnInterp, MriscPrograms) {
  expectSameExecution(TargetArch::Mrisc, R"(
.text
main:
  li $t0, 10
  li $a0, 0
loop:
  add $a0, $a0, $t0
  addi $t0, $t0, -1
  bgtz $t0, loop
  nop
  mul $a0, $a0, $a0
  div $a0, $a0, $t1      # divide by zero: defined as 0
  li $v0, 0
  syscall
)");
  expectSameExecution(TargetArch::Mrisc, R"(
.text
main:
  jal f
  li $a0, 4
  la $t0, arr
  sw $v1, 0($t0)
  lh $t1, 0($t0)
  lbu $t2, 0($t0)
  add $a0, $t1, $t2
  slt $t3, $a0, $zero
  xor $a0, $a0, $t3
  li $v0, 0
  syscall
f:
  sll $v1, $a0, 3
  jr $ra
  addi $v1, $v1, 1
.data
.align 4
arr: .word 0
)");
}

TEST(SpawnInterp, RandomArithmeticPrograms) {
  // Property: random straight-line arithmetic behaves identically under
  // both interpreters.
  Rng R(4242);
  for (int Trial = 0; Trial < 20; ++Trial) {
    std::string Src = ".text\nmain:\n";
    const char *Ops[] = {"add", "sub", "and", "or",  "xor",
                         "sll", "srl", "sra", "smul"};
    Src += "  mov " + std::to_string(R.range(-100, 100)) + ", %o0\n";
    Src += "  mov " + std::to_string(R.range(-100, 100)) + ", %o1\n";
    for (int I = 0; I < 30; ++I) {
      const char *Op = Ops[R.below(9)];
      unsigned A = 8 + static_cast<unsigned>(R.below(4));
      unsigned B = 8 + static_cast<unsigned>(R.below(4));
      unsigned D = 8 + static_cast<unsigned>(R.below(4));
      Src += "  " + std::string(Op) + " %r" + std::to_string(A) + ", %r" +
             std::to_string(B) + ", %r" + std::to_string(D) + "\n";
    }
    Src += "  and %o0, 255, %o0\n  sys 0\n";
    expectSameExecution(TargetArch::Srisc, Src);
  }
}

// --- Generated source -----------------------------------------------------------

TEST(SpawnCodegen, GeneratesFaithfulSource) {
  const MachineDesc &Desc = sriscTarget().desc();
  std::string Source = generateCppSource(Desc);
  // Every instruction appears as an executor.
  for (const InstPattern &P : Desc.Patterns)
    EXPECT_NE(Source.find("exec_" + P.Name), std::string::npos);
  // Field accessors are emitted.
  EXPECT_NE(Source.find("fld_disp22"), std::string::npos);
  // The generated file dwarfs the description, as in the paper.
  unsigned GeneratedLines = countCodeLines(Source);
  unsigned DescriptionLines = countCodeLines(sriscDescription());
  EXPECT_GT(GeneratedLines, 4 * DescriptionLines);
}

TEST(SpawnRtl, PrinterRendersSemantics) {
  const MachineDesc &Desc = sriscTarget().desc();
  std::vector<std::string> Names = Desc.regFileNames();
  // Find the `call` pattern and render its semantics.
  for (const InstPattern &P : Desc.Patterns) {
    if (P.Name != "call")
      continue;
    const Semantics &Sem = Desc.Sems[P.SemIndex];
    ASSERT_FALSE(Sem.Before.empty());
    ASSERT_FALSE(Sem.After.empty());
    EXPECT_TRUE(Sem.HasDelayMark);
    std::string Before;
    for (const StmtP &S : Sem.Before)
      Before += printStmt(*S, Names) + "\n";
    // call binds the link register to PC and computes the target.
    EXPECT_NE(Before.find("R[15] := PC"), std::string::npos) << Before;
    EXPECT_NE(Before.find("tgt :="), std::string::npos) << Before;
    std::string After;
    for (const StmtP &S : Sem.After)
      After += printStmt(*S, Names) + "\n";
    EXPECT_NE(After.find("pc := tgt"), std::string::npos) << After;
    return;
  }
  FAIL() << "no call pattern";
}

TEST(SpawnRtl, PrinterRendersGuards) {
  const MachineDesc &Desc = sriscTarget().desc();
  std::vector<std::string> Names = Desc.regFileNames();
  for (const InstPattern &P : Desc.Patterns) {
    if (P.Name != "bne")
      continue;
    const Semantics &Sem = Desc.Sems[P.SemIndex];
    std::string Text;
    for (const StmtP &S : Sem.After)
      Text += printStmt(*S, Names) + "\n";
    // Conditional transfer with an annul arm.
    EXPECT_NE(Text.find("cond_ne(CC)"), std::string::npos) << Text;
    EXPECT_NE(Text.find("annul"), std::string::npos) << Text;
    return;
  }
  FAIL() << "no bne pattern";
}
