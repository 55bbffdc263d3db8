//===- tests/IsaTest.cpp - Target decoding and backend tests --------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins each ISA's decoded facts word by word on words written from its
/// encoding header, independently of the description the decode table is
/// compiled from, and tests the backends' encoders, snippet code
/// generation, retargeting and register renaming.
///
//===----------------------------------------------------------------------===//

#include "isa/AriscEncoding.h"
#include "isa/MriscEncoding.h"
#include "isa/SriscEncoding.h"
#include "isa/Target.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

using namespace eel;

// --- SRISC -------------------------------------------------------------------

TEST(SriscEncode, FieldRoundTrip) {
  using namespace srisc;
  MachWord W = encodeArithImm(Op3Add, 17, 3, -42);
  EXPECT_EQ(fieldOp(W), uint32_t(OpArith));
  EXPECT_EQ(fieldRd(W), 17u);
  EXPECT_EQ(fieldOp3(W), uint32_t(Op3Add));
  EXPECT_EQ(fieldRs1(W), 3u);
  EXPECT_EQ(fieldI(W), 1u);
  EXPECT_EQ(fieldSimm13(W), -42);

  W = encodeBicc(true, CondNE, -100);
  EXPECT_EQ(fieldAnnul(W), 1u);
  EXPECT_EQ(fieldCond(W), uint32_t(CondNE));
  EXPECT_EQ(fieldDisp22(W), -100);
}

TEST(SriscTarget, Classification) {
  using namespace srisc;
  const TargetInfo &T = sriscTarget();
  EXPECT_EQ(T.decode(encodeArithReg(Op3Add, 1, 2, 3)).Category,
            InstCategory::Computation);
  EXPECT_EQ(T.decode(encodeSethi(5, 123)).Category, InstCategory::Computation);
  EXPECT_EQ(T.decode(encodeBicc(false, CondNE, 4)).Category,
            InstCategory::BranchDirect);
  EXPECT_EQ(T.decode(encodeBicc(false, CondA, 4)).Category,
            InstCategory::JumpDirect);
  EXPECT_EQ(T.decode(encodeBicc(false, CondN, 4)).Category,
            InstCategory::Computation);
  EXPECT_EQ(T.decode(encodeBicc(true, CondN, 4)).Category,
            InstCategory::JumpDirect);
  EXPECT_EQ(T.decode(encodeCall(16)).Category, InstCategory::CallDirect);
  EXPECT_EQ(T.decode(encodeJmplImm(0, 15, 8)).Category,
            InstCategory::IndirectJump);
  EXPECT_EQ(T.decode(encodeSys(1)).Category, InstCategory::System);
  EXPECT_EQ(T.decode(encodeMemImm(Op3Ld, 1, 14, 4)).Category,
            InstCategory::Load);
  EXPECT_EQ(T.decode(encodeMemImm(Op3St, 1, 14, 4)).Category,
            InstCategory::Store);
  EXPECT_EQ(T.decode(0).Category, InstCategory::Invalid);
  EXPECT_EQ(T.decode(0xFFFFFFFFu).Category, InstCategory::Invalid);
}

TEST(SriscTarget, ReadsWrites) {
  using namespace srisc;
  const TargetInfo &T = sriscTarget();
  // add %o1, %o2, %o3: reads {9, 10}, writes {11}.
  MachWord Add = encodeArithReg(Op3Add, 11, 9, 10);
  EXPECT_EQ(T.decode(Add).Reads, (RegSet{9, 10}));
  EXPECT_EQ(T.decode(Add).Writes, (RegSet{11}));
  // subcc also writes CC.
  MachWord SubCC = encodeArithImm(Op3SubCC, 0, 9, 5);
  EXPECT_EQ(T.decode(SubCC).Reads, (RegSet{9}));
  EXPECT_EQ(T.decode(SubCC).Writes, (RegSet{RegIdCC}));
  // Conditional branches read CC; ba does not.
  EXPECT_EQ(T.decode(encodeBicc(false, CondNE, 1)).Reads, (RegSet{RegIdCC}));
  EXPECT_EQ(T.decode(encodeBicc(false, CondA, 1)).Reads, RegSet{});
  // call writes the link register.
  EXPECT_EQ(T.decode(encodeCall(4)).Writes, (RegSet{15}));
  // Stores read the data register; the hard zero never appears.
  MachWord St = encodeMemImm(Op3St, 7, 14, -8);
  EXPECT_EQ(T.decode(St).Reads, (RegSet{7, 14}));
  EXPECT_EQ(T.decode(St).Writes, RegSet{});
  MachWord LdZero = encodeMemReg(Op3Ld, 0, 0, 0);
  EXPECT_EQ(T.decode(LdZero).Reads, RegSet{});
  EXPECT_EQ(T.decode(LdZero).Writes, RegSet{});
  // Traps use the convention registers.
  EXPECT_EQ(T.decode(encodeSys(1)).Reads, (RegSet{8, 9, 10}));
  EXPECT_EQ(T.decode(encodeSys(1)).Writes, (RegSet{8}));
}

TEST(SriscTarget, DelayAndAnnul) {
  using namespace srisc;
  const TargetInfo &T = sriscTarget();
  EXPECT_EQ(T.decode(encodeBicc(false, CondNE, 1)).Delay,
            DelayBehavior::Always);
  EXPECT_EQ(T.decode(encodeBicc(true, CondNE, 1)).Delay,
            DelayBehavior::AnnulUntaken);
  EXPECT_EQ(T.decode(encodeBicc(true, CondA, 1)).Delay,
            DelayBehavior::AnnulAlways);
  EXPECT_EQ(T.decode(encodeBicc(false, CondA, 1)).Delay,
            DelayBehavior::Always);
  EXPECT_EQ(T.decode(encodeCall(1)).Delay, DelayBehavior::Always);
  EXPECT_EQ(T.decode(encodeJmplImm(0, 15, 8)).Delay, DelayBehavior::Always);
  EXPECT_EQ(T.decode(encodeArithReg(Op3Add, 1, 2, 3)).Delay,
            DelayBehavior::None);
  EXPECT_TRUE(T.decode(encodeBicc(false, CondNE, 1)).Conditional);
  EXPECT_FALSE(T.decode(encodeBicc(false, CondA, 1)).Conditional);
}

TEST(SriscTarget, DirectTargets) {
  using namespace srisc;
  const TargetInfo &T = sriscTarget();
  Addr PC = 0x10000;
  EXPECT_EQ(T.decode(encodeBicc(false, CondNE, 5)).directTarget(PC),
            std::optional<Addr>(PC + 20));
  EXPECT_EQ(T.decode(encodeBicc(false, CondNE, -5)).directTarget(PC),
            std::optional<Addr>(PC - 20));
  EXPECT_EQ(T.decode(encodeCall(100)).directTarget(PC),
            std::optional<Addr>(PC + 400));
  EXPECT_EQ(T.decode(encodeBicc(true, CondN, 0)).directTarget(PC),
            std::optional<Addr>(PC + 8));
  EXPECT_EQ(T.decode(encodeArithReg(Op3Add, 1, 2, 3)).directTarget(PC),
            std::nullopt);
}

TEST(SriscTarget, RetargetDirect) {
  using namespace srisc;
  const TargetInfo &T = sriscTarget();
  MachWord Br = encodeBicc(false, CondG, 5);
  std::optional<MachWord> New =
      retargetDirect(T.decode(Br), Br, 0x20000, 0x20040);
  ASSERT_TRUE(New.has_value());
  EXPECT_EQ(T.decode(*New).directTarget(0x20000), std::optional<Addr>(0x20040));
  EXPECT_EQ(T.decode(*New).Category, InstCategory::BranchDirect);
  // Out-of-range displacement is rejected.
  EXPECT_FALSE(retargetDirect(T.decode(Br), Br, 0, 0x4000000).has_value());
}

TEST(SriscTarget, IndirectAndMemShapes) {
  using namespace srisc;
  const TargetInfo &T = sriscTarget();
  DecodedWord Jmpl = T.decode(encodeJmplImm(15, 9, 4));
  ASSERT_EQ(Jmpl.Category, InstCategory::IndirectJump);
  EXPECT_EQ(Jmpl.Indirect.BaseReg, 9u);
  EXPECT_EQ(Jmpl.Indirect.Offset, 4);
  EXPECT_FALSE(Jmpl.Indirect.HasIndex);
  EXPECT_EQ(Jmpl.Indirect.LinkReg, 15u);

  DecodedWord Ld = T.decode(encodeMemImm(Op3Ldsh, 5, 14, -2));
  ASSERT_EQ(Ld.Category, InstCategory::Load);
  const MemOp &M = Ld.Mem;
  EXPECT_TRUE(M.IsLoad);
  EXPECT_EQ(M.Width, 2u);
  EXPECT_TRUE(M.SignExtendLoad);
  EXPECT_EQ(M.AddrBase, 14u);
  EXPECT_EQ(M.Offset, -2);
  EXPECT_EQ(M.DataReg, 5u);
}

TEST(SriscTarget, DataOps) {
  using namespace srisc;
  const TargetInfo &T = sriscTarget();
  DataOp Op = T.decode(encodeSethi(3, 0x123)).Op;
  EXPECT_EQ(Op.Kind, DataOpKind::LoadImmHi);
  EXPECT_EQ(Op.Rd, 3u);
  EXPECT_EQ(Op.Imm, int32_t(0x123 << 10));

  Op = T.decode(encodeArithImm(Op3Sll, 4, 5, 2)).Op;
  EXPECT_EQ(Op.Kind, DataOpKind::Sll);
  EXPECT_TRUE(Op.HasImm);
  EXPECT_EQ(Op.Imm, 2);
  EXPECT_FALSE(Op.SetsCC);

  Op = T.decode(encodeArithImm(Op3SubCC, 0, 5, 7)).Op;
  EXPECT_EQ(Op.Kind, DataOpKind::Sub);
  EXPECT_TRUE(Op.SetsCC);

  EXPECT_EQ(T.decode(encodeJmplImm(0, 15, 8)).Op.Kind, DataOpKind::None);
  EXPECT_EQ(T.decode(encodeMemImm(Op3Ld, 1, 2, 0)).Op.Kind, DataOpKind::None);
}

/// The identity renaming with \p A and \p B exchanged.
static RegisterMap swapping(unsigned A, unsigned B) {
  RegisterMap Map;
  for (unsigned R = 0; R < Map.size(); ++R)
    Map[R] = static_cast<uint8_t>(R == A ? B : R == B ? A : R);
  return Map;
}

TEST(SriscTarget, RewriteRegisters) {
  using namespace srisc;
  const TargetInfo &T = sriscTarget();
  RegisterMap Swap12 = swapping(1, 2);
  MachWord Add = encodeArithReg(Op3Add, 1, 2, 3);
  auto New = rewriteRegisters(T.decode(Add), Add, Swap12);
  ASSERT_TRUE(New.has_value());
  EXPECT_EQ(fieldRd(*New), 2u);
  EXPECT_EQ(fieldRs1(*New), 1u);
  EXPECT_EQ(fieldRs2(*New), 3u);
  // A call's implicit link register cannot be renamed.
  RegisterMap MoveLink = swapping(15, 16);
  MachWord Call = encodeCall(4);
  EXPECT_FALSE(rewriteRegisters(T.decode(Call), Call, MoveLink).has_value());
  EXPECT_TRUE(rewriteRegisters(T.decode(Call), Call, Swap12).has_value());
}

TEST(SriscTarget, CodegenHelpers) {
  using namespace srisc;
  const TargetInfo &T = sriscTarget();
  std::vector<MachWord> Out;
  T.emitLoadConst(9, 0x123456, Out);
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(T.decode(Out[0]).Category, InstCategory::Computation);
  Out.clear();
  T.emitLoadConst(9, 100, Out); // fits simm13: single instruction
  EXPECT_EQ(Out.size(), 1u);
  Out.clear();
  EXPECT_TRUE(T.emitJump(0x10000, 0x10100, Out));
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(T.decode(Out[0]).directTarget(0x10000),
            std::optional<Addr>(0x10100));
  EXPECT_EQ(Out[1], T.nopWord());
}

TEST(SriscCond, EvalMatrix) {
  using namespace srisc;
  // subcc 3, 5: N=1 V=0 C=1(borrow) Z=0.
  uint32_t CC = ccForSub(3, 5);
  EXPECT_TRUE(evalCond(CondL, CC));   // 3 < 5 signed
  EXPECT_TRUE(evalCond(CondLE, CC));
  EXPECT_FALSE(evalCond(CondG, CC));
  EXPECT_FALSE(evalCond(CondGE, CC));
  EXPECT_TRUE(evalCond(CondCS, CC));  // 3 < 5 unsigned
  EXPECT_TRUE(evalCond(CondNE, CC));
  // subcc 5, 5: Z=1.
  CC = ccForSub(5, 5);
  EXPECT_TRUE(evalCond(CondE, CC));
  EXPECT_TRUE(evalCond(CondLE, CC));
  EXPECT_TRUE(evalCond(CondGE, CC));
  EXPECT_FALSE(evalCond(CondL, CC));
  // Signed overflow: INT_MAX - (-1).
  CC = ccForSub(0x7FFFFFFFu, 0xFFFFFFFFu);
  EXPECT_TRUE(evalCond(CondVS, CC));
  EXPECT_TRUE(evalCond(CondG, CC)); // INT_MAX > -1
  // Always/never.
  EXPECT_TRUE(evalCond(CondA, 0));
  EXPECT_FALSE(evalCond(CondN, 0xF));
}

// --- MRISC -------------------------------------------------------------------

TEST(MriscTarget, Classification) {
  using namespace mrisc;
  const TargetInfo &T = mriscTarget();
  EXPECT_EQ(T.decode(encodeRType(1, 2, 3, 0, FnAdd)).Category,
            InstCategory::Computation);
  EXPECT_EQ(T.decode(encodeRType(31, 0, 0, 0, FnJr)).Category,
            InstCategory::IndirectJump);
  EXPECT_EQ(T.decode(encodeRType(8, 0, 31, 0, FnJalr)).Category,
            InstCategory::IndirectJump);
  EXPECT_EQ(T.decode(encodeRType(0, 0, 0, 0, FnSyscall)).Category,
            InstCategory::System);
  EXPECT_EQ(T.decode(encodeJType(OpJ, 0x100)).Category,
            InstCategory::JumpDirect);
  EXPECT_EQ(T.decode(encodeJType(OpJal, 0x100)).Category,
            InstCategory::CallDirect);
  EXPECT_EQ(T.decode(encodeIType(OpBeq, 1, 2, 4)).Category,
            InstCategory::BranchDirect);
  EXPECT_EQ(T.decode(encodeIType(OpLw, 29, 8, 4)).Category,
            InstCategory::Load);
  EXPECT_EQ(T.decode(encodeIType(OpSw, 29, 8, 4)).Category,
            InstCategory::Store);
  // nop (all zeros) is sll r0, r0, 0: a valid computation, as on MIPS.
  EXPECT_EQ(T.decode(0).Category, InstCategory::Computation);
  // R-type with a junk funct is invalid.
  EXPECT_EQ(T.decode(encodeRType(0, 0, 0, 0, 0x3F)).Category,
            InstCategory::Invalid);
  // blez with rt != 0 is invalid.
  EXPECT_EQ(T.decode(encodeIType(OpBlez, 3, 1, 4)).Category,
            InstCategory::Invalid);
}

TEST(MriscTarget, ReadsWrites) {
  using namespace mrisc;
  const TargetInfo &T = mriscTarget();
  MachWord Add = encodeRType(9, 10, 11, 0, FnAdd);
  EXPECT_EQ(T.decode(Add).Reads, (RegSet{9, 10}));
  EXPECT_EQ(T.decode(Add).Writes, (RegSet{11}));
  MachWord Jal = encodeJType(OpJal, 0x400);
  EXPECT_EQ(T.decode(Jal).Writes, (RegSet{31}));
  MachWord Sw = encodeIType(OpSw, 29, 8, 16);
  EXPECT_EQ(T.decode(Sw).Reads, (RegSet{29, 8}));
  EXPECT_EQ(T.decode(Sw).Writes, RegSet{});
  MachWord Syscall = encodeRType(0, 0, 0, 0, FnSyscall);
  EXPECT_EQ(T.decode(Syscall).Reads, (RegSet{2, 4, 5, 6}));
  EXPECT_EQ(T.decode(Syscall).Writes, (RegSet{2}));
}

TEST(MriscTarget, BranchTargetsRelativeToDelaySlot) {
  using namespace mrisc;
  const TargetInfo &T = mriscTarget();
  Addr PC = 0x10000;
  MachWord Beq = encodeIType(OpBeq, 1, 2, 4);
  EXPECT_EQ(T.decode(Beq).directTarget(PC), std::optional<Addr>(PC + 4 + 16));
  MachWord J = encodeJType(OpJ, 0x5000 >> 2);
  EXPECT_EQ(T.decode(J).directTarget(PC), std::optional<Addr>(0x5000));
  auto Re = retargetDirect(T.decode(Beq), Beq, 0x20000, 0x20010);
  ASSERT_TRUE(Re.has_value());
  EXPECT_EQ(T.decode(*Re).directTarget(0x20000), std::optional<Addr>(0x20010));
  auto ReJ = retargetDirect(T.decode(J), J, 0x20000, 0x300000);
  ASSERT_TRUE(ReJ.has_value());
  EXPECT_EQ(T.decode(*ReJ).directTarget(0x20000),
            std::optional<Addr>(0x300000));
}

TEST(MriscTarget, NoAnnulment) {
  using namespace mrisc;
  const TargetInfo &T = mriscTarget();
  EXPECT_EQ(T.decode(encodeIType(OpBeq, 1, 2, 4)).Delay,
            DelayBehavior::Always);
  EXPECT_EQ(T.decode(encodeJType(OpJ, 4)).Delay, DelayBehavior::Always);
  EXPECT_EQ(T.decode(encodeRType(31, 0, 0, 0, FnJr)).Delay,
            DelayBehavior::Always);
  EXPECT_FALSE(T.hasConditionCodes());
}

TEST(MriscTarget, DataOps) {
  using namespace mrisc;
  const TargetInfo &T = mriscTarget();
  DataOp Op = T.decode(encodeIType(OpLui, 0, 5, 0x1234)).Op;
  EXPECT_EQ(Op.Kind, DataOpKind::LoadImmHi);
  EXPECT_EQ(Op.Imm, int32_t(0x12340000));
  Op = T.decode(encodeIType(OpAddi, 3, 4, 0xFFFC)).Op; // addi $4, $3, -4
  EXPECT_EQ(Op.Kind, DataOpKind::Add);
  EXPECT_EQ(Op.Rd, 4u);
  EXPECT_EQ(Op.Rs1, 3u);
  EXPECT_TRUE(Op.HasImm);
  EXPECT_EQ(Op.Imm, -4);
  Op = T.decode(encodeRType(0, 7, 8, 2, FnSll)).Op; // sll $8, $7, 2
  EXPECT_EQ(Op.Kind, DataOpKind::Sll);
  EXPECT_EQ(Op.Rs1, 7u);
  EXPECT_EQ(Op.Imm, 2);
}

// --- ARISC -------------------------------------------------------------------
//
// Facts written from AriscEncoding.h's format table: rc := ra <func> rb,
// rb := ra <op> imm16, data ra and base rb for memory, displacements
// relative to the next word, jmp linking ra and jumping through rb, and a
// trap number in imm16.

TEST(AriscTarget, OperateForms) {
  using namespace arisc;
  const TargetInfo &T = ariscTarget();
  DecodedWord Add = T.decode(encodeOperate(3, 4, 5, FnAdd));
  EXPECT_EQ(Add.Category, InstCategory::Computation);
  EXPECT_EQ(Add.Reads, (RegSet{3, 4}));
  EXPECT_EQ(Add.Writes, (RegSet{5}));
  EXPECT_EQ(Add.Delay, DelayBehavior::None);
  EXPECT_EQ(Add.Op.Kind, DataOpKind::Add);
  EXPECT_EQ(Add.Op.Rd, 5u);
  EXPECT_EQ(Add.Op.Rs1, 3u);
  EXPECT_EQ(Add.Op.Rs2, 4u);
  EXPECT_FALSE(Add.Op.HasImm);
  ASSERT_EQ(Add.NumRegFields, 3u);
  EXPECT_EQ(Add.RegFields[0], (BitRange{11, 15}));
  EXPECT_EQ(Add.RegFields[1], (BitRange{16, 20}));
  EXPECT_EQ(Add.RegFields[2], (BitRange{21, 25}));
  const std::pair<uint32_t, DataOpKind> Funcs[] = {
      {FnAdd, DataOpKind::Add}, {FnSub, DataOpKind::Sub},
      {FnAnd, DataOpKind::And}, {FnOr, DataOpKind::Or},
      {FnXor, DataOpKind::Xor}, {FnSll, DataOpKind::Sll},
      {FnSrl, DataOpKind::Srl}, {FnSra, DataOpKind::Sra},
      {FnMul, DataOpKind::Mul}, {FnDiv, DataOpKind::Div},
      {FnRem, DataOpKind::Rem}, {FnCmplt, DataOpKind::SetLess}};
  for (const auto &[Func, Kind] : Funcs)
    EXPECT_EQ(T.decode(encodeOperate(1, 2, 3, Func)).Op.Kind, Kind)
        << "func " << Func;
  // The hard zero is neither read nor written.
  DecodedWord Zero = T.decode(encodeOperate(0, 2, 0, FnOr));
  EXPECT_EQ(Zero.Reads, (RegSet{2}));
  EXPECT_EQ(Zero.Writes, RegSet{});
  EXPECT_EQ(T.decode(encodeOperate(1, 2, 3, FnCmplt + 1)).Category,
            InstCategory::Invalid);
}

TEST(AriscTarget, ImmediateForms) {
  using namespace arisc;
  const TargetInfo &T = ariscTarget();
  // addi and cmplti sign-extend imm16; the logical ops and shifts do not.
  DecodedWord Addi = T.decode(encodeIType(OpAddi, 3, 4, 0xFFFC));
  EXPECT_EQ(Addi.Category, InstCategory::Computation);
  EXPECT_EQ(Addi.Reads, (RegSet{3}));
  EXPECT_EQ(Addi.Writes, (RegSet{4}));
  EXPECT_EQ(Addi.Op.Kind, DataOpKind::Add);
  EXPECT_EQ(Addi.Op.Rd, 4u);
  EXPECT_EQ(Addi.Op.Rs1, 3u);
  EXPECT_TRUE(Addi.Op.HasImm);
  EXPECT_EQ(Addi.Op.Imm, -4);
  ASSERT_EQ(Addi.NumRegFields, 2u);
  EXPECT_EQ(Addi.RegFields[0], (BitRange{16, 20}));
  EXPECT_EQ(Addi.RegFields[1], (BitRange{21, 25}));
  const struct {
    uint32_t Op;
    DataOpKind Kind;
    int32_t Imm;
  } Forms[] = {{OpAddi, DataOpKind::Add, -2},
               {OpCmplti, DataOpKind::SetLess, -2},
               {OpAndi, DataOpKind::And, 0xFFFE},
               {OpOri, DataOpKind::Or, 0xFFFE},
               {OpXori, DataOpKind::Xor, 0xFFFE},
               {OpSlli, DataOpKind::Sll, 0xFFFE},
               {OpSrli, DataOpKind::Srl, 0xFFFE},
               {OpSrai, DataOpKind::Sra, 0xFFFE}};
  for (const auto &F : Forms) {
    DataOp Op = T.decode(encodeIType(F.Op, 7, 8, 0xFFFE)).Op;
    EXPECT_EQ(Op.Kind, F.Kind) << "op " << F.Op;
    EXPECT_EQ(Op.Rd, 8u) << "op " << F.Op;
    EXPECT_EQ(Op.Rs1, 7u) << "op " << F.Op;
    EXPECT_TRUE(Op.HasImm) << "op " << F.Op;
    EXPECT_EQ(Op.Imm, F.Imm) << "op " << F.Op;
  }
  // The canonical nop (ori r0, r0, 0) reads and writes nothing.
  DecodedWord Nop = T.decode(nop());
  EXPECT_EQ(Nop.Category, InstCategory::Computation);
  EXPECT_EQ(Nop.Reads, RegSet{});
  EXPECT_EQ(Nop.Writes, RegSet{});
}

TEST(AriscTarget, Ldih) {
  using namespace arisc;
  const TargetInfo &T = ariscTarget();
  DecodedWord Ldih = T.decode(encodeIType(OpLdih, 0, 7, 0x1234));
  EXPECT_EQ(Ldih.Category, InstCategory::Computation);
  EXPECT_EQ(Ldih.Reads, RegSet{});
  EXPECT_EQ(Ldih.Writes, (RegSet{7}));
  EXPECT_EQ(Ldih.Op.Kind, DataOpKind::LoadImmHi);
  EXPECT_EQ(Ldih.Op.Rd, 7u);
  EXPECT_TRUE(Ldih.Op.HasImm);
  EXPECT_EQ(Ldih.Op.Imm, int32_t(0x12340000));
  // ra is a fixed zero field.
  EXPECT_EQ(T.decode(encodeIType(OpLdih, 1, 7, 0x1234)).Category,
            InstCategory::Invalid);
}

TEST(AriscTarget, LoadsAndStores) {
  using namespace arisc;
  const TargetInfo &T = ariscTarget();
  const struct {
    uint32_t Op;
    uint8_t Width;
    bool Signed;
  } Loads[] = {{OpLdw, 4, false},
               {OpLdb, 1, true},
               {OpLdbu, 1, false},
               {OpLdh, 2, true},
               {OpLdhu, 2, false}};
  for (const auto &L : Loads) {
    DecodedWord D = T.decode(encodeIType(L.Op, 5, RegSP, 0xFFF8));
    ASSERT_EQ(D.Category, InstCategory::Load) << "op " << L.Op;
    EXPECT_EQ(D.Reads, (RegSet{RegSP})) << "op " << L.Op;
    EXPECT_EQ(D.Writes, (RegSet{5})) << "op " << L.Op;
    EXPECT_TRUE(D.Mem.IsLoad) << "op " << L.Op;
    EXPECT_FALSE(D.Mem.IsStore) << "op " << L.Op;
    EXPECT_EQ(D.Mem.Width, L.Width) << "op " << L.Op;
    EXPECT_EQ(D.Mem.SignExtendLoad, L.Signed) << "op " << L.Op;
    EXPECT_EQ(D.Mem.AddrBase, unsigned(RegSP)) << "op " << L.Op;
    EXPECT_FALSE(D.Mem.HasIndex) << "op " << L.Op;
    EXPECT_EQ(D.Mem.Offset, -8) << "op " << L.Op;
    EXPECT_EQ(D.Mem.DataReg, 5u) << "op " << L.Op;
  }
  const struct {
    uint32_t Op;
    uint8_t Width;
  } Stores[] = {{OpStw, 4}, {OpStb, 1}, {OpSth, 2}};
  for (const auto &S : Stores) {
    DecodedWord D = T.decode(encodeIType(S.Op, 5, RegSP, 12));
    ASSERT_EQ(D.Category, InstCategory::Store) << "op " << S.Op;
    EXPECT_EQ(D.Reads, (RegSet{5, RegSP})) << "op " << S.Op;
    EXPECT_EQ(D.Writes, RegSet{}) << "op " << S.Op;
    EXPECT_TRUE(D.Mem.IsStore) << "op " << S.Op;
    EXPECT_FALSE(D.Mem.IsLoad) << "op " << S.Op;
    EXPECT_EQ(D.Mem.Width, S.Width) << "op " << S.Op;
    EXPECT_FALSE(D.Mem.SignExtendLoad) << "op " << S.Op;
    EXPECT_EQ(D.Mem.AddrBase, unsigned(RegSP)) << "op " << S.Op;
    EXPECT_EQ(D.Mem.Offset, 12) << "op " << S.Op;
    EXPECT_EQ(D.Mem.DataReg, 5u) << "op " << S.Op;
  }
}

TEST(AriscTarget, TransfersRelativeToNextWord) {
  using namespace arisc;
  const TargetInfo &T = ariscTarget();
  Addr PC = 0x10000;
  for (uint32_t Op : {OpBeq, OpBne, OpBlt, OpBle}) {
    DecodedWord D = T.decode(encodeBranch(Op, 1, 2, 3));
    EXPECT_EQ(D.Category, InstCategory::BranchDirect) << "op " << Op;
    EXPECT_TRUE(D.Conditional) << "op " << Op;
    EXPECT_EQ(D.Delay, DelayBehavior::None) << "op " << Op;
    EXPECT_EQ(D.Reads, (RegSet{1, 2})) << "op " << Op;
    EXPECT_EQ(D.Writes, RegSet{}) << "op " << Op;
    EXPECT_EQ(D.directTarget(PC), std::optional<Addr>(PC + 4 + 12));
    EXPECT_EQ(T.decode(encodeBranch(Op, 1, 2, -2)).directTarget(PC),
              std::optional<Addr>(PC + 4 - 8));
  }
  DecodedWord Br = T.decode(encodeBrType(OpBr, 5));
  EXPECT_EQ(Br.Category, InstCategory::JumpDirect);
  EXPECT_FALSE(Br.Conditional);
  EXPECT_EQ(Br.Delay, DelayBehavior::None);
  EXPECT_EQ(Br.Writes, RegSet{});
  EXPECT_EQ(Br.directTarget(PC), std::optional<Addr>(PC + 4 + 20));
  DecodedWord Bsr = T.decode(encodeBrType(OpBsr, -3));
  EXPECT_EQ(Bsr.Category, InstCategory::CallDirect);
  EXPECT_EQ(Bsr.Delay, DelayBehavior::None);
  EXPECT_EQ(Bsr.Writes, (RegSet{RegRA}));
  EXPECT_EQ(Bsr.FixedRegs, (RegSet{RegRA}));
  EXPECT_EQ(Bsr.directTarget(PC), std::optional<Addr>(PC + 4 - 12));
  // The displacement field is 16 bits for branches and 26 for br/bsr.
  EXPECT_EQ(T.decode(encodeBranch(OpBeq, 1, 2, 0)).Direct.Field,
            (BitRange{0, 15}));
  EXPECT_EQ(Br.Direct.Field, (BitRange{0, 25}));
  MachWord BrWord = encodeBrType(OpBr, 5);
  auto Re = retargetDirect(Br, BrWord, 0x20000, 0x20100);
  ASSERT_TRUE(Re.has_value());
  EXPECT_EQ(T.decode(*Re).directTarget(0x20000), std::optional<Addr>(0x20100));
}

TEST(AriscTarget, JmpBaseAndLink) {
  using namespace arisc;
  const TargetInfo &T = ariscTarget();
  DecodedWord Call = T.decode(encodeJmp(RegRA, 3));
  EXPECT_EQ(Call.Category, InstCategory::IndirectJump);
  EXPECT_EQ(Call.Delay, DelayBehavior::None);
  EXPECT_EQ(Call.Indirect.BaseReg, 3u);
  EXPECT_EQ(Call.Indirect.LinkReg, unsigned(RegRA));
  EXPECT_FALSE(Call.Indirect.HasIndex);
  EXPECT_EQ(Call.Indirect.Offset, 0);
  EXPECT_EQ(Call.Reads, (RegSet{3}));
  EXPECT_EQ(Call.Writes, (RegSet{RegRA}));
  DecodedWord Ret = T.decode(encodeJmp(0, RegRA));
  EXPECT_EQ(Ret.Indirect.BaseReg, unsigned(RegRA));
  EXPECT_EQ(Ret.Indirect.LinkReg, 0u);
  EXPECT_EQ(Ret.Reads, (RegSet{RegRA}));
  EXPECT_EQ(Ret.Writes, RegSet{});
  // jmp leaves imm16 clear.
  EXPECT_EQ(T.decode(encodeIType(OpJmp, 0, 3, 1)).Category,
            InstCategory::Invalid);
}

TEST(AriscTarget, SysTrapNumber) {
  using namespace arisc;
  const TargetInfo &T = ariscTarget();
  DecodedWord Sys = T.decode(encodeSys(7));
  EXPECT_EQ(Sys.Category, InstCategory::System);
  EXPECT_EQ(Sys.TrapNumber, std::optional<unsigned>(7));
  EXPECT_EQ(Sys.Reads, (RegSet{16, 17, 18}));
  EXPECT_EQ(Sys.Writes, (RegSet{RegV0}));
  EXPECT_EQ(T.decode(encodeSys(0xFFFF)).TrapNumber,
            std::optional<unsigned>(0xFFFF));
  // ra and rb are fixed zero fields.
  EXPECT_EQ(T.decode(encodeIType(OpSys, 1, 0, 7)).Category,
            InstCategory::Invalid);
  EXPECT_FALSE(T.branchDelaySlots());
  EXPECT_FALSE(T.hasConditionCodes());
}

// --- Cross-target disassembly smoke test --------------------------------------

TEST(Disassemble, ProducesText) {
  using namespace srisc;
  const TargetInfo &S = sriscTarget();
  EXPECT_EQ(S.disassemble(nop(), 0), "nop");
  EXPECT_EQ(S.disassemble(encodeArithReg(Op3Add, 11, 9, 10), 0),
            "add %o1, %o2, %o3");
  EXPECT_EQ(S.disassemble(encodeJmplImm(0, 15, 8), 0), "jmpl %o7+8, %g0");
  const TargetInfo &M = mriscTarget();
  EXPECT_EQ(M.disassemble(0, 0), "nop");
  EXPECT_EQ(M.disassemble(mrisc::encodeRType(9, 10, 11, 0, mrisc::FnAdd), 0),
            "add $t3, $t1, $t2");
}

// --- Property sweep: decode totality ------------------------------------------

namespace {

/// A register map that permutes 1..31 and keeps 0 and every register in
/// \p Keep fixed.
RegisterMap permutationKeeping(Rng &R, RegSet Keep) {
  RegisterMap Map;
  std::vector<uint8_t> Free;
  for (unsigned Reg = 0; Reg < 32; ++Reg) {
    Map[Reg] = static_cast<uint8_t>(Reg);
    if (Reg != 0 && !Keep.contains(Reg))
      Free.push_back(static_cast<uint8_t>(Reg));
  }
  std::vector<uint8_t> Shuffled = Free;
  for (size_t I = Shuffled.size(); I > 1; --I)
    std::swap(Shuffled[I - 1], Shuffled[R.next() % I]);
  for (size_t I = 0; I < Free.size(); ++I)
    Map[Free[I]] = Shuffled[I];
  return Map;
}

RegSet mapped(RegSet S, const RegisterMap &Map) {
  RegSet Out;
  for (unsigned Reg : S)
    Out.insert(Reg < 32 ? Map[Reg] : Reg);
  return Out;
}

/// retargetDirect over \p D: in-range targets decode back to themselves;
/// out-of-range and cross-region targets are refused.
void checkRetarget(const TargetInfo &T, MachWord W, const DecodedWord &D,
                   Rng &R) {
  const DirectShape &S = D.Direct;
  if (!S.HasField) {
    EXPECT_FALSE(retargetDirect(D, W, 0x10000, 0x10080).has_value());
    return;
  }
  unsigned Width = S.Field.Hi - S.Field.Lo + 1u;
  Addr PC = 0x40000000u + 4 * static_cast<Addr>(R.next() % 0x10000);
  std::vector<Addr> InRange;
  if (S.Region) {
    Addr Offset = static_cast<Addr>(R.next()) & ~S.RegionMask & ~3u;
    InRange.push_back((PC & S.RegionMask) | Offset);
    InRange.push_back(PC & S.RegionMask);
    EXPECT_FALSE(retargetDirect(D, W, PC, PC ^ 0x80000000u).has_value())
        << "cross-region target accepted";
  } else {
    int64_t Max = S.Signed ? (int64_t(1) << (Width - 1)) - 1
                           : (int64_t(1) << Width) - 1;
    int64_t Min = S.Signed ? -(int64_t(1) << (Width - 1)) : 0;
    for (int64_t Field : {Min, Max, int64_t(0), int64_t(R.next() % 64)}) {
      int64_t Target = int64_t(PC) + S.Bias + (Field << S.Shift);
      if (Target >= 0 && Target <= int64_t(UINT32_MAX))
        InRange.push_back(static_cast<Addr>(Target));
    }
    int64_t Beyond = int64_t(PC) + S.Bias + ((Max + 1) << S.Shift);
    if (Beyond > int64_t(UINT32_MAX))
      Beyond = int64_t(PC) + S.Bias + ((Min - 1) << S.Shift);
    if (Beyond >= 0 && Beyond <= int64_t(UINT32_MAX)) {
      EXPECT_FALSE(
          retargetDirect(D, W, PC, static_cast<Addr>(Beyond)).has_value())
          << "out-of-range target 0x" << std::hex << Beyond << " accepted";
    }
  }
  for (Addr Target : InRange) {
    std::optional<MachWord> New = retargetDirect(D, W, PC, Target);
    ASSERT_TRUE(New.has_value()) << "in-range target 0x" << std::hex << Target;
    DecodedWord Back = T.decode(*New);
    EXPECT_EQ(Back.Category, D.Category);
    EXPECT_EQ(Back.directTarget(PC), std::optional<Addr>(Target))
        << "retargeted word does not decode back to its target";
  }
}

/// rewriteRegisters over \p D: the identity map returns the word, a
/// permutation renames exactly the decoded registers, and moving a
/// register the word names implicitly is refused.
void checkRename(const TargetInfo &T, MachWord W, const DecodedWord &D,
                 Rng &R) {
  RegisterMap Identity = swapping(1, 1); // exchanges nothing
  EXPECT_EQ(rewriteRegisters(D, W, Identity), std::optional<MachWord>(W));
  RegisterMap Map = permutationKeeping(R, D.FixedRegs);
  std::optional<MachWord> New = rewriteRegisters(D, W, Map);
  ASSERT_TRUE(New.has_value());
  DecodedWord Renamed = T.decode(*New);
  EXPECT_EQ(Renamed.Category, D.Category);
  // Trap registers are conventions, not fields: renaming leaves them.
  if (D.Category != InstCategory::System) {
    EXPECT_EQ(Renamed.Reads, mapped(D.Reads, Map)) << "reads not renamed";
    EXPECT_EQ(Renamed.Writes, mapped(D.Writes, Map)) << "writes not renamed";
  }
  for (unsigned Reg : D.FixedRegs) {
    RegisterMap Move = swapping(Reg, (Reg % 31) + 1);
    EXPECT_FALSE(rewriteRegisters(D, W, Move).has_value())
        << "implicit register " << Reg << " renamed";
  }
}

} // namespace

/// Every 32-bit word must decode without crashing; reads/writes never
/// contain the hard-zero register; facts that do not apply to the word's
/// category stay zero; and the machine-independent retargeting and
/// renaming keep what decode() says about the words they produce.
TEST(TargetProperty, DecodeTotality) {
  Rng R(99);
  for (TargetArch Arch : AllTargetArches) {
    const TargetInfo &T = targetFor(Arch);
    for (int I = 0; I < 20000; ++I) {
      MachWord W = static_cast<MachWord>(R.next());
      SCOPED_TRACE(testing::Message() << T.name() << " word=0x" << std::hex
                                      << W << " [" << T.disassemble(W, 0)
                                      << "]");
      DecodedWord D = T.decode(W);
      EXPECT_FALSE(D.Reads.contains(0));
      EXPECT_FALSE(D.Writes.contains(0));
      InstCategory Cat = D.Category;
      if (Cat == InstCategory::Invalid) {
        EXPECT_EQ(D, DecodedWord()) << "an invalid word carries facts";
        continue;
      }
      if (D.isDirectTransfer()) {
        checkRetarget(T, W, D, R);
      } else {
        EXPECT_EQ(D.Direct, DirectShape());
        EXPECT_FALSE(retargetDirect(D, W, 0x10000, 0x10080).has_value());
      }
      if (Cat != InstCategory::IndirectJump) {
        EXPECT_EQ(D.Indirect, IndirectTargetInfo());
      }
      if (Cat != InstCategory::Load && Cat != InstCategory::Store) {
        EXPECT_EQ(D.Mem, MemOp());
      }
      if (Cat != InstCategory::Computation) {
        EXPECT_EQ(D.Op, DataOp());
      }
      if (Cat != InstCategory::System) {
        EXPECT_FALSE(D.TrapNumber.has_value());
      }
      checkRename(T, W, D, R);
    }
  }
}
