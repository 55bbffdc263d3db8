//===- isa/Srisc.cpp - Handwritten SRISC target backend ------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The handwritten machine-specific layer for SRISC. This file plays the
/// role of the paper's 2,268 lines of hand-coded SPARC manipulation code:
/// spawn generates an equivalent implementation from the ~150-line machine
/// description in isa/Descriptions.cpp, and the test suite checks the two
/// agree instruction-by-instruction.
///
//===----------------------------------------------------------------------===//

#include "isa/SriscEncoding.h"
#include "isa/Target.h"
#include "support/Error.h"

#include <array>
#include <cinttypes>
#include <cstdio>

using namespace eel;
using namespace eel::srisc;

TargetInfo::~TargetInfo() = default;

TargetInfo::InstMeta TargetInfo::decodeMeta(MachWord Word) const {
  // Generic fallback: one virtual call per fact, each re-decoding the
  // word. Backends override this with a single-decode version.
  InstMeta M;
  M.Category = classify(Word);
  M.Reads = reads(Word);
  M.Writes = writes(Word);
  M.HasDelaySlot = hasDelaySlot(Word);
  M.Delay = delayBehavior(Word);
  M.Conditional = isConditional(Word);
  return M;
}

static bool isValidArithOp3(uint32_t Op3) {
  switch (Op3) {
  case Op3Add:
  case Op3And:
  case Op3Or:
  case Op3Xor:
  case Op3Sub:
  case Op3Sll:
  case Op3Srl:
  case Op3Sra:
  case Op3Smul:
  case Op3Sdiv:
  case Op3Srem:
  case Op3AddCC:
  case Op3AndCC:
  case Op3OrCC:
  case Op3XorCC:
  case Op3SubCC:
  case Op3RdCC:
  case Op3WrCC:
  case Op3Jmpl:
  case Op3Sys:
    return true;
  default:
    return false;
  }
}

static bool isValidMemOp3(uint32_t Op3) {
  switch (Op3) {
  case Op3Ld:
  case Op3Ldub:
  case Op3Lduh:
  case Op3Ldsb:
  case Op3Ldsh:
  case Op3St:
  case Op3Stb:
  case Op3Sth:
    return true;
  default:
    return false;
  }
}

namespace {

/// Handwritten SRISC implementation of the target interface.
class SriscTarget : public TargetInfo {
public:
  SriscTarget() {
    Conv.LinkReg = RegLink;
    Conv.ReturnOffset = 8;
    Conv.StackPointer = RegSP;
    Conv.FramePointer = RegFP;
    Conv.ArgRegs = RegSet{8, 9, 10, 11, 12, 13};
    Conv.RetRegs = RegSet{8};
    // o-registers and g-registers are caller-saved, as are the condition
    // codes; l- and i-registers are callee-saved.
    Conv.CallerSaved =
        RegSet{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, RegIdCC};
    Conv.Reserved = RegSet{RegZero, RegSP, RegFP};
    Conv.SyscallNumReg = 0; // immediate field
    Conv.SyscallReads = RegSet{8, 9, 10};
    Conv.SyscallWrites = RegSet{8};
  }

  TargetArch arch() const override { return TargetArch::Srisc; }
  const char *name() const override { return "srisc"; }
  const TargetConventions &conventions() const override { return Conv; }
  unsigned numRegisters() const override { return 32; }
  bool hasConditionCodes() const override { return true; }
  bool branchDelaySlots() const override { return true; }

  std::string regName(unsigned Reg) const override {
    if (Reg == RegIdCC)
      return "%cc";
    if (Reg == RegIdPC)
      return "%pc";
    assert(Reg < 32 && "bad SRISC register id");
    static const char Groups[4] = {'g', 'o', 'l', 'i'};
    char Buf[8];
    std::snprintf(Buf, sizeof(Buf), "%%%c%u", Groups[Reg / 8], Reg % 8);
    return Buf;
  }

  InstCategory classify(MachWord W) const override {
    switch (fieldOp(W)) {
    case OpFormat2:
      switch (fieldOp2(W)) {
      case Op2Sethi:
        return InstCategory::Computation;
      case Op2Bicc: {
        uint32_t C = fieldCond(W);
        if (C == CondN)
          // `bn` never transfers control; with the annul bit it skips the
          // next instruction, which is a (direct) control transfer to PC+8.
          return fieldAnnul(W) ? InstCategory::JumpDirect
                               : InstCategory::Computation;
        // `ba` is an unconditional transfer; conditional branches keep the
        // BranchDirect category.
        return C == CondA ? InstCategory::JumpDirect
                          : InstCategory::BranchDirect;
      }
      default:
        return InstCategory::Invalid;
      }
    case OpCall:
      return InstCategory::CallDirect;
    case OpArith: {
      uint32_t Op3 = fieldOp3(W);
      if (Op3 == Op3Jmpl)
        return InstCategory::IndirectJump;
      if (Op3 == Op3Sys)
        return fieldI(W) ? InstCategory::System : InstCategory::Invalid;
      return isValidArithOp3(Op3) ? InstCategory::Computation
                                  : InstCategory::Invalid;
    }
    case OpMem: {
      uint32_t Op3 = fieldOp3(W);
      if (!isValidMemOp3(Op3))
        return InstCategory::Invalid;
      return Op3 >= Op3St ? InstCategory::Store : InstCategory::Load;
    }
    }
    unreachable("2-bit field out of range");
  }

  RegSet reads(MachWord W) const override {
    RegSet R;
    auto AddReg = [&R](unsigned Reg) {
      if (Reg != RegZero)
        R.insert(Reg);
    };
    if (classify(W) == InstCategory::Invalid)
      return R;
    switch (fieldOp(W)) {
    case OpFormat2:
      if (fieldOp2(W) == Op2Bicc && fieldCond(W) != CondA &&
          fieldCond(W) != CondN)
        R.insert(RegIdCC);
      return R;
    case OpCall:
      return R;
    case OpArith: {
      uint32_t Op3 = fieldOp3(W);
      if (Op3 == Op3Sys) {
        // Trap convention: arguments in o0-o2 (see §4 of the paper: call and
        // trap conventions live outside the machine description).
        return RegSet{8, 9, 10};
      }
      if (Op3 == Op3RdCC) {
        R.insert(RegIdCC);
        return R;
      }
      AddReg(fieldRs1(W));
      if (Op3 != Op3WrCC && !fieldI(W))
        AddReg(fieldRs2(W));
      return R;
    }
    case OpMem: {
      AddReg(fieldRs1(W));
      if (!fieldI(W))
        AddReg(fieldRs2(W));
      if (fieldOp3(W) >= Op3St)
        AddReg(fieldRd(W)); // stored value
      return R;
    }
    }
    unreachable("2-bit field out of range");
  }

  RegSet writes(MachWord W) const override {
    RegSet R;
    auto AddReg = [&R](unsigned Reg) {
      if (Reg != RegZero)
        R.insert(Reg);
    };
    if (classify(W) == InstCategory::Invalid)
      return R;
    switch (fieldOp(W)) {
    case OpFormat2:
      if (fieldOp2(W) == Op2Sethi)
        AddReg(fieldRd(W));
      return R;
    case OpCall:
      R.insert(RegLink);
      return R;
    case OpArith: {
      uint32_t Op3 = fieldOp3(W);
      if (Op3 == Op3Sys) {
        R.insert(8); // trap return value in o0
        return R;
      }
      if (Op3 == Op3WrCC) {
        R.insert(RegIdCC);
        return R;
      }
      AddReg(fieldRd(W));
      if (Op3 >= Op3AddCC && Op3 <= Op3SubCC)
        R.insert(RegIdCC);
      return R;
    }
    case OpMem:
      if (fieldOp3(W) < Op3St)
        AddReg(fieldRd(W));
      return R;
    }
    unreachable("2-bit field out of range");
  }

  bool hasDelaySlot(MachWord W) const override {
    switch (classify(W)) {
    case InstCategory::BranchDirect:
    case InstCategory::JumpDirect:
    case InstCategory::CallDirect:
    case InstCategory::IndirectJump:
      return true;
    default:
      // `bn` without annul classifies as Computation but still occupies a
      // delay slot in hardware; since it neither branches nor annuls, the
      // "delay" instruction is simply the next sequential instruction and
      // needs no special treatment.
      return false;
    }
  }

  DelayBehavior delayBehavior(MachWord W) const override {
    if (!hasDelaySlot(W))
      return DelayBehavior::None;
    if (fieldOp(W) == OpFormat2 && fieldOp2(W) == Op2Bicc) {
      uint32_t C = fieldCond(W);
      if (!fieldAnnul(W))
        return DelayBehavior::Always;
      if (C == CondA || C == CondN)
        return DelayBehavior::AnnulAlways;
      return DelayBehavior::AnnulUntaken;
    }
    return DelayBehavior::Always; // call, jmpl
  }

  bool isConditional(MachWord W) const override {
    if (fieldOp(W) != OpFormat2 || fieldOp2(W) != Op2Bicc)
      return false;
    uint32_t C = fieldCond(W);
    return C != CondA && C != CondN;
  }

  InstMeta decodeMeta(MachWord W) const override {
    // Single-decode path: classify once and derive the delay-slot facts
    // from the category and raw fields instead of re-classifying per query.
    InstMeta M;
    M.Category = classify(W);
    if (M.Category == InstCategory::Invalid)
      return M;
    M.Reads = reads(W);
    M.Writes = writes(W);
    switch (M.Category) {
    case InstCategory::BranchDirect:
    case InstCategory::JumpDirect:
    case InstCategory::CallDirect:
    case InstCategory::IndirectJump:
      M.HasDelaySlot = true;
      if (fieldOp(W) == OpFormat2 && fieldOp2(W) == Op2Bicc) {
        uint32_t C = fieldCond(W);
        if (!fieldAnnul(W))
          M.Delay = DelayBehavior::Always;
        else if (C == CondA || C == CondN)
          M.Delay = DelayBehavior::AnnulAlways;
        else
          M.Delay = DelayBehavior::AnnulUntaken;
      } else {
        M.Delay = DelayBehavior::Always; // call, jmpl
      }
      break;
    default:
      break;
    }
    M.Conditional = isConditional(W);
    return M;
  }

  std::optional<Addr> directTarget(MachWord W, Addr PC) const override {
    switch (classify(W)) {
    case InstCategory::BranchDirect:
    case InstCategory::JumpDirect: {
      if (fieldCond(W) == CondN)
        return PC + 8; // bn,a skips the delay slot
      return PC + static_cast<Addr>(fieldDisp22(W) * 4);
    }
    case InstCategory::CallDirect:
      return PC + static_cast<Addr>(fieldDisp30(W) * 4);
    default:
      return std::nullopt;
    }
  }

  std::optional<IndirectTargetInfo> indirectTarget(MachWord W) const override {
    if (classify(W) != InstCategory::IndirectJump)
      return std::nullopt;
    IndirectTargetInfo Info;
    Info.BaseReg = fieldRs1(W);
    if (fieldI(W)) {
      Info.Offset = fieldSimm13(W);
    } else {
      Info.HasIndex = true;
      Info.IndexReg = fieldRs2(W);
    }
    Info.LinkReg = fieldRd(W);
    return Info;
  }

  DataOp dataOp(MachWord W) const override {
    DataOp Op;
    if (fieldOp(W) == OpFormat2 && fieldOp2(W) == Op2Sethi) {
      Op.Kind = DataOpKind::LoadImmHi;
      Op.Rd = fieldRd(W);
      Op.HasImm = true;
      Op.Imm = static_cast<int32_t>(fieldImm22(W) << 10);
      return Op;
    }
    if (fieldOp(W) != OpArith)
      return Op;
    switch (fieldOp3(W)) {
    case Op3Add:
      Op.Kind = DataOpKind::Add;
      break;
    case Op3And:
      Op.Kind = DataOpKind::And;
      break;
    case Op3Or:
      Op.Kind = DataOpKind::Or;
      break;
    case Op3Xor:
      Op.Kind = DataOpKind::Xor;
      break;
    case Op3Sub:
      Op.Kind = DataOpKind::Sub;
      break;
    case Op3Sll:
      Op.Kind = DataOpKind::Sll;
      break;
    case Op3Srl:
      Op.Kind = DataOpKind::Srl;
      break;
    case Op3Sra:
      Op.Kind = DataOpKind::Sra;
      break;
    case Op3Smul:
      Op.Kind = DataOpKind::Mul;
      break;
    case Op3Sdiv:
      Op.Kind = DataOpKind::Div;
      break;
    case Op3Srem:
      Op.Kind = DataOpKind::Rem;
      break;
    case Op3AddCC:
      Op.Kind = DataOpKind::Add;
      Op.SetsCC = true;
      break;
    case Op3AndCC:
      Op.Kind = DataOpKind::And;
      Op.SetsCC = true;
      break;
    case Op3OrCC:
      Op.Kind = DataOpKind::Or;
      Op.SetsCC = true;
      break;
    case Op3XorCC:
      Op.Kind = DataOpKind::Xor;
      Op.SetsCC = true;
      break;
    case Op3SubCC:
      Op.Kind = DataOpKind::Sub;
      Op.SetsCC = true;
      break;
    default:
      return Op; // jmpl, sys, rdcc, wrcc, invalid: not simple dataflow
    }
    Op.Rd = fieldRd(W);
    Op.Rs1 = fieldRs1(W);
    if (fieldI(W)) {
      Op.HasImm = true;
      Op.Imm = fieldSimm13(W);
    } else {
      Op.Rs2 = fieldRs2(W);
    }
    return Op;
  }

  std::optional<MemOp> memOp(MachWord W) const override {
    if (fieldOp(W) != OpMem || !isValidMemOp3(fieldOp3(W)))
      return std::nullopt;
    MemOp M;
    uint32_t Op3 = fieldOp3(W);
    M.IsLoad = Op3 < Op3St;
    M.IsStore = !M.IsLoad;
    switch (Op3) {
    case Op3Ld:
    case Op3St:
      M.Width = 4;
      break;
    case Op3Lduh:
    case Op3Ldsh:
    case Op3Sth:
      M.Width = 2;
      break;
    default:
      M.Width = 1;
      break;
    }
    M.SignExtendLoad = Op3 == Op3Ldsb || Op3 == Op3Ldsh;
    M.AddrBase = fieldRs1(W);
    if (fieldI(W)) {
      M.Offset = fieldSimm13(W);
    } else {
      M.HasIndex = true;
      M.AddrIndex = fieldRs2(W);
    }
    M.DataReg = fieldRd(W);
    return M;
  }

  std::optional<unsigned> syscallNumber(MachWord W) const override {
    if (classify(W) != InstCategory::System)
      return std::nullopt;
    // Trap numbers are small non-negative values in the low 13 bits.
    return extractBits(W, 0, 12);
  }

  std::optional<MachWord> retargetDirect(MachWord W, Addr NewPC,
                                         Addr NewTarget) const override {
    int64_t DispBytes =
        static_cast<int64_t>(NewTarget) - static_cast<int64_t>(NewPC);
    assert(DispBytes % 4 == 0 && "misaligned branch target");
    int64_t DispWords = DispBytes / 4;
    switch (classify(W)) {
    case InstCategory::BranchDirect:
    case InstCategory::JumpDirect:
      if (fieldCond(W) == CondN)
        return std::nullopt; // target is implicit (PC+8), not encodable
      if (!fitsSigned(DispWords, 22))
        return std::nullopt;
      return insertBits(W, 0, 21, static_cast<uint32_t>(DispWords));
    case InstCategory::CallDirect:
      if (!fitsSigned(DispWords, 30))
        return std::nullopt;
      return insertBits(W, 0, 29, static_cast<uint32_t>(DispWords));
    default:
      return std::nullopt;
    }
  }

  std::optional<MachWord>
  rewriteRegisters(MachWord W,
                   const std::function<unsigned(unsigned)> &Map) const override {
    auto MapField = [&](MachWord Word, unsigned Lo, unsigned Hi) {
      unsigned NewReg = Map(extractBits(Word, Lo, Hi));
      assert(NewReg < 32 && "register map produced a bad id");
      return insertBits(Word, Lo, Hi, NewReg);
    };
    switch (fieldOp(W)) {
    case OpFormat2:
      if (fieldOp2(W) == Op2Sethi)
        return MapField(W, 25, 29); // rd
      return W;                     // branches name no registers
    case OpCall:
      // The link register is implicit and cannot be renamed.
      return Map(RegLink) == RegLink ? std::optional<MachWord>(W)
                                     : std::nullopt;
    case OpArith: {
      uint32_t Op3 = fieldOp3(W);
      if (Op3 == Op3Sys)
        return W; // traps use fixed conventional registers
      MachWord Out = W;
      if (Op3 != Op3WrCC)
        Out = MapField(Out, 25, 29); // rd
      if (Op3 != Op3RdCC)
        Out = MapField(Out, 14, 18); // rs1
      if (Op3 != Op3RdCC && Op3 != Op3WrCC && !fieldI(W))
        Out = MapField(Out, 0, 4); // rs2
      return Out;
    }
    case OpMem: {
      MachWord Out = MapField(W, 25, 29);
      Out = MapField(Out, 14, 18);
      if (!fieldI(W))
        Out = MapField(Out, 0, 4);
      return Out;
    }
    }
    unreachable("2-bit field out of range");
  }

  MachWord nopWord() const override { return nop(); }

  bool emitJump(Addr PC, Addr Target, std::vector<MachWord> &Out) const override {
    int64_t DispWords =
        (static_cast<int64_t>(Target) - static_cast<int64_t>(PC)) / 4;
    if (!fitsSigned(DispWords, 22))
      return false;
    Out.push_back(encodeBicc(false, CondA, static_cast<int32_t>(DispWords)));
    Out.push_back(nop());
    return true;
  }

  bool emitCall(Addr PC, Addr Target, std::vector<MachWord> &Out) const override {
    int64_t DispWords =
        (static_cast<int64_t>(Target) - static_cast<int64_t>(PC)) / 4;
    if (!fitsSigned(DispWords, 30))
      return false;
    Out.push_back(encodeCall(static_cast<int32_t>(DispWords)));
    Out.push_back(nop());
    return true;
  }

  void emitLoadConst(unsigned Reg, uint32_t Value,
                     std::vector<MachWord> &Out) const override {
    if (fitsSigned(static_cast<int32_t>(Value), 13)) {
      Out.push_back(encodeArithImm(Op3Or, Reg, RegZero,
                                   static_cast<int32_t>(Value)));
      return;
    }
    Out.push_back(encodeSethi(Reg, Value >> 10));
    if (Value & 0x3FF)
      Out.push_back(encodeArithImm(Op3Or, Reg, Reg,
                                   static_cast<int32_t>(Value & 0x3FF)));
  }

  void emitLoadWord(unsigned DataReg, unsigned Base, int32_t Offset,
                    std::vector<MachWord> &Out) const override {
    assert(fitsSigned(Offset, 13) && "load offset out of range");
    Out.push_back(encodeMemImm(Op3Ld, DataReg, Base, Offset));
  }

  void emitStoreWord(unsigned DataReg, unsigned Base, int32_t Offset,
                     std::vector<MachWord> &Out) const override {
    assert(fitsSigned(Offset, 13) && "store offset out of range");
    Out.push_back(encodeMemImm(Op3St, DataReg, Base, Offset));
  }

  void emitAddImm(unsigned Rd, unsigned Rs1, int32_t Imm,
                  std::vector<MachWord> &Out) const override {
    assert(fitsSigned(Imm, 13) && "immediate out of range");
    Out.push_back(encodeArithImm(Op3Add, Rd, Rs1, Imm));
  }

  void emitAddReg(unsigned Rd, unsigned Rs1, unsigned Rs2,
                  std::vector<MachWord> &Out) const override {
    Out.push_back(encodeArithReg(Op3Add, Rd, Rs1, Rs2));
  }

  void emitAluImm(DataOpKind Op, unsigned Rd, unsigned Rs1, int32_t Imm,
                  std::vector<MachWord> &Out) const override {
    assert(fitsSigned(Imm, 13) && "immediate out of range");
    uint32_t Op3;
    switch (Op) {
    case DataOpKind::Add: Op3 = Op3Add; break;
    case DataOpKind::And: Op3 = Op3And; break;
    case DataOpKind::Or: Op3 = Op3Or; break;
    case DataOpKind::Xor: Op3 = Op3Xor; break;
    case DataOpKind::Sll: Op3 = Op3Sll; break;
    case DataOpKind::Srl: Op3 = Op3Srl; break;
    default: unreachable("unsupported ALU-immediate operation");
    }
    Out.push_back(encodeArithImm(Op3, Rd, Rs1, Imm));
  }

  void emitIndirectJump(unsigned Reg, std::vector<MachWord> &Out,
                        std::optional<MachWord> DelayWord) const override {
    Out.push_back(encodeJmplImm(RegZero, Reg, 0));
    Out.push_back(DelayWord ? *DelayWord : nop());
  }

  bool emitSkipIfEqual(unsigned Ra, unsigned Rb, unsigned SkipWords,
                       std::vector<MachWord> &Out) const override {
    // subcc ra, rb, %g0 ; be +(2+skip) ; nop   — clobbers CC.
    Out.push_back(encodeArithReg(Op3SubCC, RegZero, Ra, Rb));
    Out.push_back(encodeBicc(false, CondE,
                             static_cast<int32_t>(SkipWords) + 2));
    Out.push_back(nop());
    return true;
  }

  bool emitSkipIfNotEqual(unsigned Ra, unsigned Rb, unsigned SkipWords,
                          std::vector<MachWord> &Out) const override {
    Out.push_back(encodeArithReg(Op3SubCC, RegZero, Ra, Rb));
    Out.push_back(encodeBicc(false, CondNE,
                             static_cast<int32_t>(SkipWords) + 2));
    Out.push_back(nop());
    return true;
  }

  bool emitSkipIfLess(unsigned Ra, unsigned Rb, unsigned Scratch,
                      unsigned SkipWords,
                      std::vector<MachWord> &Out) const override {
    (void)Scratch; // condition codes suffice
    Out.push_back(encodeArithReg(Op3SubCC, RegZero, Ra, Rb));
    Out.push_back(encodeBicc(false, CondL,
                             static_cast<int32_t>(SkipWords) + 2));
    Out.push_back(nop());
    return true;
  }

  bool emitSaveCC(unsigned ScratchReg, std::vector<MachWord> &Out) const override {
    Out.push_back(encodeRdCC(ScratchReg));
    return true;
  }

  bool emitRestoreCC(unsigned ScratchReg,
                     std::vector<MachWord> &Out) const override {
    Out.push_back(encodeWrCC(ScratchReg));
    return true;
  }

  std::string disassemble(MachWord W, Addr PC) const override;

private:
  TargetConventions Conv;
};

} // namespace

std::string SriscTarget::disassemble(MachWord W, Addr PC) const {
  char Buf[128];
  auto R = [this](unsigned Reg) { return regName(Reg); };
  switch (fieldOp(W)) {
  case OpFormat2:
    if (fieldOp2(W) == Op2Sethi) {
      if (W == nop())
        return "nop";
      std::snprintf(Buf, sizeof(Buf), "sethi 0x%x, %s", fieldImm22(W),
                    R(fieldRd(W)).c_str());
      return Buf;
    }
    if (fieldOp2(W) == Op2Bicc) {
      static const char *Names[16] = {"bn",  "be",  "ble", "bl",  "bleu",
                                      "bcs", "bneg", "bvs", "ba",  "bne",
                                      "bg",  "bge", "bgu", "bcc", "bpos",
                                      "bvc"};
      Addr Target = PC + static_cast<Addr>(fieldDisp22(W) * 4);
      std::snprintf(Buf, sizeof(Buf), "%s%s 0x%" PRIx32, Names[fieldCond(W)],
                    fieldAnnul(W) ? ",a" : "", Target);
      return Buf;
    }
    return "<invalid>";
  case OpCall: {
    Addr Target = PC + static_cast<Addr>(fieldDisp30(W) * 4);
    std::snprintf(Buf, sizeof(Buf), "call 0x%" PRIx32, Target);
    return Buf;
  }
  case OpArith: {
    uint32_t Op3 = fieldOp3(W);
    static const struct {
      uint32_t Op3;
      const char *Name;
    } Ops[] = {{Op3Add, "add"},     {Op3And, "and"},     {Op3Or, "or"},
               {Op3Xor, "xor"},     {Op3Sub, "sub"},     {Op3Sll, "sll"},
               {Op3Srl, "srl"},     {Op3Sra, "sra"},     {Op3Smul, "smul"},
               {Op3Sdiv, "sdiv"},   {Op3Srem, "srem"},   {Op3AddCC, "addcc"},
               {Op3AndCC, "andcc"}, {Op3OrCC, "orcc"},   {Op3XorCC, "xorcc"},
               {Op3SubCC, "subcc"}};
    if (Op3 == Op3Sys) {
      std::snprintf(Buf, sizeof(Buf), "sys %d", fieldSimm13(W));
      return Buf;
    }
    if (Op3 == Op3RdCC) {
      std::snprintf(Buf, sizeof(Buf), "rdcc %s", R(fieldRd(W)).c_str());
      return Buf;
    }
    if (Op3 == Op3WrCC) {
      std::snprintf(Buf, sizeof(Buf), "wrcc %s", R(fieldRs1(W)).c_str());
      return Buf;
    }
    if (Op3 == Op3Jmpl) {
      if (fieldI(W))
        std::snprintf(Buf, sizeof(Buf), "jmpl %s%+d, %s",
                      R(fieldRs1(W)).c_str(), fieldSimm13(W),
                      R(fieldRd(W)).c_str());
      else
        std::snprintf(Buf, sizeof(Buf), "jmpl %s+%s, %s",
                      R(fieldRs1(W)).c_str(), R(fieldRs2(W)).c_str(),
                      R(fieldRd(W)).c_str());
      return Buf;
    }
    for (const auto &Entry : Ops) {
      if (Entry.Op3 != Op3)
        continue;
      if (fieldI(W))
        std::snprintf(Buf, sizeof(Buf), "%s %s, %d, %s", Entry.Name,
                      R(fieldRs1(W)).c_str(), fieldSimm13(W),
                      R(fieldRd(W)).c_str());
      else
        std::snprintf(Buf, sizeof(Buf), "%s %s, %s, %s", Entry.Name,
                      R(fieldRs1(W)).c_str(), R(fieldRs2(W)).c_str(),
                      R(fieldRd(W)).c_str());
      return Buf;
    }
    return "<invalid>";
  }
  case OpMem: {
    uint32_t Op3 = fieldOp3(W);
    static const struct {
      uint32_t Op3;
      const char *Name;
    } Ops[] = {{Op3Ld, "ld"},     {Op3Ldub, "ldub"}, {Op3Lduh, "lduh"},
               {Op3Ldsb, "ldsb"}, {Op3Ldsh, "ldsh"}, {Op3St, "st"},
               {Op3Stb, "stb"},   {Op3Sth, "sth"}};
    for (const auto &Entry : Ops) {
      if (Entry.Op3 != Op3)
        continue;
      char AddrStr[48];
      if (fieldI(W))
        std::snprintf(AddrStr, sizeof(AddrStr), "[%s%+d]",
                      R(fieldRs1(W)).c_str(), fieldSimm13(W));
      else
        std::snprintf(AddrStr, sizeof(AddrStr), "[%s+%s]",
                      R(fieldRs1(W)).c_str(), R(fieldRs2(W)).c_str());
      if (Op3 >= Op3St)
        std::snprintf(Buf, sizeof(Buf), "%s %s, %s", Entry.Name,
                      R(fieldRd(W)).c_str(), AddrStr);
      else
        std::snprintf(Buf, sizeof(Buf), "%s %s, %s", Entry.Name, AddrStr,
                      R(fieldRd(W)).c_str());
      return Buf;
    }
    return "<invalid>";
  }
  }
  return "<invalid>";
}

const TargetInfo &eel::sriscTarget() {
  static SriscTarget Target;
  return Target;
}
