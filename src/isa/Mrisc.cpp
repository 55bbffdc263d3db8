//===- isa/Mrisc.cpp - Handwritten MRISC target backend ------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The handwritten machine-specific layer for MRISC (the MIPS-like target),
/// analogous to the paper's 128-line MIPS R2000 port.
///
//===----------------------------------------------------------------------===//

#include "isa/MriscEncoding.h"
#include "isa/Target.h"
#include "support/Error.h"

#include <cinttypes>
#include <cstdio>

using namespace eel;
using namespace eel::mrisc;

static bool isValidRType(MachWord W) {
  uint32_t Funct = fieldFunct(W);
  uint32_t Shamt = fieldShamt(W);
  switch (Funct) {
  case FnSll:
  case FnSrl:
  case FnSra:
    return fieldRs(W) == 0; // immediate shifts leave rs clear
  case FnJalr:
    return Shamt == 0 && fieldRt(W) == 0;
  case FnSllv:
  case FnSrlv:
  case FnSrav:
  case FnMul:
  case FnDiv:
  case FnRem:
  case FnAdd:
  case FnSub:
  case FnAnd:
  case FnOr:
  case FnXor:
  case FnSlt:
    return Shamt == 0;
  case FnJr:
    return Shamt == 0 && fieldRt(W) == 0 && fieldRd(W) == 0;
  case FnSyscall:
    return Shamt == 0 && fieldRs(W) == 0 && fieldRt(W) == 0 && fieldRd(W) == 0;
  default:
    return false;
  }
}

namespace {

/// Handwritten MRISC implementation of the target interface.
class MriscTarget : public TargetInfo {
public:
  MriscTarget() {
    Conv.LinkReg = RegRA;
    Conv.ReturnOffset = 0;
    Conv.StackPointer = RegSP;
    Conv.FramePointer = RegFP;
    Conv.ArgRegs = RegSet{4, 5, 6, 7};
    Conv.RetRegs = RegSet{2, 3};
    Conv.CallerSaved = RegSet{1,  2,  3,  4,  5,  6,  7, 8, 9,
                              10, 11, 12, 13, 14, 15, 24, 25, 31};
    Conv.Reserved = RegSet{RegZero, 26, 27, 28, RegSP, RegFP};
    Conv.SyscallNumReg = RegV0;
    Conv.SyscallReads = RegSet{RegV0, 4, 5, 6};
    Conv.SyscallWrites = RegSet{RegV0};
  }

  TargetArch arch() const override { return TargetArch::Mrisc; }
  const char *name() const override { return "mrisc"; }
  const TargetConventions &conventions() const override { return Conv; }
  unsigned numRegisters() const override { return 32; }
  bool hasConditionCodes() const override { return false; }
  bool branchDelaySlots() const override { return true; }

  std::string regName(unsigned Reg) const override {
    if (Reg == RegIdPC)
      return "$pc";
    assert(Reg < 32 && "bad MRISC register id");
    static const char *Names[32] = {
        "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
        "$t0",   "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
        "$s0",   "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
        "$t8",   "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra"};
    return Names[Reg];
  }

  DecodedWord decode(MachWord W) const override {
    DecodedWord D;
    uint32_t Op = fieldOp(W);
    switch (Op) {
    case OpRType:
      if (isValidRType(W))
        decodeRType(W, D);
      return D;
    case OpJ:
    case OpJal:
      D.Category =
          Op == OpJ ? InstCategory::JumpDirect : InstCategory::CallDirect;
      D.Delay = DelayBehavior::Always;
      if (Op == OpJal) {
        D.Writes.insert(RegRA);
        D.FixedRegs.insert(RegRA); // implicit: cannot be renamed
      }
      // Absolute within the current 256 MB region.
      D.Direct.Region = true;
      D.Direct.RegionMask = 0xF0000000u;
      D.Direct.HasField = true;
      D.Direct.Shift = 2;
      D.Direct.Field = {0, 25};
      D.Direct.Value = fieldIndex26(W) << 2;
      return D;
    case OpBlez:
    case OpBgtz:
      if (fieldRt(W) != 0)
        return D; // invalid: rt is a fixed zero field
      [[fallthrough]];
    case OpBeq:
    case OpBne:
      D.Category = InstCategory::BranchDirect;
      D.Conditional = true;
      D.Delay = DelayBehavior::Always;
      D.readsField(W, 21, 25);
      if (Op == OpBeq || Op == OpBne)
        D.readsField(W, 16, 20);
      // MIPS branch displacements are relative to the delay slot.
      D.Direct.HasField = true;
      D.Direct.Signed = true;
      D.Direct.Shift = 2;
      D.Direct.Field = {0, 15};
      D.Direct.Bias = 4;
      D.Direct.Value = 4 + static_cast<uint32_t>(fieldSimm16(W)) * 4;
      return D;
    case OpLui:
      if (fieldRs(W) != 0)
        return D; // invalid: rs is a fixed zero field
      D.Category = InstCategory::Computation;
      D.writesField(W, 16, 20);
      D.Op.Kind = DataOpKind::LoadImmHi;
      D.Op.Rd = fieldRt(W);
      D.Op.HasImm = true;
      D.Op.Imm = static_cast<int32_t>(fieldUimm16(W) << 16);
      return D;
    case OpAddi:
    case OpSlti:
    case OpAndi:
    case OpOri:
    case OpXori:
      D.Category = InstCategory::Computation;
      D.readsField(W, 21, 25);
      D.writesField(W, 16, 20);
      D.Op.Kind = Op == OpAddi   ? DataOpKind::Add
                  : Op == OpSlti ? DataOpKind::SetLess
                  : Op == OpAndi ? DataOpKind::And
                  : Op == OpOri  ? DataOpKind::Or
                                 : DataOpKind::Xor;
      D.Op.Rd = fieldRt(W);
      D.Op.Rs1 = fieldRs(W);
      D.Op.HasImm = true;
      D.Op.Imm = Op == OpAddi || Op == OpSlti
                     ? fieldSimm16(W)
                     : static_cast<int32_t>(fieldUimm16(W));
      return D;
    case OpLb:
    case OpLh:
    case OpLw:
    case OpLbu:
    case OpLhu:
    case OpSb:
    case OpSh:
    case OpSw: {
      MemOp &M = D.Mem;
      M.IsStore = Op >= OpSb;
      M.IsLoad = !M.IsStore;
      M.Width = Op == OpLb || Op == OpLbu || Op == OpSb   ? 1
                : Op == OpLh || Op == OpLhu || Op == OpSh ? 2
                                                          : 4;
      M.SignExtendLoad = Op == OpLb || Op == OpLh;
      M.AddrBase = fieldRs(W);
      M.Offset = fieldSimm16(W);
      M.DataReg = fieldRt(W);
      D.Category = M.IsLoad ? InstCategory::Load : InstCategory::Store;
      D.readsField(W, 21, 25);
      if (M.IsStore)
        D.readsField(W, 16, 20); // stored value
      else
        D.writesField(W, 16, 20);
      return D;
    }
    default:
      return D; // invalid
    }
  }

  MachWord nopWord() const override { return nop(); }

  bool emitJump(Addr PC, Addr Target, std::vector<MachWord> &Out) const override {
    if ((PC & 0xF0000000u) != (Target & 0xF0000000u))
      return false;
    Out.push_back(encodeJType(OpJ, Target >> 2));
    Out.push_back(nop());
    return true;
  }

  bool emitCall(Addr PC, Addr Target, std::vector<MachWord> &Out) const override {
    if ((PC & 0xF0000000u) != (Target & 0xF0000000u))
      return false;
    Out.push_back(encodeJType(OpJal, Target >> 2));
    Out.push_back(nop());
    return true;
  }

  void emitLoadConst(unsigned Reg, uint32_t Value,
                     std::vector<MachWord> &Out) const override {
    if (Value <= 0xFFFFu) {
      Out.push_back(encodeIType(OpOri, RegZero, Reg, Value));
      return;
    }
    Out.push_back(encodeIType(OpLui, 0, Reg, Value >> 16));
    if (Value & 0xFFFFu)
      Out.push_back(encodeIType(OpOri, Reg, Reg, Value & 0xFFFFu));
  }

  void emitLoadWord(unsigned DataReg, unsigned Base, int32_t Offset,
                    std::vector<MachWord> &Out) const override {
    assert(fitsSigned(Offset, 16) && "load offset out of range");
    Out.push_back(encodeIType(OpLw, Base, DataReg,
                              static_cast<uint32_t>(Offset) & 0xFFFFu));
  }

  void emitStoreWord(unsigned DataReg, unsigned Base, int32_t Offset,
                     std::vector<MachWord> &Out) const override {
    assert(fitsSigned(Offset, 16) && "store offset out of range");
    Out.push_back(encodeIType(OpSw, Base, DataReg,
                              static_cast<uint32_t>(Offset) & 0xFFFFu));
  }

  void emitAddImm(unsigned Rd, unsigned Rs1, int32_t Imm,
                  std::vector<MachWord> &Out) const override {
    assert(fitsSigned(Imm, 16) && "immediate out of range");
    Out.push_back(encodeIType(OpAddi, Rs1, Rd,
                              static_cast<uint32_t>(Imm) & 0xFFFFu));
  }

  void emitAddReg(unsigned Rd, unsigned Rs1, unsigned Rs2,
                  std::vector<MachWord> &Out) const override {
    Out.push_back(encodeRType(Rs1, Rs2, Rd, 0, FnAdd));
  }

  void emitAluImm(DataOpKind Op, unsigned Rd, unsigned Rs1, int32_t Imm,
                  std::vector<MachWord> &Out) const override {
    switch (Op) {
    case DataOpKind::Add:
      assert(fitsSigned(Imm, 16) && "immediate out of range");
      Out.push_back(encodeIType(OpAddi, Rs1, Rd,
                                static_cast<uint32_t>(Imm) & 0xFFFFu));
      return;
    case DataOpKind::And:
    case DataOpKind::Or:
    case DataOpKind::Xor: {
      assert(fitsUnsigned(static_cast<uint32_t>(Imm), 16) &&
             "immediate out of range");
      uint32_t OpCode = Op == DataOpKind::And  ? OpAndi
                        : Op == DataOpKind::Or ? OpOri
                                               : OpXori;
      Out.push_back(encodeIType(OpCode, Rs1, Rd,
                                static_cast<uint32_t>(Imm) & 0xFFFFu));
      return;
    }
    case DataOpKind::Sll:
      Out.push_back(encodeRType(0, Rs1, Rd, static_cast<unsigned>(Imm) & 31,
                                FnSll));
      return;
    case DataOpKind::Srl:
      Out.push_back(encodeRType(0, Rs1, Rd, static_cast<unsigned>(Imm) & 31,
                                FnSrl));
      return;
    default:
      unreachable("unsupported ALU-immediate operation");
    }
  }

  void emitIndirectJump(unsigned Reg, std::vector<MachWord> &Out,
                        std::optional<MachWord> DelayWord) const override {
    Out.push_back(encodeRType(Reg, 0, 0, 0, FnJr));
    Out.push_back(DelayWord ? *DelayWord : nop());
  }

  bool emitSkipIfEqual(unsigned Ra, unsigned Rb, unsigned SkipWords,
                       std::vector<MachWord> &Out) const override {
    // beq ra, rb, +(1+skip) ; nop   — no condition codes involved.
    Out.push_back(encodeIType(OpBeq, Ra, Rb,
                              (SkipWords + 1) & 0xFFFFu));
    Out.push_back(nop());
    return false;
  }

  bool emitSkipIfNotEqual(unsigned Ra, unsigned Rb, unsigned SkipWords,
                          std::vector<MachWord> &Out) const override {
    Out.push_back(encodeIType(OpBne, Ra, Rb,
                              (SkipWords + 1) & 0xFFFFu));
    Out.push_back(nop());
    return false;
  }

  bool emitSkipIfLess(unsigned Ra, unsigned Rb, unsigned Scratch,
                      unsigned SkipWords,
                      std::vector<MachWord> &Out) const override {
    Out.push_back(encodeRType(Ra, Rb, Scratch, 0, FnSlt));
    Out.push_back(encodeIType(OpBne, Scratch, 0, (SkipWords + 1) & 0xFFFFu));
    Out.push_back(nop());
    return false;
  }

  bool emitSaveCC(unsigned, std::vector<MachWord> &) const override {
    return false; // no condition codes
  }

  bool emitRestoreCC(unsigned, std::vector<MachWord> &) const override {
    return false;
  }

  std::string disassemble(MachWord W, Addr PC) const override;

private:
  void decodeRType(MachWord W, DecodedWord &D) const;

  TargetConventions Conv;
};

} // namespace

void MriscTarget::decodeRType(MachWord W, DecodedWord &D) const {
  uint32_t Funct = fieldFunct(W);
  switch (Funct) {
  case FnJr:
  case FnJalr:
    D.Category = InstCategory::IndirectJump;
    D.Delay = DelayBehavior::Always;
    D.readsField(W, 21, 25);
    D.Indirect.BaseReg = fieldRs(W);
    if (Funct == FnJalr) {
      D.writesField(W, 11, 15);
      D.Indirect.LinkReg = fieldRd(W);
    }
    return;
  case FnSyscall:
    // The number (v0) and arguments follow the trap conventions.
    D.Category = InstCategory::System;
    D.Reads = Conv.SyscallReads;
    D.Writes = Conv.SyscallWrites;
    return;
  }
  DataOp &Op = D.Op;
  switch (Funct) {
  case FnSll:
  case FnSllv:
    Op.Kind = DataOpKind::Sll;
    break;
  case FnSrl:
  case FnSrlv:
    Op.Kind = DataOpKind::Srl;
    break;
  case FnSra:
  case FnSrav:
    Op.Kind = DataOpKind::Sra;
    break;
  case FnMul:
    Op.Kind = DataOpKind::Mul;
    break;
  case FnDiv:
    Op.Kind = DataOpKind::Div;
    break;
  case FnRem:
    Op.Kind = DataOpKind::Rem;
    break;
  case FnAdd:
    Op.Kind = DataOpKind::Add;
    break;
  case FnSub:
    Op.Kind = DataOpKind::Sub;
    break;
  case FnAnd:
    Op.Kind = DataOpKind::And;
    break;
  case FnOr:
    Op.Kind = DataOpKind::Or;
    break;
  case FnXor:
    Op.Kind = DataOpKind::Xor;
    break;
  case FnSlt:
    Op.Kind = DataOpKind::SetLess;
    break;
  }
  D.Category = InstCategory::Computation;
  D.writesField(W, 11, 15);
  D.readsField(W, 16, 20);
  Op.Rd = fieldRd(W);
  if (Funct == FnSll || Funct == FnSrl || Funct == FnSra) {
    // Immediate shifts: rd := rt shifted by shamt.
    Op.Rs1 = fieldRt(W);
    Op.HasImm = true;
    Op.Imm = static_cast<int32_t>(fieldShamt(W));
    return;
  }
  D.readsField(W, 21, 25);
  if (Funct == FnSllv || Funct == FnSrlv || Funct == FnSrav) {
    // Variable shifts: rd := rt shifted by rs.
    Op.Rs1 = fieldRt(W);
    Op.Rs2 = fieldRs(W);
  } else {
    Op.Rs1 = fieldRs(W);
    Op.Rs2 = fieldRt(W);
  }
}

std::string MriscTarget::disassemble(MachWord W, Addr PC) const {
  char Buf[128];
  auto R = [this](unsigned Reg) { return regName(Reg); };
  if (W == nop())
    return "nop";
  switch (fieldOp(W)) {
  case OpRType: {
    if (!isValidRType(W))
      return "<invalid>";
    uint32_t Funct = fieldFunct(W);
    static const struct {
      uint32_t Funct;
      const char *Name;
    } RNames[] = {{FnSllv, "sllv"}, {FnSrlv, "srlv"}, {FnSrav, "srav"},
                  {FnMul, "mul"},   {FnDiv, "div"},   {FnRem, "rem"},
                  {FnAdd, "add"},   {FnSub, "sub"},   {FnAnd, "and"},
                  {FnOr, "or"},     {FnXor, "xor"},   {FnSlt, "slt"}};
    switch (Funct) {
    case FnSll:
    case FnSrl:
    case FnSra: {
      const char *Name = Funct == FnSll ? "sll" : Funct == FnSrl ? "srl" : "sra";
      std::snprintf(Buf, sizeof(Buf), "%s %s, %s, %u", Name,
                    R(fieldRd(W)).c_str(), R(fieldRt(W)).c_str(),
                    fieldShamt(W));
      return Buf;
    }
    case FnJr:
      std::snprintf(Buf, sizeof(Buf), "jr %s", R(fieldRs(W)).c_str());
      return Buf;
    case FnJalr:
      std::snprintf(Buf, sizeof(Buf), "jalr %s, %s", R(fieldRd(W)).c_str(),
                    R(fieldRs(W)).c_str());
      return Buf;
    case FnSyscall:
      return "syscall";
    default:
      for (const auto &Entry : RNames) {
        if (Entry.Funct != Funct)
          continue;
        std::snprintf(Buf, sizeof(Buf), "%s %s, %s, %s", Entry.Name,
                      R(fieldRd(W)).c_str(), R(fieldRs(W)).c_str(),
                      R(fieldRt(W)).c_str());
        return Buf;
      }
      return "<invalid>";
    }
  }
  case OpJ:
  case OpJal:
    std::snprintf(Buf, sizeof(Buf), "%s 0x%" PRIx32,
                  fieldOp(W) == OpJ ? "j" : "jal",
                  (PC & 0xF0000000u) | (fieldIndex26(W) << 2));
    return Buf;
  case OpBeq:
  case OpBne: {
    Addr Target = PC + 4 + static_cast<Addr>(fieldSimm16(W) * 4);
    std::snprintf(Buf, sizeof(Buf), "%s %s, %s, 0x%" PRIx32,
                  fieldOp(W) == OpBeq ? "beq" : "bne", R(fieldRs(W)).c_str(),
                  R(fieldRt(W)).c_str(), Target);
    return Buf;
  }
  case OpBlez:
  case OpBgtz: {
    if (fieldRt(W) != 0)
      return "<invalid>";
    Addr Target = PC + 4 + static_cast<Addr>(fieldSimm16(W) * 4);
    std::snprintf(Buf, sizeof(Buf), "%s %s, 0x%" PRIx32,
                  fieldOp(W) == OpBlez ? "blez" : "bgtz",
                  R(fieldRs(W)).c_str(), Target);
    return Buf;
  }
  case OpLui:
    if (fieldRs(W) != 0)
      return "<invalid>";
    std::snprintf(Buf, sizeof(Buf), "lui %s, 0x%x", R(fieldRt(W)).c_str(),
                  fieldUimm16(W));
    return Buf;
  case OpAddi:
  case OpSlti:
  case OpAndi:
  case OpOri:
  case OpXori: {
    static const struct {
      uint32_t Op;
      const char *Name;
    } INames[] = {{OpAddi, "addi"},
                  {OpSlti, "slti"},
                  {OpAndi, "andi"},
                  {OpOri, "ori"},
                  {OpXori, "xori"}};
    for (const auto &Entry : INames) {
      if (Entry.Op != fieldOp(W))
        continue;
      std::snprintf(Buf, sizeof(Buf), "%s %s, %s, %d", Entry.Name,
                    R(fieldRt(W)).c_str(), R(fieldRs(W)).c_str(),
                    fieldSimm16(W));
      return Buf;
    }
    return "<invalid>";
  }
  case OpLb:
  case OpLh:
  case OpLw:
  case OpLbu:
  case OpLhu:
  case OpSb:
  case OpSh:
  case OpSw: {
    static const struct {
      uint32_t Op;
      const char *Name;
    } MNames[] = {{OpLb, "lb"},   {OpLh, "lh"},   {OpLw, "lw"},
                  {OpLbu, "lbu"}, {OpLhu, "lhu"}, {OpSb, "sb"},
                  {OpSh, "sh"},   {OpSw, "sw"}};
    for (const auto &Entry : MNames) {
      if (Entry.Op != fieldOp(W))
        continue;
      std::snprintf(Buf, sizeof(Buf), "%s %s, %d(%s)", Entry.Name,
                    R(fieldRt(W)).c_str(), fieldSimm16(W),
                    R(fieldRs(W)).c_str());
      return Buf;
    }
    return "<invalid>";
  }
  default:
    return "<invalid>";
  }
}

const TargetInfo &eel::mriscTarget() {
  static MriscTarget Target;
  return Target;
}
