//===- isa/Mrisc.cpp - MRISC target backend -------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MRISC backend (the MIPS-like target, analogous to the paper's
/// 128-line MIPS R2000 port): its conventions, snippet code generation,
/// register names and disassembly. TargetInfo decodes every word through
/// the compiled description.
///
//===----------------------------------------------------------------------===//

#include "isa/Descriptions.h"
#include "isa/MriscEncoding.h"
#include "isa/Target.h"
#include "support/Error.h"

#include <cinttypes>
#include <cstdio>

using namespace eel;
using namespace eel::mrisc;

/// MRISC's calling and trap conventions.
static TargetConventions mriscConventions() {
  TargetConventions Conv;
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
  return Conv;
}

namespace {

/// The MRISC target.
class MriscTarget : public TargetInfo {
public:
  MriscTarget()
      : TargetInfo(TargetArch::Mrisc, mriscDescription(), mriscConventions()) {}

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
};

} // namespace

std::string MriscTarget::disassemble(MachWord W, Addr PC) const {
  char Buf[128];
  auto R = [this](unsigned Reg) { return regName(Reg); };
  if (W == nop())
    return "nop";
  switch (fieldOp(W)) {
  case OpRType: {
    if (decode(W).Category == InstCategory::Invalid)
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
