//===- isa/Srisc.cpp - SRISC target backend -------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SRISC backend: what its spawn description (isa/Descriptions.cpp)
/// cannot say. That is the calling and trap conventions, snippet code
/// generation, register names and disassembly; TargetInfo decodes every
/// word through the compiled description.
///
//===----------------------------------------------------------------------===//

#include "isa/Descriptions.h"
#include "isa/SriscEncoding.h"
#include "isa/Target.h"
#include "support/Error.h"

#include <array>
#include <cinttypes>
#include <cstdio>

using namespace eel;
using namespace eel::srisc;

/// SRISC's calling and trap conventions.
static TargetConventions sriscConventions() {
  TargetConventions Conv;
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
  return Conv;
}

namespace {

/// The SRISC target.
class SriscTarget : public TargetInfo {
public:
  SriscTarget()
      : TargetInfo(TargetArch::Srisc, sriscDescription(), sriscConventions()) {}

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
