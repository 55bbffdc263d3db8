//===- isa/Arisc.cpp - ARISC target backend -------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ARISC backend, the Alpha-like third target. Its distinguishing
/// property is the *absence* of delay slots: its description marks none,
/// so no decoded word reports one, and its emit helpers produce
/// single-word transfers with no trailing nop. Any machine-independent
/// code that still works correctly on ARISC genuinely contains no
/// SPARC-isms. Like the other backends it supplies conventions, snippet
/// code generation, register names and disassembly; TargetInfo decodes
/// every word through the compiled description.
///
//===----------------------------------------------------------------------===//

#include "isa/AriscEncoding.h"
#include "isa/Descriptions.h"
#include "isa/Target.h"
#include "support/Error.h"

#include <cinttypes>
#include <cstdio>

using namespace eel;
using namespace eel::arisc;

/// ARISC's calling and trap conventions.
static TargetConventions ariscConventions() {
  TargetConventions Conv;
  Conv.LinkReg = RegRA;
  Conv.ReturnOffset = 0;
  Conv.StackPointer = RegSP;
  Conv.FramePointer = RegFP;
  Conv.ArgRegs = RegSet{16, 17, 18, 19};
  Conv.RetRegs = RegSet{RegV0};
  Conv.CallerSaved = RegSet{1,  2,  3,  4,  5,  6,  7,  8,  9,  16, 17,
                            18, 19, 20, 21, 22, 23, 24, 25, 26, 27};
  Conv.Reserved = RegSet{RegZero, RegFP, RegAT, RegGP, RegSP};
  Conv.SyscallNumReg = 0; // trap number is an immediate field, like SRISC
  Conv.SyscallReads = RegSet{16, 17, 18};
  Conv.SyscallWrites = RegSet{RegV0};
  return Conv;
}

namespace {

/// The ARISC target.
class AriscTarget : public TargetInfo {
public:
  AriscTarget()
      : TargetInfo(TargetArch::Arisc, ariscDescription(), ariscConventions()) {}

  std::string regName(unsigned Reg) const override {
    if (Reg == RegIdPC)
      return "$pc";
    assert(Reg < 32 && "bad ARISC register id");
    static const char *Names[32] = {
        "$zero", "$v0",  "$t0",  "$t1",  "$t2",  "$t3",  "$t4",  "$t5",
        "$t6",   "$t7",  "$s0",  "$s1",  "$s2",  "$s3",  "$s4",  "$fp",
        "$a0",   "$a1",  "$a2",  "$a3",  "$t8",  "$t9",  "$t10", "$t11",
        "$t12",  "$t13", "$ra",  "$t14", "$at",  "$gp",  "$sp",  "$s5"};
    return Names[Reg];
  }

  MachWord nopWord() const override { return nop(); }

  bool emitJump(Addr PC, Addr Target, std::vector<MachWord> &Out) const override {
    int64_t DispWords = (static_cast<int64_t>(Target) -
                         (static_cast<int64_t>(PC) + 4)) /
                        4;
    if (!fitsSigned(DispWords, 26))
      return false;
    Out.push_back(encodeBrType(OpBr, static_cast<int32_t>(DispWords)));
    return true; // single word: no delay-slot nop on ARISC
  }

  bool emitCall(Addr PC, Addr Target, std::vector<MachWord> &Out) const override {
    int64_t DispWords = (static_cast<int64_t>(Target) -
                         (static_cast<int64_t>(PC) + 4)) /
                        4;
    if (!fitsSigned(DispWords, 26))
      return false;
    Out.push_back(encodeBrType(OpBsr, static_cast<int32_t>(DispWords)));
    return true;
  }

  void emitLoadConst(unsigned Reg, uint32_t Value,
                     std::vector<MachWord> &Out) const override {
    if (Value <= 0xFFFFu) {
      Out.push_back(encodeIType(OpOri, RegZero, Reg, Value));
      return;
    }
    Out.push_back(encodeIType(OpLdih, 0, Reg, Value >> 16));
    if (Value & 0xFFFFu)
      Out.push_back(encodeIType(OpOri, Reg, Reg, Value & 0xFFFFu));
  }

  void emitLoadWord(unsigned DataReg, unsigned Base, int32_t Offset,
                    std::vector<MachWord> &Out) const override {
    assert(fitsSigned(Offset, 16) && "load offset out of range");
    Out.push_back(encodeIType(OpLdw, DataReg, Base,
                              static_cast<uint32_t>(Offset) & 0xFFFFu));
  }

  void emitStoreWord(unsigned DataReg, unsigned Base, int32_t Offset,
                     std::vector<MachWord> &Out) const override {
    assert(fitsSigned(Offset, 16) && "store offset out of range");
    Out.push_back(encodeIType(OpStw, DataReg, Base,
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
    Out.push_back(encodeOperate(Rs1, Rs2, Rd, FnAdd));
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
      Out.push_back(encodeIType(OpSlli, Rs1, Rd,
                                static_cast<unsigned>(Imm) & 31));
      return;
    case DataOpKind::Srl:
      Out.push_back(encodeIType(OpSrli, Rs1, Rd,
                                static_cast<unsigned>(Imm) & 31));
      return;
    default:
      unreachable("unsupported ALU-immediate operation");
    }
  }

  void emitIndirectJump(unsigned Reg, std::vector<MachWord> &Out,
                        std::optional<MachWord> DelayWord) const override {
    // No delay slot to fill: when the caller supplies a "delay" word, it
    // wants that word executed with the transfer, so place it before.
    if (DelayWord)
      Out.push_back(*DelayWord);
    Out.push_back(encodeJmp(0, Reg));
  }

  bool emitSkipIfEqual(unsigned Ra, unsigned Rb, unsigned SkipWords,
                       std::vector<MachWord> &Out) const override {
    // beq ra, rb, +skip — single word, no condition codes, no nop.
    Out.push_back(encodeBranch(OpBeq, Ra, Rb, static_cast<int32_t>(SkipWords)));
    return false;
  }

  bool emitSkipIfNotEqual(unsigned Ra, unsigned Rb, unsigned SkipWords,
                          std::vector<MachWord> &Out) const override {
    Out.push_back(encodeBranch(OpBne, Ra, Rb, static_cast<int32_t>(SkipWords)));
    return false;
  }

  bool emitSkipIfLess(unsigned Ra, unsigned Rb, unsigned Scratch,
                      unsigned SkipWords,
                      std::vector<MachWord> &Out) const override {
    // Compare-and-branch makes this a single word; Scratch is not needed.
    (void)Scratch;
    Out.push_back(encodeBranch(OpBlt, Ra, Rb, static_cast<int32_t>(SkipWords)));
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

std::string AriscTarget::disassemble(MachWord W, Addr PC) const {
  char Buf[128];
  auto R = [this](unsigned Reg) { return regName(Reg); };
  if (W == nop())
    return "nop";
  switch (fieldOp(W)) {
  case OpOperate: {
    static const char *FnNames[] = {"add", "sub", "and", "or",
                                    "xor", "sll", "srl", "sra",
                                    "mul", "div", "rem", "cmplt"};
    if (fieldFunc(W) > FnCmplt)
      return "<invalid>";
    std::snprintf(Buf, sizeof(Buf), "%s %s, %s, %s", FnNames[fieldFunc(W)],
                  R(fieldRc(W)).c_str(), R(fieldRa(W)).c_str(),
                  R(fieldRb(W)).c_str());
    return Buf;
  }
  case OpLdih:
    if (fieldRa(W) != 0)
      return "<invalid>";
    std::snprintf(Buf, sizeof(Buf), "ldih %s, 0x%x", R(fieldRb(W)).c_str(),
                  fieldUimm16(W));
    return Buf;
  case OpAddi:
  case OpAndi:
  case OpOri:
  case OpXori:
  case OpSlli:
  case OpSrli:
  case OpSrai:
  case OpCmplti: {
    static const struct {
      uint32_t Op;
      const char *Name;
    } INames[] = {{OpAddi, "addi"}, {OpAndi, "andi"},   {OpOri, "ori"},
                  {OpXori, "xori"}, {OpSlli, "slli"},   {OpSrli, "srli"},
                  {OpSrai, "srai"}, {OpCmplti, "cmplti"}};
    for (const auto &Entry : INames) {
      if (Entry.Op != fieldOp(W))
        continue;
      std::snprintf(Buf, sizeof(Buf), "%s %s, %s, %d", Entry.Name,
                    R(fieldRb(W)).c_str(), R(fieldRa(W)).c_str(),
                    fieldSimm16(W));
      return Buf;
    }
    return "<invalid>";
  }
  case OpLdw:
  case OpLdb:
  case OpLdbu:
  case OpLdh:
  case OpLdhu:
  case OpStw:
  case OpStb:
  case OpSth: {
    static const struct {
      uint32_t Op;
      const char *Name;
    } MNames[] = {{OpLdw, "ldw"},   {OpLdb, "ldb"}, {OpLdbu, "ldbu"},
                  {OpLdh, "ldh"},   {OpLdhu, "ldhu"}, {OpStw, "stw"},
                  {OpStb, "stb"},   {OpSth, "sth"}};
    for (const auto &Entry : MNames) {
      if (Entry.Op != fieldOp(W))
        continue;
      std::snprintf(Buf, sizeof(Buf), "%s %s, %d(%s)", Entry.Name,
                    R(fieldRa(W)).c_str(), fieldSimm16(W),
                    R(fieldRb(W)).c_str());
      return Buf;
    }
    return "<invalid>";
  }
  case OpBeq:
  case OpBne:
  case OpBlt:
  case OpBle: {
    static const struct {
      uint32_t Op;
      const char *Name;
    } BNames[] = {{OpBeq, "beq"}, {OpBne, "bne"}, {OpBlt, "blt"},
                  {OpBle, "ble"}};
    Addr Target = PC + 4 + static_cast<Addr>(fieldSimm16(W) * 4);
    for (const auto &Entry : BNames) {
      if (Entry.Op != fieldOp(W))
        continue;
      std::snprintf(Buf, sizeof(Buf), "%s %s, %s, 0x%" PRIx32, Entry.Name,
                    R(fieldRa(W)).c_str(), R(fieldRb(W)).c_str(), Target);
      return Buf;
    }
    return "<invalid>";
  }
  case OpBr:
  case OpBsr: {
    Addr Target = PC + 4 + static_cast<Addr>(fieldSdisp26(W) * 4);
    std::snprintf(Buf, sizeof(Buf), "%s 0x%" PRIx32,
                  fieldOp(W) == OpBr ? "br" : "bsr", Target);
    return Buf;
  }
  case OpJmp:
    if (fieldUimm16(W) != 0)
      return "<invalid>";
    if (fieldRa(W) == 0) {
      std::snprintf(Buf, sizeof(Buf), "jmp (%s)", R(fieldRb(W)).c_str());
      return Buf;
    }
    std::snprintf(Buf, sizeof(Buf), "jmp %s, (%s)", R(fieldRa(W)).c_str(),
                  R(fieldRb(W)).c_str());
    return Buf;
  case OpSys:
    if (fieldRa(W) != 0 || fieldRb(W) != 0)
      return "<invalid>";
    std::snprintf(Buf, sizeof(Buf), "sys %u", fieldUimm16(W));
    return Buf;
  default:
    return "<invalid>";
  }
}

const TargetInfo &eel::ariscTarget() {
  static AriscTarget Target;
  return Target;
}
