//===- asmkit/MriscAsm.cpp - MRISC assembly syntax ------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MIPS-flavoured assembly syntax for MRISC:
///
///   add $t0, $t1, $t2 / addi $t0, $t1, -4 / sll $t0, $t1, 3
///   lui $t0, %hi(sym) / ori $t0, $t0, %lo(sym)
///   lw $t0, 8($sp) / sw $t0, %lo(sym)($t1)
///   beq $t0, $t1, L1 / blez $t0, L2 / j done / jal foo / jr $ra
///   jalr $t0 / jalr $t1, $t0 / syscall
///   pseudos: nop, move, li, la, b
///
//===----------------------------------------------------------------------===//

#include "asmkit/TargetAsm.h"
#include "isa/MriscEncoding.h"

#include <cctype>
#include <map>

using namespace eel;
using namespace eel::asmkit;
using namespace eel::mrisc;

/// MRISC register names.
static const std::map<std::string, unsigned> RegNames = {
    {"$zero", 0}, {"$at", 1},  {"$v0", 2},  {"$v1", 3},  {"$a0", 4},
    {"$a1", 5},   {"$a2", 6},  {"$a3", 7},  {"$t0", 8},  {"$t1", 9},
    {"$t2", 10},  {"$t3", 11}, {"$t4", 12}, {"$t5", 13}, {"$t6", 14},
    {"$t7", 15},  {"$s0", 16}, {"$s1", 17}, {"$s2", 18}, {"$s3", 19},
    {"$s4", 20},  {"$s5", 21}, {"$s6", 22}, {"$s7", 23}, {"$t8", 24},
    {"$t9", 25},  {"$k0", 26}, {"$k1", 27}, {"$gp", 28}, {"$sp", 29},
    {"$fp", 30},  {"$ra", 31}};

namespace {

/// MRISC mnemonic table and encoder.
class MriscAsm : public InstParser {
public:
  Expected<bool> parse(const std::vector<std::string> &Tokens,
                       std::vector<AsmInst> &Out) const override;

  MachWord applyImmHi(MachWord Word, uint32_t Value) const override {
    return insertBits(Word, 0, 15, Value >> 16);
  }
  MachWord applyImmLo(MachWord Word, uint32_t Value) const override {
    return insertBits(Word, 0, 15, Value & 0xFFFF);
  }
  const TargetInfo &target() const override { return mriscTarget(); }
};

} // namespace

Expected<bool> MriscAsm::parse(const std::vector<std::string> &Tokens,
                               std::vector<AsmInst> &Out) const {
  const std::string &Mnemonic = Tokens[0];
  Cursor C(Tokens);

  static const std::map<std::string, uint32_t> RThree = {
      {"add", FnAdd}, {"sub", FnSub}, {"and", FnAnd},
      {"or", FnOr},   {"xor", FnXor}, {"slt", FnSlt},
      {"mul", FnMul}, {"div", FnDiv}, {"rem", FnRem}};
  static const std::map<std::string, uint32_t> RShiftVar = {
      {"sllv", FnSllv}, {"srlv", FnSrlv}, {"srav", FnSrav}};
  static const std::map<std::string, uint32_t> RShiftImm = {
      {"sll", FnSll}, {"srl", FnSrl}, {"sra", FnSra}};
  static const std::map<std::string, uint32_t> IAlu = {{"addi", OpAddi},
                                                       {"slti", OpSlti},
                                                       {"andi", OpAndi},
                                                       {"ori", OpOri},
                                                       {"xori", OpXori}};
  static const std::map<std::string, uint32_t> Mem = {
      {"lb", OpLb}, {"lh", OpLh}, {"lw", OpLw}, {"lbu", OpLbu},
      {"lhu", OpLhu}, {"sb", OpSb}, {"sh", OpSh}, {"sw", OpSw}};

  auto ParseRegAfterComma = [&](unsigned &Reg) -> Expected<bool> {
    if (!C.eat(","))
      return Error("expected ','");
    Expected<unsigned> R = parseReg(C.next(), RegNames);
    if (R.hasError())
      return R.error();
    Reg = R.value();
    return true;
  };

  if (auto It = RThree.find(Mnemonic); It != RThree.end()) {
    Expected<unsigned> Rd = parseReg(C.next(), RegNames);
    if (Rd.hasError())
      return Rd.error();
    unsigned Rs = 0, Rt = 0;
    Expected<bool> A = ParseRegAfterComma(Rs);
    if (A.hasError())
      return A.error();
    Expected<bool> B = ParseRegAfterComma(Rt);
    if (B.hasError())
      return B.error();
    Out.push_back({encodeRType(Rs, Rt, Rd.value(), 0, It->second), {}});
    return true;
  }

  if (auto It = RShiftVar.find(Mnemonic); It != RShiftVar.end()) {
    Expected<unsigned> Rd = parseReg(C.next(), RegNames);
    if (Rd.hasError())
      return Rd.error();
    unsigned Rt = 0, Rs = 0;
    Expected<bool> A = ParseRegAfterComma(Rt);
    if (A.hasError())
      return A.error();
    Expected<bool> B = ParseRegAfterComma(Rs);
    if (B.hasError())
      return B.error();
    Out.push_back({encodeRType(Rs, Rt, Rd.value(), 0, It->second), {}});
    return true;
  }

  if (auto It = RShiftImm.find(Mnemonic); It != RShiftImm.end()) {
    Expected<unsigned> Rd = parseReg(C.next(), RegNames);
    if (Rd.hasError())
      return Rd.error();
    unsigned Rt = 0;
    Expected<bool> A = ParseRegAfterComma(Rt);
    if (A.hasError())
      return A.error();
    if (!C.eat(","))
      return Error("expected ','");
    Expected<int64_t> Shamt = parseNumber(C.next());
    if (Shamt.hasError())
      return Shamt.error();
    if (Shamt.value() < 0 || Shamt.value() > 31)
      return Error("shift amount out of range");
    Out.push_back({encodeRType(0, Rt, Rd.value(),
                               static_cast<unsigned>(Shamt.value()),
                               It->second),
                   {}});
    return true;
  }

  if (auto It = IAlu.find(Mnemonic); It != IAlu.end()) {
    Expected<unsigned> Rt = parseReg(C.next(), RegNames);
    if (Rt.hasError())
      return Rt.error();
    unsigned Rs = 0;
    Expected<bool> A = ParseRegAfterComma(Rs);
    if (A.hasError())
      return A.error();
    if (!C.eat(","))
      return Error("expected ','");
    Expected<ImmOperand> Imm = parseImmOperand(C);
    if (Imm.hasError())
      return Imm.error();
    bool Unsigned = Mnemonic == "andi" || Mnemonic == "ori" ||
                    Mnemonic == "xori";
    if (Imm.value().Fix.Kind == FixupKind::None) {
      if (Unsigned ? !fitsUnsigned(static_cast<uint64_t>(Imm.value().Value), 16)
                   : !fitsSigned(Imm.value().Value, 16))
        return Error("immediate does not fit in 16 bits");
    }
    AsmInst Inst;
    Inst.Word = encodeIType(It->second, Rs, Rt.value(),
                            static_cast<uint32_t>(Imm.value().Value) & 0xFFFF);
    Inst.Fix = Imm.value().Fix;
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "lui") {
    Expected<unsigned> Rt = parseReg(C.next(), RegNames);
    if (Rt.hasError())
      return Rt.error();
    if (!C.eat(","))
      return Error("expected ','");
    Expected<ImmOperand> Imm = parseImmOperand(C);
    if (Imm.hasError())
      return Imm.error();
    AsmInst Inst;
    Inst.Word = encodeIType(OpLui, 0, Rt.value(),
                            static_cast<uint32_t>(Imm.value().Value) & 0xFFFF);
    Inst.Fix = Imm.value().Fix;
    Out.push_back(Inst);
    return true;
  }

  if (auto It = Mem.find(Mnemonic); It != Mem.end()) {
    // op $rt, off($rs)  with off = NUM | %lo(sym) | empty.
    Expected<unsigned> Rt = parseReg(C.next(), RegNames);
    if (Rt.hasError())
      return Rt.error();
    if (!C.eat(","))
      return Error("expected ','");
    ImmOperand Off;
    if (C.peek() != "(") {
      Expected<ImmOperand> Parsed = parseImmOperand(C);
      if (Parsed.hasError())
        return Parsed.error();
      Off = Parsed.value();
    }
    if (!C.eat("("))
      return Error("expected '(' in memory operand");
    Expected<unsigned> Rs = parseReg(C.next(), RegNames);
    if (Rs.hasError())
      return Rs.error();
    if (!C.eat(")"))
      return Error("expected ')' in memory operand");
    if (Off.Fix.Kind == FixupKind::None && !fitsSigned(Off.Value, 16))
      return Error("memory offset does not fit in 16 bits");
    AsmInst Inst;
    Inst.Word = encodeIType(It->second, Rs.value(), Rt.value(),
                            static_cast<uint32_t>(Off.Value) & 0xFFFF);
    Inst.Fix = Off.Fix;
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "beq" || Mnemonic == "bne" || Mnemonic == "b") {
    unsigned Rs = 0, Rt = 0;
    uint32_t Op = OpBeq;
    if (Mnemonic != "b") {
      Op = Mnemonic == "beq" ? OpBeq : OpBne;
      Expected<unsigned> A = parseReg(C.next(), RegNames);
      if (A.hasError())
        return A.error();
      Rs = A.value();
      Expected<bool> B = ParseRegAfterComma(Rt);
      if (B.hasError())
        return B.error();
      if (!C.eat(","))
        return Error("expected ','");
    }
    AsmInst Inst;
    Inst.Word = encodeIType(Op, Rs, Rt, 0);
    std::string TargetTok = C.next();
    if (TargetTok.empty())
      return Error("branch needs a target");
    Inst.Fix.Kind = FixupKind::PcRelative;
    if (std::isdigit(static_cast<unsigned char>(TargetTok[0]))) {
      Expected<int64_t> N = parseNumber(TargetTok);
      if (N.hasError())
        return N.error();
      Inst.Fix.Addend = N.value();
    } else {
      Inst.Fix.Symbol = TargetTok;
    }
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "blez" || Mnemonic == "bgtz") {
    Expected<unsigned> Rs = parseReg(C.next(), RegNames);
    if (Rs.hasError())
      return Rs.error();
    if (!C.eat(","))
      return Error("expected ','");
    AsmInst Inst;
    Inst.Word = encodeIType(Mnemonic == "blez" ? OpBlez : OpBgtz, Rs.value(),
                            0, 0);
    std::string TargetTok = C.next();
    Inst.Fix.Kind = FixupKind::PcRelative;
    if (!TargetTok.empty() &&
        std::isdigit(static_cast<unsigned char>(TargetTok[0]))) {
      Expected<int64_t> N = parseNumber(TargetTok);
      if (N.hasError())
        return N.error();
      Inst.Fix.Addend = N.value();
    } else {
      Inst.Fix.Symbol = TargetTok;
    }
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "j" || Mnemonic == "jal") {
    AsmInst Inst;
    Inst.Word = encodeJType(Mnemonic == "j" ? OpJ : OpJal, 0);
    std::string TargetTok = C.next();
    if (TargetTok.empty())
      return Error("jump needs a target");
    Inst.Fix.Kind = FixupKind::PcRelative;
    if (std::isdigit(static_cast<unsigned char>(TargetTok[0]))) {
      Expected<int64_t> N = parseNumber(TargetTok);
      if (N.hasError())
        return N.error();
      Inst.Fix.Addend = N.value();
    } else {
      Inst.Fix.Symbol = TargetTok;
    }
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "jr") {
    Expected<unsigned> Rs = parseReg(C.next(), RegNames);
    if (Rs.hasError())
      return Rs.error();
    Out.push_back({encodeRType(Rs.value(), 0, 0, 0, FnJr), {}});
    return true;
  }

  if (Mnemonic == "jalr") {
    Expected<unsigned> First = parseReg(C.next(), RegNames);
    if (First.hasError())
      return First.error();
    unsigned Rd = RegRA, Rs = First.value();
    if (C.eat(",")) {
      Expected<unsigned> Second = parseReg(C.next(), RegNames);
      if (Second.hasError())
        return Second.error();
      Rd = First.value();
      Rs = Second.value();
    }
    Out.push_back({encodeRType(Rs, 0, Rd, 0, FnJalr), {}});
    return true;
  }

  if (Mnemonic == "syscall") {
    Out.push_back({encodeRType(0, 0, 0, 0, FnSyscall), {}});
    return true;
  }

  if (Mnemonic == "nop") {
    Out.push_back({nop(), {}});
    return true;
  }

  if (Mnemonic == "move") {
    Expected<unsigned> Rd = parseReg(C.next(), RegNames);
    if (Rd.hasError())
      return Rd.error();
    unsigned Rs = 0;
    Expected<bool> A = ParseRegAfterComma(Rs);
    if (A.hasError())
      return A.error();
    Out.push_back({encodeRType(Rs, 0, Rd.value(), 0, FnOr), {}});
    return true;
  }

  if (Mnemonic == "li") {
    Expected<unsigned> Rd = parseReg(C.next(), RegNames);
    if (Rd.hasError())
      return Rd.error();
    if (!C.eat(","))
      return Error("expected ','");
    bool Neg = C.eat("-");
    Expected<int64_t> N = parseNumber(C.next());
    if (N.hasError())
      return N.error();
    int64_t Value = Neg ? -N.value() : N.value();
    uint32_t U = static_cast<uint32_t>(Value);
    if (U <= 0xFFFFu) {
      Out.push_back({encodeIType(OpOri, 0, Rd.value(), U), {}});
    } else if (fitsSigned(Value, 16)) {
      Out.push_back({encodeIType(OpAddi, 0, Rd.value(), U & 0xFFFF), {}});
    } else {
      Out.push_back({encodeIType(OpLui, 0, Rd.value(), U >> 16), {}});
      if (U & 0xFFFF)
        Out.push_back(
            {encodeIType(OpOri, Rd.value(), Rd.value(), U & 0xFFFF), {}});
    }
    return true;
  }

  if (Mnemonic == "la") {
    // la $rd, sym  ->  lui %hi + ori %lo (always two words).
    Expected<unsigned> Rd = parseReg(C.next(), RegNames);
    if (Rd.hasError())
      return Rd.error();
    if (!C.eat(","))
      return Error("expected ','");
    std::string Sym = C.next();
    if (Sym.empty())
      return Error("la needs a symbol");
    AsmInst Hi, Lo;
    Hi.Word = encodeIType(OpLui, 0, Rd.value(), 0);
    Hi.Fix.Kind = FixupKind::ImmHi;
    Hi.Fix.Symbol = Sym;
    Lo.Word = encodeIType(OpOri, Rd.value(), Rd.value(), 0);
    Lo.Fix.Kind = FixupKind::ImmLo;
    Lo.Fix.Symbol = Sym;
    Out.push_back(Hi);
    Out.push_back(Lo);
    return true;
  }

  return Error("unknown mnemonic '" + Mnemonic + "'");
}

const InstParser &eel::asmkit::mriscInstParser() {
  static MriscAsm Parser;
  return Parser;
}

const InstParser &eel::asmkit::instParserFor(TargetArch Arch) {
  switch (Arch) {
  case TargetArch::Srisc:
    return sriscInstParser();
  case TargetArch::Mrisc:
    return mriscInstParser();
  case TargetArch::Arisc:
    return ariscInstParser();
  }
  unreachable("unknown target architecture");
}
