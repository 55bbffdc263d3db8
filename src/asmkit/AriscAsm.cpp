//===- asmkit/AriscAsm.cpp - ARISC assembly syntax ------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Alpha-flavoured assembly syntax for ARISC:
///
///   add $t0, $t1, $t2 / addi $t0, $t1, -4 / slli $t0, $t1, 3
///   ldih $t0, %hi(sym) / ori $t0, $t0, %lo(sym)
///   ldw $t0, 8($sp) / stw $t0, %lo(sym)($t1)
///   beq $t0, $t1, L1 / blt $t0, $t1, L2 / br done / bsr foo
///   jmp ($t0) / jmp $ra, ($t0) / sys 1
///   pseudos: nop, move, li, la, b, ret
///
/// No delay slots: the word after a transfer executes only if the transfer
/// falls through, so none of the pseudos pad with nops.
///
//===----------------------------------------------------------------------===//

#include "asmkit/TargetAsm.h"
#include "isa/AriscEncoding.h"

#include <cctype>
#include <map>

using namespace eel;
using namespace eel::asmkit;
using namespace eel::arisc;

/// ARISC register names.
static const std::map<std::string, unsigned> RegNames = {
    {"$zero", 0}, {"$v0", 1},   {"$t0", 2},   {"$t1", 3},   {"$t2", 4},
    {"$t3", 5},   {"$t4", 6},   {"$t5", 7},   {"$t6", 8},   {"$t7", 9},
    {"$s0", 10},  {"$s1", 11},  {"$s2", 12},  {"$s3", 13},  {"$s4", 14},
    {"$fp", 15},  {"$a0", 16},  {"$a1", 17},  {"$a2", 18},  {"$a3", 19},
    {"$t8", 20},  {"$t9", 21},  {"$t10", 22}, {"$t11", 23}, {"$t12", 24},
    {"$t13", 25}, {"$ra", 26},  {"$t14", 27}, {"$at", 28},  {"$gp", 29},
    {"$sp", 30},  {"$s5", 31}};

namespace {

/// ARISC mnemonic table and encoder.
class AriscAsm : public InstParser {
public:
  Expected<bool> parse(const std::vector<std::string> &Tokens,
                       std::vector<AsmInst> &Out) const override;

  MachWord applyImmHi(MachWord Word, uint32_t Value) const override {
    return insertBits(Word, 0, 15, Value >> 16);
  }
  MachWord applyImmLo(MachWord Word, uint32_t Value) const override {
    return insertBits(Word, 0, 15, Value & 0xFFFF);
  }
  const TargetInfo &target() const override { return ariscTarget(); }
};

} // namespace

Expected<bool> AriscAsm::parse(const std::vector<std::string> &Tokens,
                               std::vector<AsmInst> &Out) const {
  const std::string &Mnemonic = Tokens[0];
  Cursor C(Tokens);

  static const std::map<std::string, uint32_t> Operate = {
      {"add", FnAdd}, {"sub", FnSub}, {"and", FnAnd},   {"or", FnOr},
      {"xor", FnXor}, {"sll", FnSll}, {"srl", FnSrl},   {"sra", FnSra},
      {"mul", FnMul}, {"div", FnDiv}, {"rem", FnRem},   {"cmplt", FnCmplt}};
  static const std::map<std::string, uint32_t> IAluSigned = {
      {"addi", OpAddi}, {"cmplti", OpCmplti}};
  static const std::map<std::string, uint32_t> IAluUnsigned = {
      {"andi", OpAndi}, {"ori", OpOri}, {"xori", OpXori}};
  static const std::map<std::string, uint32_t> IShift = {
      {"slli", OpSlli}, {"srli", OpSrli}, {"srai", OpSrai}};
  static const std::map<std::string, uint32_t> Mem = {
      {"ldw", OpLdw}, {"ldb", OpLdb}, {"ldbu", OpLdbu}, {"ldh", OpLdh},
      {"ldhu", OpLdhu}, {"stw", OpStw}, {"stb", OpStb}, {"sth", OpSth}};
  static const std::map<std::string, uint32_t> CondBranch = {
      {"beq", OpBeq}, {"bne", OpBne}, {"blt", OpBlt}, {"ble", OpBle}};

  auto ParseRegAfterComma = [&](unsigned &Reg) -> Expected<bool> {
    if (!C.eat(","))
      return Error("expected ','");
    Expected<unsigned> R = parseReg(C.next(), RegNames);
    if (R.hasError())
      return R.error();
    Reg = R.value();
    return true;
  };

  // A PC-relative target: a numeric addend or a symbol.
  auto ParseTarget = [&](AsmInst &Inst) -> Expected<bool> {
    std::string TargetTok = C.next();
    if (TargetTok.empty())
      return Error("transfer needs a target");
    Inst.Fix.Kind = FixupKind::PcRelative;
    if (std::isdigit(static_cast<unsigned char>(TargetTok[0]))) {
      Expected<int64_t> N = parseNumber(TargetTok);
      if (N.hasError())
        return N.error();
      Inst.Fix.Addend = N.value();
    } else {
      Inst.Fix.Symbol = TargetTok;
    }
    return true;
  };

  if (auto It = Operate.find(Mnemonic); It != Operate.end()) {
    // op $rc, $ra, $rb
    Expected<unsigned> Rc = parseReg(C.next(), RegNames);
    if (Rc.hasError())
      return Rc.error();
    unsigned Ra = 0, Rb = 0;
    Expected<bool> A = ParseRegAfterComma(Ra);
    if (A.hasError())
      return A.error();
    Expected<bool> B = ParseRegAfterComma(Rb);
    if (B.hasError())
      return B.error();
    Out.push_back({encodeOperate(Ra, Rb, Rc.value(), It->second), {}});
    return true;
  }

  if (auto It = IAluSigned.find(Mnemonic); It != IAluSigned.end()) {
    // op $rb, $ra, imm (dest first, as written).
    Expected<unsigned> Rb = parseReg(C.next(), RegNames);
    if (Rb.hasError())
      return Rb.error();
    unsigned Ra = 0;
    Expected<bool> A = ParseRegAfterComma(Ra);
    if (A.hasError())
      return A.error();
    if (!C.eat(","))
      return Error("expected ','");
    Expected<ImmOperand> Imm = parseImmOperand(C);
    if (Imm.hasError())
      return Imm.error();
    if (Imm.value().Fix.Kind == FixupKind::None &&
        !fitsSigned(Imm.value().Value, 16))
      return Error("immediate does not fit in 16 bits");
    AsmInst Inst;
    Inst.Word = encodeIType(It->second, Ra, Rb.value(),
                            static_cast<uint32_t>(Imm.value().Value) & 0xFFFF);
    Inst.Fix = Imm.value().Fix;
    Out.push_back(Inst);
    return true;
  }

  if (auto It = IAluUnsigned.find(Mnemonic); It != IAluUnsigned.end()) {
    Expected<unsigned> Rb = parseReg(C.next(), RegNames);
    if (Rb.hasError())
      return Rb.error();
    unsigned Ra = 0;
    Expected<bool> A = ParseRegAfterComma(Ra);
    if (A.hasError())
      return A.error();
    if (!C.eat(","))
      return Error("expected ','");
    Expected<ImmOperand> Imm = parseImmOperand(C);
    if (Imm.hasError())
      return Imm.error();
    if (Imm.value().Fix.Kind == FixupKind::None &&
        !fitsUnsigned(static_cast<uint64_t>(Imm.value().Value), 16))
      return Error("immediate does not fit in 16 bits");
    AsmInst Inst;
    Inst.Word = encodeIType(It->second, Ra, Rb.value(),
                            static_cast<uint32_t>(Imm.value().Value) & 0xFFFF);
    Inst.Fix = Imm.value().Fix;
    Out.push_back(Inst);
    return true;
  }

  if (auto It = IShift.find(Mnemonic); It != IShift.end()) {
    Expected<unsigned> Rb = parseReg(C.next(), RegNames);
    if (Rb.hasError())
      return Rb.error();
    unsigned Ra = 0;
    Expected<bool> A = ParseRegAfterComma(Ra);
    if (A.hasError())
      return A.error();
    if (!C.eat(","))
      return Error("expected ','");
    Expected<int64_t> Shamt = parseNumber(C.next());
    if (Shamt.hasError())
      return Shamt.error();
    if (Shamt.value() < 0 || Shamt.value() > 31)
      return Error("shift amount out of range");
    Out.push_back({encodeIType(It->second, Ra, Rb.value(),
                               static_cast<uint32_t>(Shamt.value())),
                   {}});
    return true;
  }

  if (Mnemonic == "ldih") {
    Expected<unsigned> Rb = parseReg(C.next(), RegNames);
    if (Rb.hasError())
      return Rb.error();
    if (!C.eat(","))
      return Error("expected ','");
    Expected<ImmOperand> Imm = parseImmOperand(C);
    if (Imm.hasError())
      return Imm.error();
    AsmInst Inst;
    Inst.Word = encodeIType(OpLdih, 0, Rb.value(),
                            static_cast<uint32_t>(Imm.value().Value) & 0xFFFF);
    Inst.Fix = Imm.value().Fix;
    Out.push_back(Inst);
    return true;
  }

  if (auto It = Mem.find(Mnemonic); It != Mem.end()) {
    // op $ra, off($rb)  with off = NUM | %lo(sym) | empty.
    Expected<unsigned> Ra = parseReg(C.next(), RegNames);
    if (Ra.hasError())
      return Ra.error();
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
    Expected<unsigned> Rb = parseReg(C.next(), RegNames);
    if (Rb.hasError())
      return Rb.error();
    if (!C.eat(")"))
      return Error("expected ')' in memory operand");
    if (Off.Fix.Kind == FixupKind::None && !fitsSigned(Off.Value, 16))
      return Error("memory offset does not fit in 16 bits");
    AsmInst Inst;
    Inst.Word = encodeIType(It->second, Ra.value(), Rb.value(),
                            static_cast<uint32_t>(Off.Value) & 0xFFFF);
    Inst.Fix = Off.Fix;
    Out.push_back(Inst);
    return true;
  }

  if (auto It = CondBranch.find(Mnemonic); It != CondBranch.end()) {
    // op $ra, $rb, target
    Expected<unsigned> Ra = parseReg(C.next(), RegNames);
    if (Ra.hasError())
      return Ra.error();
    unsigned Rb = 0;
    Expected<bool> B = ParseRegAfterComma(Rb);
    if (B.hasError())
      return B.error();
    if (!C.eat(","))
      return Error("expected ','");
    AsmInst Inst;
    Inst.Word = encodeBranch(It->second, Ra.value(), Rb, 0);
    Expected<bool> T = ParseTarget(Inst);
    if (T.hasError())
      return T.error();
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "br" || Mnemonic == "bsr" || Mnemonic == "b") {
    AsmInst Inst;
    Inst.Word = encodeBrType(Mnemonic == "bsr" ? OpBsr : OpBr, 0);
    Expected<bool> T = ParseTarget(Inst);
    if (T.hasError())
      return T.error();
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "jmp") {
    // jmp ($rb)  or  jmp $ra, ($rb); bare registers also accepted.
    unsigned Link = 0;
    bool Paren = C.eat("(");
    Expected<unsigned> First = parseReg(C.next(), RegNames);
    if (First.hasError())
      return First.error();
    unsigned Base = First.value();
    if (Paren) {
      if (!C.eat(")"))
        return Error("expected ')' in jmp operand");
    } else if (C.eat(",")) {
      Link = First.value();
      Paren = C.eat("(");
      Expected<unsigned> Second = parseReg(C.next(), RegNames);
      if (Second.hasError())
        return Second.error();
      Base = Second.value();
      if (Paren && !C.eat(")"))
        return Error("expected ')' in jmp operand");
    }
    Out.push_back({encodeJmp(Link, Base), {}});
    return true;
  }

  if (Mnemonic == "ret") {
    Out.push_back({encodeJmp(0, RegRA), {}});
    return true;
  }

  if (Mnemonic == "sys") {
    Expected<int64_t> Num = parseNumber(C.next());
    if (Num.hasError())
      return Num.error();
    if (Num.value() < 0 || !fitsUnsigned(static_cast<uint64_t>(Num.value()), 16))
      return Error("syscall number out of range");
    Out.push_back({encodeSys(static_cast<unsigned>(Num.value())), {}});
    return true;
  }

  if (Mnemonic == "nop") {
    Out.push_back({nop(), {}});
    return true;
  }

  if (Mnemonic == "move") {
    Expected<unsigned> Rc = parseReg(C.next(), RegNames);
    if (Rc.hasError())
      return Rc.error();
    unsigned Ra = 0;
    Expected<bool> A = ParseRegAfterComma(Ra);
    if (A.hasError())
      return A.error();
    Out.push_back({encodeOperate(Ra, 0, Rc.value(), FnOr), {}});
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
      Out.push_back({encodeIType(OpLdih, 0, Rd.value(), U >> 16), {}});
      if (U & 0xFFFF)
        Out.push_back(
            {encodeIType(OpOri, Rd.value(), Rd.value(), U & 0xFFFF), {}});
    }
    return true;
  }

  if (Mnemonic == "la") {
    // la $rd, sym  ->  ldih %hi + ori %lo (always two words).
    Expected<unsigned> Rd = parseReg(C.next(), RegNames);
    if (Rd.hasError())
      return Rd.error();
    if (!C.eat(","))
      return Error("expected ','");
    std::string Sym = C.next();
    if (Sym.empty())
      return Error("la needs a symbol");
    AsmInst Hi, Lo;
    Hi.Word = encodeIType(OpLdih, 0, Rd.value(), 0);
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

const InstParser &eel::asmkit::ariscInstParser() {
  static AriscAsm Parser;
  return Parser;
}
