//===- asmkit/SriscAsm.cpp - SRISC assembly syntax ------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SPARC-flavoured assembly syntax for SRISC:
///
///   add %o1, %o2, %o3        and the other three-operand ALU forms
///   add %o1, -4, %o3         reg-or-imm second operand
///   sethi %hi(sym), %o1      / sethi 0x3f, %o1 (raw imm22 field)
///   or %o1, %lo(sym), %o1
///   be,a L1 / ba done / call foo
///   jmpl %o7+8, %g0 / jmp %o1 / ret
///   ld [%o1+4], %o2 / ld [%o1+%o3], %o2 / st %o2, [%o1+%lo(sym)]
///   sys 1 / rdcc %o1 / wrcc %o1
///   pseudos: nop, mov, cmp, set, b
///
//===----------------------------------------------------------------------===//

#include "asmkit/TargetAsm.h"
#include "isa/SriscEncoding.h"

#include <cctype>
#include <map>

using namespace eel;
using namespace eel::asmkit;
using namespace eel::srisc;

InstParser::~InstParser() = default;

namespace {

struct Operand2 {
  bool IsReg = false;
  unsigned Reg = 0;
  int32_t Imm = 0;
  Fixup Fix; ///< ImmLo fixup when the immediate is %lo(sym).
};

} // namespace

static Expected<unsigned> parseReg(const std::string &T) {
  if (T.size() < 3 || T[0] != '%')
    return Error("expected a register, found '" + T + "'");
  if (T == "%sp")
    return unsigned(RegSP);
  if (T == "%fp")
    return unsigned(RegFP);
  char Group = T[1];
  unsigned Base;
  switch (Group) {
  case 'g':
    Base = 0;
    break;
  case 'o':
    Base = 8;
    break;
  case 'l':
    Base = 16;
    break;
  case 'i':
    Base = 24;
    break;
  case 'r': {
    if (T.find_first_not_of("0123456789", 2) != std::string::npos)
      return Error("bad register '" + T + "'");
    Expected<int64_t> N = parseNumber(T.substr(2));
    if (N.hasError() || N.value() >= 32)
      return Error("register number out of range in '" + T + "'");
    return static_cast<unsigned>(N.value());
  }
  default:
    return Error("bad register '" + T + "'");
  }
  if (T.size() != 3 || !std::isdigit(static_cast<unsigned char>(T[2])))
    return Error("bad register '" + T + "'");
  unsigned N = static_cast<unsigned>(T[2] - '0');
  if (N >= 8)
    return Error("register number out of range in '" + T + "'");
  return Base + N;
}

static bool looksLikeReg(const std::string &T) {
  return T.size() >= 2 && T[0] == '%';
}

static Expected<int64_t> parseImm(Cursor &C) {
  bool Neg = C.eat("-");
  Expected<int64_t> Value = parseNumber(C.next());
  if (Value.hasError())
    return Value.error();
  return Neg ? -Value.value() : Value.value();
}

/// Parses `%hi ( sym [+/- n] )` or `%lo ( ... )`; returns the fixup.
static Expected<Fixup> parseHiLo(Cursor &C, bool IsHi) {
  Fixup Fix;
  Fix.Kind = IsHi ? FixupKind::ImmHi : FixupKind::ImmLo;
  if (!C.eat("("))
    return Error("expected '(' after %hi/%lo");
  std::string Sym = C.next();
  if (Sym.empty())
    return Error("expected a symbol in %hi/%lo");
  if (std::isdigit(static_cast<unsigned char>(Sym[0]))) {
    // %hi(constant): encode the constant directly through the fixup path.
    Expected<int64_t> Value = parseNumber(Sym);
    if (Value.hasError())
      return Value.error();
    Fix.Addend = Value.value();
  } else {
    Fix.Symbol = Sym;
    if (C.peek() == "+" || C.peek() == "-") {
      bool Neg = C.next() == "-";
      Expected<int64_t> N = parseImm(C);
      if (N.hasError())
        return N.error();
      Fix.Addend = Neg ? -N.value() : N.value();
    }
  }
  if (!C.eat(")"))
    return Error("expected ')' after %hi/%lo");
  return Fix;
}

/// Parses a reg-or-imm second operand (also accepting %lo(sym)).
static Expected<Operand2> parseOperand2(Cursor &C) {
  Operand2 Op;
  if (C.peek() == "%lo") {
    C.next();
    Expected<Fixup> Fix = parseHiLo(C, /*IsHi=*/false);
    if (Fix.hasError())
      return Fix.error();
    Op.Fix = Fix.value();
    return Op;
  }
  if (looksLikeReg(C.peek())) {
    Expected<unsigned> Reg = parseReg(C.next());
    if (Reg.hasError())
      return Reg.error();
    Op.IsReg = true;
    Op.Reg = Reg.value();
    return Op;
  }
  Expected<int64_t> Imm = parseImm(C);
  if (Imm.hasError())
    return Imm.error();
  if (!fitsSigned(Imm.value(), 13))
    return Error("immediate does not fit in 13 bits");
  Op.Imm = static_cast<int32_t>(Imm.value());
  return Op;
}

/// Parses a `[base]`, `[base+imm]`, `[base-imm]`, `[base+reg]`, or
/// `[base+%lo(sym)]` memory address.
static Expected<Operand2> parseMemAddr(Cursor &C, unsigned &BaseOut) {
  if (!C.eat("["))
    return Error("expected '[' to open a memory address");
  Expected<unsigned> Base = parseReg(C.next());
  if (Base.hasError())
    return Base.error();
  BaseOut = Base.value();
  Operand2 Op; // defaults to immediate 0
  if (C.eat("+")) {
    Expected<Operand2> Parsed = parseOperand2(C);
    if (Parsed.hasError())
      return Parsed.error();
    Op = Parsed.value();
  } else if (C.peek() == "-") {
    Expected<Operand2> Parsed = parseOperand2(C); // consumes the '-'
    if (Parsed.hasError())
      return Parsed.error();
    Op = Parsed.value();
  }
  if (!C.eat("]"))
    return Error("expected ']' to close a memory address");
  return Op;
}

namespace {

/// SRISC mnemonic table and encoder.
class SriscAsm : public InstParser {
public:
  Expected<bool> parse(const std::vector<std::string> &Tokens,
                       std::vector<AsmInst> &Out) const override;

  MachWord applyImmHi(MachWord Word, uint32_t Value) const override {
    return insertBits(Word, 0, 21, Value >> 10);
  }
  MachWord applyImmLo(MachWord Word, uint32_t Value) const override {
    return insertBits(Word, 0, 12, Value & 0x3FF);
  }
  const TargetInfo &target() const override { return sriscTarget(); }
};

} // namespace

static const std::map<std::string, uint32_t> &arithOps() {
  static const std::map<std::string, uint32_t> Ops = {
      {"add", Op3Add},     {"and", Op3And},     {"or", Op3Or},
      {"xor", Op3Xor},     {"sub", Op3Sub},     {"sll", Op3Sll},
      {"srl", Op3Srl},     {"sra", Op3Sra},     {"smul", Op3Smul},
      {"sdiv", Op3Sdiv},   {"srem", Op3Srem},   {"addcc", Op3AddCC},
      {"andcc", Op3AndCC}, {"orcc", Op3OrCC},   {"xorcc", Op3XorCC},
      {"subcc", Op3SubCC}};
  return Ops;
}

static const std::map<std::string, Cond> &branchOps() {
  static const std::map<std::string, Cond> Ops = {
      {"bn", CondN},     {"be", CondE},     {"ble", CondLE},
      {"bl", CondL},     {"bleu", CondLEU}, {"bcs", CondCS},
      {"bneg", CondNEG}, {"bvs", CondVS},   {"ba", CondA},
      {"bne", CondNE},   {"bg", CondG},     {"bge", CondGE},
      {"bgu", CondGU},   {"bcc", CondCC},   {"bpos", CondPOS},
      {"bvc", CondVC}};
  return Ops;
}

static const std::map<std::string, uint32_t> &memOps() {
  static const std::map<std::string, uint32_t> Ops = {
      {"ld", Op3Ld},     {"ldub", Op3Ldub}, {"lduh", Op3Lduh},
      {"ldsb", Op3Ldsb}, {"ldsh", Op3Ldsh}, {"st", Op3St},
      {"stb", Op3Stb},   {"sth", Op3Sth}};
  return Ops;
}

/// Builds the ALU/memory word for a parsed reg-or-imm operand, attaching
/// the %lo fixup when present.
static AsmInst makeFormat3(bool IsMem, uint32_t Op3, unsigned Rd, unsigned Rs1,
                           const Operand2 &Op) {
  AsmInst Inst;
  if (Op.IsReg)
    Inst.Word = IsMem ? encodeMemReg(Op3, Rd, Rs1, Op.Reg)
                      : encodeArithReg(Op3, Rd, Rs1, Op.Reg);
  else
    Inst.Word = IsMem ? encodeMemImm(Op3, Rd, Rs1, Op.Imm)
                      : encodeArithImm(Op3, Rd, Rs1, Op.Imm);
  Inst.Fix = Op.Fix;
  return Inst;
}

Expected<bool> SriscAsm::parse(const std::vector<std::string> &Tokens,
                               std::vector<AsmInst> &Out) const {
  const std::string &Mnemonic = Tokens[0];
  Cursor C(Tokens);

  // --- ALU three-operand forms ------------------------------------------
  if (auto It = arithOps().find(Mnemonic); It != arithOps().end()) {
    Expected<unsigned> Rs1 = parseReg(C.next());
    if (Rs1.hasError())
      return Rs1.error();
    if (!C.eat(","))
      return Error("expected ','");
    Expected<Operand2> Op = parseOperand2(C);
    if (Op.hasError())
      return Op.error();
    if (!C.eat(","))
      return Error("expected ','");
    Expected<unsigned> Rd = parseReg(C.next());
    if (Rd.hasError())
      return Rd.error();
    Out.push_back(makeFormat3(false, It->second, Rd.value(), Rs1.value(),
                              Op.value()));
    return true;
  }

  // --- Memory -------------------------------------------------------------
  if (auto It = memOps().find(Mnemonic); It != memOps().end()) {
    bool IsStore = It->second >= Op3St;
    unsigned Base = 0, DataReg = 0;
    Operand2 Op;
    if (IsStore) {
      Expected<unsigned> Rd = parseReg(C.next());
      if (Rd.hasError())
        return Rd.error();
      DataReg = Rd.value();
      if (!C.eat(","))
        return Error("expected ','");
      Expected<Operand2> Parsed = parseMemAddr(C, Base);
      if (Parsed.hasError())
        return Parsed.error();
      Op = Parsed.value();
    } else {
      Expected<Operand2> Parsed = parseMemAddr(C, Base);
      if (Parsed.hasError())
        return Parsed.error();
      Op = Parsed.value();
      if (!C.eat(","))
        return Error("expected ','");
      Expected<unsigned> Rd = parseReg(C.next());
      if (Rd.hasError())
        return Rd.error();
      DataReg = Rd.value();
    }
    Out.push_back(makeFormat3(true, It->second, DataReg, Base, Op));
    return true;
  }

  // --- Branches -------------------------------------------------------------
  if (auto It = branchOps().find(Mnemonic); It != branchOps().end()) {
    bool Annul = false;
    if (C.eat(",")) {
      if (!C.eat("a"))
        return Error("expected 'a' after ',' in branch");
      Annul = true;
    }
    AsmInst Inst;
    Inst.Word = encodeBicc(Annul, It->second, 0);
    std::string TargetTok = C.peek();
    if (!TargetTok.empty() &&
        !std::isdigit(static_cast<unsigned char>(TargetTok[0])) &&
        TargetTok != "-") {
      Inst.Fix.Kind = FixupKind::PcRelative;
      Inst.Fix.Symbol = C.next();
    } else {
      Expected<int64_t> Target = parseImm(C);
      if (Target.hasError())
        return Target.error();
      Inst.Fix.Kind = FixupKind::PcRelative;
      Inst.Fix.Addend = Target.value();
    }
    Out.push_back(Inst);
    return true;
  }

  // --- Everything else -------------------------------------------------------
  if (Mnemonic == "b") {
    std::vector<std::string> Rewritten = Tokens;
    Rewritten[0] = "ba";
    return parse(Rewritten, Out);
  }

  if (Mnemonic == "call") {
    AsmInst Inst;
    Inst.Word = encodeCall(0);
    std::string TargetTok = C.peek();
    if (TargetTok.empty())
      return Error("call needs a target");
    Inst.Fix.Kind = FixupKind::PcRelative;
    if (!std::isdigit(static_cast<unsigned char>(TargetTok[0])))
      Inst.Fix.Symbol = C.next();
    else {
      Expected<int64_t> Target = parseImm(C);
      if (Target.hasError())
        return Target.error();
      Inst.Fix.Addend = Target.value();
    }
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "jmpl" || Mnemonic == "jmp") {
    Expected<unsigned> Rs1 = parseReg(C.next());
    if (Rs1.hasError())
      return Rs1.error();
    Operand2 Op;
    if (C.eat("+")) {
      Expected<Operand2> Parsed = parseOperand2(C);
      if (Parsed.hasError())
        return Parsed.error();
      Op = Parsed.value();
    } else if (C.peek() == "-") {
      Expected<Operand2> Parsed = parseOperand2(C);
      if (Parsed.hasError())
        return Parsed.error();
      Op = Parsed.value();
    }
    unsigned Rd = 0;
    if (Mnemonic == "jmpl") {
      if (!C.eat(","))
        return Error("expected ',' before link register");
      Expected<unsigned> Link = parseReg(C.next());
      if (Link.hasError())
        return Link.error();
      Rd = Link.value();
    }
    AsmInst Inst;
    if (Op.IsReg)
      Inst.Word = encodeJmplReg(Rd, Rs1.value(), Op.Reg);
    else
      Inst.Word = encodeJmplImm(Rd, Rs1.value(), Op.Imm);
    Inst.Fix = Op.Fix;
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "ret") {
    AsmInst Inst;
    Inst.Word = encodeJmplImm(RegZero, RegLink, 8);
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "sethi") {
    AsmInst Inst;
    if (C.peek() == "%hi") {
      C.next();
      Expected<Fixup> Fix = parseHiLo(C, /*IsHi=*/true);
      if (Fix.hasError())
        return Fix.error();
      Inst.Fix = Fix.value();
      Inst.Word = encodeSethi(0, 0);
    } else {
      Expected<int64_t> Imm = parseImm(C);
      if (Imm.hasError())
        return Imm.error();
      if (!fitsUnsigned(static_cast<uint64_t>(Imm.value()), 22))
        return Error("sethi immediate does not fit in 22 bits");
      Inst.Word = encodeSethi(0, static_cast<uint32_t>(Imm.value()));
    }
    if (!C.eat(","))
      return Error("expected ','");
    Expected<unsigned> Rd = parseReg(C.next());
    if (Rd.hasError())
      return Rd.error();
    Inst.Word = insertBits(Inst.Word, 25, 29, Rd.value());
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "sys") {
    Expected<int64_t> Num = parseImm(C);
    if (Num.hasError())
      return Num.error();
    AsmInst Inst;
    Inst.Word = encodeSys(static_cast<unsigned>(Num.value()));
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "rdcc" || Mnemonic == "wrcc") {
    Expected<unsigned> Reg = parseReg(C.next());
    if (Reg.hasError())
      return Reg.error();
    AsmInst Inst;
    Inst.Word = Mnemonic == "rdcc" ? encodeRdCC(Reg.value())
                                   : encodeWrCC(Reg.value());
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "nop") {
    AsmInst Inst;
    Inst.Word = nop();
    Out.push_back(Inst);
    return true;
  }

  if (Mnemonic == "mov") {
    // mov reg|imm, rd  ->  or %g0, op2, rd
    Expected<Operand2> Op = parseOperand2(C);
    if (Op.hasError())
      return Op.error();
    if (!C.eat(","))
      return Error("expected ','");
    Expected<unsigned> Rd = parseReg(C.next());
    if (Rd.hasError())
      return Rd.error();
    Out.push_back(makeFormat3(false, Op3Or, Rd.value(), RegZero, Op.value()));
    return true;
  }

  if (Mnemonic == "cmp") {
    // cmp a, b  ->  subcc a, b, %g0
    Expected<unsigned> Rs1 = parseReg(C.next());
    if (Rs1.hasError())
      return Rs1.error();
    if (!C.eat(","))
      return Error("expected ','");
    Expected<Operand2> Op = parseOperand2(C);
    if (Op.hasError())
      return Op.error();
    Out.push_back(
        makeFormat3(false, Op3SubCC, RegZero, Rs1.value(), Op.value()));
    return true;
  }

  if (Mnemonic == "set") {
    // set sym|imm, rd  ->  sethi %hi(x), rd ; or rd, %lo(x), rd
    // Always expands to two words so code layout is predictable.
    std::string ValueTok = C.peek();
    if (ValueTok.empty())
      return Error("set needs a value");
    if (!C.eat(","))
      C.next(); // consume the value token; ',' checked below
    if (!C.eat(","))
      return Error("expected ','");
    Expected<unsigned> Rd = parseReg(C.next());
    if (Rd.hasError())
      return Rd.error();
    AsmInst Hi, Lo;
    Hi.Word = encodeSethi(Rd.value(), 0);
    Lo.Word = encodeArithImm(Op3Or, Rd.value(), Rd.value(), 0);
    if (!std::isdigit(static_cast<unsigned char>(ValueTok[0]))) {
      Hi.Fix.Kind = FixupKind::ImmHi;
      Hi.Fix.Symbol = ValueTok;
      Lo.Fix.Kind = FixupKind::ImmLo;
      Lo.Fix.Symbol = ValueTok;
    } else {
      // Constant: compute directly.
      int64_t Value = 0;
      if (ValueTok.size() > 2 && (ValueTok[1] == 'x' || ValueTok[1] == 'X')) {
        for (size_t I = 2; I < ValueTok.size(); ++I) {
          char Ch = static_cast<char>(
              std::tolower(static_cast<unsigned char>(ValueTok[I])));
          Value = Value * 16 + (Ch <= '9' ? Ch - '0' : Ch - 'a' + 10);
        }
      } else {
        for (char Ch : ValueTok)
          Value = Value * 10 + (Ch - '0');
      }
      Hi.Word = encodeSethi(Rd.value(), static_cast<uint32_t>(Value) >> 10);
      Lo.Word = encodeArithImm(Op3Or, Rd.value(), Rd.value(),
                               static_cast<int32_t>(Value & 0x3FF));
    }
    Out.push_back(Hi);
    Out.push_back(Lo);
    return true;
  }

  return Error("unknown mnemonic '" + Mnemonic + "'");
}

const InstParser &eel::asmkit::sriscInstParser() {
  static SriscAsm Parser;
  return Parser;
}
