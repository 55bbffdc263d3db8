//===- spawn/Rtl.cpp - Register-transfer-level IR --------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "spawn/Rtl.h"

#include <map>

using namespace eel;
using namespace eel::spawn;

ExprP Expr::makeConst(int64_t V) {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Const;
  E->IntVal = V;
  return E;
}

ExprP Expr::makeField(std::string Name) {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Field;
  E->Name = std::move(Name);
  return E;
}

ExprP Expr::makeReg(unsigned FileIndex, ExprP Index) {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Reg;
  E->FileIndex = FileIndex;
  if (Index)
    E->Args.push_back(std::move(Index));
  return E;
}

ExprP Expr::makePc() {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Pc;
  return E;
}

ExprP Expr::makeMem(ExprP AddrExpr, unsigned Width, bool SignExtend) {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Mem;
  E->Args.push_back(std::move(AddrExpr));
  E->MemWidth = Width;
  E->MemSignExtend = SignExtend;
  return E;
}

ExprP Expr::makeBinary(RtlBinOp Op, ExprP L, ExprP R) {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Binary;
  E->Op = Op;
  E->Args.push_back(std::move(L));
  E->Args.push_back(std::move(R));
  return E;
}

ExprP Expr::makeTernary(ExprP C, ExprP T, ExprP F) {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Ternary;
  E->Args.push_back(std::move(C));
  E->Args.push_back(std::move(T));
  E->Args.push_back(std::move(F));
  return E;
}

ExprP Expr::makeApply(RtlFn Fn, std::vector<ExprP> Args) {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Apply;
  E->Fn = Fn;
  E->Args = std::move(Args);
  return E;
}

ExprP Expr::makeLocal(std::string Name) {
  auto E = std::make_shared<Expr>();
  E->K = Kind::Local;
  E->Name = std::move(Name);
  return E;
}

bool spawn::lookupRtlFn(const std::string &Name, RtlFn &Out) {
  static const std::map<std::string, RtlFn> Table = {
      {"add", RtlFn::Add},         {"sub", RtlFn::Sub},
      {"and", RtlFn::And},         {"or", RtlFn::Or},
      {"xor", RtlFn::Xor},         {"sll", RtlFn::Sll},
      {"srl", RtlFn::Srl},         {"sra", RtlFn::Sra},
      {"mul", RtlFn::Mul},         {"div", RtlFn::Div},
      {"rem", RtlFn::Rem},         {"setless", RtlFn::SetLess},
      {"eq", RtlFn::Eq},           {"ne", RtlFn::Ne},
      {"les", RtlFn::Les},         {"gts", RtlFn::Gts},
      {"cc_add", RtlFn::CcAdd},    {"cc_sub", RtlFn::CcSub},
      {"cc_and", RtlFn::CcAnd},    {"cc_or", RtlFn::CcOr},
      {"cc_xor", RtlFn::CcXor},    {"cond_e", RtlFn::CondE},
      {"cond_le", RtlFn::CondLe},  {"cond_l", RtlFn::CondL},
      {"cond_leu", RtlFn::CondLeu},{"cond_cs", RtlFn::CondCs},
      {"cond_neg", RtlFn::CondNeg},{"cond_vs", RtlFn::CondVs},
      {"cond_ne", RtlFn::CondNe},  {"cond_g", RtlFn::CondG},
      {"cond_ge", RtlFn::CondGe},  {"cond_gu", RtlFn::CondGu},
      {"cond_cc", RtlFn::CondCc},  {"cond_pos", RtlFn::CondPos},
      {"cond_vc", RtlFn::CondVc},  {"sx", RtlFn::Sx}};
  auto It = Table.find(Name);
  if (It == Table.end())
    return false;
  Out = It->second;
  return true;
}

static const char *fnName(RtlFn Fn) {
  switch (Fn) {
  case RtlFn::Add: return "add";
  case RtlFn::Sub: return "sub";
  case RtlFn::And: return "and";
  case RtlFn::Or: return "or";
  case RtlFn::Xor: return "xor";
  case RtlFn::Sll: return "sll";
  case RtlFn::Srl: return "srl";
  case RtlFn::Sra: return "sra";
  case RtlFn::Mul: return "mul";
  case RtlFn::Div: return "div";
  case RtlFn::Rem: return "rem";
  case RtlFn::SetLess: return "setless";
  case RtlFn::Eq: return "eq";
  case RtlFn::Ne: return "ne";
  case RtlFn::Les: return "les";
  case RtlFn::Gts: return "gts";
  case RtlFn::CcAdd: return "cc_add";
  case RtlFn::CcSub: return "cc_sub";
  case RtlFn::CcAnd: return "cc_and";
  case RtlFn::CcOr: return "cc_or";
  case RtlFn::CcXor: return "cc_xor";
  case RtlFn::CondE: return "cond_e";
  case RtlFn::CondLe: return "cond_le";
  case RtlFn::CondL: return "cond_l";
  case RtlFn::CondLeu: return "cond_leu";
  case RtlFn::CondCs: return "cond_cs";
  case RtlFn::CondNeg: return "cond_neg";
  case RtlFn::CondVs: return "cond_vs";
  case RtlFn::CondNe: return "cond_ne";
  case RtlFn::CondG: return "cond_g";
  case RtlFn::CondGe: return "cond_ge";
  case RtlFn::CondGu: return "cond_gu";
  case RtlFn::CondCc: return "cond_cc";
  case RtlFn::CondPos: return "cond_pos";
  case RtlFn::CondVc: return "cond_vc";
  case RtlFn::Sx: return "sx";
  }
  return "?";
}

static const char *binOpName(RtlBinOp Op) {
  switch (Op) {
  case RtlBinOp::Add: return "+";
  case RtlBinOp::Sub: return "-";
  case RtlBinOp::Mul: return "*";
  case RtlBinOp::And: return "&";
  case RtlBinOp::Or: return "|";
  case RtlBinOp::Xor: return "^";
  case RtlBinOp::Shl: return "<<";
  case RtlBinOp::Eq: return "=";
  case RtlBinOp::Ne: return "!=";
  }
  return "?";
}

std::string spawn::printExpr(const Expr &E,
                             const std::vector<std::string> &RegFileNames) {
  switch (E.K) {
  case Expr::Kind::Const:
    return std::to_string(E.IntVal);
  case Expr::Kind::Field:
  case Expr::Kind::Local:
    return E.Name;
  case Expr::Kind::Pc:
    return "PC";
  case Expr::Kind::Reg: {
    std::string Name = E.FileIndex < RegFileNames.size()
                           ? RegFileNames[E.FileIndex]
                           : "REG";
    if (E.Args.empty())
      return Name;
    return Name + "[" + printExpr(*E.Args[0], RegFileNames) + "]";
  }
  case Expr::Kind::Mem:
    return "mem(" + printExpr(*E.Args[0], RegFileNames) + ", " +
           std::to_string(E.MemWidth) + (E.MemSignExtend ? ", 1)" : ")");
  case Expr::Kind::Binary:
    // std::string first: at -O3, GCC 12 reports a false -Wrestrict
    // overlap for "literal" + std::string&&.
    return std::string("(") + printExpr(*E.Args[0], RegFileNames) + " " +
           binOpName(E.Op) + " " + printExpr(*E.Args[1], RegFileNames) + ")";
  case Expr::Kind::Ternary:
    return std::string("(") + printExpr(*E.Args[0], RegFileNames) + " ? " +
           printExpr(*E.Args[1], RegFileNames) + " : " +
           printExpr(*E.Args[2], RegFileNames) + ")";
  case Expr::Kind::Apply: {
    std::string S = std::string(fnName(E.Fn)) + "(";
    for (size_t I = 0; I < E.Args.size(); ++I) {
      if (I)
        S += ", ";
      S += printExpr(*E.Args[I], RegFileNames);
    }
    return S + ")";
  }
  }
  return "?";
}

std::string spawn::printStmt(const Stmt &S,
                             const std::vector<std::string> &RegFileNames,
                             unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  switch (S.K) {
  case Stmt::Kind::Skip:
    return Pad + "skip";
  case Stmt::Kind::Annul:
    return Pad + "annul";
  case Stmt::Kind::Trap:
    return Pad + "trap " + printExpr(*S.Rhs, RegFileNames);
  case Stmt::Kind::AssignLocal:
    return Pad + S.Name + " := " + printExpr(*S.Rhs, RegFileNames);
  case Stmt::Kind::AssignPc:
    return Pad + "pc := " + printExpr(*S.Rhs, RegFileNames);
  case Stmt::Kind::AssignReg:
  case Stmt::Kind::AssignMem:
    return Pad + printExpr(*S.Lhs, RegFileNames) + " := " +
           printExpr(*S.Rhs, RegFileNames);
  case Stmt::Kind::Guard: {
    std::string Out = Pad + printExpr(*S.Cond, RegFileNames) + " ?\n";
    for (const StmtP &T : S.Then)
      Out += printStmt(*T, RegFileNames, Indent + 1) + "\n";
    if (!S.Else.empty()) {
      Out += Pad + ":\n";
      for (const StmtP &E : S.Else)
        Out += printStmt(*E, RegFileNames, Indent + 1) + "\n";
    }
    if (!Out.empty() && Out.back() == '\n')
      Out.pop_back();
    return Out;
  }
  }
  return Pad + "?";
}
