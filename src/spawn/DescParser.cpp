//===- spawn/DescParser.cpp - Machine-description parser -------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the spawn description language into a MachineDesc. The language
/// (modelled on Figure 7 of the paper):
///
///   arch NAME
///   wordsize N
///   fields  name lo:hi (, name lo:hi)*
///   register TYPE{W} NAME            -- single register
///   register TYPE{W} NAME[N]         -- register file
///   zero NAME[K]                     -- hard-zero register
///   pat NAME is f=V && g=V ...       -- encoding pattern
///   pat [A B C] is f=[1 2 3] && g=V  -- pattern matrix (element-wise)
///   val NAME(params) is TOKENS       -- semantic function (token macro)
///   sem NAME is STMTS                -- bind semantics
///   sem [A B] is FN @ [x y]          -- bind by zipping FN over arguments
///
/// Semantic statements: `lhs := e`, `cond ? stmt : stmt`, `annul`,
/// `trap e`, `skip`; `,` separates parallel statements and `;` separates
/// issue-time statements from the delayed control transfer. `val` macros
/// expand textually (hygienically parenthesized for expression macros), as
/// the paper's lambda-bindings do.
///
//===----------------------------------------------------------------------===//

#include "spawn/MachineDesc.h"

#include "spawn/Lexer.h"
#include "support/BitOps.h"

#include <set>

using namespace eel;
using namespace eel::spawn;

namespace {

const std::set<std::string> &clauseKeywords() {
  static const std::set<std::string> Keywords = {
      "arch", "wordsize", "fields", "register", "zero", "pat", "val", "sem"};
  return Keywords;
}

struct MacroDef {
  std::string Name;
  std::vector<std::string> Params;
  std::vector<Token> Body;
  bool IsStatement = false; ///< Body contains ':=' (assignments).
};

/// Expands macro references and parameter substitutions in a token stream.
/// Expression-valued macros and multi-token arguments are wrapped in
/// parentheses to preserve precedence.
Expected<std::vector<Token>>
expandTokens(const std::vector<Token> &In,
             const std::map<std::string, MacroDef> &Macros,
             const std::map<std::string, std::vector<Token>> &Subst,
             int Depth) {
  if (Depth > 32)
    return Error("machine description: macro expansion too deep (cycle?)");
  std::vector<Token> Out;
  auto Paren = [](const Token &Like, const char *Text) {
    Token T;
    T.Kind = TokKind::Punct;
    T.Text = Text;
    T.Line = Like.Line;
    return T;
  };

  for (size_t I = 0; I < In.size(); ++I) {
    const Token &T = In[I];
    if (T.Kind != TokKind::Ident) {
      Out.push_back(T);
      continue;
    }
    if (auto It = Subst.find(T.Text); It != Subst.end()) {
      const std::vector<Token> &Arg = It->second;
      if (Arg.size() > 1)
        Out.push_back(Paren(T, "("));
      Out.insert(Out.end(), Arg.begin(), Arg.end());
      if (Arg.size() > 1)
        Out.push_back(Paren(T, ")"));
      continue;
    }
    auto MacroIt = Macros.find(T.Text);
    if (MacroIt == Macros.end()) {
      Out.push_back(T);
      continue;
    }
    const MacroDef &Macro = MacroIt->second;
    // Collect call arguments if present.
    std::vector<std::vector<Token>> Args;
    if (I + 1 < In.size() && In[I + 1].is("(")) {
      size_t J = I + 2;
      int Balance = 1;
      std::vector<Token> Current;
      for (; J < In.size(); ++J) {
        const Token &A = In[J];
        if (A.is("("))
          ++Balance;
        else if (A.is(")")) {
          --Balance;
          if (Balance == 0)
            break;
        }
        if (A.is(",") && Balance == 1) {
          Args.push_back(Current);
          Current.clear();
          continue;
        }
        Current.push_back(A);
      }
      if (Balance != 0)
        return Error("machine description line " + std::to_string(T.Line) +
                     ": unbalanced parentheses in call to '" + T.Text + "'");
      Args.push_back(Current);
      I = J; // consume through ')'
    }
    if (Args.size() != Macro.Params.size())
      return Error("machine description line " + std::to_string(T.Line) +
                   ": '" + T.Text + "' expects " +
                   std::to_string(Macro.Params.size()) + " argument(s), got " +
                   std::to_string(Args.size()));
    std::map<std::string, std::vector<Token>> Inner;
    for (size_t K = 0; K < Args.size(); ++K) {
      Expected<std::vector<Token>> Expanded =
          expandTokens(Args[K], Macros, Subst, Depth + 1);
      if (Expanded.hasError())
        return Expanded.error();
      Inner[Macro.Params[K]] = Expanded.takeValue();
    }
    Expected<std::vector<Token>> Body =
        expandTokens(Macro.Body, Macros, Inner, Depth + 1);
    if (Body.hasError())
      return Body.error();
    std::vector<Token> BodyTokens = Body.takeValue();
    if (!Macro.IsStatement)
      Out.push_back(Paren(T, "("));
    Out.insert(Out.end(), BodyTokens.begin(), BodyTokens.end());
    if (!Macro.IsStatement)
      Out.push_back(Paren(T, ")"));
  }
  return Out;
}

/// Recursive-descent parser for RTL statement lists over expanded tokens.
class RtlParser {
public:
  RtlParser(std::vector<Token> Tokens, const MachineDesc &Desc)
      : Toks(std::move(Tokens)), Desc(Desc) {}

  Expected<Semantics> parseDelaySem();

private:
  const Token &peek(unsigned Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  Token next() { return Pos < Toks.size() ? Toks[Pos++] : Toks.back(); }
  bool eat(const char *S) {
    if (!peek().is(S))
      return false;
    ++Pos;
    return true;
  }
  bool atEnd() const {
    return Pos >= Toks.size() || Toks[Pos].Kind == TokKind::End;
  }
  Error err(const std::string &Message) const {
    return Error("machine description line " + std::to_string(peek().Line) +
                 ": " + Message);
  }

  Expected<std::vector<StmtP>> parseStmtList();
  Expected<StmtP> parseStmt();
  Expected<ExprP> parseExpr(bool AllowTernary);
  Expected<ExprP> parseOr(bool AllowTernary);
  Expected<ExprP> parseXor(bool AllowTernary);
  Expected<ExprP> parseAnd(bool AllowTernary);
  Expected<ExprP> parseEq(bool AllowTernary);
  Expected<ExprP> parseShift(bool AllowTernary);
  Expected<ExprP> parseAdd(bool AllowTernary);
  Expected<ExprP> parseMul(bool AllowTernary);
  Expected<ExprP> parseUnary();
  Expected<ExprP> parsePrimary();

  std::vector<Token> Toks;
  const MachineDesc &Desc;
  size_t Pos = 0;
};

} // namespace

Expected<Semantics> RtlParser::parseDelaySem() {
  Semantics Sem;
  Expected<std::vector<StmtP>> Before = parseStmtList();
  if (Before.hasError())
    return Before.error();
  Sem.Before = Before.takeValue();
  if (eat(";")) {
    Sem.HasDelayMark = true;
    Expected<std::vector<StmtP>> After = parseStmtList();
    if (After.hasError())
      return After.error();
    Sem.After = After.takeValue();
  }
  if (!atEnd())
    return err("unexpected '" + peek().Text + "' after semantics");
  return Sem;
}

Expected<std::vector<StmtP>> RtlParser::parseStmtList() {
  std::vector<StmtP> Stmts;
  for (;;) {
    Expected<StmtP> S = parseStmt();
    if (S.hasError())
      return S.error();
    Stmts.push_back(S.takeValue());
    if (!eat(","))
      break;
  }
  return Stmts;
}

Expected<StmtP> RtlParser::parseStmt() {
  auto Make = [] { return std::make_shared<Stmt>(); };
  if (eat("(")) {
    // Parenthesized statement (a statement-macro expansion artifact is not
    // expected here, but accept `( stmt )` for symmetry).
    Expected<StmtP> Inner = parseStmt();
    if (Inner.hasError())
      return Inner;
    if (!eat(")"))
      return err("expected ')' after statement");
    return Inner;
  }
  if (peek().isIdent()) {
    if (peek().is("skip")) {
      next();
      auto S = Make();
      S->K = Stmt::Kind::Skip;
      return StmtP(S);
    }
    if (peek().is("annul")) {
      next();
      auto S = Make();
      S->K = Stmt::Kind::Annul;
      return StmtP(S);
    }
    if (peek().is("trap")) {
      next();
      Expected<ExprP> E = parseExpr(/*AllowTernary=*/false);
      if (E.hasError())
        return E.error();
      auto S = Make();
      S->K = Stmt::Kind::Trap;
      S->Rhs = E.takeValue();
      return StmtP(S);
    }
  }
  Expected<ExprP> Head = parseExpr(/*AllowTernary=*/false);
  if (Head.hasError())
    return Head.error();
  ExprP E = Head.takeValue();
  if (eat(":=")) {
    Expected<ExprP> Rhs = parseExpr(/*AllowTernary=*/false);
    if (Rhs.hasError())
      return Rhs.error();
    auto S = Make();
    S->Rhs = Rhs.takeValue();
    switch (E->K) {
    case Expr::Kind::Reg:
      S->K = Stmt::Kind::AssignReg;
      S->Lhs = E;
      return StmtP(S);
    case Expr::Kind::Pc:
      S->K = Stmt::Kind::AssignPc;
      return StmtP(S);
    case Expr::Kind::Mem:
      S->K = Stmt::Kind::AssignMem;
      S->Lhs = E;
      return StmtP(S);
    case Expr::Kind::Local:
      S->K = Stmt::Kind::AssignLocal;
      S->Name = E->Name;
      return StmtP(S);
    default:
      return err("left side of ':=' must be a register, pc, memory, or a "
                 "temporary");
    }
  }
  if (eat("?")) {
    auto S = Make();
    S->K = Stmt::Kind::Guard;
    S->Cond = E;
    Expected<StmtP> Then = parseStmt();
    if (Then.hasError())
      return Then;
    S->Then.push_back(Then.takeValue());
    if (eat(":")) {
      Expected<StmtP> Else = parseStmt();
      if (Else.hasError())
        return Else;
      S->Else.push_back(Else.takeValue());
    }
    return StmtP(S);
  }
  return err("expected ':=' or '?' in statement");
}

Expected<ExprP> RtlParser::parseExpr(bool AllowTernary) {
  Expected<ExprP> L = parseOr(AllowTernary);
  if (L.hasError() || !AllowTernary || !peek().is("?"))
    return L;
  next(); // '?'
  Expected<ExprP> T = parseExpr(true);
  if (T.hasError())
    return T;
  if (!eat(":"))
    return err("expected ':' in conditional expression");
  Expected<ExprP> F = parseExpr(true);
  if (F.hasError())
    return F;
  return Expr::makeTernary(L.takeValue(), T.takeValue(), F.takeValue());
}

Expected<ExprP> RtlParser::parseOr(bool AllowTernary) {
  Expected<ExprP> L = parseXor(AllowTernary);
  while (L.hasValue() && peek().is("|")) {
    next();
    Expected<ExprP> R = parseXor(AllowTernary);
    if (R.hasError())
      return R;
    L = Expr::makeBinary(RtlBinOp::Or, L.takeValue(), R.takeValue());
  }
  return L;
}

Expected<ExprP> RtlParser::parseXor(bool AllowTernary) {
  Expected<ExprP> L = parseAnd(AllowTernary);
  while (L.hasValue() && peek().is("^")) {
    next();
    Expected<ExprP> R = parseAnd(AllowTernary);
    if (R.hasError())
      return R;
    L = Expr::makeBinary(RtlBinOp::Xor, L.takeValue(), R.takeValue());
  }
  return L;
}

Expected<ExprP> RtlParser::parseAnd(bool AllowTernary) {
  Expected<ExprP> L = parseEq(AllowTernary);
  while (L.hasValue() && peek().is("&")) {
    next();
    Expected<ExprP> R = parseEq(AllowTernary);
    if (R.hasError())
      return R;
    L = Expr::makeBinary(RtlBinOp::And, L.takeValue(), R.takeValue());
  }
  return L;
}

Expected<ExprP> RtlParser::parseEq(bool AllowTernary) {
  Expected<ExprP> L = parseShift(AllowTernary);
  if (L.hasError())
    return L;
  if (peek().is("=") || peek().is("!=")) {
    RtlBinOp Op = peek().is("=") ? RtlBinOp::Eq : RtlBinOp::Ne;
    next();
    Expected<ExprP> R = parseShift(AllowTernary);
    if (R.hasError())
      return R;
    return Expr::makeBinary(Op, L.takeValue(), R.takeValue());
  }
  return L;
}

Expected<ExprP> RtlParser::parseShift(bool AllowTernary) {
  Expected<ExprP> L = parseAdd(AllowTernary);
  while (L.hasValue() && peek().is("<<")) {
    next();
    Expected<ExprP> R = parseAdd(AllowTernary);
    if (R.hasError())
      return R;
    L = Expr::makeBinary(RtlBinOp::Shl, L.takeValue(), R.takeValue());
  }
  return L;
}

Expected<ExprP> RtlParser::parseAdd(bool AllowTernary) {
  Expected<ExprP> L = parseMul(AllowTernary);
  while (L.hasValue() && (peek().is("+") || peek().is("-"))) {
    RtlBinOp Op = peek().is("+") ? RtlBinOp::Add : RtlBinOp::Sub;
    next();
    Expected<ExprP> R = parseMul(AllowTernary);
    if (R.hasError())
      return R;
    L = Expr::makeBinary(Op, L.takeValue(), R.takeValue());
  }
  return L;
}

Expected<ExprP> RtlParser::parseMul(bool AllowTernary) {
  Expected<ExprP> L = parseUnary();
  while (L.hasValue() && peek().is("*")) {
    next();
    Expected<ExprP> R = parseUnary();
    if (R.hasError())
      return R;
    L = Expr::makeBinary(RtlBinOp::Mul, L.takeValue(), R.takeValue());
  }
  (void)AllowTernary;
  return L;
}

Expected<ExprP> RtlParser::parseUnary() {
  if (eat("-")) {
    Expected<ExprP> E = parseUnary();
    if (E.hasError())
      return E;
    return Expr::makeBinary(RtlBinOp::Sub, Expr::makeConst(0), E.takeValue());
  }
  if (eat("~")) {
    Expected<ExprP> E = parseUnary();
    if (E.hasError())
      return E;
    return Expr::makeBinary(RtlBinOp::Xor, E.takeValue(),
                            Expr::makeConst(-1));
  }
  return parsePrimary();
}

Expected<ExprP> RtlParser::parsePrimary() {
  const Token &T = peek();
  if (T.isNumber()) {
    next();
    return Expr::makeConst(T.Value);
  }
  if (T.is("(")) {
    next();
    Expected<ExprP> E = parseExpr(/*AllowTernary=*/true);
    if (E.hasError())
      return E;
    if (!eat(")"))
      return err("expected ')'");
    return E;
  }
  if (!T.isIdent())
    return err("unexpected '" + T.Text + "' in expression");
  std::string Name = next().Text;

  if (Name == "PC" || Name == "pc")
    return Expr::makePc();

  if (Name == "mem") {
    if (!eat("("))
      return err("expected '(' after mem");
    Expected<ExprP> AddrE = parseExpr(true);
    if (AddrE.hasError())
      return AddrE;
    if (!eat(","))
      return err("expected ',' in mem()");
    const Token &WidthTok = peek();
    if (!WidthTok.isNumber())
      return err("mem() width must be a constant");
    unsigned Width = static_cast<unsigned>(next().Value);
    bool SignExtend = false;
    if (eat(",")) {
      const Token &SxTok = peek();
      if (!SxTok.isNumber())
        return err("mem() sign-extend flag must be a constant");
      SignExtend = next().Value != 0;
    }
    if (!eat(")"))
      return err("expected ')' after mem()");
    return Expr::makeMem(AddrE.takeValue(), Width, SignExtend);
  }

  // Register file?
  for (unsigned FI = 0; FI < Desc.RegFiles.size(); ++FI) {
    if (Desc.RegFiles[FI].Name != Name)
      continue;
    if (Desc.RegFiles[FI].Count == 0)
      return Expr::makeReg(FI, nullptr);
    if (!eat("["))
      return err("register file '" + Name + "' needs an index");
    Expected<ExprP> Index = parseExpr(true);
    if (Index.hasError())
      return Index;
    if (!eat("]"))
      return err("expected ']' after register index");
    return Expr::makeReg(FI, Index.takeValue());
  }

  // Instruction field?
  if (Desc.field(Name))
    return Expr::makeField(Name);

  // Builtin function?
  RtlFn Fn;
  if (lookupRtlFn(Name, Fn)) {
    if (!eat("("))
      return err("builtin '" + Name + "' must be called");
    std::vector<ExprP> Args;
    if (!peek().is(")")) {
      for (;;) {
        Expected<ExprP> Arg = parseExpr(true);
        if (Arg.hasError())
          return Arg;
        Args.push_back(Arg.takeValue());
        if (!eat(","))
          break;
      }
    }
    if (!eat(")"))
      return err("expected ')' after builtin arguments");
    if (Fn == RtlFn::Sx &&
        (Args.size() != 1 || Args[0]->K != Expr::Kind::Field))
      return err("sx() takes exactly one instruction field");
    return Expr::makeApply(Fn, std::move(Args));
  }

  // Otherwise a local temporary reference.
  return Expr::makeLocal(Name);
}

// --- MachineDesc methods -------------------------------------------------------

const FieldDef *MachineDesc::field(const std::string &Name) const {
  for (const FieldDef &F : Fields)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

uint32_t MachineDesc::fieldValue(const FieldDef &F, MachWord Word) const {
  return extractBits(Word, F.Lo, F.Hi);
}

std::vector<std::string> MachineDesc::regFileNames() const {
  std::vector<std::string> Names;
  for (const RegFileDef &RF : RegFiles)
    Names.push_back(RF.Name);
  return Names;
}

int MachineDesc::decodeLinear(MachWord Word) const {
  if (BucketFieldIndex >= 0) {
    const FieldDef &F = Fields[BucketFieldIndex];
    auto It = Buckets.find(fieldValue(F, Word));
    if (It == Buckets.end())
      return -1;
    for (int Index : It->second)
      if ((Word & Patterns[Index].Mask) == Patterns[Index].Match)
        return Index;
    return -1;
  }
  for (size_t I = 0; I < Patterns.size(); ++I)
    if ((Word & Patterns[I].Mask) == Patterns[I].Match)
      return static_cast<int>(I);
  return -1;
}

Expected<bool> MachineDesc::finalize() {
  // Every pattern needs semantics.
  for (const InstPattern &P : Patterns)
    if (P.SemIndex < 0)
      return Error("machine description: pattern '" + P.Name +
                   "' has no semantics");
  // Patterns must be pairwise disjoint: two patterns may not match the same
  // word. Overlap exists iff they agree on every commonly constrained bit.
  for (size_t I = 0; I < Patterns.size(); ++I) {
    for (size_t J = I + 1; J < Patterns.size(); ++J) {
      uint32_t Common = Patterns[I].Mask & Patterns[J].Mask;
      if ((Patterns[I].Match & Common) == (Patterns[J].Match & Common))
        return Error("machine description: patterns '" + Patterns[I].Name +
                     "' and '" + Patterns[J].Name + "' overlap");
    }
  }
  // Find a field constrained by every pattern to bucket the decoder.
  for (size_t FI = 0; FI < Fields.size(); ++FI) {
    bool InAll = !Patterns.empty();
    for (const InstPattern &P : Patterns) {
      bool Found = false;
      for (const PatternConstraint &C : P.Constraints)
        if (C.Field == Fields[FI].Name)
          Found = true;
      if (!Found) {
        InAll = false;
        break;
      }
    }
    if (InAll) {
      BucketFieldIndex = static_cast<int>(FI);
      break;
    }
  }
  if (BucketFieldIndex >= 0) {
    for (size_t PI = 0; PI < Patterns.size(); ++PI) {
      for (const PatternConstraint &C : Patterns[PI].Constraints)
        if (C.Field == Fields[BucketFieldIndex].Name)
          Buckets[C.Value].push_back(static_cast<int>(PI));
    }
  }
  buildDecodeProgram();
  return true;
}

void MachineDesc::buildDecodeProgram() {
  DecodeProgram.clear();
  if (Patterns.size() < 2)
    return;

  // Recursive splitter in the binutils opcodes style: at each node pick the
  // most discriminating field constrained by *every* pattern in the subset
  // and expand a dense 2^width child table over its values. Subsets that no
  // unused field separates fall back to a small scan node.
  struct Builder {
    MachineDesc &D;

    uint32_t constraintOn(int PI, size_t FI, bool &Found) const {
      for (const PatternConstraint &C : D.Patterns[PI].Constraints)
        if (C.Field == D.Fields[FI].Name) {
          Found = true;
          return C.Value;
        }
      Found = false;
      return 0;
    }

    /// Returns the entry value encoding this subset: a leaf, a child-node
    /// reference, or a scan node when no field splits it.
    int32_t build(const std::vector<int> &Subset, uint64_t UsedFields) {
      if (Subset.empty())
        return -1;
      if (Subset.size() == 1)
        return Subset[0];
      // Pick the unused field constrained by all patterns here with the
      // most distinct values; cap the width so tables stay dense.
      int Best = -1;
      size_t BestDistinct = 1;
      for (size_t FI = 0; FI < D.Fields.size() && FI < 64; ++FI) {
        if ((UsedFields >> FI) & 1)
          continue;
        if (D.Fields[FI].width() > 12)
          continue;
        std::set<uint32_t> Values;
        bool InAll = true;
        for (int PI : Subset) {
          bool Found = false;
          uint32_t V = constraintOn(PI, FI, Found);
          if (!Found) {
            InAll = false;
            break;
          }
          Values.insert(V);
        }
        if (InAll && Values.size() > BestDistinct) {
          BestDistinct = Values.size();
          Best = static_cast<int>(FI);
        }
      }
      if (Best < 0) {
        int32_t Node = static_cast<int32_t>(D.DecodeProgram.size());
        D.DecodeProgram.push_back(-static_cast<int32_t>(Subset.size()));
        for (int PI : Subset)
          D.DecodeProgram.push_back(PI);
        return -(Node + 2);
      }
      const FieldDef &F = D.Fields[Best];
      unsigned Width = F.width();
      int32_t Node = static_cast<int32_t>(D.DecodeProgram.size());
      D.DecodeProgram.push_back(
          static_cast<int32_t>((F.Lo << 8) | Width));
      size_t Base = D.DecodeProgram.size();
      D.DecodeProgram.resize(Base + (size_t(1) << Width), -1);
      std::map<uint32_t, std::vector<int>> Groups;
      for (int PI : Subset) {
        bool Found = false;
        Groups[constraintOn(PI, Best, Found)].push_back(PI);
      }
      for (const auto &[Value, Group] : Groups)
        D.DecodeProgram[Base + Value] =
            build(Group, UsedFields | (uint64_t(1) << Best));
      return -(Node + 2);
    }
  };

  std::vector<int> All(Patterns.size());
  for (size_t I = 0; I < All.size(); ++I)
    All[I] = static_cast<int>(I);
  Builder B{*this};
  B.build(All, 0);
}

// --- Clause parser --------------------------------------------------------------

namespace {

/// Driver that walks clauses and assembles the MachineDesc.
class DescParser {
public:
  explicit DescParser(std::vector<Token> Tokens) : Toks(std::move(Tokens)) {}

  Expected<std::shared_ptr<MachineDesc>> run();

private:
  const Token &peek(unsigned Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  Token next() { return Pos < Toks.size() ? Toks[Pos++] : Toks.back(); }
  bool eat(const char *S) {
    if (!peek().is(S))
      return false;
    ++Pos;
    return true;
  }
  bool atClauseStart() const {
    const Token &T = peek();
    return T.Kind == TokKind::End ||
           (T.isIdent() && T.StartOfLine && clauseKeywords().count(T.Text));
  }
  Error err(const std::string &Message) const {
    return Error("machine description line " + std::to_string(peek().Line) +
                 ": " + Message);
  }

  /// Collects raw tokens until the next clause boundary.
  std::vector<Token> collectBody() {
    std::vector<Token> Body;
    while (!atClauseStart())
      Body.push_back(next());
    return Body;
  }

  Expected<std::vector<std::string>> parseNameList();
  Expected<bool> parseFields();
  Expected<bool> parseRegister();
  Expected<bool> parsePat();
  Expected<bool> parseVal();
  Expected<bool> parseSem();

  Expected<bool> bindSemantics(const std::string &PatternName,
                               std::vector<Token> Body);

  std::vector<Token> Toks;
  size_t Pos = 0;
  std::shared_ptr<MachineDesc> Desc = std::make_shared<MachineDesc>();
  std::map<std::string, MacroDef> Macros;
  unsigned NextRegId = 0;
};

} // namespace

Expected<std::vector<std::string>> DescParser::parseNameList() {
  std::vector<std::string> Names;
  if (eat("[")) {
    while (!peek().is("]")) {
      if (!peek().isIdent())
        return err("expected a name in list");
      Names.push_back(next().Text);
    }
    next(); // ']'
    if (Names.empty())
      return err("empty name list");
    return Names;
  }
  if (!peek().isIdent())
    return err("expected a name");
  Names.push_back(next().Text);
  return Names;
}

Expected<bool> DescParser::parseFields() {
  for (;;) {
    if (atClauseStart())
      break;
    if (!peek().isIdent())
      return err("expected a field name");
    FieldDef F;
    F.Name = next().Text;
    if (!peek().isNumber())
      return err("expected field low bit");
    F.Lo = static_cast<unsigned>(next().Value);
    if (!eat(":"))
      return err("expected ':' in field range");
    if (!peek().isNumber())
      return err("expected field high bit");
    F.Hi = static_cast<unsigned>(next().Value);
    if (F.Lo > F.Hi || F.Hi > 31)
      return err("malformed bit range for field '" + F.Name + "'");
    if (Desc->field(F.Name))
      return err("duplicate field '" + F.Name + "'");
    Desc->Fields.push_back(F);
    if (!eat(","))
      break;
  }
  return true;
}

Expected<bool> DescParser::parseRegister() {
  if (!peek().isIdent())
    return err("expected a register type name");
  next(); // type name (int, cc, ...) is documentation only
  if (!eat("{"))
    return err("expected '{' in register declaration");
  if (!peek().isNumber())
    return err("expected register width");
  unsigned Width = static_cast<unsigned>(next().Value);
  if (!eat("}"))
    return err("expected '}' in register declaration");
  if (!peek().isIdent())
    return err("expected a register name");
  RegFileDef RF;
  RF.Name = next().Text;
  RF.Width = Width;
  if (eat("[")) {
    if (!peek().isNumber())
      return err("expected register count");
    RF.Count = static_cast<unsigned>(next().Value);
    if (!eat("]"))
      return err("expected ']' in register declaration");
    RF.BaseId = NextRegId;
    NextRegId += RF.Count;
  } else {
    RF.Count = 0;
    RF.BaseId = NextRegId >= 32 ? NextRegId : 32; // singles start at id 32
    NextRegId = RF.BaseId + 1;
  }
  Desc->RegFiles.push_back(RF);
  return true;
}

Expected<bool> DescParser::parsePat() {
  Expected<std::vector<std::string>> Names = parseNameList();
  if (Names.hasError())
    return Names.error();
  if (!eat("is"))
    return err("expected 'is' in pattern");
  size_t Count = Names.value().size();

  // Per-name constraint values.
  std::vector<std::vector<PatternConstraint>> All(Count);
  for (;;) {
    if (!peek().isIdent())
      return err("expected a field name in pattern constraint");
    std::string FieldName = next().Text;
    const FieldDef *F = Desc->field(FieldName);
    if (!F)
      return err("unknown field '" + FieldName + "' in pattern");
    if (!eat("="))
      return err("expected '=' in pattern constraint");
    std::vector<uint32_t> Values;
    if (eat("[")) {
      while (!peek().is("]")) {
        if (!peek().isNumber())
          return err("expected a value in constraint list");
        Values.push_back(static_cast<uint32_t>(next().Value));
      }
      next(); // ']'
      if (Values.size() != Count)
        return err("constraint list for '" + FieldName + "' has " +
                   std::to_string(Values.size()) + " values for " +
                   std::to_string(Count) + " patterns");
    } else {
      if (!peek().isNumber())
        return err("expected a value in pattern constraint");
      Values.assign(Count, static_cast<uint32_t>(next().Value));
    }
    for (size_t I = 0; I < Count; ++I) {
      if (!fitsUnsigned(Values[I], F->width()))
        return err("constraint value does not fit field '" + FieldName + "'");
      All[I].push_back({FieldName, Values[I]});
    }
    if (!eat("&&"))
      break;
  }

  for (size_t I = 0; I < Count; ++I) {
    InstPattern P;
    P.Name = Names.value()[I];
    for (const InstPattern &Existing : Desc->Patterns)
      if (Existing.Name == P.Name)
        return err("duplicate pattern name '" + P.Name + "'");
    P.Constraints = All[I];
    for (const PatternConstraint &C : P.Constraints) {
      const FieldDef *F = Desc->field(C.Field);
      P.Mask |= insertBits(0, F->Lo, F->Hi, 0xFFFFFFFFu);
      P.Match |= insertBits(0, F->Lo, F->Hi, C.Value);
    }
    Desc->Patterns.push_back(std::move(P));
  }
  return true;
}

Expected<bool> DescParser::parseVal() {
  if (!peek().isIdent())
    return err("expected a name after 'val'");
  MacroDef Macro;
  Macro.Name = next().Text;
  if (Macros.count(Macro.Name))
    return err("duplicate val '" + Macro.Name + "'");
  if (eat("(")) {
    while (!peek().is(")")) {
      if (!peek().isIdent())
        return err("expected a parameter name");
      Macro.Params.push_back(next().Text);
      if (!eat(","))
        break;
    }
    if (!eat(")"))
      return err("expected ')' after parameters");
  }
  if (!eat("is"))
    return err("expected 'is' in val");
  Macro.Body = collectBody();
  if (Macro.Body.empty())
    return err("empty val body");
  for (const Token &T : Macro.Body)
    if (T.is(":="))
      Macro.IsStatement = true;
  Macros[Macro.Name] = std::move(Macro);
  return true;
}

Expected<bool> DescParser::bindSemantics(const std::string &PatternName,
                                         std::vector<Token> Body) {
  RtlParser Parser(std::move(Body), *Desc);
  Expected<Semantics> Sem = Parser.parseDelaySem();
  if (Sem.hasError())
    return Sem.error();
  for (InstPattern &P : Desc->Patterns) {
    if (P.Name != PatternName)
      continue;
    if (P.SemIndex >= 0)
      return Error("machine description: duplicate semantics for '" +
                   PatternName + "'");
    P.SemIndex = static_cast<int>(Desc->Sems.size());
    Desc->Sems.push_back(Sem.takeValue());
    return true;
  }
  return Error("machine description: semantics for unknown pattern '" +
               PatternName + "'");
}

Expected<bool> DescParser::parseSem() {
  Expected<std::vector<std::string>> Names = parseNameList();
  if (Names.hasError())
    return Names.error();
  if (!eat("is"))
    return err("expected 'is' in sem");
  std::vector<Token> Body = collectBody();
  if (Body.empty())
    return err("empty sem body");

  // Zip form: MACRO @ [ args... ].
  if (Body.size() >= 2 && Body[0].isIdent() && Body[1].is("@")) {
    auto MacroIt = Macros.find(Body[0].Text);
    if (MacroIt == Macros.end())
      return err("unknown semantic function '" + Body[0].Text + "'");
    const MacroDef &Macro = MacroIt->second;
    if (Body.size() < 3 || !Body[2].is("["))
      return err("expected '[' after '@'");
    // Parse argument tuples.
    std::vector<std::vector<std::vector<Token>>> ArgTuples;
    size_t I = 3;
    while (I < Body.size() && !Body[I].is("]")) {
      std::vector<std::vector<Token>> Tuple;
      if (Body[I].is("(")) {
        ++I;
        std::vector<Token> Current;
        while (I < Body.size() && !Body[I].is(")")) {
          Current.push_back(Body[I]);
          // Tuple elements are single tokens separated by whitespace.
          Tuple.push_back(Current);
          Current.clear();
          ++I;
        }
        if (I >= Body.size())
          return err("unterminated tuple in zip arguments");
        ++I; // ')'
      } else {
        Tuple.push_back({Body[I]});
        ++I;
      }
      ArgTuples.push_back(std::move(Tuple));
    }
    if (I >= Body.size())
      return err("unterminated zip argument list");
    if (ArgTuples.size() != Names.value().size())
      return err("zip argument count (" + std::to_string(ArgTuples.size()) +
                 ") does not match pattern count (" +
                 std::to_string(Names.value().size()) + ")");
    for (size_t K = 0; K < ArgTuples.size(); ++K) {
      if (ArgTuples[K].size() != Macro.Params.size())
        return err("zip tuple " + std::to_string(K) + " has " +
                   std::to_string(ArgTuples[K].size()) + " elements; '" +
                   Macro.Name + "' expects " +
                   std::to_string(Macro.Params.size()));
      std::map<std::string, std::vector<Token>> Subst;
      for (size_t P = 0; P < Macro.Params.size(); ++P)
        Subst[Macro.Params[P]] = ArgTuples[K][P];
      Expected<std::vector<Token>> Expanded =
          expandTokens(Macro.Body, Macros, Subst, 0);
      if (Expanded.hasError())
        return Expanded.error();
      Expected<bool> Bound =
          bindSemantics(Names.value()[K], Expanded.takeValue());
      if (Bound.hasError())
        return Bound;
    }
    return true;
  }

  // Direct form: the same statement list binds to every named pattern.
  Expected<std::vector<Token>> Expanded = expandTokens(Body, Macros, {}, 0);
  if (Expanded.hasError())
    return Expanded.error();
  for (const std::string &Name : Names.value()) {
    Expected<bool> Bound = bindSemantics(Name, Expanded.value());
    if (Bound.hasError())
      return Bound;
  }
  return true;
}

Expected<std::shared_ptr<MachineDesc>> DescParser::run() {
  while (peek().Kind != TokKind::End) {
    if (!atClauseStart())
      return err("expected a clause keyword, found '" + peek().Text + "'");
    std::string Keyword = next().Text;
    Expected<bool> Result = true;
    if (Keyword == "arch") {
      if (!peek().isIdent())
        return err("expected an architecture name");
      Desc->ArchName = next().Text;
    } else if (Keyword == "wordsize") {
      if (!peek().isNumber())
        return err("expected a word size");
      Desc->WordSize = static_cast<unsigned>(next().Value);
      if (Desc->WordSize != 32)
        return err("only 32-bit words are supported");
    } else if (Keyword == "fields") {
      Result = parseFields();
    } else if (Keyword == "register") {
      Result = parseRegister();
    } else if (Keyword == "zero") {
      if (!peek().isIdent())
        return err("expected a register name after 'zero'");
      std::string Name = next().Text;
      if (!eat("["))
        return err("expected '[' after zero register name");
      if (!peek().isNumber())
        return err("expected a register index");
      unsigned Index = static_cast<unsigned>(next().Value);
      if (!eat("]"))
        return err("expected ']' after zero register index");
      bool Found = false;
      for (const RegFileDef &RF : Desc->RegFiles) {
        if (RF.Name == Name && RF.Count > Index) {
          Desc->ZeroRegId = static_cast<int>(RF.BaseId + Index);
          Found = true;
        }
      }
      if (!Found)
        return err("unknown register '" + Name + "' in zero clause");
    } else if (Keyword == "pat") {
      Result = parsePat();
    } else if (Keyword == "val") {
      Result = parseVal();
    } else if (Keyword == "sem") {
      Result = parseSem();
    }
    if (Result.hasError())
      return Result.error();
  }
  Expected<bool> Final = Desc->finalize();
  if (Final.hasError())
    return Final.error();
  return Desc;
}

Expected<std::shared_ptr<MachineDesc>>
spawn::parseMachineDescription(const std::string &Source) {
  Expected<std::vector<Token>> Tokens = lexDescription(Source);
  if (Tokens.hasError())
    return Tokens.error();
  DescParser Parser(Tokens.takeValue());
  return Parser.run();
}
