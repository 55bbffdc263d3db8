//===- spawn/Analysis.cpp - Per-word semantic analysis ---------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "spawn/Analysis.h"

#include "support/BitOps.h"
#include "support/Error.h"

#include <map>

using namespace eel;
using namespace eel::spawn;

namespace {

/// Linear form of an expression: PcCoef*PC + Bias + field terms + register
/// terms. Used for target shapes and memory-address shapes.
struct Affine {
  int PcCoef = 0;
  int64_t Bias = 0;
  struct FieldTerm {
    std::string Name;
    unsigned Shift = 0;
    bool Signed = false;
  };
  std::vector<FieldTerm> FieldTerms;
  struct RegTerm {
    unsigned FileIndex = 0;
    unsigned Index = 0; ///< Folded register index.
    std::string IndexField; ///< Field name when the index came from a field.
  };
  std::vector<RegTerm> RegTerms;
  uint32_t RegionMask = 0; ///< Non-zero for (PC & mask) | ... shapes.
  bool HasRegion = false;
};

/// Analysis pass over one instruction's semantics for one concrete word.
class WordAnalyzer {
public:
  WordAnalyzer(const MachineDesc &Desc, MachWord Word)
      : Desc(Desc), Word(Word) {}

  DecodedWord run();

private:
  // --- Expression helpers ------------------------------------------------

  /// Substitutes locals and folds ternaries whose condition only involves
  /// fields/constants. Field nodes stay symbolic.
  ExprP resolve(const ExprP &E);

  /// Fully folds an expression of fields and constants; nullopt if it
  /// involves registers, memory, or PC.
  std::optional<int64_t> foldConst(const ExprP &E);

  /// Register id for a Reg expression (folds the index); asserts on an
  /// unfoldable index, which would mean a register indexed by a register.
  unsigned regId(const Expr &Reg);

  /// Raw register number (the field/const value, before BaseId bias).
  unsigned regNumber(const Expr &Reg);

  /// Records register/memory reads of \p E into the summary.
  void collectReads(const ExprP &E);

  /// Records fields used as register indices in \p E.
  void collectRegIndexFields(const ExprP &E);
  void addRegField(const std::string &FieldName);

  /// The signed or unsigned value of field \p Name in the word.
  int64_t fieldValue(const std::string &Name, bool Signed) const;

  std::optional<Affine> linearize(const ExprP &E);

  bool containsPc(const ExprP &E) const;
  bool containsMemRead(const ExprP &E) const;

  // --- Statement walk ------------------------------------------------------

  void walkStmts(const std::vector<StmtP> &Stmts, bool UnderGuard);
  void walkStmt(const Stmt &S, bool UnderGuard);

  const MachineDesc &Desc;
  MachWord Word;
  DecodedWord Summary;
  std::map<std::string, ExprP> Locals;

  // Facts accumulated by the walk.
  struct RegAssign {
    unsigned FileIndex;
    unsigned Number; ///< Raw register number (field value).
    ExprP Rhs;
    bool Conditional;
    bool IndexWasConst;
  };
  std::vector<RegAssign> RegAssigns;
  struct PcAssign {
    ExprP Rhs;
    bool Conditional;
  };
  std::optional<PcAssign> Pc;
  struct MemWrite {
    ExprP AddrExpr;
    unsigned Width;
    ExprP Rhs;
  };
  std::optional<MemWrite> MemW;
  struct MemRead {
    ExprP AddrExpr;
    unsigned Width;
    bool SignExtend;
  };
  std::vector<MemRead> MemReads;
  bool AnnulUntaken = false;
  bool AnnulAlways = false;
  bool HasTrap = false;
  ExprP TrapExpr;
};

} // namespace

ExprP WordAnalyzer::resolve(const ExprP &E) {
  if (!E)
    return E;
  switch (E->K) {
  case Expr::Kind::Local: {
    auto It = Locals.find(E->Name);
    if (It == Locals.end())
      reportFatalError("semantics read unbound temporary '" + E->Name + "'");
    return It->second;
  }
  case Expr::Kind::Ternary: {
    ExprP Cond = resolve(E->Args[0]);
    if (std::optional<int64_t> C = foldConst(Cond))
      return resolve(E->Args[*C != 0 ? 1 : 2]);
    auto Copy = std::make_shared<Expr>(*E);
    Copy->Args[0] = Cond;
    Copy->Args[1] = resolve(E->Args[1]);
    Copy->Args[2] = resolve(E->Args[2]);
    return Copy;
  }
  case Expr::Kind::Const:
  case Expr::Kind::Field:
  case Expr::Kind::Pc:
    return E;
  default: {
    auto Copy = std::make_shared<Expr>(*E);
    for (ExprP &Arg : Copy->Args)
      Arg = resolve(Arg);
    return Copy;
  }
  }
}

std::optional<int64_t> WordAnalyzer::foldConst(const ExprP &E) {
  if (!E)
    return std::nullopt;
  switch (E->K) {
  case Expr::Kind::Const:
    return E->IntVal;
  case Expr::Kind::Field: {
    const FieldDef *F = Desc.field(E->Name);
    assert(F && "unknown field survived parsing");
    return static_cast<int64_t>(Desc.fieldValue(*F, Word));
  }
  case Expr::Kind::Apply: {
    if (E->Fn == RtlFn::Sx) {
      const FieldDef *F = Desc.field(E->Args[0]->Name);
      assert(F && "sx of unknown field");
      return signExtend(Desc.fieldValue(*F, Word), F->width());
    }
    return std::nullopt; // other builtins need register values
  }
  case Expr::Kind::Binary: {
    std::optional<int64_t> L = foldConst(E->Args[0]);
    std::optional<int64_t> R = foldConst(E->Args[1]);
    if (!L || !R)
      return std::nullopt;
    switch (E->Op) {
    case RtlBinOp::Add:
      return *L + *R;
    case RtlBinOp::Sub:
      return *L - *R;
    case RtlBinOp::Mul:
      return *L * *R;
    case RtlBinOp::And:
      return *L & *R;
    case RtlBinOp::Or:
      return *L | *R;
    case RtlBinOp::Xor:
      return *L ^ *R;
    case RtlBinOp::Shl:
      return *L << (*R & 63);
    case RtlBinOp::Eq:
      return *L == *R ? 1 : 0;
    case RtlBinOp::Ne:
      return *L != *R ? 1 : 0;
    }
    return std::nullopt;
  }
  case Expr::Kind::Ternary: {
    std::optional<int64_t> C = foldConst(E->Args[0]);
    if (!C)
      return std::nullopt;
    return foldConst(E->Args[*C != 0 ? 1 : 2]);
  }
  case Expr::Kind::Local: {
    auto It = Locals.find(E->Name);
    if (It == Locals.end())
      return std::nullopt;
    return foldConst(It->second);
  }
  default:
    return std::nullopt;
  }
}

unsigned WordAnalyzer::regNumber(const Expr &Reg) {
  assert(Reg.K == Expr::Kind::Reg && "not a register expression");
  if (Reg.Args.empty())
    return 0;
  std::optional<int64_t> Index = foldConst(Reg.Args[0]);
  if (!Index)
    reportFatalError("register index does not fold to a constant");
  return static_cast<unsigned>(*Index);
}

unsigned WordAnalyzer::regId(const Expr &Reg) {
  const RegFileDef &RF = Desc.RegFiles[Reg.FileIndex];
  if (RF.Count == 0)
    return RF.BaseId;
  return RF.BaseId + regNumber(Reg);
}

void WordAnalyzer::collectReads(const ExprP &E) {
  if (!E)
    return;
  switch (E->K) {
  case Expr::Kind::Reg: {
    unsigned Id = regId(*E);
    if (static_cast<int>(Id) != Desc.ZeroRegId)
      Summary.Reads.insert(Id);
    return;
  }
  case Expr::Kind::Mem:
    MemReads.push_back({E->Args[0], E->MemWidth, E->MemSignExtend});
    collectReads(E->Args[0]);
    return;
  default:
    for (const ExprP &Arg : E->Args)
      collectReads(Arg);
    return;
  }
}

void WordAnalyzer::addRegField(const std::string &FieldName) {
  const FieldDef *F = Desc.field(FieldName);
  assert(F && "register-index field unknown");
  Summary.addRegField(F->Lo, F->Hi);
}

int64_t WordAnalyzer::fieldValue(const std::string &Name, bool Signed) const {
  const FieldDef *F = Desc.field(Name);
  assert(F && "unknown field survived parsing");
  uint32_t Raw = Desc.fieldValue(*F, Word);
  return Signed ? signExtend(Raw, F->width()) : static_cast<int64_t>(Raw);
}

void WordAnalyzer::collectRegIndexFields(const ExprP &E) {
  if (!E)
    return;
  if (E->K == Expr::Kind::Reg) {
    if (!E->Args.empty() && E->Args[0]->K == Expr::Kind::Field)
      addRegField(E->Args[0]->Name);
    return;
  }
  for (const ExprP &Arg : E->Args)
    collectRegIndexFields(Arg);
}

bool WordAnalyzer::containsPc(const ExprP &E) const {
  if (!E)
    return false;
  if (E->K == Expr::Kind::Pc)
    return true;
  for (const ExprP &Arg : E->Args)
    if (containsPc(Arg))
      return true;
  return false;
}

bool WordAnalyzer::containsMemRead(const ExprP &E) const {
  if (!E)
    return false;
  if (E->K == Expr::Kind::Mem)
    return true;
  for (const ExprP &Arg : E->Args)
    if (containsMemRead(Arg))
      return true;
  return false;
}

std::optional<Affine> WordAnalyzer::linearize(const ExprP &E) {
  if (!E)
    return std::nullopt;
  Affine A;
  switch (E->K) {
  case Expr::Kind::Const:
    A.Bias = E->IntVal;
    return A;
  case Expr::Kind::Field:
    A.FieldTerms.push_back({E->Name, 0, false});
    return A;
  case Expr::Kind::Pc:
    A.PcCoef = 1;
    return A;
  case Expr::Kind::Reg: {
    Affine::RegTerm Term;
    Term.FileIndex = E->FileIndex;
    Term.Index = regNumber(*E);
    if (!E->Args.empty() && E->Args[0]->K == Expr::Kind::Field)
      Term.IndexField = E->Args[0]->Name;
    A.RegTerms.push_back(Term);
    return A;
  }
  case Expr::Kind::Apply:
    if (E->Fn == RtlFn::Sx) {
      A.FieldTerms.push_back({E->Args[0]->Name, 0, true});
      return A;
    }
    return std::nullopt;
  case Expr::Kind::Ternary: {
    std::optional<int64_t> C = foldConst(E->Args[0]);
    if (!C)
      return std::nullopt;
    return linearize(E->Args[*C != 0 ? 1 : 2]);
  }
  case Expr::Kind::Binary: {
    switch (E->Op) {
    case RtlBinOp::Add:
    case RtlBinOp::Sub: {
      std::optional<Affine> L = linearize(E->Args[0]);
      std::optional<Affine> R = linearize(E->Args[1]);
      if (!L || !R || R->HasRegion)
        return std::nullopt;
      if (E->Op == RtlBinOp::Sub) {
        // Only constant subtrahends keep the form linear.
        if (R->PcCoef || !R->FieldTerms.empty() || !R->RegTerms.empty())
          return std::nullopt;
        L->Bias -= R->Bias;
        return L;
      }
      L->PcCoef += R->PcCoef;
      L->Bias += R->Bias;
      for (auto &T : R->FieldTerms)
        L->FieldTerms.push_back(T);
      for (auto &T : R->RegTerms)
        L->RegTerms.push_back(T);
      return L;
    }
    case RtlBinOp::Shl: {
      std::optional<int64_t> Shift = foldConst(E->Args[1]);
      if (!Shift)
        return std::nullopt;
      std::optional<Affine> L = linearize(E->Args[0]);
      if (!L || L->PcCoef || !L->RegTerms.empty() || L->HasRegion)
        return std::nullopt;
      L->Bias <<= *Shift;
      for (auto &T : L->FieldTerms)
        T.Shift += static_cast<unsigned>(*Shift);
      return L;
    }
    case RtlBinOp::Or: {
      // Region pattern: (PC & mask) | sub-expression.
      const ExprP &Lhs = E->Args[0];
      const ExprP &Rhs = E->Args[1];
      if (Lhs->K == Expr::Kind::Binary && Lhs->Op == RtlBinOp::And &&
          Lhs->Args[0]->K == Expr::Kind::Pc) {
        std::optional<int64_t> Mask = foldConst(Lhs->Args[1]);
        std::optional<Affine> Sub = linearize(Rhs);
        if (!Mask || !Sub || Sub->PcCoef || !Sub->RegTerms.empty() ||
            Sub->HasRegion)
          return std::nullopt;
        Sub->HasRegion = true;
        Sub->RegionMask = static_cast<uint32_t>(*Mask);
        return Sub;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
    }
  }
  case Expr::Kind::Local: {
    auto It = Locals.find(E->Name);
    if (It == Locals.end())
      return std::nullopt;
    return linearize(It->second);
  }
  default:
    return std::nullopt;
  }
}

void WordAnalyzer::walkStmt(const Stmt &S, bool UnderGuard) {
  switch (S.K) {
  case Stmt::Kind::Skip:
    return;
  case Stmt::Kind::AssignLocal: {
    ExprP Rhs = resolve(S.Rhs);
    Locals[S.Name] = Rhs;
    collectReads(Rhs);
    collectRegIndexFields(Rhs);
    return;
  }
  case Stmt::Kind::AssignReg: {
    ExprP Rhs = resolve(S.Rhs);
    const Expr &Lhs = *S.Lhs;
    unsigned Id = regId(Lhs);
    unsigned Number =
        Desc.RegFiles[Lhs.FileIndex].Count == 0 ? 0 : regNumber(Lhs);
    bool IndexWasConst =
        Lhs.Args.empty() || Lhs.Args[0]->K != Expr::Kind::Field;
    if (static_cast<int>(Id) != Desc.ZeroRegId)
      Summary.Writes.insert(Id);
    collectReads(Rhs);
    collectRegIndexFields(Rhs);
    if (!IndexWasConst)
      addRegField(Lhs.Args[0]->Name);
    else if (Desc.RegFiles[Lhs.FileIndex].Count != 0)
      Summary.FixedRegs.insert(Number);
    RegAssigns.push_back({Lhs.FileIndex, Number, Rhs, UnderGuard,
                          IndexWasConst});
    return;
  }
  case Stmt::Kind::AssignPc: {
    ExprP Rhs = resolve(S.Rhs);
    collectReads(Rhs);
    collectRegIndexFields(Rhs);
    Pc = PcAssign{Rhs, UnderGuard};
    return;
  }
  case Stmt::Kind::AssignMem: {
    ExprP Rhs = resolve(S.Rhs);
    ExprP AddrExpr = resolve(S.Lhs->Args[0]);
    collectReads(AddrExpr);
    collectReads(Rhs);
    collectRegIndexFields(AddrExpr);
    collectRegIndexFields(Rhs);
    MemW = MemWrite{AddrExpr, S.Lhs->MemWidth, Rhs};
    return;
  }
  case Stmt::Kind::Annul:
    if (UnderGuard)
      AnnulUntaken = true;
    else
      AnnulAlways = true;
    return;
  case Stmt::Kind::Trap: {
    HasTrap = true;
    TrapExpr = resolve(S.Rhs);
    return;
  }
  case Stmt::Kind::Guard: {
    ExprP Cond = resolve(S.Cond);
    if (std::optional<int64_t> C = foldConst(Cond)) {
      walkStmts(*C != 0 ? S.Then : S.Else, UnderGuard);
      return;
    }
    collectReads(Cond);
    collectRegIndexFields(Cond);
    walkStmts(S.Then, /*UnderGuard=*/true);
    walkStmts(S.Else, /*UnderGuard=*/true);
    return;
  }
  }
}

void WordAnalyzer::walkStmts(const std::vector<StmtP> &Stmts,
                             bool UnderGuard) {
  for (const StmtP &S : Stmts)
    walkStmt(*S, UnderGuard);
}

DecodedWord WordAnalyzer::run() {
  int PatternIndex = Desc.decode(Word);
  if (PatternIndex < 0)
    return Summary; // Invalid

  const InstPattern &Pattern = Desc.Patterns[PatternIndex];
  const Semantics &Sem = Desc.Sems[Pattern.SemIndex];
  walkStmts(Sem.Before, /*UnderGuard=*/false);
  walkStmts(Sem.After, /*UnderGuard=*/false);

  // --- Classification ------------------------------------------------------
  bool HasMemRead = !MemReads.empty();
  if (HasTrap) {
    Summary.Category = InstCategory::System;
    Summary.TrapNumber.reset();
    if (TrapExpr)
      if (std::optional<int64_t> N = foldConst(TrapExpr))
        Summary.TrapNumber = static_cast<unsigned>(*N);
  } else if (MemW && HasMemRead) {
    Summary.Category = InstCategory::LoadStore;
  } else if (MemW) {
    Summary.Category = InstCategory::Store;
  } else if (HasMemRead) {
    Summary.Category = InstCategory::Load;
  } else if (Pc) {
    std::optional<Affine> A = linearize(Pc->Rhs);
    bool IsDirect =
        A && A->RegTerms.empty() && (A->PcCoef == 1 || A->HasRegion);
    if (IsDirect) {
      // Direct transfer.
      DirectShape &Shape = Summary.Direct;
      Shape.Region = A->HasRegion;
      Shape.RegionMask = A->RegionMask;
      Shape.Bias = static_cast<int32_t>(A->Bias);
      int64_t Value = A->Bias;
      if (!A->FieldTerms.empty()) {
        assert(A->FieldTerms.size() == 1 &&
               "direct target uses several fields");
        const Affine::FieldTerm &T = A->FieldTerms[0];
        const FieldDef *F = Desc.field(T.Name);
        Shape.HasField = true;
        Shape.Field = {static_cast<uint8_t>(F->Lo),
                       static_cast<uint8_t>(F->Hi)};
        Shape.Shift = static_cast<uint8_t>(T.Shift);
        Shape.Signed = T.Signed;
        Value += fieldValue(T.Name, T.Signed) << T.Shift;
      }
      Shape.Value = static_cast<uint32_t>(Value);
      Summary.Conditional = Pc->Conditional;
      if (Pc->Conditional) {
        Summary.Category = InstCategory::BranchDirect;
      } else {
        bool WritesLink = false;
        for (const RegAssign &RA : RegAssigns)
          if (Desc.RegFiles[RA.FileIndex].Count != 0 && containsPc(RA.Rhs))
            WritesLink = true;
        Summary.Category = WritesLink ? InstCategory::CallDirect
                                      : InstCategory::JumpDirect;
      }
    } else {
      // Indirect transfer through registers.
      Summary.Category = InstCategory::IndirectJump;
      IndirectTargetInfo &Info = Summary.Indirect;
      if (A && !A->RegTerms.empty()) {
        Info.BaseReg = A->RegTerms[0].Index;
        if (A->RegTerms.size() > 1) {
          Info.HasIndex = true;
          Info.IndexReg = A->RegTerms[1].Index;
        } else {
          int64_t Offset = A->Bias;
          for (const Affine::FieldTerm &T : A->FieldTerms)
            Offset += fieldValue(T.Name, T.Signed) << T.Shift;
          Info.Offset = static_cast<int32_t>(Offset);
        }
      }
      for (const RegAssign &RA : RegAssigns)
        if (Desc.RegFiles[RA.FileIndex].Count != 0 && containsPc(RA.Rhs))
          Info.LinkReg = RA.Number;
    }
  } else if (AnnulAlways) {
    // Annul without a transfer skips the delay slot: a jump to PC+8.
    Summary.Category = InstCategory::JumpDirect;
    Summary.Direct.Bias = 8;
    Summary.Direct.Value = 8;
  } else {
    Summary.Category = InstCategory::Computation;
  }

  // --- Delay behaviour ------------------------------------------------------
  // A transfer occupies a delay slot only when the description says so (the
  // `;` mark). The old code hardcoded HasDelaySlot = true for every transfer
  // category — a latent SPARC-ism that broke the first delay-slot-free
  // description (ARISC).
  switch (Summary.Category) {
  case InstCategory::BranchDirect:
  case InstCategory::JumpDirect:
  case InstCategory::CallDirect:
  case InstCategory::IndirectJump:
    if (!Sem.HasDelayMark)
      Summary.Delay = DelayBehavior::None;
    else if (AnnulAlways)
      Summary.Delay = DelayBehavior::AnnulAlways;
    else if (AnnulUntaken)
      Summary.Delay = DelayBehavior::AnnulUntaken;
    else
      Summary.Delay = DelayBehavior::Always;
    break;
  default:
    Summary.Delay = DelayBehavior::None;
    break;
  }

  // --- Dataflow shape (for the slicer) -------------------------------------
  if (Summary.Category == InstCategory::Computation) {
    const RegAssign *Main = nullptr;
    bool SetsCC = false;
    for (const RegAssign &RA : RegAssigns) {
      if (Desc.RegFiles[RA.FileIndex].Count != 0) {
        if (!Main)
          Main = &RA;
        else
          Main = nullptr; // multiple general-register writes: inexpressible
      } else {
        SetsCC = true;
      }
    }
    if (Main && !Main->Conditional) {
      DataOp &Op = Summary.Op;
      Op.Rd = Main->Number;
      Op.SetsCC = SetsCC;
      const ExprP &Rhs = Main->Rhs;
      if (std::optional<int64_t> C = foldConst(Rhs)) {
        Op.Kind = DataOpKind::LoadImmHi;
        Op.HasImm = true;
        Op.Imm = static_cast<int32_t>(*C);
      } else if ((Rhs->K == Expr::Kind::Apply ||
                  Rhs->K == Expr::Kind::Binary) &&
                 Rhs->Args.size() == 2 &&
                 Rhs->Args[0]->K == Expr::Kind::Reg) {
        DataOpKind Kind = DataOpKind::None;
        if (Rhs->K == Expr::Kind::Apply) {
          switch (Rhs->Fn) {
          case RtlFn::Add: Kind = DataOpKind::Add; break;
          case RtlFn::Sub: Kind = DataOpKind::Sub; break;
          case RtlFn::And: Kind = DataOpKind::And; break;
          case RtlFn::Or: Kind = DataOpKind::Or; break;
          case RtlFn::Xor: Kind = DataOpKind::Xor; break;
          case RtlFn::Sll: Kind = DataOpKind::Sll; break;
          case RtlFn::Srl: Kind = DataOpKind::Srl; break;
          case RtlFn::Sra: Kind = DataOpKind::Sra; break;
          case RtlFn::Mul: Kind = DataOpKind::Mul; break;
          case RtlFn::Div: Kind = DataOpKind::Div; break;
          case RtlFn::Rem: Kind = DataOpKind::Rem; break;
          case RtlFn::SetLess: Kind = DataOpKind::SetLess; break;
          default: break;
          }
        } else {
          switch (Rhs->Op) {
          case RtlBinOp::Add: Kind = DataOpKind::Add; break;
          case RtlBinOp::Sub: Kind = DataOpKind::Sub; break;
          case RtlBinOp::And: Kind = DataOpKind::And; break;
          case RtlBinOp::Or: Kind = DataOpKind::Or; break;
          case RtlBinOp::Xor: Kind = DataOpKind::Xor; break;
          case RtlBinOp::Mul: Kind = DataOpKind::Mul; break;
          case RtlBinOp::Shl: Kind = DataOpKind::Sll; break;
          default: break;
          }
        }
        if (Kind != DataOpKind::None) {
          Op.Kind = Kind;
          Op.Rs1 = regNumber(*Rhs->Args[0]);
          const ExprP &B = Rhs->Args[1];
          if (std::optional<int64_t> C2 = foldConst(B)) {
            Op.HasImm = true;
            Op.Imm = static_cast<int32_t>(*C2);
          } else if (B->K == Expr::Kind::Reg) {
            Op.Rs2 = regNumber(*B);
          } else {
            Op.Kind = DataOpKind::None; // complex second operand
          }
        }
      }
      // If the shape is unrecognized, Kind stays None but Rd may be set;
      // normalize so callers can test Kind alone.
      if (Op.Kind == DataOpKind::None)
        Summary.Op = DataOp();
    }
  }

  // --- Memory shape ----------------------------------------------------------
  auto FillAddr = [&](MemOp &M, const ExprP &AddrExpr) -> bool {
    std::optional<Affine> A = linearize(AddrExpr);
    if (!A || A->PcCoef || A->HasRegion)
      return false;
    if (A->RegTerms.empty() || A->RegTerms.size() > 2)
      return false;
    M.AddrBase = A->RegTerms[0].Index;
    if (A->RegTerms.size() == 2) {
      M.HasIndex = true;
      M.AddrIndex = A->RegTerms[1].Index;
    } else {
      int64_t Offset = A->Bias;
      for (const Affine::FieldTerm &T : A->FieldTerms)
        Offset += fieldValue(T.Name, T.Signed) << T.Shift;
      M.Offset = static_cast<int32_t>(Offset);
    }
    return true;
  };
  if (Summary.Category == InstCategory::Load && MemReads.size() == 1) {
    for (const RegAssign &RA : RegAssigns) {
      if (Desc.RegFiles[RA.FileIndex].Count == 0 ||
          RA.Rhs->K != Expr::Kind::Mem)
        continue;
      MemOp M;
      M.IsLoad = true;
      M.Width = MemReads[0].Width;
      M.SignExtendLoad = MemReads[0].SignExtend;
      M.DataReg = RA.Number;
      if (FillAddr(M, MemReads[0].AddrExpr))
        Summary.Mem = M;
    }
  } else if (Summary.Category == InstCategory::Store && MemW) {
    MemOp M;
    M.IsStore = true;
    M.Width = MemW->Width;
    if (MemW->Rhs->K == Expr::Kind::Reg)
      M.DataReg = regNumber(*MemW->Rhs);
    if (FillAddr(M, MemW->AddrExpr))
      Summary.Mem = M;
  }

  return Summary;
}

DecodedWord spawn::analyzeWord(const MachineDesc &Desc, MachWord Word) {
  WordAnalyzer Analyzer(Desc, Word);
  return Analyzer.run();
}
