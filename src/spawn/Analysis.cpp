//===- spawn/Analysis.cpp - Per-word semantic analysis ---------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "spawn/Analysis.h"

#include "support/BitOps.h"
#include "support/Error.h"

#include <algorithm>
#include <map>

using namespace eel;
using namespace eel::spawn;

namespace {

/// Linear form of an expression: PcCoef*PC + Bias + field terms + register
/// terms. Used for target shapes, memory-address shapes, and, when the
/// walk compiles, for every value it stores.
struct Affine {
  int PcCoef = 0;
  int64_t Bias = 0;
  struct FieldTerm {
    const FieldDef *Field = nullptr;
    unsigned Shift = 0;
    bool Signed = false;
  };
  std::vector<FieldTerm> FieldTerms;
  std::vector<const Expr *> RegTerms; ///< Register reads, in order.
  uint32_t RegionMask = 0; ///< Non-zero for (PC & mask) | ... shapes.
  bool HasRegion = false;
};

/// Analysis pass over one instruction's semantics for one concrete word.
///
/// Given a fill list the walk compiles instead: every value it would store
/// from a field (a register number, immediate, displacement or trap number,
/// or a register id for the read and write sets) stays out of the summary
/// and becomes a fill, and every other field it folds — a ternary or guard
/// condition, a shift amount, a fixed register's index — is a steering
/// field, because its value chose the path of the walk.
class WordAnalyzer {
public:
  WordAnalyzer(const MachineDesc &Desc, MachWord Word,
               std::vector<DecodeFill> *Fills = nullptr)
      : Desc(Desc), Word(Word), Fills(Fills) {}

  DecodedWord run();

  /// Bits of the word that steered the walk.
  uint32_t steeringBits() const { return SteerBits; }

private:
  // --- Expression helpers ------------------------------------------------

  /// Substitutes locals and folds ternaries whose condition only involves
  /// fields/constants. Field nodes stay symbolic.
  ExprP resolve(const ExprP &E);

  /// Fully folds an expression of fields and constants; nullopt if it
  /// involves registers, memory, or PC. The fields it reads steer, unless
  /// a value store is folding them.
  std::optional<int64_t> foldConst(const ExprP &E);

  /// foldConst for a value the walk stores or only tests for foldability.
  std::optional<int64_t> foldValue(const ExprP &E);

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

  std::optional<Affine> linearize(const ExprP &E);

  bool containsPc(const ExprP &E) const;

  // --- Value stores ----------------------------------------------------------

  /// Stores \p E, an expression of fields and constants, in \p Dst, a
  /// member of the summary.
  template <class T> void store(T &Dst, const ExprP &E);

  /// Stores the number of register \p Reg in \p Dst.
  void storeReg(uint8_t &Dst, const Expr &Reg);

  /// Adds linear-form term \p Term to \p Dst.
  template <class T> void addTerm(T &Dst, const Affine::FieldTerm &Term);

  /// Adds register \p Reg to \p Set unless it is the hard zero.
  void addReg(RegSet &Set, const Expr &Reg);

  /// The linear form of a stored value; aborts if it is not one.
  Affine valueForm(const ExprP &E);

  /// Records a fill of \p Term into \p Dst, a member of the summary.
  template <class T>
  void recordFill(const T &Dst, const Affine::FieldTerm &Term,
                  unsigned RegBase = 0);

  // --- Statement walk ------------------------------------------------------

  void walkStmts(const std::vector<StmtP> &Stmts, bool UnderGuard);
  void walkStmt(const Stmt &S, bool UnderGuard);

  const MachineDesc &Desc;
  MachWord Word;
  std::vector<DecodeFill> *Fills;
  uint32_t SteerBits = 0;
  bool InValue = false;
  DecodedWord Summary;
  std::map<std::string, ExprP> Locals;

  // Facts accumulated by the walk.
  struct RegAssign {
    const Expr *Lhs;
    ExprP Rhs;
    bool Conditional;
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
  case Expr::Kind::Field:
  case Expr::Kind::Apply: {
    if (E->K == Expr::Kind::Apply && E->Fn != RtlFn::Sx)
      return std::nullopt; // other builtins need register values
    const FieldDef *F =
        Desc.field(E->K == Expr::Kind::Field ? E->Name : E->Args[0]->Name);
    assert(F && "unknown field survived parsing");
    if (!InValue)
      SteerBits |= static_cast<uint32_t>(
          ((uint64_t(1) << F->width()) - 1) << F->Lo);
    uint32_t Raw = Desc.fieldValue(*F, Word);
    return E->K == Expr::Kind::Field ? static_cast<int64_t>(Raw)
                                     : signExtend(Raw, F->width());
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
    // The condition steers even inside a stored value.
    bool Outer = InValue;
    InValue = false;
    std::optional<int64_t> C = foldConst(E->Args[0]);
    InValue = Outer;
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

std::optional<int64_t> WordAnalyzer::foldValue(const ExprP &E) {
  bool Outer = InValue;
  InValue = true;
  std::optional<int64_t> V = foldConst(E);
  InValue = Outer;
  return V;
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
  case Expr::Kind::Reg:
    addReg(Summary.Reads, *E);
    return;
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

std::optional<Affine> WordAnalyzer::linearize(const ExprP &E) {
  if (!E)
    return std::nullopt;
  Affine A;
  switch (E->K) {
  case Expr::Kind::Const:
    A.Bias = E->IntVal;
    return A;
  case Expr::Kind::Field:
    A.FieldTerms.push_back({Desc.field(E->Name), 0, false});
    return A;
  case Expr::Kind::Pc:
    A.PcCoef = 1;
    return A;
  case Expr::Kind::Reg:
    A.RegTerms.push_back(E.get());
    return A;
  case Expr::Kind::Apply:
    if (E->Fn == RtlFn::Sx) {
      A.FieldTerms.push_back({Desc.field(E->Args[0]->Name), 0, true});
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
      for (const Expr *T : R->RegTerms)
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

// --- Value stores --------------------------------------------------------------

Affine WordAnalyzer::valueForm(const ExprP &E) {
  std::optional<Affine> A = linearize(E);
  if (!A || A->PcCoef || !A->RegTerms.empty() || A->HasRegion)
    reportFatalError("machine description '" + Desc.ArchName +
                     "': a value read from the word is not a sum of "
                     "shifted fields and constants");
  return *A;
}

template <class T>
void WordAnalyzer::recordFill(const T &Dst, const Affine::FieldTerm &Term,
                              unsigned RegBase) {
  auto Reject = [this](const char *Why) {
    reportFatalError("machine description '" + Desc.ArchName + "': " + Why);
  };
  unsigned Width = Term.Field->width();
  DecodeFill F;
  F.Lo = static_cast<uint8_t>(Term.Field->Lo);
  F.Mask = static_cast<uint32_t>((uint64_t(1) << Width) - 1);
  if constexpr (std::is_same_v<T, RegSet>) {
    F.K = DecodeFill::Kind::Reg;
    uint64_t Set = ~(Desc.ZeroRegId >= 0 ? uint64_t(1) << Desc.ZeroRegId : 0);
    (&Dst == &Summary.Writes ? F.WriteMask : F.ReadMask) = Set;
    F.RegBase = static_cast<uint8_t>(RegBase);
    if (RegBase + uint64_t(F.Mask) > MaxRegId)
      Reject("a register field names ids past the register set");
  } else {
    static_assert(sizeof(T) == 1 || sizeof(T) == 4, "no fill of this size");
    F.K = sizeof(T) == 1 ? DecodeFill::Kind::Byte : DecodeFill::Kind::Word;
    F.At = static_cast<uint8_t>(reinterpret_cast<const char *>(&Dst) -
                                reinterpret_cast<const char *>(&Summary));
    F.Base = static_cast<uint32_t>(Dst); // the constant part, stored already
    F.SignBit = Term.Signed ? 1u << (Width - 1) : 0;
    if (Term.Shift >= 32)
      Reject("a field is shifted past the word");
    F.Scale = 1u << Term.Shift;
    if (F.K == DecodeFill::Kind::Byte &&
        (F.Base != 0 || F.SignBit != 0 || F.Scale != 1))
      Reject("a register number is not a plain field");
    for (const DecodeFill &Other : *Fills)
      if (Other.K == F.K && Other.At == F.At)
        Reject("a value sums several fields");
  }
  Fills->push_back(F);
}

template <class T> void WordAnalyzer::store(T &Dst, const ExprP &E) {
  if (!Fills) {
    std::optional<int64_t> V = foldValue(E);
    if (!V)
      reportFatalError("a value read from the word does not fold to a "
                       "constant");
    Dst = static_cast<T>(*V);
    return;
  }
  Affine A = valueForm(E);
  Dst = static_cast<T>(A.Bias);
  for (const Affine::FieldTerm &Term : A.FieldTerms)
    recordFill(Dst, Term);
}

void WordAnalyzer::storeReg(uint8_t &Dst, const Expr &Reg) {
  if (Reg.Args.empty())
    Dst = 0; // a single register such as CC
  else
    store(Dst, Reg.Args[0]);
}

template <class T>
void WordAnalyzer::addTerm(T &Dst, const Affine::FieldTerm &Term) {
  if (Fills) {
    recordFill(Dst, Term);
    return;
  }
  uint32_t Raw = Desc.fieldValue(*Term.Field, Word);
  int64_t V = Term.Signed ? signExtend(Raw, Term.Field->width())
                          : static_cast<int64_t>(Raw);
  Dst = static_cast<T>(static_cast<int64_t>(Dst) + (V << Term.Shift));
}

void WordAnalyzer::addReg(RegSet &Set, const Expr &Reg) {
  const RegFileDef &RF = Desc.RegFiles[Reg.FileIndex];
  if (Fills && RF.Count != 0) {
    Affine A = valueForm(Reg.Args[0]);
    if (A.FieldTerms.size() > 1)
      reportFatalError("machine description '" + Desc.ArchName +
                       "': a register index sums several fields");
    if (A.FieldTerms.size() == 1) {
      recordFill(Set, A.FieldTerms[0],
                 RF.BaseId + static_cast<unsigned>(A.Bias));
      return;
    }
  }
  unsigned Id = regId(Reg);
  if (static_cast<int>(Id) != Desc.ZeroRegId)
    Set.insert(Id);
}

// --- Statement walk ------------------------------------------------------------

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
    bool IndexIsField =
        !Lhs.Args.empty() && Lhs.Args[0]->K == Expr::Kind::Field;
    addReg(Summary.Writes, Lhs);
    collectReads(Rhs);
    collectRegIndexFields(Rhs);
    if (IndexIsField)
      addRegField(Lhs.Args[0]->Name);
    else if (Desc.RegFiles[Lhs.FileIndex].Count != 0)
      Summary.FixedRegs.insert(regNumber(Lhs)); // its index fields steer
    RegAssigns.push_back({&Lhs, Rhs, UnderGuard});
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

  // The last general-register write whose value holds the PC: a link.
  const RegAssign *Link = nullptr;
  for (const RegAssign &RA : RegAssigns)
    if (Desc.RegFiles[RA.Lhs->FileIndex].Count != 0 && containsPc(RA.Rhs))
      Link = &RA;

  // --- Classification ------------------------------------------------------
  bool HasMemRead = !MemReads.empty();
  if (HasTrap) {
    Summary.Category = InstCategory::System;
    Summary.TrapNumber.reset();
    if (TrapExpr && foldValue(TrapExpr)) {
      Summary.TrapNumber.emplace();
      store(*Summary.TrapNumber, TrapExpr);
    }
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
      Shape.Value = static_cast<uint32_t>(A->Bias);
      if (!A->FieldTerms.empty()) {
        assert(A->FieldTerms.size() == 1 &&
               "direct target uses several fields");
        const Affine::FieldTerm &T = A->FieldTerms[0];
        Shape.HasField = true;
        Shape.Field = {static_cast<uint8_t>(T.Field->Lo),
                       static_cast<uint8_t>(T.Field->Hi)};
        Shape.Shift = static_cast<uint8_t>(T.Shift);
        Shape.Signed = T.Signed;
        addTerm(Shape.Value, T);
      }
      Summary.Conditional = Pc->Conditional;
      if (Pc->Conditional)
        Summary.Category = InstCategory::BranchDirect;
      else
        Summary.Category =
            Link ? InstCategory::CallDirect : InstCategory::JumpDirect;
    } else {
      // Indirect transfer through registers.
      Summary.Category = InstCategory::IndirectJump;
      IndirectTargetInfo &Info = Summary.Indirect;
      if (A && !A->RegTerms.empty()) {
        storeReg(Info.BaseReg, *A->RegTerms[0]);
        if (A->RegTerms.size() > 1) {
          Info.HasIndex = true;
          storeReg(Info.IndexReg, *A->RegTerms[1]);
        } else {
          Info.Offset = static_cast<int32_t>(A->Bias);
          for (const Affine::FieldTerm &T : A->FieldTerms)
            addTerm(Info.Offset, T);
        }
      }
      if (Link)
        storeReg(Info.LinkReg, *Link->Lhs);
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
      if (Desc.RegFiles[RA.Lhs->FileIndex].Count != 0) {
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
      const ExprP &Rhs = Main->Rhs;
      if (foldValue(Rhs)) {
        Op.Kind = DataOpKind::LoadImmHi;
        Op.HasImm = true;
        store(Op.Imm, Rhs);
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
        // A second operand that is neither a constant nor a register
        // leaves the shape inexpressible.
        const ExprP &B = Rhs->Args[1];
        bool ImmB = foldValue(B).has_value();
        if (Kind != DataOpKind::None && (ImmB || B->K == Expr::Kind::Reg)) {
          Op.Kind = Kind;
          storeReg(Op.Rs1, *Rhs->Args[0]);
          if (ImmB) {
            Op.HasImm = true;
            store(Op.Imm, B);
          } else {
            storeReg(Op.Rs2, *B);
          }
        }
      }
      // An unrecognized shape leaves Op zero, so callers test Kind alone.
      if (Op.Kind != DataOpKind::None) {
        storeReg(Op.Rd, *Main->Lhs);
        Op.SetsCC = SetsCC;
      }
    }
  }

  // --- Memory shape ----------------------------------------------------------
  // An address is a base register plus an index register or a displacement.
  auto AddrForm = [&](const ExprP &AddrExpr) -> std::optional<Affine> {
    std::optional<Affine> A = linearize(AddrExpr);
    if (!A || A->PcCoef || A->HasRegion || A->RegTerms.empty() ||
        A->RegTerms.size() > 2)
      return std::nullopt;
    return A;
  };
  auto FillAddr = [&](MemOp &M, const Affine &A) {
    storeReg(M.AddrBase, *A.RegTerms[0]);
    if (A.RegTerms.size() == 2) {
      M.HasIndex = true;
      storeReg(M.AddrIndex, *A.RegTerms[1]);
      return;
    }
    M.Offset = static_cast<int32_t>(A.Bias);
    for (const Affine::FieldTerm &T : A.FieldTerms)
      addTerm(M.Offset, T);
  };
  if (Summary.Category == InstCategory::Load && MemReads.size() == 1) {
    const RegAssign *Data = nullptr;
    for (const RegAssign &RA : RegAssigns)
      if (Desc.RegFiles[RA.Lhs->FileIndex].Count != 0 &&
          RA.Rhs->K == Expr::Kind::Mem)
        Data = &RA;
    std::optional<Affine> A = AddrForm(MemReads[0].AddrExpr);
    if (Data && A) {
      MemOp &M = Summary.Mem;
      M.IsLoad = true;
      M.Width = static_cast<uint8_t>(MemReads[0].Width);
      M.SignExtendLoad = MemReads[0].SignExtend;
      storeReg(M.DataReg, *Data->Lhs);
      FillAddr(M, *A);
    }
  } else if (Summary.Category == InstCategory::Store && MemW) {
    if (std::optional<Affine> A = AddrForm(MemW->AddrExpr)) {
      MemOp &M = Summary.Mem;
      M.IsStore = true;
      M.Width = static_cast<uint8_t>(MemW->Width);
      if (MemW->Rhs->K == Expr::Kind::Reg)
        storeReg(M.DataReg, *MemW->Rhs);
      FillAddr(M, *A);
    }
  }

  return Summary;
}

DecodedWord spawn::analyzeWord(const MachineDesc &Desc, MachWord Word) {
  WordAnalyzer Analyzer(Desc, Word);
  return Analyzer.run();
}

/// Lays the trap conventions over a System answer.
static void layTrapConventions(DecodedWord &D, const TargetConventions &Conv) {
  if (D.Category != InstCategory::System)
    return;
  D.Reads = Conv.SyscallReads;
  D.Writes = Conv.SyscallWrites;
}

DecodedWord spawn::analyzeWord(const MachineDesc &Desc, MachWord Word,
                               const TargetConventions &Conv) {
  DecodedWord D = analyzeWord(Desc, Word);
  layTrapConventions(D, Conv);
  return D;
}

// --- The compiled decoder --------------------------------------------------------

/// Spreads the low bits of \p Value over the set bits of \p Mask, lowest
/// first (the inverse of the key CompiledDecoder::entryOf extracts).
static uint32_t depositBits(uint32_t Value, uint32_t Mask) {
  uint32_t Out = 0;
  for (uint32_t Bit = 1; Mask; Bit <<= 1) {
    uint32_t Low = Mask & -Mask;
    if (Value & Bit)
      Out |= Low;
    Mask &= Mask - 1;
  }
  return Out;
}

/// Folds each Reg fill into a Byte fill of the same field, so that the
/// field is read once for its byte slot and its register set.
static void mergeRegisterFills(std::vector<DecodeFill> &Fills) {
  using Kind = DecodeFill::Kind;
  for (size_t I = 0; I < Fills.size(); ++I) {
    DecodeFill &R = Fills[I];
    if (R.K != Kind::Reg)
      continue;
    for (DecodeFill &B : Fills) {
      if (B.K != Kind::Byte || B.Lo != R.Lo || B.Mask != R.Mask ||
          ((B.ReadMask | B.WriteMask) && B.RegBase != R.RegBase) ||
          (B.ReadMask & R.ReadMask) || (B.WriteMask & R.WriteMask))
        continue;
      B.RegBase = R.RegBase;
      B.ReadMask |= R.ReadMask;
      B.WriteMask |= R.WriteMask;
      Fills.erase(Fills.begin() + static_cast<std::ptrdiff_t>(I--));
      break;
    }
  }
}

CompiledDecoder::CompiledDecoder(std::shared_ptr<const MachineDesc> TheDesc,
                                 const TargetConventions &Conv)
    : Desc(std::move(TheDesc)) {
  // Bound a pattern's entries so that a description folding a wide field
  // fails here rather than building a huge table.
  constexpr unsigned MaxSteeringBits = 8;
  Entries.emplace_back(); // words that match no pattern
  for (const InstPattern &P : Desc->Patterns) {
    struct Compiled {
      DecodedWord Template;
      std::vector<DecodeFill> Fills;
    };
    std::vector<Compiled> Walked;
    // Walk every value of the steering bits found so far; a walk that
    // folds a further free bit widens the key and starts over.
    uint32_t Steer = 0;
    for (;;) {
      unsigned N = static_cast<unsigned>(__builtin_popcount(Steer));
      if (N > MaxSteeringBits)
        reportFatalError("machine description '" + Desc->ArchName +
                         "': pattern '" + P.Name + "' folds " +
                         std::to_string(N) + " bits of its word");
      Walked.clear();
      uint32_t Found = 0;
      for (uint32_t K = 0; K < (1u << N); ++K) {
        Compiled C;
        WordAnalyzer Walk(*Desc, P.Match | depositBits(K, Steer), &C.Fills);
        C.Template = Walk.run();
        Found |= Walk.steeringBits();
        Walked.push_back(std::move(C));
      }
      Found &= ~P.Mask;
      if ((Found & ~Steer) == 0)
        break;
      Steer |= Found;
    }

    Key K;
    K.First = static_cast<uint32_t>(Entries.size());
    unsigned At = 0;
    for (uint32_t Rest = Steer; Rest;) {
      unsigned Lo = static_cast<unsigned>(__builtin_ctz(Rest));
      unsigned Width = static_cast<unsigned>(__builtin_ctz(~(Rest >> Lo)));
      if (K.NumRuns == Key::MaxRuns)
        reportFatalError("machine description '" + Desc->ArchName +
                         "': pattern '" + P.Name +
                         "' is steered by too many separate fields");
      uint32_t Mask = (1u << Width) - 1u;
      K.Runs[K.NumRuns++] = {static_cast<uint8_t>(Lo),
                             static_cast<uint8_t>(At), Mask};
      At += Width;
      Rest &= ~(Mask << Lo);
    }
    Keys.push_back(K);

    for (Compiled &C : Walked) {
      Entry &E = Entries.emplace_back();
      E.Template = C.Template;
      E.FirstFill = static_cast<uint32_t>(Fills.size());
      if (E.Template.Category == InstCategory::System) {
        layTrapConventions(E.Template, Conv);
        std::erase_if(C.Fills, [](const DecodeFill &F) {
          return F.K == DecodeFill::Kind::Reg;
        });
      }
      mergeRegisterFills(C.Fills);
      // Bytes, then words, then registers: the order of Kind.
      std::stable_sort(C.Fills.begin(), C.Fills.end(),
                       [](const DecodeFill &A, const DecodeFill &B) {
                         return A.K < B.K;
                       });
      for (const DecodeFill &F : C.Fills) {
        Fills.push_back(F);
        ++(F.K == DecodeFill::Kind::Byte   ? E.NumBytes
           : F.K == DecodeFill::Kind::Word ? E.NumWords
                                           : E.NumRegs);
      }
    }
  }
}
