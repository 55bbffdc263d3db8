//===- spawn/Eval.cpp - Concrete RTL execution ------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "spawn/Eval.h"

#include "support/BitOps.h"
#include "support/Error.h"

#include <map>

using namespace eel;
using namespace eel::spawn;

namespace {

// 4-bit NZVC condition-code helpers (semantics of the cc_* builtins; these
// duplicate the SRISC encoding helpers deliberately — the evaluator must not
// depend on any target's encoding header).
enum : uint32_t { FlagC = 1, FlagV = 2, FlagZ = 4, FlagN = 8 };

static uint32_t ccAdd(uint32_t A, uint32_t B) {
  uint32_t R = A + B;
  uint32_t CC = 0;
  if (R & 0x80000000u)
    CC |= FlagN;
  if (R == 0)
    CC |= FlagZ;
  if (((A ^ R) & (B ^ R)) & 0x80000000u)
    CC |= FlagV;
  if (R < A)
    CC |= FlagC;
  return CC;
}

static uint32_t ccSub(uint32_t A, uint32_t B) {
  uint32_t R = A - B;
  uint32_t CC = 0;
  if (R & 0x80000000u)
    CC |= FlagN;
  if (R == 0)
    CC |= FlagZ;
  if (((A ^ B) & (A ^ R)) & 0x80000000u)
    CC |= FlagV;
  if (A < B)
    CC |= FlagC;
  return CC;
}

static uint32_t ccLogic(uint32_t R) {
  uint32_t CC = 0;
  if (R & 0x80000000u)
    CC |= FlagN;
  if (R == 0)
    CC |= FlagZ;
  return CC;
}

static uint32_t evalBuiltin(RtlFn Fn, const std::vector<uint32_t> &Args) {
  auto A = [&](size_t I) { return Args[I]; };
  auto SA = [&](size_t I) { return static_cast<int32_t>(Args[I]); };
  bool N, Z, V, C;
  auto UnpackCC = [&](uint32_t CC) {
    N = CC & FlagN;
    Z = CC & FlagZ;
    V = CC & FlagV;
    C = CC & FlagC;
  };
  switch (Fn) {
  case RtlFn::Add:
    return A(0) + A(1);
  case RtlFn::Sub:
    return A(0) - A(1);
  case RtlFn::And:
    return A(0) & A(1);
  case RtlFn::Or:
    return A(0) | A(1);
  case RtlFn::Xor:
    return A(0) ^ A(1);
  case RtlFn::Sll:
    return A(0) << (A(1) & 31);
  case RtlFn::Srl:
    return A(0) >> (A(1) & 31);
  case RtlFn::Sra:
    return static_cast<uint32_t>(SA(0) >> (A(1) & 31));
  case RtlFn::Mul:
    // Wrapping semantics; unsigned multiply has the same low 32 bits and
    // no signed-overflow UB.
    return A(0) * A(1);
  case RtlFn::Div:
    if (SA(1) == 0)
      return 0;
    if (SA(0) == INT32_MIN && SA(1) == -1)
      return static_cast<uint32_t>(INT32_MIN);
    return static_cast<uint32_t>(SA(0) / SA(1));
  case RtlFn::Rem:
    if (SA(1) == 0)
      return A(0);
    if (SA(0) == INT32_MIN && SA(1) == -1)
      return 0;
    return static_cast<uint32_t>(SA(0) % SA(1));
  case RtlFn::SetLess:
    return SA(0) < SA(1) ? 1 : 0;
  case RtlFn::Eq:
    return A(0) == A(1) ? 1 : 0;
  case RtlFn::Ne:
    return A(0) != A(1) ? 1 : 0;
  case RtlFn::Les:
    return SA(0) <= SA(1) ? 1 : 0;
  case RtlFn::Gts:
    return SA(0) > SA(1) ? 1 : 0;
  case RtlFn::CcAdd:
    return ccAdd(A(0), A(1));
  case RtlFn::CcSub:
    return ccSub(A(0), A(1));
  case RtlFn::CcAnd:
    return ccLogic(A(0) & A(1));
  case RtlFn::CcOr:
    return ccLogic(A(0) | A(1));
  case RtlFn::CcXor:
    return ccLogic(A(0) ^ A(1));
  case RtlFn::CondE:
    UnpackCC(A(0));
    return Z;
  case RtlFn::CondLe:
    UnpackCC(A(0));
    return Z || (N != V);
  case RtlFn::CondL:
    UnpackCC(A(0));
    return N != V;
  case RtlFn::CondLeu:
    UnpackCC(A(0));
    return C || Z;
  case RtlFn::CondCs:
    UnpackCC(A(0));
    return C;
  case RtlFn::CondNeg:
    UnpackCC(A(0));
    return N;
  case RtlFn::CondVs:
    UnpackCC(A(0));
    return V;
  case RtlFn::CondNe:
    UnpackCC(A(0));
    return !Z;
  case RtlFn::CondG:
    UnpackCC(A(0));
    return !(Z || (N != V));
  case RtlFn::CondGe:
    UnpackCC(A(0));
    return N == V;
  case RtlFn::CondGu:
    UnpackCC(A(0));
    return !(C || Z);
  case RtlFn::CondCc:
    UnpackCC(A(0));
    return !C;
  case RtlFn::CondPos:
    UnpackCC(A(0));
    return !N;
  case RtlFn::CondVc:
    UnpackCC(A(0));
    return !V;
  case RtlFn::Sx:
    unreachable("sx handled at the Apply site");
  }
  unreachable("unhandled builtin");
}

/// One instruction's concrete execution.
class Evaluator {
public:
  Evaluator(const MachineDesc &Desc, Machine &M, Addr PC, MachWord Word)
      : Desc(Desc), M(M), PC(PC), Word(Word) {}

  StepOutcome run();

private:
  struct PendingRegWrite {
    unsigned Id;
    uint32_t Value;
  };
  struct PendingMemWrite {
    Addr A;
    unsigned Width;
    uint32_t Value;
  };

  uint32_t evalExpr(const ExprP &E);
  unsigned regId(const Expr &Reg);
  void execStmts(const std::vector<StmtP> &Stmts);
  void execStmt(const Stmt &S);
  void commit();

  const MachineDesc &Desc;
  Machine &M;
  Addr PC;
  MachWord Word;
  StepOutcome Out;
  std::map<std::string, uint32_t> Locals;
  std::vector<PendingRegWrite> RegWrites;
  std::vector<PendingMemWrite> MemWrites;
  bool PendingTrap = false;
  uint32_t TrapNumber = 0;
};

} // namespace

unsigned Evaluator::regId(const Expr &Reg) {
  const RegFileDef &RF = Desc.RegFiles[Reg.FileIndex];
  if (RF.Count == 0)
    return RF.BaseId;
  return RF.BaseId + (evalExpr(Reg.Args[0]) % RF.Count);
}

uint32_t Evaluator::evalExpr(const ExprP &E) {
  switch (E->K) {
  case Expr::Kind::Const:
    return static_cast<uint32_t>(E->IntVal);
  case Expr::Kind::Field: {
    const FieldDef *F = Desc.field(E->Name);
    assert(F && "unknown field");
    return Desc.fieldValue(*F, Word);
  }
  case Expr::Kind::Pc:
    return PC;
  case Expr::Kind::Local: {
    auto It = Locals.find(E->Name);
    if (It == Locals.end())
      reportFatalError("semantics read unbound temporary '" + E->Name + "'");
    return It->second;
  }
  case Expr::Kind::Reg:
    return M.cpu().Regs[regId(*E)];
  case Expr::Kind::Mem: {
    Addr A = evalExpr(E->Args[0]);
    // OnMemory sees the access before its alignment check, as in the VM.
    if (M.OnMemory)
      M.OnMemory(PC, A, E->MemWidth, /*IsStore=*/false);
    if (A & (E->MemWidth - 1)) {
      Out.BadAlign = true;
      return 0;
    }
    uint32_t Raw;
    switch (E->MemWidth) {
    case 1:
      Raw = M.memory().readByte(A);
      break;
    case 2:
      Raw = M.memory().readHalf(A);
      break;
    default:
      Raw = M.memory().readWord(A);
      break;
    }
    if (E->MemSignExtend)
      Raw = static_cast<uint32_t>(signExtend(Raw, E->MemWidth * 8));
    return Raw;
  }
  case Expr::Kind::Binary: {
    uint32_t L = evalExpr(E->Args[0]);
    uint32_t R = evalExpr(E->Args[1]);
    switch (E->Op) {
    case RtlBinOp::Add:
      return L + R;
    case RtlBinOp::Sub:
      return L - R;
    case RtlBinOp::Mul:
      return L * R;
    case RtlBinOp::And:
      return L & R;
    case RtlBinOp::Or:
      return L | R;
    case RtlBinOp::Xor:
      return L ^ R;
    case RtlBinOp::Shl:
      return L << (R & 31);
    case RtlBinOp::Eq:
      return L == R ? 1 : 0;
    case RtlBinOp::Ne:
      return L != R ? 1 : 0;
    }
    unreachable("unhandled binary operator");
  }
  case Expr::Kind::Ternary:
    return evalExpr(E->Args[0]) ? evalExpr(E->Args[1]) : evalExpr(E->Args[2]);
  case Expr::Kind::Apply: {
    if (E->Fn == RtlFn::Sx) {
      const FieldDef *F = Desc.field(E->Args[0]->Name);
      assert(F && "sx of unknown field");
      return static_cast<uint32_t>(
          signExtend(Desc.fieldValue(*F, Word), F->width()));
    }
    std::vector<uint32_t> Args;
    Args.reserve(E->Args.size());
    for (const ExprP &Arg : E->Args)
      Args.push_back(evalExpr(Arg));
    return evalBuiltin(E->Fn, Args);
  }
  }
  unreachable("unhandled expression kind");
}

void Evaluator::execStmt(const Stmt &S) {
  switch (S.K) {
  case Stmt::Kind::Skip:
    return;
  case Stmt::Kind::AssignLocal:
    Locals[S.Name] = evalExpr(S.Rhs);
    return;
  case Stmt::Kind::AssignReg: {
    unsigned Id = regId(*S.Lhs);
    uint32_t Value = evalExpr(S.Rhs);
    if (static_cast<int>(Id) != Desc.ZeroRegId)
      RegWrites.push_back({Id, Value});
    return;
  }
  case Stmt::Kind::AssignPc: {
    Out.Branch = true;
    Out.Target = evalExpr(S.Rhs);
    return;
  }
  case Stmt::Kind::AssignMem: {
    Addr A = evalExpr(S.Lhs->Args[0]);
    unsigned Width = S.Lhs->MemWidth;
    uint32_t Value = evalExpr(S.Rhs);
    if (M.OnMemory)
      M.OnMemory(PC, A, Width, /*IsStore=*/true);
    if (A & (Width - 1)) {
      Out.BadAlign = true;
      return;
    }
    MemWrites.push_back({A, Width, Value});
    return;
  }
  case Stmt::Kind::Annul:
    Out.Annul = true;
    return;
  case Stmt::Kind::Trap:
    PendingTrap = true;
    TrapNumber = evalExpr(S.Rhs);
    return;
  case Stmt::Kind::Guard:
    if (evalExpr(S.Cond))
      execStmts(S.Then);
    else
      execStmts(S.Else);
    return;
  }
}

void Evaluator::execStmts(const std::vector<StmtP> &Stmts) {
  for (const StmtP &S : Stmts) {
    execStmt(*S);
    if (Out.BadAlign)
      return;
  }
}

void Evaluator::commit() {
  for (const PendingRegWrite &W : RegWrites)
    M.cpu().Regs[W.Id] = W.Value;
  RegWrites.clear();
  for (const PendingMemWrite &W : MemWrites) {
    switch (W.Width) {
    case 1:
      M.memory().writeByte(W.A, static_cast<uint8_t>(W.Value));
      break;
    case 2:
      M.memory().writeHalf(W.A, static_cast<uint16_t>(W.Value));
      break;
    default:
      M.memory().writeWord(W.A, W.Value);
      break;
    }
  }
  MemWrites.clear();
}

StepOutcome Evaluator::run() {
  int Index = Desc.decode(Word);
  if (Index < 0) {
    Out.Invalid = true;
    return Out;
  }
  const Semantics &Sem = Desc.Sems[Desc.Patterns[Index].SemIndex];

  // Issue-time statements: parallel reads of the old state, then commit.
  execStmts(Sem.Before);
  if (Out.BadAlign)
    return Out;
  commit();
  // Delayed statements (the control transfer). Register effects here are
  // still issue-time on our targets; only the PC update is delayed, which
  // the run loop models with the (PC, NPC) pair.
  execStmts(Sem.After);
  if (Out.BadAlign)
    return Out;
  commit();

  // Trap conventions live outside the description (paper §4); the VM's
  // trap path applies them.
  if (PendingTrap) {
    if (std::optional<int> Status = M.trap(TrapNumber)) {
      Out.Exited = true;
      Out.ExitCode = *Status;
    }
  }
  return Out;
}

StepOutcome spawn::executeWord(const MachineDesc &Desc, Machine &M, Addr PC,
                               MachWord Word) {
  Evaluator E(Desc, M, PC, Word);
  return E.run();
}

RunResult spawn::runWithDescription(const MachineDesc &Desc,
                                    const SxfFile &File, uint64_t MaxSteps) {
  Machine M(File);
  return M.runGeneric(
      [&Desc](Machine &Mach, Addr PC, MachWord Word) {
        return executeWord(Desc, Mach, PC, Word);
      },
      MaxSteps);
}
