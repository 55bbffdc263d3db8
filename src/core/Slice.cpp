//===- core/Slice.cpp - Backward slicing for indirect jumps -----------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Slice.h"

#include "core/Executable.h"
#include "core/Routine.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <set>

using namespace eel;

namespace {

/// Shared walk state: decoded instructions and join points of one routine.
class Slicer {
public:
  Slicer(const Analysis &An, const Routine &R) : An(An), R(R) {
    // Branch/jump targets inside the routine are join points: walking a
    // definition past one would merge paths we know nothing about.
    for (Addr A = R.startAddr(); A + 4 <= R.endAddr(); A += 4) {
      const Instruction *I = instAt(A);
      if (!I)
        continue;
      if (I->kind() == InstKind::Branch || I->kind() == InstKind::Jump) {
        std::optional<Addr> T = I->directTarget(A);
        if (T && R.contains(*T))
          Joins.insert(*T);
      }
    }
    for (Addr E : R.entryPoints())
      Joins.insert(E);
  }

  const Instruction *instAt(Addr A) {
    return R.contains(A) ? An.instAt(A) : nullptr;
  }

  /// Value of \p Reg immediately before the instruction at \p At.
  SymValue value(Addr At, unsigned Reg, unsigned Depth);

  /// True when any value() result in this slice was folded through an
  /// eel-infer constant cell.
  bool usedOracle() const { return !Folds.empty(); }

  /// The constant cells folded so far, in fold order.
  const std::vector<std::pair<Addr, uint32_t>> &folds() const {
    return Folds;
  }

private:
  /// The eel-infer oracle: a load from a cell proven constant collapses to
  /// the cell's initial contents. With no inference results installed
  /// (every symboled analysis) this never fires and slicing is unchanged.
  SymValue foldCell(SymValue V) {
    if (V.K != SymValue::Kind::CellLoad)
      return V;
    std::optional<uint32_t> Known = An.inferredCellValue(V.CellAddr);
    if (!Known)
      return V;
    Folds.push_back({V.CellAddr, *Known});
    SymValue Out;
    Out.K = SymValue::Kind::Const;
    Out.Const = *Known;
    return Out;
  }

  const Analysis &An;
  const Routine &R;
  std::set<Addr> Joins;
  std::vector<std::pair<Addr, uint32_t>> Folds;

  static constexpr unsigned MaxWalk = 128;
  static constexpr unsigned MaxDepth = 16;
};

} // namespace

/// Combines two slice values under addition.
static SymValue addValues(const SymValue &A, const SymValue &B) {
  SymValue Out;
  if (A.K == SymValue::Kind::Const && B.K == SymValue::Kind::Const) {
    Out.K = SymValue::Kind::Const;
    Out.Const = A.Const + B.Const;
    return Out;
  }
  // Const + Scaled is a table-entry address: targets without reg+reg
  // addressing (MRISC) add the base and scaled index explicitly.
  const SymValue *C = nullptr, *S = nullptr;
  if (A.K == SymValue::Kind::Const && B.K == SymValue::Kind::Scaled) {
    C = &A;
    S = &B;
  } else if (B.K == SymValue::Kind::Const &&
             A.K == SymValue::Kind::Scaled) {
    C = &B;
    S = &A;
  }
  if (C) {
    Out.K = SymValue::Kind::TableAddr;
    Out.Base = C->Const;
    Out.OrigReg = S->OrigReg;
    Out.Shift = S->Shift;
  }
  return Out;
}

SymValue Slicer::value(Addr At, unsigned Reg, unsigned Depth) {
  SymValue Unknown;
  if (Depth > MaxDepth)
    return Unknown;
  if (Reg == 0) {
    // The hard-zero register always reads zero on both targets.
    SymValue Zero;
    Zero.K = SymValue::Kind::Const;
    Zero.Const = 0;
    return Zero;
  }

  unsigned Steps = 0;
  Addr A = At;
  while (A > R.startAddr() && Steps++ < MaxWalk) {
    // A join point (branch target or entry) at or below the current
    // position means control can enter here, bypassing any definition
    // above: the linear walk stops.
    if (Joins.count(A))
      return Unknown;
    A -= 4;
    const Instruction *I = instAt(A);
    if (!I)
      return Unknown;

    // A control transfer between the definition and the use means the use
    // site may be reached along a different path — unless this transfer
    // falls through (conditional branch or call), in which case the linear
    // walk is still one valid path; since slices feed conservative
    // *may-target* sets (and the table idiom sits in straight-line code),
    // we keep walking through fall-through transfers but stop at
    // unconditional ones.
    if (I->isControlTransfer()) {
      switch (I->kind()) {
      case InstKind::Branch:
      case InstKind::Call:
      case InstKind::IndirectCall:
        // Falls through. A call clobbers caller-saved registers though.
        if (I->kind() != InstKind::Branch) {
          const RegSet &Clobbered = An.target().conventions().CallerSaved;
          if (Clobbered.contains(Reg))
            return Unknown;
        }
        break;
      default:
        return Unknown; // jump/return: no fall-through path
      }
    }

    if (!I->writes().contains(Reg))
      continue; // the loop head stops at join points before going higher

    // Found the definition. Express it if possible.
    DataOp Op = I->dataOp();
    if (Op.Kind == DataOpKind::None) {
      // Perhaps a load: the table or cell idiom.
      if (I->isMemoryReference()) {
        const MemOp &M = I->memOp();
        if (!M.IsLoad || M.Width != 4 || M.DataReg != Reg)
          return Unknown;
        SymValue BaseV = value(A, M.AddrBase, Depth + 1);
        SymValue Out;
        if (!M.HasIndex) {
          if (BaseV.K == SymValue::Kind::Const) {
            Out.K = SymValue::Kind::CellLoad;
            Out.CellAddr = BaseV.Const + static_cast<uint32_t>(M.Offset);
          } else if (BaseV.K == SymValue::Kind::TableAddr) {
            Out.K = SymValue::Kind::TableLoad;
            Out.Base = BaseV.Base + static_cast<uint32_t>(M.Offset);
            Out.OrigReg = BaseV.OrigReg;
            Out.Shift = BaseV.Shift;
          }
          return foldCell(Out);
        }
        SymValue IndexV = value(A, M.AddrIndex, Depth + 1);
        if (BaseV.K == SymValue::Kind::Const &&
            IndexV.K == SymValue::Kind::Scaled) {
          Out.K = SymValue::Kind::TableLoad;
          Out.Base = BaseV.Const;
          Out.OrigReg = IndexV.OrigReg;
          Out.Shift = IndexV.Shift;
        } else if (BaseV.K == SymValue::Kind::Scaled &&
                   IndexV.K == SymValue::Kind::Const) {
          Out.K = SymValue::Kind::TableLoad;
          Out.Base = IndexV.Const;
          Out.OrigReg = BaseV.OrigReg;
          Out.Shift = BaseV.Shift;
        } else if (BaseV.K == SymValue::Kind::Const &&
                   IndexV.K == SymValue::Kind::Const) {
          Out.K = SymValue::Kind::CellLoad;
          Out.CellAddr = BaseV.Const + IndexV.Const;
        }
        return foldCell(Out);
      }
      return Unknown;
    }

    switch (Op.Kind) {
    case DataOpKind::LoadImmHi: {
      SymValue Out;
      Out.K = SymValue::Kind::Const;
      Out.Const = static_cast<uint32_t>(Op.Imm);
      return Out;
    }
    case DataOpKind::Or:
    case DataOpKind::Add: {
      SymValue L = value(A, Op.Rs1, Depth + 1);
      SymValue RV;
      if (Op.HasImm) {
        RV.K = SymValue::Kind::Const;
        RV.Const = static_cast<uint32_t>(Op.Imm);
      } else {
        RV = value(A, Op.Rs2, Depth + 1);
      }
      if (Op.Kind == DataOpKind::Or) {
        // The sethi/or and lui/ori idioms: disjoint bit patterns behave
        // like addition.
        if (L.K == SymValue::Kind::Const && RV.K == SymValue::Kind::Const) {
          SymValue Out;
          Out.K = SymValue::Kind::Const;
          Out.Const = L.Const | RV.Const;
          return Out;
        }
        return Unknown;
      }
      return addValues(L, RV);
    }
    case DataOpKind::Sll: {
      if (!Op.HasImm)
        return Unknown;
      SymValue Src = value(A, Op.Rs1, Depth + 1);
      SymValue Out;
      if (Src.K == SymValue::Kind::Const) {
        Out.K = SymValue::Kind::Const;
        Out.Const = Src.Const << (Op.Imm & 31);
        return Out;
      }
      // An unshifted register becomes a scaled index.
      Out.K = SymValue::Kind::Scaled;
      Out.OrigReg = Op.Rs1;
      Out.Shift = static_cast<unsigned>(Op.Imm & 31);
      return Out;
    }
    default:
      return Unknown;
    }
  }
  return Unknown;
}

SymValue eel::backwardSlice(const Analysis &An, const Routine &R, Addr At,
                            unsigned Reg) {
  bumpStat("eel.slice.queries");
  Slicer S(An, R);
  return S.value(At, Reg, 0);
}

/// Looks backwards from \p JumpAddr for a comparison bounding \p IdxReg:
/// a cc-setting subtract (SPARC cmp) or a set-less-than (MIPS slti) with an
/// immediate. Returns the exclusive upper bound on the index, if found.
static std::optional<unsigned> findBoundsCheck(const Analysis &An,
                                               const Routine &R,
                                               Addr JumpAddr,
                                               unsigned IdxReg) {
  unsigned Steps = 0;
  Addr A = JumpAddr;
  while (A > R.startAddr() && Steps++ < 48) {
    A -= 4;
    const Instruction *I = An.instAt(A);
    if (!I)
      return std::nullopt;
    DataOp Op = I->dataOp();
    if (Op.Kind == DataOpKind::Sub && Op.SetsCC && Op.HasImm &&
        Op.Rs1 == IdxReg && Op.Imm >= 0)
      return static_cast<unsigned>(Op.Imm) + 1; // cmp idx, N; bgu default
    if (Op.Kind == DataOpKind::SetLess && Op.HasImm && Op.Rs1 == IdxReg &&
        Op.Imm > 0)
      return static_cast<unsigned>(Op.Imm); // slti t, idx, N
  }
  return std::nullopt;
}

/// True when the block before the jump pops the frame (the tail-call
/// idiom: deallocate, then jump to the callee).
static bool looksLikeTailCall(const Analysis &An, const Routine &R,
                              Addr JumpAddr) {
  unsigned SP = An.target().conventions().StackPointer;
  unsigned Steps = 0;
  Addr A = JumpAddr;
  while (A > R.startAddr() && Steps++ < 16) {
    A -= 4;
    const Instruction *I = An.instAt(A);
    if (!I)
      return false;
    DataOp Op = I->dataOp();
    if (Op.Kind == DataOpKind::Add && Op.Rd == SP && Op.Rs1 == SP &&
        Op.HasImm && Op.Imm > 0)
      return true;
  }
  return false;
}

/// The symbolic jump-target value at an indirect transfer: the transfer's
/// base (and index/offset) registers sliced and combined per its shape.
static SymValue sliceJumpTarget(Slicer &S, const IndirectTargetInfo &Info,
                                Addr JumpAddr) {
  SymValue BaseV = S.value(JumpAddr, Info.BaseReg, 0);
  SymValue Target;
  if (Info.HasIndex) {
    SymValue IndexV = S.value(JumpAddr, Info.IndexReg, 0);
    if (BaseV.K == SymValue::Kind::Const &&
        IndexV.K == SymValue::Kind::Const) {
      Target.K = SymValue::Kind::Const;
      Target.Const = BaseV.Const + IndexV.Const;
    }
  } else if (Info.Offset == 0) {
    Target = BaseV;
  } else if (BaseV.K == SymValue::Kind::Const) {
    Target.K = SymValue::Kind::Const;
    Target.Const = BaseV.Const + static_cast<uint32_t>(Info.Offset);
  }
  return Target;
}

/// The address computation of the indirect transfer at \p JumpAddr;
/// asserts it is one.
static const IndirectTargetInfo &indirectAt(const Analysis &An,
                                            Addr JumpAddr) {
  const Instruction *I = An.instAt(JumpAddr);
  assert(I && "indirect jump outside the text");
  assert(I->isIndirect() && "resolveIndirect on a non-indirect instruction");
  return I->indirectInfo();
}

IndirectResolution eel::resolveIndirect(const Analysis &An, const Routine &R,
                                        Addr JumpAddr) {
  // The pipeline's only entry into slicing — backwardSlice() calls nested
  // here would double-count, so the span lives here alone.
  EEL_TRACE_SCOPE("slice.resolve_indirect", "routine", R.name());
  IndirectResolution Res;
  const IndirectTargetInfo &Info = indirectAt(An, JumpAddr);

  Slicer S(An, R);
  SymValue Target = sliceJumpTarget(S, Info, JumpAddr);

  switch (Target.K) {
  case SymValue::Kind::Const:
    Res.K = IndirectResolution::Kind::Literal;
    Res.Targets.push_back(Target.Const);
    if (S.usedOracle()) {
      Res.Inferred = true;
      // Remember which constant cell fed the jump target, so the editor
      // rewrites that cell precisely even with the heuristic data scan off.
      for (const auto &[Cell, Value] : S.folds())
        if (Value == Target.Const)
          Res.CellAddr = Cell;
      Res.TailCallIdiom = looksLikeTailCall(An, R, JumpAddr);
      bumpStat("eel.slice.inferred_literal");
    }
    bumpStat("eel.slice.literal");
    return Res;

  case SymValue::Kind::TableLoad: {
    if (Target.Shift != 2)
      break; // only word-sized entries are dispatch tables
    Res.TableAddr = Target.Base;
    // Enumerate entries while they are plausible code addresses; refine
    // with a bounds check on the (pre-scaling) index register when found.
    std::optional<unsigned> Bound =
        findBoundsCheck(An, R, JumpAddr, Target.OrigReg);
    unsigned Limit = Bound ? *Bound : 1024u;
    std::vector<Addr> Targets;
    for (unsigned Idx = 0; Idx < Limit; ++Idx) {
      std::optional<uint32_t> Entry =
          An.fetchWord(Res.TableAddr + 4 * Idx);
      if (!Entry || !An.isTextAddr(*Entry) || (*Entry & 3))
        break;
      Targets.push_back(*Entry);
    }
    if (Targets.empty())
      break;
    Res.K = IndirectResolution::Kind::DispatchTable;
    Res.EntryCount = static_cast<unsigned>(Targets.size());
    Res.BoundsProven = Bound.has_value() && *Bound == Res.EntryCount;
    Res.Targets = std::move(Targets);
    Res.Inferred = S.usedOracle();
    if (Res.Inferred)
      bumpStat("eel.slice.inferred_tables");
    bumpStat("eel.slice.dispatch_tables");
    return Res;
  }

  case SymValue::Kind::CellLoad:
    Res.K = IndirectResolution::Kind::CellPointer;
    Res.CellAddr = Target.CellAddr;
    Res.TailCallIdiom = looksLikeTailCall(An, R, JumpAddr);
    bumpStat("eel.slice.cells");
    return Res;

  default:
    break;
  }

  Res.K = IndirectResolution::Kind::Unanalyzable;
  Res.TailCallIdiom = looksLikeTailCall(An, R, JumpAddr);
  bumpStat("eel.slice.unanalyzable");
  return Res;
}

TableEvidence eel::tableEvidence(const Analysis &An, const Routine &R,
                                 Addr JumpAddr) {
  TableEvidence Ev;
  const IndirectTargetInfo &Info = indirectAt(An, JumpAddr);
  Slicer S(An, R);
  SymValue Target = sliceJumpTarget(S, Info, JumpAddr);
  if (Target.K != SymValue::Kind::TableLoad)
    return Ev;
  Ev.HasTable = true;
  Ev.Base = Target.Base;
  Ev.Shift = Target.Shift;
  Ev.Bound = findBoundsCheck(An, R, JumpAddr, Target.OrigReg);
  Ev.ViaConstantCell = S.usedOracle();
  return Ev;
}

std::optional<Addr> eel::storeTargetAddr(const Analysis &An, const Routine &R,
                                         Addr StoreAddr) {
  const Instruction *I = An.instAt(StoreAddr);
  if (!I)
    return std::nullopt;
  if (!I->isMemoryReference() || !I->memOp().IsStore)
    return std::nullopt;
  const MemOp &M = I->memOp();
  Slicer S(An, R);
  SymValue BaseV = S.value(StoreAddr, M.AddrBase, 0);
  if (BaseV.K != SymValue::Kind::Const)
    return std::nullopt;
  if (!M.HasIndex)
    return BaseV.Const + static_cast<uint32_t>(M.Offset);
  SymValue IndexV = S.value(StoreAddr, M.AddrIndex, 0);
  if (IndexV.K != SymValue::Kind::Const)
    return std::nullopt;
  return BaseV.Const + IndexV.Const;
}
