//===- analysis/InferRules.cpp - eel-infer rule implementations ----------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fact-gathering rules of eel-infer (R1–R4, R6). Each rule reads the
/// image (and, for R4/R6, slices within candidate extents) and appends
/// plain records to the InferContext; the fixpoint driver in Infer.cpp
/// decides what the facts mean. Everything here is strictly serial and
/// iterates in address order — determinism by construction.
///
//===----------------------------------------------------------------------===//

#include "analysis/InferInternal.h"

#include "core/Routine.h"
#include "core/Slice.h"

#include <algorithm>

using namespace eel;
using namespace eel::infer;

void infer::scanText(InferContext &Ctx) {
  Analysis &An = Ctx.An;
  const unsigned SP = An.target().conventions().StackPointer;
  const unsigned FP = An.target().conventions().FramePointer;
  Ctx.Plausible.assign((Ctx.TE - Ctx.TB) / 4, false);

  for (Addr A = Ctx.TB; A + 4 <= Ctx.TE; A += 4) {
    const Instruction *I = An.instAt(A);
    if (!I)
      break;
    if (I->kind() == InstKind::Invalid) {
      ++Ctx.Stats.ImplausibleWords;
      continue; // R1: a data-in-text seed, never code
    }
    Ctx.Plausible[(A - Ctx.TB) / 4] = true;
    ++Ctx.Stats.PlausibleWords;

    // R2a: direct call targets.
    if (I->kind() == InstKind::Call) {
      std::optional<Addr> T = I->directTarget(A);
      if (T && *T >= Ctx.TB && *T < Ctx.TE && (*T & 3) == 0)
        Ctx.CallTargets.push_back(*T);
    }

    // R2b: the prologue idiom — a word that grows the stack frame.
    DataOp Op = I->dataOp();
    if (Op.Kind == DataOpKind::Add && Op.Rd == SP && Op.Rs1 == SP &&
        Op.HasImm && Op.Imm < 0)
      Ctx.PrologueSites.push_back(A);

    // R2c: store sites, pre-classified by base register. Stack- and
    // frame-relative stores write locals; they cannot alias a global cell.
    if (I->isMemoryReference()) {
      const MemOp &M = I->memOp();
      if (M.IsStore) {
        StoreFact F;
        F.At = A;
        F.Width = M.Width;
        F.StackRelative =
            !M.HasIndex && (M.AddrBase == SP || (FP && M.AddrBase == FP));
        Ctx.Stores.push_back(F);
      }
    }

    // R2d: the indirect-jump sites R6 will slice.
    if (I->kind() == InstKind::IndirectJump)
      Ctx.IndirectJumps.push_back(A);
  }

  // Call targets vote once each, however many call sites agree.
  std::sort(Ctx.CallTargets.begin(), Ctx.CallTargets.end());
  Ctx.CallTargets.erase(
      std::unique(Ctx.CallTargets.begin(), Ctx.CallTargets.end()),
      Ctx.CallTargets.end());
  Ctx.Stats.CallTargets = static_cast<unsigned>(Ctx.CallTargets.size());
  Ctx.Stats.PrologueSites = static_cast<unsigned>(Ctx.PrologueSites.size());
}

void infer::scanDataPointers(InferContext &Ctx) {
  Analysis &An = Ctx.An;
  const SxfFile &Image = An.image();

  // A word-aligned value inside any initialized data segment could be a
  // table base (the mangled-dispatch idiom loads its base from memory).
  auto InData = [&Image](uint32_t V) {
    if (V & 3)
      return false;
    for (const SxfSegment &Seg : Image.Segments)
      if (Seg.Kind != SegKind::Text && V >= Seg.VAddr &&
          V < Seg.VAddr + Seg.MemSize)
        return true;
    return false;
  };

  for (const SxfSegment &Seg : Image.Segments) {
    if (Seg.Kind == SegKind::Text || Seg.Bytes.empty())
      continue;
    // First pass over the segment: which words hold aligned text addresses.
    size_t Words = Seg.Bytes.size() / 4;
    std::vector<bool> TextPtr(Words, false);
    for (size_t Idx = 0; Idx < Words; ++Idx) {
      Addr A = Seg.VAddr + static_cast<Addr>(4 * Idx);
      std::optional<uint32_t> W = An.fetchWord(A);
      if (W && An.isTextAddr(*W) && (*W & 3) == 0)
        TextPtr[Idx] = true;
    }
    // Second pass: emit cell facts. Consecutive runs of two or more text
    // pointers look like a dispatch table — their values are case labels,
    // not routine entries.
    for (size_t Idx = 0; Idx < Words; ++Idx) {
      Addr A = Seg.VAddr + static_cast<Addr>(4 * Idx);
      uint32_t W = *An.fetchWord(A);
      CellFact F;
      F.Cell = A;
      F.Value = W;
      if (TextPtr[Idx]) {
        F.PointsToText = true;
        F.InTableRun = (Idx > 0 && TextPtr[Idx - 1]) ||
                       (Idx + 1 < Words && TextPtr[Idx + 1]);
        if (F.InTableRun)
          ++Ctx.Stats.TableRunWords;
        else
          ++Ctx.Stats.CodePointers;
      } else if (InData(W) && W != 0) {
        F.PointsToText = false; // a candidate table-base cell
      } else {
        continue; // plain data, no fact
      }
      Ctx.Cells.push_back(F);
    }
  }
  std::sort(Ctx.Cells.begin(), Ctx.Cells.end(),
            [](const CellFact &A, const CellFact &B) { return A.Cell < B.Cell; });
}

void infer::computeReachable(InferContext &Ctx) {
  Analysis &An = Ctx.An;
  Ctx.Reachable.assign((Ctx.TE - Ctx.TB) / 4, false);
  std::vector<Addr> Worklist;
  for (const auto &[A, F] : Ctx.Entries) {
    (void)F;
    Worklist.push_back(A);
  }
  for (const auto &[A, Res] : Ctx.Sites) {
    (void)A;
    for (Addr T : Res.Targets)
      Worklist.push_back(T);
  }
  auto Mark = [&Ctx](Addr A) {
    size_t Idx = (A - Ctx.TB) / 4;
    bool Seen = Ctx.Reachable[Idx];
    Ctx.Reachable[Idx] = true;
    return Seen;
  };
  while (!Worklist.empty()) {
    Addr A = Worklist.back();
    Worklist.pop_back();
    if (A < Ctx.TB || A + 4 > Ctx.TE || (A & 3) || Mark(A))
      continue;
    const Instruction *I = An.instAt(A);
    if (!I)
      continue;
    if (I->kind() == InstKind::Invalid)
      continue; // an entry vote landed on data; the scan stops here
    if (!I->isControlTransfer()) {
      Worklist.push_back(A + 4);
      continue;
    }
    if (I->hasDelaySlot() &&
        I->delayBehavior() != DelayBehavior::AnnulAlways && A + 8 <= Ctx.TE)
      Mark(A + 4);
    // Fallthrough/continuation: past the delay slot only when one exists.
    Addr Past = A + (I->hasDelaySlot() ? 8 : 4);
    switch (I->kind()) {
    case InstKind::Branch: {
      std::optional<Addr> T = I->directTarget(A);
      if (T)
        Worklist.push_back(*T);
      Worklist.push_back(Past);
      break;
    }
    case InstKind::Jump: {
      std::optional<Addr> T = I->directTarget(A);
      if (T)
        Worklist.push_back(*T);
      break;
    }
    case InstKind::Call:
    case InstKind::IndirectCall: {
      std::optional<Addr> T = I->directTarget(A);
      if (T)
        Worklist.push_back(*T);
      Worklist.push_back(Past);
      break;
    }
    case InstKind::Return:
    case InstKind::IndirectJump:
      break; // indirect targets arrive via the previous round's Sites
    default:
      Worklist.push_back(A + 4);
      break;
    }
  }
  Ctx.Stats.ReachableWords = 0;
  for (bool B : Ctx.Reachable)
    if (B)
      ++Ctx.Stats.ReachableWords;
}

std::vector<std::pair<Addr, uint32_t>>
infer::computeCellConstancy(InferContext &Ctx,
                            const std::vector<Extent> &Extents) {
  Analysis &An = Ctx.An;

  // Classify every reachable non-stack store under the current partition:
  // slice its base within the extent containing it. One scratch routine
  // per extent. Unreachable stores are data decoded as instructions (or
  // dead bytes) — the data-in-text exclusion drops their facts entirely.
  bool UnknownWordStore = false;
  bool UnknownSubWordStore = false;
  size_t ExtIdx = 0;
  std::unique_ptr<Routine> Scratch;
  Addr ScratchLo = 0;
  for (StoreFact &F : Ctx.Stores) {
    F.AddrKnown = false;
    if (F.StackRelative)
      continue;
    if (!Ctx.Reachable[(F.At - Ctx.TB) / 4])
      continue;
    while (ExtIdx < Extents.size() && Extents[ExtIdx].Hi <= F.At)
      ++ExtIdx;
    if (ExtIdx >= Extents.size() || F.At < Extents[ExtIdx].Lo) {
      UnknownWordStore = true; // a store outside every extent: give up
      continue;
    }
    if (!Scratch || ScratchLo != Extents[ExtIdx].Lo) {
      Scratch = std::make_unique<Routine>(An, "infer_scratch",
                                          Extents[ExtIdx].Lo,
                                          Extents[ExtIdx].Hi);
      ScratchLo = Extents[ExtIdx].Lo;
    }
    if (std::optional<Addr> T = storeTargetAddr(An, *Scratch, F.At)) {
      F.AddrKnown = true;
      F.Target = *T;
    } else if (F.Width == 4) {
      // A full-width store through an unprovable pointer could write any
      // cell: the rule refuses to call anything constant.
      UnknownWordStore = true;
    } else {
      // Sub-word stores through unprovable pointers are byte I/O in
      // practice (string/number formatting); ignoring them is the one
      // leap of faith, recorded per cell as WeakStores.
      UnknownSubWordStore = true;
    }
  }

  std::vector<std::pair<Addr, uint32_t>> Constant;
  for (CellFact &Cell : Ctx.Cells) {
    Cell.Constant = false;
    Cell.WeakStores = UnknownSubWordStore;
    if (UnknownWordStore)
      continue;
    bool Written = false;
    for (const StoreFact &F : Ctx.Stores)
      if (F.AddrKnown && F.Target + F.Width > Cell.Cell &&
          F.Target < Cell.Cell + 4) {
        Written = true;
        break;
      }
    if (Written)
      continue;
    Cell.Constant = true;
    Constant.emplace_back(Cell.Cell, Cell.Value);
  }
  Ctx.Stats.ConstantCells = static_cast<unsigned>(Constant.size());
  return Constant;
}

void infer::resolveSites(InferContext &Ctx,
                         const std::vector<Extent> &Extents) {
  Analysis &An = Ctx.An;
  Ctx.Sites.clear();
  Ctx.Tables.clear();
  Ctx.ResolutionTargets.clear();

  size_t ExtIdx = 0;
  std::unique_ptr<Routine> Scratch;
  Addr ScratchLo = 0;
  for (Addr A : Ctx.IndirectJumps) {
    while (ExtIdx < Extents.size() && Extents[ExtIdx].Hi <= A)
      ++ExtIdx;
    if (ExtIdx >= Extents.size() || A < Extents[ExtIdx].Lo)
      continue;
    if (!Scratch || ScratchLo != Extents[ExtIdx].Lo) {
      Scratch = std::make_unique<Routine>(An, "infer_scratch",
                                          Extents[ExtIdx].Lo,
                                          Extents[ExtIdx].Hi);
      ScratchLo = Extents[ExtIdx].Lo;
    }
    IndirectResolution Res = resolveIndirect(An, *Scratch, A);
    TableFact TF;
    TF.Jump = A;
    TF.Evidence = tableEvidence(An, *Scratch, A);
    if (TF.Evidence.HasTable)
      Ctx.Tables.push_back(TF);
    if (Res.K == IndirectResolution::Kind::Literal) {
      Addr T = Res.Targets[0];
      if (An.isTextAddr(T) && (T & 3) == 0)
        Ctx.ResolutionTargets.insert(T);
    }
    Ctx.Sites.emplace(A, std::move(Res));
  }
}
