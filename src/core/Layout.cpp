//===- core/Layout.cpp - Edited-routine production ------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lays out one routine at a time (§3.3.1). Every piece of per-routine
/// bookkeeping is a flat array indexed by what it is keyed on: block
/// offsets, external targets and indirect sites by block id, the session's
/// edits by instruction row and by edge id, and the address-map dedup bits
/// by word of the extent. The edit index is built only when the session
/// edits the routine, so laying out an unedited routine costs time linear
/// in its words and blocks and allocates no node per either. A snippet
/// site allocates nothing: placeSnippet appends its words to the routine's
/// code, and its statistics are recorded once per routine.
///
//===----------------------------------------------------------------------===//

#include "core/Layout.h"

#include "core/Liveness.h"
#include "core/RegAlloc.h"
#include "core/Routine.h"
#include "core/Translate.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <climits>
#include <numeric>
#include <optional>

using namespace eel;

namespace {

using EditList = std::span<const Edit *const>;

/// The session's edits of one instruction: the snippets before and after
/// it, each in the order they were made, and whether it is deleted or
/// replaced.
struct InstEdits {
  EditList Before, After;
  bool Deleted = false;
  bool Replaced = false;
  MachWord Replacement = 0;
};

/// Lays out one routine.
class RoutineLayouter {
public:
  RoutineLayouter(const Executable &Exec, const Routine &R)
      : R(R), Exec(Exec), An(Exec.analysis()), Target(An.target()),
        ExtentBase(R.startAddr()),
        Mapped((R.endAddr() - R.startAddr()) / 4, false) {}

  /// Lays the routine out and copies its arrays into \p Arena.
  Expected<RoutineLayout> run(BumpArena &Arena);

private:
  unsigned here() const { return static_cast<unsigned>(Code.size()); }
  void emitWord(MachWord W) { Code.push_back(W); }

  /// Records A → here() unless A is mapped already (the first mapping
  /// wins). Every address a layout maps lies in its routine's extent: the
  /// CFG holds no word outside it (a delay slot past the end makes the
  /// graph unsupported, and the routine is copied verbatim), and verbatim
  /// copies walk the extent. An address outside it fails the layout (run()
  /// reports it), since the writer relies on each original address being
  /// mapped once, by the routine whose extent holds it. A word-indexed
  /// bitmask over the extent both suppresses duplicates and answers the
  /// remainder loop's membership queries.
  void mapAddr(Addr A) {
    if ((A - ExtentBase) / 4 >= Mapped.size()) { // below wraps around
      MappedOutside = true;
      return;
    }
    std::vector<bool>::reference Bit = Mapped[(A - ExtentBase) / 4];
    if (Bit)
      return;
    Bit = true;
    Map.emplace_back(A, here());
  }
  bool addrMapped(Addr A) const {
    return A >= ExtentBase && A < ExtentBase + 4 * Mapped.size() &&
           Mapped[(A - ExtentBase) / 4];
  }
  /// Sorts the flat address map by original address. Its keys are unique
  /// already; a map in increasing order, as an unedited routine's usually
  /// is, is left as it is.
  void sealAddrMap() {
    auto ByAddr = [](const auto &L, const auto &R) {
      return L.first < R.first;
    };
    if (!std::is_sorted(Map.begin(), Map.end(), ByAddr))
      std::sort(Map.begin(), Map.end(), ByAddr);
  }

  MachWord origWordAt(Addr A) const {
    std::optional<MachWord> W = An.fetchWord(A);
    assert(W && "instruction address outside image");
    return *W;
  }

  // --- Per-block state and edit bookkeeping ---------------------------------

  /// Indexes the graph's blocks and the session's edits of this routine;
  /// returns how many words the edits' snippet bodies hold.
  size_t indexGraph();
  InstEdits editsFor(const BasicBlock *B, unsigned InstIndex) const;
  EditList editsFor(const Edge *E) const;
  bool edgeHasCode(const Edge *E) const { return !editsFor(E).empty(); }
  bool blockHasEdits(const BasicBlock *B) const {
    return Blocks[B->id()].Edited;
  }

  // --- Emission helpers --------------------------------------------------------

  Expected<bool> emitSnippet(const Edit &E, const RegSet &LiveSet);
  Expected<bool> emitSnippets(EditList Edits, const RegSet &LiveSet);
  Expected<bool> emitEdgeCode(const Edge *E);
  Expected<bool> emitDelayBlockInline(const BasicBlock *DB);
  /// Emits edge1 code, the delay block (with edits), then edge2 code.
  Expected<bool> emitPath(const Edge *E1, const BasicBlock *DB,
                          const Edge *E2);
  bool pathHasCode(const Edge *E1, const BasicBlock *DB,
                   const Edge *E2) const;

  /// Emits a placeholder unconditional jump and records where it must go.
  void emitJumpTo(const BasicBlock *DestBlock, Addr ExternalDest);

  /// Records that the direct-transfer word at \p WordIndex, of shape
  /// \p Shape, targets an internal block / external address.
  void retargetTo(unsigned WordIndex, const DirectShape &Shape,
                  const BasicBlock *DestBlock, Addr ExternalDest);

  /// Address-materialization peephole: called after emitting an original
  /// instruction.
  void noteMaterialization(const Instruction *I, unsigned WordIndex);

  // --- Terminator lowering -------------------------------------------------------

  Expected<bool> emitBlock(const BasicBlock *B);
  Expected<bool> lowerTerminator(const BasicBlock *B, unsigned InstIndex);
  Expected<bool> lowerBranch(const BasicBlock *B, const CfgInst &Term);
  Expected<bool> lowerJump(const BasicBlock *B, const CfgInst &Term);
  Expected<bool> lowerCall(const BasicBlock *B, const CfgInst &Term);
  Expected<bool> lowerReturn(const BasicBlock *B, const CfgInst &Term);
  Expected<bool> lowerIndirect(const BasicBlock *B, const CfgInst &Term);

  Expected<bool> layOut();
  Expected<bool> emitStubs();
  Expected<bool> runVerbatim();
  MachWord terminatorWord(const BasicBlock *B, const CfgInst &Term) const;

  /// The displacement field of \p W, which replaces or is \p I's word.
  DirectShape shapeOf(const Instruction &I, MachWord W) const {
    return transferShape(W == I.word() ? I.decoded() : Target.decode(W));
  }
  static DirectShape transferShape(const DecodedWord &D) {
    return D.isDirectTransfer() ? D.Direct : DirectShape();
  }

  /// Finds the single successor edge of \p B with kind \p K, or null.
  static const Edge *edgeOfKind(const BasicBlock *B, EdgeKind K) {
    for (const Edge *E : B->succ())
      if (E->kind() == K)
        return E;
    return nullptr;
  }

  /// The successor edge of \p B along a Taken or UncondJump path: the
  /// edge of kind \p K, or the ExitInterJump that ends the path when its
  /// target lies outside the routine.
  static const Edge *pathEdgeOf(const BasicBlock *B, EdgeKind K) {
    const Edge *E = edgeOfKind(B, K);
    return E ? E : edgeOfKind(B, EdgeKind::ExitInterJump);
  }

  /// The external target recorded for an edge into the exit block.
  Addr externalTargetOf(const BasicBlock *From) const {
    const std::optional<Addr> &T = Blocks[From->id()].External;
    if (!T)
      unreachable("no external target recorded for block");
    return *T;
  }

  const Routine &R;
  const Executable &Exec; ///< The session whose batches are applied.
  const Analysis &An;
  const TargetInfo &Target;
  const Cfg *Graph = nullptr;
  const Liveness *Live = nullptr; ///< Owned by the routine.
  RoutineLayout Out; ///< Flags, statistics and call-backs.
  /// The arrays of Out while they grow; run() copies them into the arena.
  std::vector<MachWord> Code;
  std::vector<Reloc> Relocs;
  std::vector<std::pair<Addr, unsigned>> Map;
  std::vector<TableEntryFix> TableEntries;
  std::vector<CellFix> CellFixes;

  /// What layout knows about one block of the graph.
  struct BlockState {
    unsigned Offset = UINT_MAX;         ///< First word; Normal blocks only.
    std::optional<Addr> External;       ///< Its interJumps() target.
    const IndirectSite *Site = nullptr; ///< The indirect site it ends.
    /// A case edge into it, recorded by the dispatch lowered last; valid
    /// for a dispatch only when the edge's source is that dispatch's.
    const Edge *CaseEdge = nullptr;
    bool Edited = false; ///< Named by an instruction edit.
  };
  std::vector<BlockState> Blocks; ///< By block id.
  /// The session's edits of this graph, counting-sorted by key in the
  /// order they were made: a block's instruction I is row
  /// R = firstInstr() + I, with keys 3R (before it), 3R + 1 (after it) and
  /// 3R + 2 (replace or delete it); edge E has key 3 * rows + E->id(). The
  /// edits of key K are EditOrder[EditStart[K], EditStart[K + 1]). Both
  /// are empty when the routine is not edited.
  std::vector<const Edit *> EditOrder;
  std::vector<unsigned> EditStart;
  EditList editsOfKey(size_t Key) const {
    if (EditStart.empty())
      return {};
    return EditList(EditOrder.data() + EditStart[Key],
                    EditOrder.data() + EditStart[Key + 1]);
  }

  /// Scavenging statistics of the snippets placed so far; engaged by the
  /// first one, so a routine without snippets records nothing.
  std::optional<ScavengeTally> Tally;

  /// Stub requests, emitted after all blocks.
  struct StubRequest {
    const Edge *E1 = nullptr;
    const BasicBlock *DB = nullptr;
    const Edge *E2 = nullptr;
    const BasicBlock *DestBlock = nullptr;
    Addr ExternalDest = 0;
    unsigned BranchWordIndex = UINT_MAX; ///< Word to retarget at the stub.
    DirectShape BranchShape;             ///< That word's shape.
    /// Dispatch-table entries (TableEntries indices) to point at this stub.
    std::vector<size_t> TableSlots;
  };
  std::vector<StubRequest> Stubs;

  /// Internal transfer patches: word -> block (resolved to word indices
  /// once block offsets are final).
  struct PendingInternal {
    unsigned WordIndex;
    DirectShape Shape;
    const BasicBlock *DestBlock;
  };
  std::vector<PendingInternal> Internals;

  /// One bit per word of the routine extent: whether its address has been
  /// mapped already (mapAddr dedup + remainder-loop membership).
  Addr ExtentBase = 0;
  std::vector<bool> Mapped;
  bool MappedOutside = false; ///< mapAddr saw an address outside it.
};

} // namespace

size_t RoutineLayouter::indexGraph() {
  Blocks.resize(Graph->blocks().size());
  // At most one of each per block: a block ends with one transfer.
  for (const auto &[Block, TargetAddr] : Graph->interJumps())
    Blocks[Block->id()].External = TargetAddr;
  for (const IndirectSite &S : Graph->indirectSites())
    Blocks[S.Block->id()].Site = &S;

  std::span<const Edit> Batch = Exec.edits(*Graph);
  if (Batch.empty())
    return 0;
  const size_t EdgeBase = 3 * Graph->instRows().size();
  auto KeyOf = [&](const Edit &E) -> size_t {
    switch (E.K) {
    case Edit::Kind::OnEdge:
      return EdgeBase + E.E->id();
    case Edit::Kind::Before:
      return 3 * (E.Block->firstInstr() + E.InstIndex);
    case Edit::Kind::After:
      return 3 * (E.Block->firstInstr() + E.InstIndex) + 1;
    case Edit::Kind::Replace:
    case Edit::Kind::Delete:
      return 3 * (E.Block->firstInstr() + E.InstIndex) + 2;
    }
    unreachable("unknown edit kind");
  };
  // A stable counting sort: count key K's edits at K + 2, so that after the
  // prefix sum EditStart[K + 1] is where key K starts; placing each edit
  // at its key's cursor, in batch order, advances EditStart[K + 1] to key
  // K's end, which is where key K + 1 starts.
  EditStart.assign(EdgeBase + Graph->edges().size() + 2, 0);
  size_t BatchWords = 0;
  for (const Edit &E : Batch) {
    ++EditStart[KeyOf(E) + 2];
    if (E.Snippet)
      BatchWords += E.Snippet->body().size();
    if (E.K != Edit::Kind::OnEdge)
      Blocks[E.Block->id()].Edited = true;
  }
  std::partial_sum(EditStart.begin(), EditStart.end(), EditStart.begin());
  EditOrder.resize(Batch.size());
  for (const Edit &E : Batch)
    EditOrder[EditStart[KeyOf(E) + 1]++] = &E;
  return BatchWords;
}

InstEdits RoutineLayouter::editsFor(const BasicBlock *B,
                                    unsigned InstIndex) const {
  InstEdits L;
  if (EditStart.empty() || InstIndex >= B->size())
    return L;
  const size_t Key = 3 * (B->firstInstr() + InstIndex);
  L.Before = editsOfKey(Key);
  L.After = editsOfKey(Key + 1);
  for (const Edit *E : editsOfKey(Key + 2)) {
    if (E->K == Edit::Kind::Delete) {
      L.Deleted = true;
    } else {
      L.Replaced = true;
      L.Replacement = E->NewWord;
    }
  }
  return L;
}

EditList RoutineLayouter::editsFor(const Edge *E) const {
  return editsOfKey(3 * Graph->instRows().size() + E->id());
}

Expected<bool> RoutineLayouter::emitSnippet(const Edit &E,
                                            const RegSet &LiveSet) {
  const unsigned At = here();
  SnippetInstance Site;
  Expected<bool> Placed =
      placeSnippet(Target, *E.Snippet, LiveSet, Code, Site);
  if (Placed.hasError())
    return Placed.error();
  if (!Tally)
    Tally.emplace();
  Tally->add(Site);
  if (E.Snippet->callback()) {
    // The writer hands the instance to the callback once the routine is
    // placed, with its words re-read from the patched image.
    Site.Words.assign(Code.begin() + At, Code.end());
    Out.Callbacks.push_back({E.Snippet, std::move(Site), At});
  }
  return true;
}

Expected<bool> RoutineLayouter::emitSnippets(EditList Edits,
                                             const RegSet &LiveSet) {
  for (const Edit *Ed : Edits) {
    Expected<bool> Result = emitSnippet(*Ed, LiveSet);
    if (Result.hasError())
      return Result;
  }
  return true;
}

Expected<bool> RoutineLayouter::emitEdgeCode(const Edge *E) {
  EditList Edits = editsFor(E);
  if (Edits.empty())
    return true;
  return emitSnippets(Edits, Live->liveOnEdge(E));
}

Expected<bool> RoutineLayouter::emitDelayBlockInline(const BasicBlock *DB) {
  assert(DB->size() == 1 && "delay blocks hold exactly one instruction");
  const CfgInst &CI = DB->insts()[0];
  const InstEdits L = editsFor(DB, 0);
  mapAddr(CI.OrigAddr);
  if (!L.Before.empty()) {
    Expected<bool> Result = emitSnippets(L.Before, Live->liveBefore(DB, 0));
    if (Result.hasError())
      return Result;
  }
  if (!L.Deleted)
    emitWord(L.Replaced ? L.Replacement : CI.Inst->word());
  if (!L.After.empty())
    return emitSnippets(L.After, Live->liveAfter(DB, 0));
  return true;
}

bool RoutineLayouter::pathHasCode(const Edge *E1, const BasicBlock *DB,
                                  const Edge *E2) const {
  if (E1 && edgeHasCode(E1))
    return true;
  if (DB && blockHasEdits(DB))
    return true;
  if (E2 && edgeHasCode(E2))
    return true;
  return false;
}

Expected<bool> RoutineLayouter::emitPath(const Edge *E1, const BasicBlock *DB,
                                         const Edge *E2) {
  if (E1) {
    Expected<bool> Result = emitEdgeCode(E1);
    if (Result.hasError())
      return Result;
  }
  if (DB) {
    Expected<bool> Result = emitDelayBlockInline(DB);
    if (Result.hasError())
      return Result;
  }
  if (E2) {
    Expected<bool> Result = emitEdgeCode(E2);
    if (Result.hasError())
      return Result;
  }
  return true;
}

void RoutineLayouter::retargetTo(unsigned WordIndex, const DirectShape &Shape,
                                 const BasicBlock *DestBlock,
                                 Addr ExternalDest) {
  if (DestBlock) {
    Internals.push_back({WordIndex, Shape, DestBlock});
  } else {
    Reloc Rl;
    Rl.K = Reloc::Kind::JumpTo;
    Rl.WordIndex = WordIndex;
    Rl.OrigTarget = ExternalDest;
    Rl.Shape = Shape;
    Relocs.push_back(Rl);
  }
}

void RoutineLayouter::emitJumpTo(const BasicBlock *DestBlock,
                                 Addr ExternalDest) {
  unsigned At = here();
  bool Ok = Target.emitJump(0, 0, Code);
  assert(Ok && "zero-displacement jump must encode");
  (void)Ok;
  retargetTo(At, transferShape(Target.decode(Code[At])), DestBlock,
             ExternalDest);
}

void RoutineLayouter::noteMaterialization(const Instruction *I,
                                          unsigned WordIndex) {
  // Detect `hi(rd) ; or/add rd, rd, lo` pairs whose value is a text
  // address, and arrange to rewrite them to the edited address. This is
  // how statically materialized code pointers (including the literal-jump
  // idiom §3.3 mentions) keep working after code moves.
  const DataOp &Cur = I->dataOp();
  if (Cur.Kind != DataOpKind::Or && Cur.Kind != DataOpKind::Add)
    return;
  if (!Cur.HasImm || Cur.Rd != Cur.Rs1 || WordIndex == 0)
    return;
  MachWord PrevWord = Code[WordIndex - 1];
  DataOp Prev = Target.decode(PrevWord).Op;
  if (Prev.Kind != DataOpKind::LoadImmHi || Prev.Rd != Cur.Rd)
    return;
  uint32_t Value = Cur.Kind == DataOpKind::Or
                       ? (static_cast<uint32_t>(Prev.Imm) |
                          static_cast<uint32_t>(Cur.Imm))
                       : (static_cast<uint32_t>(Prev.Imm) +
                          static_cast<uint32_t>(Cur.Imm));
  if (!An.isTextAddr(Value))
    return;
  Relocs.push_back({Reloc::Kind::AddrHi, WordIndex - 1, Value, 0, {}});
  Relocs.push_back({Reloc::Kind::AddrLo, WordIndex, Value, 0, {}});
}

Expected<bool> RoutineLayouter::emitBlock(const BasicBlock *B) {
  Blocks[B->id()].Offset = here();
  for (unsigned I = 0; I < B->size(); ++I) {
    const CfgInst &CI = B->insts()[I];
    bool IsTerminator = I + 1 == B->size() && CI.Inst->isControlTransfer();
    if (IsTerminator)
      return lowerTerminator(B, I);

    mapAddr(CI.OrigAddr);
    if (!blockHasEdits(B)) { // the common case: the word goes out as it is
      unsigned At = here();
      emitWord(CI.Inst->word());
      noteMaterialization(CI.Inst, At);
      continue;
    }
    const InstEdits L = editsFor(B, I);
    if (!L.Before.empty()) {
      Expected<bool> Result = emitSnippets(L.Before, Live->liveBefore(B, I));
      if (Result.hasError())
        return Result;
    }
    if (!L.Deleted) {
      unsigned At = here();
      emitWord(L.Replaced ? L.Replacement : CI.Inst->word());
      if (!L.Replaced)
        noteMaterialization(CI.Inst, At);
    }
    if (!L.After.empty()) {
      Expected<bool> Result = emitSnippets(L.After, Live->liveAfter(B, I));
      if (Result.hasError())
        return Result;
    }
  }
  // Block ends without a transfer: a fallthrough edge (possibly carrying
  // code) leads to the next block in address order.
  const Edge *Fall = edgeOfKind(B, EdgeKind::Fallthrough);
  if (Fall) {
    Expected<bool> Result = emitEdgeCode(Fall);
    if (Result.hasError())
      return Result;
  }
  return true;
}

Expected<bool> RoutineLayouter::lowerTerminator(const BasicBlock *B,
                                                unsigned InstIndex) {
  const CfgInst &Term = B->insts()[InstIndex];
  mapAddr(Term.OrigAddr);
  // Code before a control transfer executes on every path through it.
  const InstEdits L = editsFor(B, InstIndex);
  assert(L.After.empty() && !L.Deleted &&
         "control transfers cannot be deleted or post-instrumented");
  // L.Replaced is consumed by terminatorWord() in the lowering helpers.
  if (!L.Before.empty()) {
    Expected<bool> Result =
        emitSnippets(L.Before, Live->liveBefore(B, InstIndex));
    if (Result.hasError())
      return Result;
  }
  switch (Term.Inst->kind()) {
  case InstKind::Branch:
    return lowerBranch(B, Term);
  case InstKind::Jump:
    return lowerJump(B, Term);
  case InstKind::Call:
  case InstKind::IndirectCall:
    return lowerCall(B, Term);
  case InstKind::Return:
    return lowerReturn(B, Term);
  case InstKind::IndirectJump:
    return lowerIndirect(B, Term);
  default:
    unreachable("unknown terminator");
  }
}

MachWord RoutineLayouter::terminatorWord(const BasicBlock *B,
                                         const CfgInst &Term) const {
  const InstEdits L = editsFor(B, B->size() - 1);
  return L.Replaced ? L.Replacement : Term.Inst->word();
}

Expected<bool> RoutineLayouter::lowerBranch(const BasicBlock *B,
                                            const CfgInst &Term) {
  Addr A = Term.OrigAddr;
  const Instruction *I = Term.Inst;
  bool HasDelay = I->hasDelaySlot();
  bool AnnulUntaken = I->delayBehavior() == DelayBehavior::AnnulUntaken;

  // Taken path: B --Taken--> delay block --Taken--> destination on a
  // delay-slot machine; B --Taken--> destination directly otherwise.
  const Edge *ToTaken = pathEdgeOf(B, EdgeKind::Taken);
  assert(ToTaken && "branch block without taken edge");
  const BasicBlock *TakenDelay = nullptr;
  const Edge *TakenOut = ToTaken;
  if (HasDelay) {
    TakenDelay = ToTaken->dst();
    TakenOut = pathEdgeOf(TakenDelay, EdgeKind::Taken);
    assert(TakenOut && "taken delay block without outgoing edge");
  }
  const BasicBlock *TakenDest =
      TakenOut->dst()->kind() == BlockKind::Exit ? nullptr : TakenOut->dst();
  Addr TakenExternal =
      TakenDest ? 0 : externalTargetOf(HasDelay ? TakenDelay : B);

  // Fall path.
  const Edge *ToFall = edgeOfKind(B, EdgeKind::NotTaken);
  assert(ToFall && "branch block without fall edge");
  bool DirectFall = !HasDelay || AnnulUntaken;
  const BasicBlock *FallDelay = nullptr;
  const Edge *FallOut = nullptr;
  if (!DirectFall) {
    FallDelay = ToFall->dst();
    FallOut = edgeOfKind(FallDelay, EdgeKind::NotTaken);
    assert(FallOut && "fall delay block without outgoing edge");
  }

  bool TakenEdited =
      pathHasCode(HasDelay ? ToTaken : nullptr, TakenDelay, TakenOut);
  bool FallEdited = DirectFall ? edgeHasCode(ToFall)
                               : pathHasCode(ToFall, FallDelay, FallOut);

  if (!TakenEdited && !FallEdited &&
      (!HasDelay || !An.options().DisableDelayFolding)) {
    // Re-emit the branch in place, folding the delay instruction back into
    // the slot (§3.3.1) when the machine has one.
    unsigned At = here();
    MachWord W = terminatorWord(B, Term);
    emitWord(W);
    retargetTo(At, shapeOf(*I, W), TakenDest, TakenExternal);
    if (HasDelay) {
      mapAddr(A + 4);
      emitWord(origWordAt(A + 4));
      ++Out.DelayFolded;
    }
    return true; // falls through into the fallthrough block
  }

  // Materialize: branch (with a harmless nop in its slot, when a slot
  // exists) to a stub that holds the taken path; the fall path runs inline.
  if (HasDelay)
    ++Out.DelayMaterialized;
  unsigned BranchAt = here();
  MachWord BranchWord = terminatorWord(B, Term);
  emitWord(BranchWord);
  if (HasDelay)
    emitWord(Target.nopWord());

  StubRequest Stub;
  Stub.E1 = HasDelay ? ToTaken : nullptr;
  Stub.DB = TakenDelay;
  Stub.E2 = TakenOut;
  Stub.DestBlock = TakenDest;
  Stub.ExternalDest = TakenExternal;
  Stub.BranchWordIndex = BranchAt;
  Stub.BranchShape = shapeOf(*I, BranchWord);
  Stubs.push_back(Stub);

  if (DirectFall) {
    Expected<bool> Result = emitEdgeCode(ToFall);
    if (Result.hasError())
      return Result;
  } else {
    Expected<bool> Result = emitPath(ToFall, FallDelay, FallOut);
    if (Result.hasError())
      return Result;
  }
  return true; // falls through into the fallthrough block
}

Expected<bool> RoutineLayouter::lowerJump(const BasicBlock *B,
                                          const CfgInst &Term) {
  const Instruction *I = Term.Inst;
  Addr A = Term.OrigAddr;
  bool HasDelay = I->hasDelaySlot();
  bool AnnulAlways = I->delayBehavior() == DelayBehavior::AnnulAlways;
  // An annulled slot and a machine without slots produce the same direct
  // CFG shape: a single edge from the jump block to the destination.
  bool Direct = !HasDelay || AnnulAlways;

  const Edge *First = pathEdgeOf(B, EdgeKind::UncondJump);
  assert(First && "jump block without outgoing edge");

  const BasicBlock *DelayB = nullptr;
  const Edge *Second = nullptr;
  const BasicBlock *DestB;
  if (Direct) {
    DestB = First->dst();
  } else {
    DelayB = First->dst();
    Second = pathEdgeOf(DelayB, EdgeKind::UncondJump);
    assert(Second && "jump delay block without outgoing edge");
    DestB = Second->dst();
  }
  bool External = DestB->kind() == BlockKind::Exit;
  Addr ExternalDest = External ? externalTargetOf(Direct ? B : DelayB) : 0;
  const BasicBlock *Dest = External ? nullptr : DestB;

  bool Edited =
      Direct ? edgeHasCode(First) : pathHasCode(First, DelayB, Second);

  // An unedited retargetable jump is re-emitted in place; on a delay-slot
  // machine that keeps (folds) its delay instruction.
  if (!Edited &&
      (!HasDelay || (!AnnulAlways && !An.options().DisableDelayFolding))) {
    std::optional<MachWord> CanRetarget =
        retargetDirect(I->decoded(), I->word(), 0, 0x1000);
    if (CanRetarget) {
      unsigned At = here();
      MachWord W = terminatorWord(B, Term);
      emitWord(W);
      retargetTo(At, shapeOf(*I, W), Dest, ExternalDest);
      if (HasDelay) {
        mapAddr(A + 4);
        emitWord(origWordAt(A + 4));
        ++Out.DelayFolded;
      }
      return true;
    }
  }

  // Materialized form: path code, then a fresh jump (the original word may
  // be unretargetable, e.g. bn,a whose target is implicit).
  if (!Direct) {
    Expected<bool> Result = emitPath(First, DelayB, Second);
    if (Result.hasError())
      return Result;
  } else {
    Expected<bool> Result = emitEdgeCode(First);
    if (Result.hasError())
      return Result;
    if (HasDelay)
      ++Out.DelayMaterialized;
  }
  emitJumpTo(Dest, ExternalDest);
  return true;
}

Expected<bool> RoutineLayouter::lowerCall(const BasicBlock *B,
                                          const CfgInst &Term) {
  Addr A = Term.OrigAddr;
  const Instruction *I = Term.Inst;
  unsigned At = here();
  emitWord(I->word());
  if (I->kind() == InstKind::Call) {
    Reloc Rl;
    Rl.K = Reloc::Kind::CallTo;
    Rl.WordIndex = At;
    Rl.OrigTarget = *I->directTarget(A);
    Rl.Shape = transferShape(I->decoded());
    Relocs.push_back(Rl);
  }
  // The delay slot after a call is uneditable (§3.3): emit it verbatim.
  // Machines without delay slots have no such word; the continuation block
  // directly follows the call.
  if (I->hasDelaySlot()) {
    mapAddr(A + 4);
    emitWord(origWordAt(A + 4));
  }
  (void)B;
  return true; // continuation block follows in address order
}

Expected<bool> RoutineLayouter::lowerReturn(const BasicBlock *B,
                                            const CfgInst &Term) {
  Addr A = Term.OrigAddr;
  emitWord(Term.Inst->word());
  if (Term.Inst->hasDelaySlot()) {
    mapAddr(A + 4);
    emitWord(origWordAt(A + 4));
  }
  (void)B;
  return true;
}

Expected<bool> RoutineLayouter::lowerIndirect(const BasicBlock *B,
                                              const CfgInst &Term) {
  Addr A = Term.OrigAddr;
  const Instruction *I = Term.Inst;
  const IndirectSite *Site = Blocks[B->id()].Site;
  assert(Site && Site->JumpAddr == A &&
         "indirect jump without a recorded site");

  bool HasDelay = I->hasDelaySlot();

  switch (Site->Resolution.K) {
  case IndirectResolution::Kind::DispatchTable: {
    emitWord(I->word());
    if (HasDelay) {
      mapAddr(A + 4);
      emitWord(origWordAt(A + 4));
    }
    // Rewrite the table: entries point at edited case blocks, or at stubs
    // when a case edge carries code. On a delay-slot machine the case
    // edges hang off the shared delay block; otherwise off the jump block.
    const BasicBlock *CaseSrc = B;
    if (HasDelay) {
      const Edge *ToDelay = edgeOfKind(B, EdgeKind::SwitchCase);
      assert(ToDelay && "dispatch block without delay edge");
      CaseSrc = ToDelay->dst();
    }
    for (const Edge *E : CaseSrc->succ())
      if (E->dst()->kind() == BlockKind::Normal)
        Blocks[E->dst()->id()].CaseEdge = E;
    for (size_t EntryIdx = 0; EntryIdx < Site->Resolution.Targets.size();
         ++EntryIdx) {
      Addr T = Site->Resolution.Targets[EntryIdx];
      const Edge *CaseEdge = nullptr;
      if (const BasicBlock *Dst = Graph->blockAt(T))
        CaseEdge = Blocks[Dst->id()].CaseEdge;
      if (CaseEdge && CaseEdge->src() != CaseSrc)
        CaseEdge = nullptr; // recorded for another dispatch
      TableEntryFix EF;
      EF.TableAddr = Site->Resolution.TableAddr;
      EF.Index = static_cast<unsigned>(EntryIdx);
      EF.OrigTarget = T;
      if (CaseEdge && edgeHasCode(CaseEdge)) {
        // Route this entry through a stub holding the edge's code.
        StubRequest Stub;
        Stub.E2 = CaseEdge;
        Stub.DestBlock = CaseEdge->dst();
        Stub.TableSlots.push_back(TableEntries.size());
        Stubs.push_back(Stub);
        EF.StubWordIndex = 0; // patched when the stub is placed
      }
      TableEntries.push_back(EF);
    }
    return true;
  }

  case IndirectResolution::Kind::Literal:
    emitWord(I->word());
    if (HasDelay) {
      mapAddr(A + 4);
      emitWord(origWordAt(A + 4));
    }
    // A literal recovered through a constant cell still reads that cell at
    // run time: record it for unconditional precise rewriting.
    if (Site->Resolution.CellAddr)
      CellFixes.push_back(
          {Site->Resolution.CellAddr, Site->Resolution.Targets[0]});
    return true;

  case IndirectResolution::Kind::CellPointer:
  case IndirectResolution::Kind::Unanalyzable: {
    // Run-time translation (§3.3).
    Out.NeedsTranslator = true;
    bumpStat("eel.translate.sites");
    MachWord DelayWord = Target.nopWord();
    if (HasDelay) {
      mapAddr(A + 4); // the delay instruction is emitted inside the site
      DelayWord = origWordAt(A + 4);
    }
    return emitTranslationSite(Target, *I, DelayWord, Code, Relocs);
  }
  }
  unreachable("unhandled resolution kind");
}

Expected<bool> RoutineLayouter::emitStubs() {
  for (StubRequest &Stub : Stubs) {
    unsigned Offset = here();
    if (Stub.BranchWordIndex != UINT_MAX) {
      // Retarget the branch at the stub: a direct internal patch.
      Reloc Rl;
      Rl.K = Reloc::Kind::Internal;
      Rl.WordIndex = Stub.BranchWordIndex;
      Rl.DestWordIndex = Offset;
      Rl.Shape = Stub.BranchShape;
      Relocs.push_back(Rl);
    }
    for (size_t Slot : Stub.TableSlots)
      TableEntries[Slot].StubWordIndex = static_cast<int>(Offset);
    Expected<bool> Result = emitPath(Stub.E1, Stub.DB, Stub.E2);
    if (Result.hasError())
      return Result;
    emitJumpTo(Stub.DestBlock, Stub.ExternalDest);
  }
  return true;
}

Expected<bool> RoutineLayouter::runVerbatim() {
  Out.Verbatim = true;
  Code.reserve(Mapped.size()); // every word of the extent, once
  bumpStat("eel.layout.verbatim");
  const Instruction *Prev = nullptr;
  for (Addr A = R.startAddr(); A + 4 <= R.endAddr(); A += 4) {
    const Instruction *I = An.instAt(A);
    if (!I)
      break;
    MachWord W = I->word();
    mapAddr(A);
    unsigned At = here();
    emitWord(W);
    if (R.isData()) {
      Prev = nullptr;
      continue; // pure data: no relocations
    }
    // Cross-routine direct transfers must follow their targets. To avoid
    // corrupting data that happens to decode as a transfer, only words
    // whose target is a routine entry point are patched.
    std::optional<Addr> T = I->directTarget(A);
    if (T && !R.contains(*T)) {
      Routine *Dest = An.routineContaining(*T);
      bool IsEntry = false;
      if (Dest)
        for (Addr E : Dest->entryPoints())
          if (E == *T)
            IsEntry = true;
      if (IsEntry) {
        Reloc Rl;
        Rl.K = I->kind() == InstKind::Call ? Reloc::Kind::CallTo
                                           : Reloc::Kind::JumpTo;
        Rl.WordIndex = At;
        Rl.OrigTarget = *T;
        Rl.Shape = transferShape(I->decoded());
        Relocs.push_back(Rl);
      }
    } else if (I->kind() == InstKind::Call || I->kind() == InstKind::Jump) {
      // Internal absolute-region jumps (MRISC j/jal) still need fixing
      // since the whole routine moves.
      if (T && R.contains(*T)) {
        std::optional<MachWord> SameRel =
            retargetDirect(I->decoded(), W, A + 0x1000, *T + 0x1000);
        if (!SameRel || *SameRel != W) {
          Reloc Rl;
          Rl.K = Reloc::Kind::JumpTo;
          Rl.WordIndex = At;
          Rl.OrigTarget = *T;
          Rl.Shape = transferShape(I->decoded());
          Relocs.push_back(Rl);
        }
      }
    }
    if (Prev)
      noteMaterialization(I, At);
    Prev = I;
  }
  return true;
}

Expected<bool> RoutineLayouter::layOut() {
  // Data "routines" (tables with routine-like symbols) are copied as-is.
  if (R.isData())
    return runVerbatim();

  Graph = R.controlFlowGraph();
  bool WantTranslation = An.options().EnableRuntimeTranslation;
  bool MustVerbatim =
      Graph->unsupported() || (!Graph->complete() && !WantTranslation);
  if (MustVerbatim) {
    if (Exec.edited(*Graph))
      return Error("routine '" + R.name() + "' cannot be edited: " +
                   (Graph->unsupported() ? Graph->unsupportedReason()
                                         : "unanalyzable control flow and "
                                           "run-time translation disabled"));
    return runVerbatim();
  }

  // Every word of the extent is emitted once, plus the edits' code.
  Code.reserve(Mapped.size() + indexGraph());
  Live = R.liveness();

  // The normal blocks lead blocks() in ascending address order.
  for (unsigned I = 0; I < Graph->normalBlockCount(); ++I) {
    Expected<bool> Result = emitBlock(Graph->blocks()[I]);
    if (Result.hasError())
      return Result.error();
  }
  Expected<bool> Result = emitStubs();
  if (Result.hasError())
    return Result.error();

  // Preserve words of the extent not covered by any block (alignment
  // padding, text-embedded data): append them so their bytes survive, and
  // map their addresses.
  for (Addr A = R.startAddr(); A + 4 <= R.endAddr(); A += 4) {
    if (addrMapped(A))
      continue;
    mapAddr(A);
    emitWord(origWordAt(A));
  }

  // Resolve internal transfers now that all offsets are final.
  for (const PendingInternal &P : Internals) {
    unsigned Offset = Blocks[P.DestBlock->id()].Offset;
    assert(Offset != UINT_MAX && "destination block was not emitted");
    Reloc Rl;
    Rl.K = Reloc::Kind::Internal;
    Rl.WordIndex = P.WordIndex;
    Rl.DestWordIndex = Offset;
    Rl.Shape = P.Shape;
    Relocs.push_back(Rl);
  }
  if (Tally) {
    Tally->record();
    Out.SnippetInstances = Tally->Instances;
    Out.SnippetSpills = Tally->Spills;
    Out.SnippetCCSaves = Tally->CCSaves;
  }
  return true;
}

/// A copy of \p V in \p Arena.
template <typename T>
static std::span<const T> copyInto(BumpArena &Arena, const std::vector<T> &V) {
  if (V.empty())
    return {};
  T *Copy = Arena.allocateArray<T>(V.size());
  std::uninitialized_copy(V.begin(), V.end(), Copy);
  return {Copy, V.size()};
}

Expected<RoutineLayout> RoutineLayouter::run(BumpArena &Arena) {
  Expected<bool> Done = layOut();
  if (Done.hasError())
    return Done.error();
  if (MappedOutside)
    return Error("internal: routine '" + R.name() +
                 "' maps an address outside its extent");
  sealAddrMap();
  // The working arrays die with the layouter, on the thread that grew
  // them; the arena's few chunks are all the writer frees afterwards.
  Out.Code = copyInto(Arena, Code);
  Out.Relocs = copyInto(Arena, Relocs);
  Out.AddrMap = copyInto(Arena, Map);
  Out.TableEntries = copyInto(Arena, TableEntries);
  Out.CellFixes = copyInto(Arena, CellFixes);
  return std::move(Out);
}

Expected<RoutineLayout> eel::layoutRoutine(const Executable &Exec,
                                           const Routine &R,
                                           BumpArena &Arena) {
  EEL_TRACE_SCOPE("layout_routine", "routine", R.name());
  RoutineLayouter L(Exec, R);
  Expected<RoutineLayout> Out = L.run(Arena);
  if (!Out.hasError())
    bumpHistogram("layout.words_per_routine", Out.value().Code.size());
  return Out;
}
