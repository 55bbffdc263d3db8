//===- core/CfgBuild.cpp - CFG construction -----------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds a routine's control-flow graph (§3.3): discovers reachable
/// instructions from every entry point, resolves indirect jumps by slicing,
/// forms basic blocks, and normalizes machine-level control flow —
/// delay-slot instructions move into their own blocks on exactly the edges
/// along which they execute (Figure 3), calls get zero-length surrogate
/// blocks, and everything that leaves the routine is marked uneditable.
///
/// The builder's state is flat and linear in the routine's extent: one
/// flag byte per word (visited, leader, delay slot consumed) replaces sets
/// of addresses, blocks are formed by one scan of those bytes in address
/// order, and every block lookup is Cfg::blockAt's binary search over the
/// normal blocks. No tree or hash node is allocated per word or block.
///
//===----------------------------------------------------------------------===//

#include "core/Cfg.h"

#include "core/Executable.h"
#include "core/Routine.h"
#include "core/Slice.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>

using namespace eel;

namespace eel {

/// One-shot builder for a routine's CFG.
class CfgBuilder {
public:
  explicit CfgBuilder(const Routine &R)
      : R(R), An(R.analysis()), Target(An.target()),
        Graph(std::make_unique<Cfg>(R, Target)),
        Base(R.startAddr() & ~Addr(3)),
        Flags((size_t(R.endAddr()) - Base + 3) / 4, 0) {}

  std::unique_ptr<Cfg> build();

private:
  /// Per-word state, one byte for each aligned word of the extent.
  enum WordFlag : uint8_t {
    Visited = 1,       ///< Discovered as an instruction of the routine.
    Leader = 2,        ///< Starts a block (a transfer target or entry).
    DelayConsumed = 4, ///< The delay slot of a visited transfer.
    CaseSeen = 8,      ///< Already a case of the dispatch being connected.
  };

  const Instruction *instAt(Addr A) {
    return R.contains(A) ? An.instAt(A) : nullptr;
  }

  /// The flag byte of \p A, or null when \p A is misaligned or outside
  /// the extent (no flag is ever recorded for such an address).
  uint8_t *flagsAt(Addr A) {
    return R.contains(A) && !(A & 3) ? &Flags[(A - Base) / 4] : nullptr;
  }
  bool hasFlag(Addr A, WordFlag F) {
    const uint8_t *P = flagsAt(A);
    return P && (*P & F);
  }
  void setFlag(Addr A, WordFlag F) {
    if (uint8_t *P = flagsAt(A))
      *P |= F;
  }
  void clearFlag(Addr A, WordFlag F) {
    if (uint8_t *P = flagsAt(A))
      *P &= static_cast<uint8_t>(~F);
  }

  void discover(std::span<const Addr> Roots, bool Speculative);
  void coverRemainder();
  void formBlocks();
  void connect();
  void connectBlock(BasicBlock *B);

  /// Destination block for a transfer target: an internal block, or the
  /// exit block (recording the external target).
  BasicBlock *destFor(BasicBlock *From, Addr Target, bool &External);

  /// Kind of the edge that ends a Taken or UncondJump path: ExitInterJump
  /// when the target lies outside the routine, after which every register
  /// may be read.
  static EdgeKind pathKind(EdgeKind K, bool External) {
    return External ? EdgeKind::ExitInterJump : K;
  }

  BasicBlock *makeDelayBlock(Addr TransferAddr);

  /// The resolution recorded for the indirect transfer at \p A.
  const IndirectResolution &resolutionAt(Addr A) const;

  const Routine &R;
  const Analysis &An;
  const TargetInfo &Target;
  std::unique_ptr<Cfg> Graph;

  Addr Base; ///< Address of the word Flags[0] describes.
  std::vector<uint8_t> Flags;
  std::vector<Addr> Worklist;
  /// Indirect transfers in discovery order; sorted by address before the
  /// graph is connected.
  std::vector<std::pair<Addr, IndirectResolution>> Indirect;
};

} // namespace eel

BasicBlock *CfgBuilder::destFor(BasicBlock *From, Addr TargetAddr,
                                bool &External) {
  External = false;
  if (R.contains(TargetAddr)) {
    if (BasicBlock *Dst = Graph->blockAt(TargetAddr))
      return Dst;
    // The target was scheduled but discovery dropped it (it decodes as
    // data, or its delay slot falls outside the routine). Control reaching
    // it would execute garbage; poison the routine instead of crashing.
    Graph->ReachedInvalid = true;
    return Graph->Exit;
  }
  External = true;
  Graph->InterJumps.push_back({From, TargetAddr});
  return Graph->Exit;
}

BasicBlock *CfgBuilder::makeDelayBlock(Addr TransferAddr) {
  Addr DelayAddr = TransferAddr + 4;
  const Instruction *DI = instAt(DelayAddr);
  // Discovery visits only transfers whose delay slot decodes inside the
  // routine, and blocks hold only visited words.
  if (!DI)
    unreachable("delay slot outside routine");
  BasicBlock *DB = Graph->newBlock(BlockKind::DelaySlot, DelayAddr);
  Graph->appendInst(DB, DI, DelayAddr);
  return DB;
}

void CfgBuilder::discover(std::span<const Addr> Roots, bool Speculative) {
  Worklist.assign(Roots.begin(), Roots.end());
  for (Addr E : Worklist)
    setFlag(E, Leader);

  auto Schedule = [&](Addr A) { Worklist.push_back(A); };
  auto ScheduleLeader = [&](Addr A) {
    setFlag(A, Leader);
    Worklist.push_back(A);
  };

  while (!Worklist.empty()) {
    Addr A = Worklist.back();
    Worklist.pop_back();
    uint8_t *F = flagsAt(A);
    if (!F || (*F & Visited))
      continue;
    const Instruction *I = instAt(A);
    if (!I) {
      if (!Speculative)
        Graph->ReachedInvalid = true;
      continue;
    }
    if (I->kind() == InstKind::Invalid) {
      // Invalid words are data, not instructions. Hitting one from a
      // proven-reachable path poisons the routine; hitting one while
      // speculatively covering the unreached remainder just ends that
      // thread of exploration.
      if (!Speculative)
        Graph->ReachedInvalid = true;
      continue;
    }
    if (!I->isControlTransfer()) {
      *F |= Visited;
      if (R.contains(A + 4)) {
        Schedule(A + 4);
      } else if (!Speculative) {
        Graph->Unsupported = true;
        Graph->UnsupportedReason = "control runs off the routine's end";
      }
      continue;
    }

    // Inspect the delay slot.
    Addr DelayAddr = A + 4;
    const Instruction *DI =
        I->hasDelaySlot() ? instAt(DelayAddr) : nullptr;
    if (I->hasDelaySlot()) {
      if (!DI) {
        if (!Speculative) {
          Graph->Unsupported = true;
          Graph->UnsupportedReason = "delay slot outside the routine";
        }
        continue;
      }
      setFlag(DelayAddr, DelayConsumed);
      if (DI->isControlTransfer())
        Graph->Exotic = true; // delayed transfer in a delay slot
      if (DI->kind() == InstKind::Invalid &&
          I->delayBehavior() != DelayBehavior::AnnulAlways) {
        if (!Speculative)
          Graph->ReachedInvalid = true;
        continue;
      }
    }
    *F |= Visited;

    // First address past the transfer and its (possible) delay slot: the
    // branch fallthrough / call continuation. On delay-slot machines this
    // is A+8; on machines without delay slots it is simply A+4.
    Addr Past = A + (I->hasDelaySlot() ? 8 : 4);

    switch (I->kind()) {
    case InstKind::Branch: {
      std::optional<Addr> T = I->directTarget(A);
      assert(T && "conditional branch without a target");
      if (R.contains(*T))
        ScheduleLeader(*T);
      ScheduleLeader(Past);
      break;
    }
    case InstKind::Jump: {
      std::optional<Addr> T = I->directTarget(A);
      assert(T && "direct jump without a target");
      if (R.contains(*T))
        ScheduleLeader(*T);
      break;
    }
    case InstKind::Call:
    case InstKind::IndirectCall:
      if (R.contains(Past)) {
        ScheduleLeader(Past);
      } else if (!Speculative) {
        Graph->Unsupported = true;
        Graph->UnsupportedReason = "call continuation outside the routine";
      }
      if (I->kind() == InstKind::IndirectCall) {
        // On the inference path the fixpoint already resolved this site;
        // reusing its answer keeps stripped-analysis CFGs bit-identical to
        // what inference decided, independent of threading.
        if (const IndirectResolution *Pre = An.inferredSite(A))
          Indirect.emplace_back(A, *Pre);
        else
          Indirect.emplace_back(A, resolveIndirect(An, R, A));
      }
      break;
    case InstKind::Return:
      break;
    case InstKind::IndirectJump: {
      const IndirectResolution *Pre = An.inferredSite(A);
      IndirectResolution Res = Pre ? *Pre : resolveIndirect(An, R, A);
      if (An.options().DisableSlicing)
        Res.K = IndirectResolution::Kind::Unanalyzable;
      if (Res.K == IndirectResolution::Kind::DispatchTable) {
        // All targets must be intra-routine to use the precise CFG; a
        // table that jumps elsewhere falls back to run-time translation.
        bool AllInternal = true;
        for (Addr T : Res.Targets)
          if (!R.contains(T))
            AllInternal = false;
        if (AllInternal) {
          for (Addr T : Res.Targets)
            ScheduleLeader(T);
        } else {
          Res.K = IndirectResolution::Kind::Unanalyzable;
        }
      } else if (Res.K == IndirectResolution::Kind::Literal) {
        Addr T = Res.Targets[0];
        if (R.contains(T))
          ScheduleLeader(T);
      }
      Indirect.emplace_back(A, std::move(Res));
      break;
    }
    default:
      unreachable("non-transfer handled above");
    }
  }
}

void CfgBuilder::formBlocks() {
  BasicBlock *Current = nullptr;
  for (size_t W = 0; W < Flags.size(); ++W) {
    if (!(Flags[W] & Visited)) {
      Current = nullptr; // a gap ends the block
      continue;
    }
    Addr A = Base + 4 * static_cast<Addr>(W);
    const Instruction *I = instAt(A);
    assert(I && I->kind() != InstKind::Invalid &&
           "visited words hold instructions");
    if (!Current || (Flags[W] & Leader))
      Current = Graph->newBlock(BlockKind::Normal, A);
    Graph->appendInst(Current, I, A);
    if (I->isControlTransfer())
      Current = nullptr; // block ends; the delay word is not part of it
  }
}

const IndirectResolution &CfgBuilder::resolutionAt(Addr A) const {
  auto It = std::lower_bound(
      Indirect.begin(), Indirect.end(), A,
      [](const auto &Entry, Addr Key) { return Entry.first < Key; });
  assert(It != Indirect.end() && It->first == A &&
         "indirect transfer without a resolution");
  return It->second;
}

void CfgBuilder::connectBlock(BasicBlock *B) {
  assert(!B->empty() && "normal blocks hold at least one instruction");
  const CfgInst &LastInst = B->insts().back();
  const Instruction *I = LastInst.Inst;
  Addr A = LastInst.OrigAddr;

  if (!I->isControlTransfer()) {
    // Fallthrough into the next block, if control can continue.
    Addr Next = A + 4;
    if (BasicBlock *Dst = Graph->blockAt(Next))
      Graph->newEdge(B, Dst, EdgeKind::Fallthrough);
    return;
  }

  DelayBehavior Delay = I->delayBehavior();
  bool HasDelay = I->hasDelaySlot();
  Addr Past = A + (HasDelay ? 8 : 4);
  bool External = false;

  switch (I->kind()) {
  case InstKind::Branch: {
    Addr T = *I->directTarget(A);
    // Taken path: the delay instruction executes unless annul-always
    // (impossible for a conditional branch). Machines without delay slots
    // get a direct edge — no DelaySlot block exists anywhere in their CFGs.
    BasicBlock *TakenPred = B;
    if (HasDelay) {
      TakenPred = makeDelayBlock(A);
      Graph->newEdge(B, TakenPred, EdgeKind::Taken);
    }
    BasicBlock *TakenDst = destFor(TakenPred, T, External);
    Edge *TE = Graph->newEdge(TakenPred, TakenDst,
                              pathKind(EdgeKind::Taken, External));
    if (External) {
      TE->setUneditable();
      if (TakenPred != B)
        TakenPred->setUneditable();
    }
    // Not-taken path: duplicated delay instruction unless annulled (or the
    // machine has no delay slot). The fallthrough block is missing when
    // the next address lies outside the routine or decodes as data; such
    // control flow cannot be edited soundly.
    BasicBlock *FallDst = Graph->blockAt(Past);
    if (!FallDst) {
      if (!Graph->Unsupported) {
        Graph->Unsupported = true;
        Graph->UnsupportedReason = "branch fallthrough is not code";
      }
      return;
    }
    if (!HasDelay || Delay == DelayBehavior::AnnulUntaken) {
      Graph->newEdge(B, FallDst, EdgeKind::NotTaken);
    } else {
      BasicBlock *FallDelay = makeDelayBlock(A);
      Graph->newEdge(B, FallDelay, EdgeKind::NotTaken);
      Graph->newEdge(FallDelay, FallDst, EdgeKind::NotTaken);
    }
    return;
  }

  case InstKind::Jump: {
    Addr T = *I->directTarget(A);
    if (!HasDelay || Delay == DelayBehavior::AnnulAlways) {
      BasicBlock *Dst = destFor(B, T, External);
      Edge *E =
          Graph->newEdge(B, Dst, pathKind(EdgeKind::UncondJump, External));
      if (External)
        E->setUneditable();
      return;
    }
    BasicBlock *DelayB = makeDelayBlock(A);
    Graph->newEdge(B, DelayB, EdgeKind::UncondJump);
    BasicBlock *Dst = destFor(DelayB, T, External);
    Edge *E =
        Graph->newEdge(DelayB, Dst, pathKind(EdgeKind::UncondJump, External));
    if (External) {
      E->setUneditable();
      DelayB->setUneditable();
    }
    return;
  }

  case InstKind::Call:
  case InstKind::IndirectCall: {
    // call → delay (uneditable, §3.3) → surrogate → continuation. Without
    // a delay slot the call block feeds the surrogate directly.
    BasicBlock *Pred = B;
    if (HasDelay) {
      Pred = makeDelayBlock(A);
      Pred->setUneditable();
      Graph->newEdge(B, Pred, EdgeKind::CallFlow)->setUneditable();
    }
    BasicBlock *Surrogate = Graph->newBlock(BlockKind::CallSurrogate, A);
    Surrogate->setUneditable();
    if (I->kind() == InstKind::Call)
      Surrogate->CallTarget = I->directTarget(A);
    else
      Surrogate->CallIndirect = true;
    Graph->newEdge(Pred, Surrogate, EdgeKind::CallFlow)->setUneditable();
    if (BasicBlock *Cont = Graph->blockAt(Past))
      Graph->newEdge(Surrogate, Cont, EdgeKind::CallFlow)->setUneditable();
    if (I->kind() == InstKind::IndirectCall) {
      IndirectSite Site;
      Site.Block = B;
      Site.JumpAddr = A;
      Site.IsCall = true;
      Site.Resolution = resolutionAt(A);
      Graph->IndirectSites.push_back(std::move(Site));
    }
    return;
  }

  case InstKind::Return: {
    BasicBlock *Pred = B;
    if (HasDelay) {
      Pred = makeDelayBlock(A);
      Pred->setUneditable();
      Graph->newEdge(B, Pred, EdgeKind::ExitReturn)->setUneditable();
    }
    Graph->newEdge(Pred, Graph->Exit, EdgeKind::ExitReturn)->setUneditable();
    return;
  }

  case InstKind::IndirectJump: {
    IndirectSite Site;
    Site.Block = B;
    Site.JumpAddr = A;
    Site.Resolution = resolutionAt(A);
    // With a delay slot, every outgoing path runs through one shared delay
    // block; without one, the case/exit edges leave the jump block itself.
    BasicBlock *Pred = B;
    if (HasDelay) {
      Pred = makeDelayBlock(A);
      Pred->setUneditable();
    }
    switch (Site.Resolution.K) {
    case IndirectResolution::Kind::DispatchTable: {
      if (HasDelay)
        Graph->newEdge(B, Pred, EdgeKind::SwitchCase)->setUneditable();
      for (Addr T : Site.Resolution.Targets) {
        BasicBlock *Dst = Graph->blockAt(T);
        if (!Dst) {
          // A table entry pointing at data or a misaligned word; discovery
          // skipped it. Poison the routine — a jump there is garbage.
          Graph->ReachedInvalid = true;
          continue;
        }
        if (hasFlag(T, CaseSeen))
          continue; // duplicate table entries share one CFG edge
        setFlag(T, CaseSeen);
        Graph->newEdge(Pred, Dst, EdgeKind::SwitchCase);
      }
      for (Addr T : Site.Resolution.Targets)
        clearFlag(T, CaseSeen);
      break;
    }
    case IndirectResolution::Kind::Literal: {
      if (HasDelay)
        Graph->newEdge(B, Pred, EdgeKind::UncondJump)->setUneditable();
      BasicBlock *Dst = destFor(Pred, Site.Resolution.Targets[0], External);
      Graph->newEdge(Pred, Dst, pathKind(EdgeKind::UncondJump, External))
          ->setUneditable();
      break;
    }
    case IndirectResolution::Kind::CellPointer:
    case IndirectResolution::Kind::Unanalyzable:
      Graph->Complete = false;
      if (HasDelay)
        Graph->newEdge(B, Pred, EdgeKind::ExitUnresolved)->setUneditable();
      Graph->newEdge(Pred, Graph->Exit, EdgeKind::ExitUnresolved)
          ->setUneditable();
      break;
    }
    Graph->IndirectSites.push_back(std::move(Site));
    return;
  }

  default:
    unreachable("unhandled control transfer kind");
  }
}

void CfgBuilder::connect() {
  Graph->Exit = Graph->newBlock(BlockKind::Exit, R.endAddr());
  Graph->Exit->setUneditable();

  // By index: connectBlock appends delay and surrogate blocks after the
  // normal prefix while this loop runs.
  for (unsigned I = 0; I < Graph->NumNormal; ++I)
    connectBlock(Graph->Blocks[I]);

  // Entry pseudo blocks.
  for (Addr E : R.entryPoints()) {
    BasicBlock *EntryB = Graph->newBlock(BlockKind::Entry, E);
    EntryB->setUneditable();
    Graph->Entries.push_back(EntryB);
    if (BasicBlock *Body = Graph->blockAt(E))
      Graph->newEdge(EntryB, Body, EdgeKind::EntryEdge)->setUneditable();
    else
      Graph->ReachedInvalid = true; // entry lands on data
  }

  if (Graph->ReachedInvalid && !Graph->Unsupported) {
    Graph->Unsupported = true;
    Graph->UnsupportedReason = "reachable data (invalid instruction)";
  }
  if (Graph->Exotic && !Graph->Unsupported) {
    Graph->Unsupported = true;
    Graph->UnsupportedReason = "delayed transfer inside a delay slot";
  }
  if (Graph->Unsupported)
    Graph->Complete = false;
}

void CfgBuilder::coverRemainder() {
  // An unresolved indirect jump may target any address in the routine, so
  // every unreached word that decodes as an instruction is speculatively
  // treated as a potential block: it is then laid out and retargeted like
  // ordinary code, and the run-time translator can deliver control to it.
  for (Addr A = R.startAddr(); A + 4 <= R.endAddr(); A += 4) {
    if (hasFlag(A, Visited) || hasFlag(A, DelayConsumed))
      continue;
    const Instruction *I = instAt(A);
    if (!I || I->kind() == InstKind::Invalid)
      continue;
    discover({&A, 1}, /*Speculative=*/true);
  }
}

std::unique_ptr<Cfg> CfgBuilder::build() {
  bumpStat("eel.cfg.built");
  discover(R.entryPoints(), /*Speculative=*/false);
  bool Unresolved = false;
  for (const auto &[A, Res] : Indirect)
    if (Res.K == IndirectResolution::Kind::CellPointer ||
        Res.K == IndirectResolution::Kind::Unanalyzable)
      Unresolved = true;
  if (Unresolved && !Graph->Unsupported)
    coverRemainder();
  // Each word is visited at most once, so addresses are already distinct.
  std::sort(Indirect.begin(), Indirect.end(),
            [](const auto &X, const auto &Y) { return X.first < Y.first; });
  formBlocks();
  connect();
  return std::move(Graph);
}

std::unique_ptr<Cfg> eel::buildCfg(const Routine &R) {
  EEL_TRACE_SCOPE("cfg_build", "routine", R.name());
  CfgBuilder Builder(R);
  std::unique_ptr<Cfg> G = Builder.build();
  // Graphs never lose blocks or edges, so the finished graph's sizes are
  // its whole contribution to the Table 1 object counts.
  bumpStat("eel.cfg.blocks", G->blocks().size());
  bumpStat("eel.cfg.edges", G->edges().size());
  // Per-routine shape distributions, deterministic across thread counts.
  // Every row belongs to exactly one block.
  bumpHistogram("cfg.blocks_per_routine", G->blocks().size());
  bumpHistogram("cfg.insts_per_routine", G->instRows().size());
  return G;
}
