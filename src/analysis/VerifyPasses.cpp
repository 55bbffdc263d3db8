//===- analysis/VerifyPasses.cpp - The verifier's passes ----------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five checking passes (see Verifier.h for the catalogue). Each pass
/// works from the public analysis API only — CFGs, liveness, the address
/// map, and raw image words — never from the layout engine's internal
/// bookkeeping, so a pass can only agree with the editor when both
/// independently arrive at the same answer.
///
//===----------------------------------------------------------------------===//

#include "analysis/VerifyInternal.h"

#include "core/RegAlloc.h"
#include "core/Routine.h"

#include <algorithm>
#include <cstdio>
#include <set>

using namespace eel;
using namespace eel::verify;

namespace {

std::string hex(Addr A) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "0x%x", A);
  return Buf;
}

std::string regList(const TargetInfo &Target, const RegSet &Set) {
  std::string S;
  for (unsigned Reg : Set) {
    if (!S.empty())
      S += ", ";
    S += Target.regName(Reg);
  }
  return S;
}

/// Blocks referenced by any pending edit (directly, or as an endpoint of an
/// edited edge), one bit per dense block id. Image-side word checks skip
/// them: inserted code shifts the mapped position of everything at and
/// around the edit. A flat bitmap (single allocation) instead of a node-
/// based set keeps the per-routine setup cheap enough for the
/// writeEditedExecutable() gate.
class TouchedBlocks {
public:
  TouchedBlocks(const Executable &Exec, const Cfg &G)
      : Bits(G.blocks().size(), false) {
    for (const Edit &E : Exec.edits(G)) {
      if (E.Block)
        Bits[E.Block->id()] = true;
      if (E.E) {
        Bits[E.E->src()->id()] = true;
        Bits[E.E->dst()->id()] = true;
      }
    }
  }
  bool count(const BasicBlock *B) const { return Bits[B->id()]; }

private:
  std::vector<bool> Bits;
};

bool blockOrSuccTouched(const TouchedBlocks &Touched, const BasicBlock *B) {
  if (Touched.count(B))
    return true;
  for (const Edge *E : B->succ())
    if (Touched.count(E->dst()))
      return true;
  return false;
}

const Edge *succOfKind(const BasicBlock *B, EdgeKind K) {
  for (const Edge *E : B->succ())
    if (E->kind() == K)
      return E;
  return nullptr;
}

/// The successor edge of \p B along a Taken or UncondJump path: the edge
/// of kind \p K, or the ExitInterJump that ends the path when its target
/// lies outside the routine.
const Edge *pathSucc(const BasicBlock *B, EdgeKind K) {
  const Edge *E = succOfKind(B, K);
  return E ? E : succOfKind(B, EdgeKind::ExitInterJump);
}

} // namespace

bool eel::verify::isVerbatimRoutine(Executable &Exec, Routine &R) {
  if (R.isData())
    return true;
  Cfg *G = R.controlFlowGraph();
  if (!G)
    return true;
  bool Translate = Exec.analysis().options().EnableRuntimeTranslation;
  return G->unsupported() || (!G->complete() && !Translate);
}

//===----------------------------------------------------------------------===//
// Pass 1: CFG well-formedness
//===----------------------------------------------------------------------===//

void eel::verify::checkCfgWellFormed(RoutineCheckContext &Ctx) {
  Cfg *G = Ctx.G;
  if (!G)
    return; // data routine: no graph to check
  if (G->unsupported())
    return; // intentionally partial; the editor copies it verbatim

  Routine &R = Ctx.R;

  // Edge symmetry: every edge is registered with both endpoints. The lists
  // are what every analysis traverses; an edge missing from one side means
  // forward and backward walks disagree about the graph.
  for (const auto &E : G->edges()) {
    Ctx.check();
    if (!E->src() || !E->dst()) {
      Ctx.Report.add(VerifyPass::CfgWellFormed, DiagSeverity::Error, R.name(),
                     -1, 0, false, "edge with a null endpoint");
      continue;
    }
    const auto &Succ = E->src()->succ();
    const auto &Pred = E->dst()->pred();
    if (std::find(Succ.begin(), Succ.end(), E) == Succ.end())
      Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error,
               static_cast<int>(E->src()->id()), E->src()->anchor(), true,
               "edge not recorded in its source block's successor list");
    if (std::find(Pred.begin(), Pred.end(), E) == Pred.end())
      Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error,
               static_cast<int>(E->dst()->id()), E->dst()->anchor(), true,
               "edge not recorded in its destination block's predecessor "
               "list");
  }

  for (const auto &BP : G->blocks()) {
    const BasicBlock *B = BP;
    const int Id = static_cast<int>(B->id());
    switch (B->kind()) {
    case BlockKind::Normal: {
      Ctx.check();
      if (B->empty()) {
        Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id,
                 B->anchor(), true, "empty normal block");
        break;
      }
      // Single entry: instructions are contiguous from the anchor, so
      // control entering at the head reaches exactly these instructions and
      // no edge can land mid-block (every edge targets an anchor).
      for (unsigned I = 0; I < B->size(); ++I) {
        Addr Expect = B->anchor() + 4 * I;
        if (B->insts()[I].OrigAddr != Expect)
          Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id,
                   B->insts()[I].OrigAddr, true,
                   "instruction not contiguous with its block head " +
                       hex(B->anchor()));
        if (!R.contains(B->insts()[I].OrigAddr))
          Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id,
                   B->insts()[I].OrigAddr, true,
                   "instruction outside the routine's extent");
      }
      // Only the last instruction may transfer control.
      for (unsigned I = 0; I + 1 < B->size(); ++I)
        if (B->insts()[I].Inst->isControlTransfer())
          Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id,
                   B->insts()[I].OrigAddr, true,
                   "control transfer in the middle of a block");

      // Successor arity per terminator kind.
      const Instruction *Term = B->terminator();
      Addr A = B->insts().back().OrigAddr;
      unsigned NSucc = static_cast<unsigned>(B->succ().size());
      if (!Term) {
        if (NSucc > 1)
          Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id, A,
                   true, "fallthrough block with multiple successors");
        else if (NSucc == 1 &&
                 B->succ()[0]->kind() != EdgeKind::Fallthrough)
          Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id, A,
                   true, "fallthrough block with a non-fallthrough edge");
        else if (NSucc == 0 && G->blockAt(A + 4))
          Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id, A,
                   true, "missing fallthrough edge to block at " +
                             hex(A + 4));
        break;
      }
      unsigned Want = 0;
      const char *Shape = nullptr;
      switch (Term->kind()) {
      case InstKind::Branch:
        Want = 2;
        Shape = "conditional branch";
        break;
      case InstKind::Jump:
      case InstKind::Call:
      case InstKind::IndirectCall:
      case InstKind::Return:
      case InstKind::IndirectJump:
        Want = 1;
        Shape = "one-successor transfer";
        break;
      default:
        break;
      }
      // Dispatch-table jumps fan out *after* the delay block, so the jump
      // block itself still has exactly one outgoing edge — except on a
      // machine without delay slots, where the case edges leave the jump
      // block directly and any arity is legal.
      if (Term->kind() == InstKind::IndirectJump && !Term->hasDelaySlot() &&
          NSucc >= 1 && B->succ()[0]->kind() == EdgeKind::SwitchCase)
        Shape = nullptr;
      if (Shape && NSucc != Want)
        Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id, A, true,
                 std::string(Shape) + " with " + std::to_string(NSucc) +
                     " successors (expected " + std::to_string(Want) + ")");

      // Edges target block heads: a direct transfer's internal target must
      // be the anchor of the block its path reaches.
      if (Term->kind() == InstKind::Branch || Term->kind() == InstKind::Jump) {
        std::optional<Addr> T = Term->directTarget(A);
        if (T && R.contains(*T)) {
          Ctx.check();
          const BasicBlock *Dst = G->blockAt(*T);
          if (!Dst)
            Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id, A,
                     true,
                     "transfer target " + hex(*T) +
                         " is not the head of any block");
          else {
            // Follow the path (through a delay block, if present) and make
            // sure it lands exactly on that head.
            EdgeKind K = Term->kind() == InstKind::Branch
                             ? EdgeKind::Taken
                             : EdgeKind::UncondJump;
            const Edge *First = pathSucc(B, K);
            const BasicBlock *Reached = First ? First->dst() : nullptr;
            if (Reached && Reached->kind() == BlockKind::DelaySlot) {
              const Edge *Second = pathSucc(Reached, K);
              Reached = Second ? Second->dst() : nullptr;
            }
            if (Reached && Reached->kind() == BlockKind::Normal &&
                Reached->anchor() != *T)
              Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id, A,
                       true,
                       "edge lands at " + hex(Reached->anchor()) +
                           " instead of the transfer target " + hex(*T) +
                           " (edge into the middle of a block)");
          }
        }
      }
      break;
    }
    case BlockKind::DelaySlot: {
      // No dangling delay-slot instructions: a delay block is always a
      // one-instruction bridge spliced into exactly one edge — except after
      // a dispatch-table jump, where the one delay block fans out a
      // SwitchCase edge per distinct case target.
      Ctx.check();
      if (B->size() != 1)
        Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id,
                 B->anchor(), true,
                 "delay-slot block holds " + std::to_string(B->size()) +
                     " instructions (expected 1)");
      bool Dispatch = B->pred().size() == 1 &&
                      B->pred()[0]->kind() == EdgeKind::SwitchCase;
      if (B->pred().size() != 1 || B->succ().empty() ||
          (B->succ().size() != 1 && !Dispatch))
        Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id,
                 B->anchor(), true,
                 "dangling delay-slot block (" +
                     std::to_string(B->pred().size()) + " predecessors, " +
                     std::to_string(B->succ().size()) + " successors)");
      break;
    }
    case BlockKind::CallSurrogate:
      Ctx.check();
      if (!B->empty())
        Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id,
                 B->anchor(), true,
                 "call-surrogate block holds instructions");
      if (B->pred().size() != 1 || B->succ().size() > 1)
        Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id,
                 B->anchor(), true, "malformed call-surrogate linkage");
      break;
    case BlockKind::Entry:
      Ctx.check();
      if (!B->pred().empty() || B->succ().size() > 1)
        Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id,
                 B->anchor(), true, "malformed entry pseudo block");
      break;
    case BlockKind::Exit:
      Ctx.check();
      if (!B->succ().empty())
        Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error, Id,
                 B->anchor(), true, "exit block with successors");
      // Control reaches Exit only by returning or by leaving the routine,
      // and liveness reads the edge kind to decide which registers the
      // caller (or the transfer's target) may still read.
      for (const Edge *E : B->pred()) {
        Ctx.check();
        EdgeKind K = E->kind();
        if (K != EdgeKind::ExitReturn && K != EdgeKind::ExitInterJump &&
            K != EdgeKind::ExitUnresolved)
          Ctx.diag(VerifyPass::CfgWellFormed, DiagSeverity::Error,
                   static_cast<int>(E->src()->id()), E->src()->anchor(), true,
                   "edge into the exit block is neither a return nor an "
                   "exit transfer");
      }
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Pass 2: delay-slot / annul invariants
//===----------------------------------------------------------------------===//

namespace {

/// Expects \p E to lead (directly, or through one DelaySlot block holding
/// the instruction at \p DelayAddr) to a block; reports deviations.
/// Returns the final destination or null.
const BasicBlock *expectDelayPath(RoutineCheckContext &Ctx,
                                  const BasicBlock *B, const Edge *E,
                                  bool WantDelay, Addr DelayAddr,
                                  const char *PathName) {
  const int Id = static_cast<int>(B->id());
  Addr A = DelayAddr - 4;
  if (!E) {
    Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id, A, true,
             std::string("missing ") + PathName + " edge");
    return nullptr;
  }
  const BasicBlock *D = E->dst();
  if (!WantDelay) {
    if (D->kind() == BlockKind::DelaySlot)
      Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id, A, true,
               std::string(PathName) +
                   " path carries a delay-slot instruction that must not "
                   "execute there");
    return D;
  }
  if (D->kind() != BlockKind::DelaySlot) {
    Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id, A, true,
             std::string(PathName) +
                 " path is missing its delay-slot instruction");
    return D;
  }
  if (D->size() != 1 || D->insts()[0].OrigAddr != DelayAddr)
    Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error,
             static_cast<int>(D->id()), D->anchor(), true,
             std::string(PathName) + " delay block does not hold the slot "
                                     "instruction at " +
                 hex(DelayAddr));
  if (D->succ().size() != 1)
    return nullptr;
  return D->succ()[0]->dst();
}

} // namespace

void eel::verify::checkDelaySlotsIR(RoutineCheckContext &Ctx) {
  Cfg *G = Ctx.G;
  if (!G || G->unsupported())
    return;
  Routine &R = Ctx.R;

  for (const auto &BP : G->blocks()) {
    const BasicBlock *B = BP;
    if (B->kind() != BlockKind::Normal || B->empty())
      continue;
    const Instruction *Term = B->terminator();
    if (!Term)
      continue;
    const int Id = static_cast<int>(B->id());
    Addr A = B->insts().back().OrigAddr;
    Addr DelayAddr = A + 4;
    DelayBehavior Delay = Term->delayBehavior();
    bool HasDelay = Term->hasDelaySlot();

    if (HasDelay && Delay != DelayBehavior::AnnulAlways &&
        !R.contains(DelayAddr)) {
      Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id, A, true,
               "delay slot lies outside the routine");
      continue;
    }

    switch (Term->kind()) {
    case InstKind::Branch: {
      Ctx.check();
      if (HasDelay && Delay == DelayBehavior::AnnulAlways) {
        Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id, A, true,
                 "conditional branch with annul-always delay behavior");
        break;
      }
      // Taken path always executes the delay instruction (Figure 3) — and
      // on a machine without delay slots must not carry one at all.
      const BasicBlock *TakenD =
          expectDelayPath(Ctx, B, pathSucc(B, EdgeKind::Taken),
                          /*WantDelay=*/HasDelay, DelayAddr, "taken");
      (void)TakenD;
      // Not-taken path: executes it only when not annulled.
      bool FallWantsDelay = HasDelay && Delay != DelayBehavior::AnnulUntaken;
      const BasicBlock *FallD =
          expectDelayPath(Ctx, B, succOfKind(B, EdgeKind::NotTaken),
                          FallWantsDelay, DelayAddr, "not-taken");
      Addr FallAddr = A + (HasDelay ? 8 : 4);
      if (FallD && FallD->kind() == BlockKind::Normal &&
          FallD->anchor() != FallAddr)
        Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id, A, true,
                 "branch fallthrough lands at " + hex(FallD->anchor()) +
                     " instead of " + hex(FallAddr));
      // Duplicated copies must duplicate the same instruction.
      if (HasDelay && Delay == DelayBehavior::Always) {
        const Edge *TE = pathSucc(B, EdgeKind::Taken);
        const Edge *FE = succOfKind(B, EdgeKind::NotTaken);
        if (TE && FE && TE->dst()->kind() == BlockKind::DelaySlot &&
            FE->dst()->kind() == BlockKind::DelaySlot &&
            TE->dst()->size() == 1 && FE->dst()->size() == 1 &&
            TE->dst()->insts()[0].Inst->word() !=
                FE->dst()->insts()[0].Inst->word())
          Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id, A, true,
                   "taken and not-taken copies of the delay instruction "
                   "differ");
      }
      break;
    }
    case InstKind::Jump: {
      Ctx.check();
      expectDelayPath(Ctx, B, pathSucc(B, EdgeKind::UncondJump),
                      HasDelay && Delay != DelayBehavior::AnnulAlways,
                      DelayAddr, "jump");
      break;
    }
    case InstKind::Call:
    case InstKind::IndirectCall: {
      Ctx.check();
      const BasicBlock *After =
          expectDelayPath(Ctx, B, succOfKind(B, EdgeKind::CallFlow),
                          /*WantDelay=*/HasDelay, DelayAddr, "call");
      if (After && After->kind() != BlockKind::CallSurrogate)
        Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id, A, true,
                 "call delay slot does not lead to a call surrogate");
      break;
    }
    case InstKind::Return: {
      Ctx.check();
      const BasicBlock *After =
          expectDelayPath(Ctx, B, succOfKind(B, EdgeKind::ExitReturn),
                          /*WantDelay=*/HasDelay, DelayAddr, "return");
      if (After && After->kind() != BlockKind::Exit)
        Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id, A, true,
                 "return delay slot does not lead to the exit block");
      break;
    }
    case InstKind::IndirectJump: {
      Ctx.check();
      if (HasDelay) {
        if (B->succ().size() == 1 &&
            B->succ()[0]->dst()->kind() != BlockKind::DelaySlot)
          Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id, A, true,
                   "indirect jump without its delay-slot block");
      } else {
        for (const Edge *E : B->succ())
          if (E->dst()->kind() == BlockKind::DelaySlot)
            Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id, A, true,
                     "indirect jump on a delay-slot-free machine grew a "
                     "delay-slot block");
      }
      break;
    }
    default:
      break;
    }
  }
}

void eel::verify::checkDelaySlotsImage(RoutineCheckContext &Ctx) {
  Cfg *G = Ctx.G;
  if (!G || G->unsupported() || Ctx.Verbatim || !Ctx.Edited || !Ctx.AddrMap)
    return;
  Executable &Exec = Ctx.Exec;
  const TargetInfo &Target = Exec.target();
  const FlatAddrMap &Map = *Ctx.AddrMap;
  TouchedBlocks Touched(Ctx.Exec, *G);

  for (const auto &BP : G->blocks()) {
    const BasicBlock *B = BP;
    if (B->kind() != BlockKind::Normal || B->empty())
      continue;
    const Instruction *Term = B->terminator();
    if (!Term)
      continue;
    Addr A = B->insts().back().OrigAddr;
    const int Id = static_cast<int>(B->id());
    // Edits at or around the terminator shift its mapped position onto
    // inserted code; those sites are covered by translation validation.
    if (blockOrSuccTouched(Touched, B))
      continue;
    auto MappedA = Map.find(A);
    if (MappedA == Map.end())
      continue;

    if (Term->kind() == InstKind::Branch) {
      Ctx.check();
      std::optional<MachWord> NewW = Ctx.Edited->readWord(MappedA->second);
      if (!NewW)
        continue;
      DecodedWord New = Target.decode(*NewW);
      if (New.Category != InstCategory::BranchDirect ||
          New.Conditional != Term->isConditional()) {
        Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id,
                 MappedA->second, true,
                 "re-laid-out branch changed instruction shape");
        continue;
      }
      if (New.Delay != Term->delayBehavior()) {
        Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id,
                 MappedA->second, true,
                 "re-laid-out branch changed its annul behavior");
        continue;
      }
      if (!Term->hasDelaySlot())
        continue; // no slot word to audit on a delay-slot-free machine
      std::optional<MachWord> OrigDelay = Exec.analysis().fetchWord(A + 4);
      std::optional<MachWord> Slot =
          Ctx.Edited->readWord(MappedA->second + 4);
      if (!Slot || !OrigDelay)
        continue;
      auto MappedDelay = Map.find(A + 4);
      bool Folded = MappedDelay != Map.end() &&
                    MappedDelay->second == MappedA->second + 4;
      if (Folded) {
        if (*Slot != *OrigDelay)
          Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id,
                   MappedA->second + 4, true,
                   "folded delay slot holds the wrong instruction");
      } else if (*Slot != Target.nopWord()) {
        Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id,
                 MappedA->second + 4, true,
                 "materialized branch must carry a nop in its delay slot");
      }
    } else if ((Term->kind() == InstKind::Call ||
                Term->kind() == InstKind::Return) &&
               Term->hasDelaySlot()) {
      // Call and return delay slots are uneditable and always emitted
      // verbatim right after the transfer.
      Ctx.check();
      auto MappedDelay = Map.find(A + 4);
      std::optional<MachWord> OrigDelay = Exec.analysis().fetchWord(A + 4);
      if (MappedDelay == Map.end() || !OrigDelay)
        continue;
      std::optional<MachWord> Slot = Ctx.Edited->readWord(MappedDelay->second);
      if (Slot && *Slot != *OrigDelay)
        Ctx.diag(VerifyPass::DelaySlot, DiagSeverity::Error, Id,
                 MappedDelay->second, true,
                 "uneditable delay slot was not copied verbatim");
    }
  }
}

//===----------------------------------------------------------------------===//
// Pass 3: scavenging audit
//===----------------------------------------------------------------------===//

void eel::verify::checkScavenging(RoutineCheckContext &Ctx) {
  Cfg *G = Ctx.G;
  if (!G || !Ctx.Exec.edited(*G) || G->unsupported())
    return;
  Routine &R = Ctx.R;
  const TargetInfo &Target = Ctx.Exec.target();
  Liveness *Prod = R.liveness();
  WorklistLiveness Ind(*G);

  for (const Edit &E : Ctx.Exec.edits(*G)) {
    if (!E.Snippet)
      continue;
    RegSet Used, Truth;
    int Id = -1;
    Addr Site = 0;
    bool HasSite = false;
    switch (E.K) {
    case Edit::Kind::Before:
      Used = Prod->liveBefore(E.Block, E.InstIndex);
      Truth = Ind.liveBefore(E.Block, E.InstIndex);
      Id = static_cast<int>(E.Block->id());
      if (E.InstIndex < E.Block->size()) {
        Site = E.Block->insts()[E.InstIndex].OrigAddr;
        HasSite = true;
      }
      break;
    case Edit::Kind::After:
      Used = Prod->liveAfter(E.Block, E.InstIndex);
      Truth = Ind.liveAfter(E.Block, E.InstIndex);
      Id = static_cast<int>(E.Block->id());
      if (E.InstIndex < E.Block->size()) {
        Site = E.Block->insts()[E.InstIndex].OrigAddr;
        HasSite = true;
      }
      break;
    case Edit::Kind::OnEdge:
      Used = Prod->liveOnEdge(E.E);
      Truth = Ind.liveOnEdge(E.E);
      Id = static_cast<int>(E.E->src()->id());
      Site = E.E->src()->anchor();
      HasSite = true;
      break;
    default:
      continue; // Delete/Replace carry no snippet
    }

    // The production analysis and the independent solver must agree on the
    // full live set, not just on the registers the snippet happened to get.
    Ctx.check();
    if (Used != Truth) {
      RegSet Under = Truth - Used;
      RegSet Over = Used - Truth;
      std::string Msg = "snippet-site liveness mismatch:";
      if (!Under.empty())
        Msg += " production analysis misses live {" +
               regList(Target, Under) + "}";
      if (!Over.empty())
        Msg += (Under.empty() ? " " : ";") + std::string(" production "
               "analysis overstates {") + regList(Target, Over) + "}";
      Ctx.diag(VerifyPass::ScavengeAudit, DiagSeverity::Error, Id, Site,
               HasSite, std::move(Msg));
    }

    // The site-level grant audit only has signal when the live sets
    // diverge: the allocator grants without spill exclusively from
    // Universe - Used, which cannot intersect Truth when Used == Truth.
    // Skipping the tautological case keeps the pass cheap enough for the
    // writeEditedExecutable() gate.
    if (Used != Truth)
      auditScavengeSite(Target, *E.Snippet, Used, Truth, R.name(), Id, Site,
                        Ctx.Report);
    else
      Ctx.check();
  }
}

//===----------------------------------------------------------------------===//
// Pass 4: layout / branch-target consistency
//===----------------------------------------------------------------------===//

namespace {

/// Decodes a stub at \p At in the edited image: skips straight-line edge
/// code until the first direct unconditional transfer and returns its
/// target; nullopt when the stub cannot be followed statically (the caller
/// downgrades to a note) and sets \p Bad on a malformed stub.
std::optional<Addr> followStub(const SxfFile &Edited, const TargetInfo &Target,
                               Addr At, bool &Bad, bool &Opaque) {
  Bad = Opaque = false;
  for (unsigned Step = 0; Step < 128; ++Step, At += 4) {
    std::optional<MachWord> W = Edited.readWord(At);
    if (!W) {
      Bad = true;
      return std::nullopt;
    }
    DecodedWord D = Target.decode(*W);
    InstCategory Cat = D.Category;
    if (Cat == InstCategory::BranchDirect || Cat == InstCategory::JumpDirect) {
      if (D.Conditional) {
        Opaque = true; // conditional edge code; cannot follow statically
        return std::nullopt;
      }
      return D.directTarget(At);
    }
    if (Cat == InstCategory::IndirectJump || Cat == InstCategory::Invalid) {
      Opaque = Cat == InstCategory::IndirectJump;
      Bad = Cat == InstCategory::Invalid;
      return std::nullopt;
    }
  }
  Bad = true;
  return std::nullopt;
}

} // namespace

void eel::verify::checkLayoutConsistency(RoutineCheckContext &Ctx) {
  if (!Ctx.Edited || !Ctx.AddrMap)
    return;
  Routine &R = Ctx.R;
  Executable &Exec = Ctx.Exec;
  const TargetInfo &Target = Exec.target();
  const FlatAddrMap &Map = *Ctx.AddrMap;
  auto Mapped = [&Map](Addr A) -> std::optional<Addr> {
    auto It = Map.find(A);
    if (It == Map.end())
      return std::nullopt;
    return It->second;
  };

  if (Ctx.Verbatim) {
    if (R.isData())
      return;
    // Verbatim copies still patch direct transfers that target another
    // routine's entry point (runVerbatim's contract); check exactly those.
    for (Addr A = R.startAddr(); A + 4 <= R.endAddr(); A += 4) {
      std::optional<MachWord> W = Exec.analysis().fetchWord(A);
      if (!W)
        break;
      std::optional<Addr> T = Target.decode(*W).directTarget(A);
      if (!T || R.contains(*T))
        continue;
      Routine *Dest = Exec.analysis().routineContaining(*T);
      if (!Dest ||
          std::find(Dest->entryPoints().begin(), Dest->entryPoints().end(),
                    *T) == Dest->entryPoints().end())
        continue;
      std::optional<Addr> NewPC = Mapped(A), NewT = Mapped(*T);
      if (!NewPC || !NewT)
        continue;
      Ctx.check();
      std::optional<MachWord> NewW = Ctx.Edited->readWord(*NewPC);
      std::optional<Addr> Resolved =
          NewW ? Target.decode(*NewW).directTarget(*NewPC) : std::nullopt;
      if (!Resolved || *Resolved != *NewT)
        Ctx.diag(VerifyPass::LayoutConsistency, DiagSeverity::Error, -1,
                 *NewPC, true,
                 "verbatim transfer to entry point " + hex(*T) +
                     " does not resolve to its edited address " + hex(*NewT));
    }
    return;
  }

  Cfg *G = Ctx.G;
  if (!G)
    return;
  TouchedBlocks Touched(Ctx.Exec, *G);

  // (a) Direct calls: the relocated call word must reach the callee's
  // edited entry.
  for (const auto &BP : G->blocks()) {
    const BasicBlock *B = BP;
    if (B->kind() != BlockKind::Normal || B->empty())
      continue;
    const Instruction *Term = B->terminator();
    if (!Term || Term->kind() != InstKind::Call)
      continue;
    if (Touched.count(B))
      continue; // inserted code sits at the call's mapped position
    Addr A = B->insts().back().OrigAddr;
    std::optional<Addr> T = Term->directTarget(A);
    if (!T)
      continue;
    std::optional<Addr> NewPC = Mapped(A), NewT = Mapped(*T);
    if (!NewPC || !NewT)
      continue;
    Ctx.check();
    std::optional<MachWord> NewW = Ctx.Edited->readWord(*NewPC);
    std::optional<DecodedWord> New;
    if (NewW)
      New = Target.decode(*NewW);
    if (!New || New->Category != InstCategory::CallDirect) {
      Ctx.diag(VerifyPass::LayoutConsistency, DiagSeverity::Error,
               static_cast<int>(B->id()), *NewPC, true,
               "edited image does not hold a call at the call's mapped "
               "address");
      continue;
    }
    std::optional<Addr> Resolved = New->directTarget(*NewPC);
    if (!Resolved || *Resolved != *NewT)
      Ctx.diag(VerifyPass::LayoutConsistency, DiagSeverity::Error,
               static_cast<int>(B->id()), *NewPC, true,
               "call to " + hex(*T) + " resolves to " +
                   (Resolved ? hex(*Resolved) : std::string("nothing")) +
                   " instead of the edited entry " + hex(*NewT));
  }

  // (b) sethi/or (lui/ori) pairs that materialize a code address must now
  // materialize the edited address.
  for (const auto &BP : G->blocks()) {
    const BasicBlock *B = BP;
    if (B->kind() != BlockKind::Normal || Touched.count(B))
      continue;
    for (unsigned I = 1; I < B->size(); ++I) {
      const DataOp &Prev = B->insts()[I - 1].Inst->dataOp();
      const DataOp &Cur = B->insts()[I].Inst->dataOp();
      if (Prev.Kind != DataOpKind::LoadImmHi)
        continue;
      if ((Cur.Kind != DataOpKind::Or && Cur.Kind != DataOpKind::Add) ||
          !Cur.HasImm || Cur.Rd != Cur.Rs1 || Cur.Rd != Prev.Rd)
        continue;
      uint32_t Value = Cur.Kind == DataOpKind::Or
                           ? (static_cast<uint32_t>(Prev.Imm) |
                              static_cast<uint32_t>(Cur.Imm))
                           : (static_cast<uint32_t>(Prev.Imm) +
                              static_cast<uint32_t>(Cur.Imm));
      if (!Exec.analysis().isTextAddr(Value))
        continue;
      std::optional<Addr> NewV = Mapped(Value);
      if (!NewV)
        continue;
      Addr A = B->insts()[I - 1].OrigAddr;
      std::optional<Addr> NewHi = Mapped(A), NewLo = Mapped(A + 4);
      if (!NewHi || !NewLo || *NewLo != *NewHi + 4)
        continue;
      Ctx.check();
      std::optional<MachWord> W1 = Ctx.Edited->readWord(*NewHi);
      std::optional<MachWord> W2 = Ctx.Edited->readWord(*NewLo);
      if (!W1 || !W2)
        continue;
      DataOp D1 = Target.decode(*W1).Op, D2 = Target.decode(*W2).Op;
      bool Ok = D1.Kind == DataOpKind::LoadImmHi && D2.HasImm &&
                (D2.Kind == DataOpKind::Or || D2.Kind == DataOpKind::Add);
      uint32_t Got = 0;
      if (Ok)
        Got = D2.Kind == DataOpKind::Or
                  ? (static_cast<uint32_t>(D1.Imm) |
                     static_cast<uint32_t>(D2.Imm))
                  : (static_cast<uint32_t>(D1.Imm) +
                     static_cast<uint32_t>(D2.Imm));
      if (!Ok || Got != *NewV)
        Ctx.diag(VerifyPass::LayoutConsistency, DiagSeverity::Error,
                 static_cast<int>(B->id()), *NewHi, true,
                 "materialized code address " + hex(Value) +
                     " was not rewritten to its edited address " +
                     hex(*NewV));
    }
  }

  // (c) Dispatch tables: every rewritten entry must deliver control to the
  // edited address of the original case target.
  for (const IndirectSite &Site : G->indirectSites()) {
    if (Site.Resolution.K != IndirectResolution::Kind::DispatchTable)
      continue;
    const SxfSegment *Seg =
        Exec.image().segmentContaining(Site.Resolution.TableAddr);
    if (!Seg || Seg->Kind == SegKind::Text)
      continue; // tables inside moved text are not rewritable
    for (size_t I = 0; I < Site.Resolution.Targets.size(); ++I) {
      Addr Ti = Site.Resolution.Targets[I];
      std::optional<Addr> Want = Mapped(Ti);
      if (!Want)
        continue;
      Addr EntryAddr = Site.Resolution.TableAddr + 4 * static_cast<Addr>(I);
      std::optional<MachWord> Entry = Ctx.Edited->readWord(EntryAddr);
      Ctx.check();
      if (!Entry) {
        Ctx.diag(VerifyPass::LayoutConsistency, DiagSeverity::Error,
                 static_cast<int>(Site.Block->id()), EntryAddr, true,
                 "dispatch-table entry is not readable in the edited image");
        continue;
      }
      if (*Entry == *Want)
        continue;
      // Not the direct edited address: acceptable only as a stub that
      // jumps there. A value that is the edited address of some *other*
      // instruction is a mis-aimed entry (e.g. off by one slot).
      bool Bad = false, Opaque = false;
      std::optional<Addr> StubDest =
          followStub(*Ctx.Edited, Target, *Entry, Bad, Opaque);
      if (StubDest && *StubDest == *Want)
        continue;
      if (Opaque && !StubDest) {
        Ctx.diag(VerifyPass::LayoutConsistency, DiagSeverity::Note,
                 static_cast<int>(Site.Block->id()), EntryAddr, true,
                 "dispatch stub with data-dependent edge code; target not "
                 "statically checkable");
        continue;
      }
      Ctx.diag(VerifyPass::LayoutConsistency, DiagSeverity::Error,
               static_cast<int>(Site.Block->id()), EntryAddr, true,
               "dispatch-table entry for case target " + hex(Ti) +
                   " holds " + hex(*Entry) + " and does not deliver " +
                   "control to the edited case at " + hex(*Want));
    }
  }
}

//===----------------------------------------------------------------------===//
// Pass 5: translation validation
//===----------------------------------------------------------------------===//

namespace {

/// A point where a quotient-graph walk stops. Both the original and the
/// re-disassembled CFG reduce to sets of these, normalized to edited
/// addresses, which makes the two graphs directly comparable.
struct Marker {
  enum class Kind : uint8_t { Head, External, Return, Unresolved, Unknown };
  Kind K;
  Addr A = 0;

  bool operator<(const Marker &O) const {
    if (K != O.K)
      return K < O.K;
    return A < O.A;
  }
  bool operator==(const Marker &O) const { return K == O.K && A == O.A; }

  std::string describe() const {
    switch (K) {
    case Kind::Head:
      return "block head " + hex(A);
    case Kind::External:
      return "external target " + hex(A);
    case Kind::Return:
      return "return";
    case Kind::Unresolved:
      return "unresolved indirect jump";
    case Kind::Unknown:
      return "unknown";
    }
    return "unknown";
  }
};

using MarkerSet = std::set<Marker>;

bool hasKind(const MarkerSet &S, Marker::Kind K) {
  for (const Marker &M : S)
    if (M.K == K)
      return true;
  return false;
}

std::map<const BasicBlock *, Addr> interJumpTargets(const Cfg &G) {
  std::map<const BasicBlock *, Addr> Out;
  for (const auto &[B, T] : G.interJumps())
    Out.emplace(B, T);
  return Out;
}

/// Successor markers of \p B in the original CFG, in original addresses.
void origSuccMarkers(const Cfg &G,
                     const std::map<const BasicBlock *, Addr> &Jumps,
                     const BasicBlock *B, MarkerSet &Out, unsigned Depth) {
  if (Depth > 8) {
    Out.insert({Marker::Kind::Unknown});
    return;
  }
  for (const Edge *E : B->succ()) {
    const BasicBlock *D = E->dst();
    switch (D->kind()) {
    case BlockKind::Exit: {
      if (E->kind() == EdgeKind::ExitReturn)
        Out.insert({Marker::Kind::Return});
      else if (E->kind() == EdgeKind::ExitUnresolved)
        Out.insert({Marker::Kind::Unresolved});
      else {
        auto It = Jumps.find(E->src());
        if (It == Jumps.end())
          Out.insert({Marker::Kind::Unknown});
        else
          Out.insert({Marker::Kind::External, It->second});
      }
      break;
    }
    case BlockKind::DelaySlot:
    case BlockKind::CallSurrogate:
      origSuccMarkers(G, Jumps, D, Out, Depth + 1);
      break;
    case BlockKind::Normal:
      Out.insert({Marker::Kind::Head, D->anchor()});
      break;
    case BlockKind::Entry:
      break; // cannot be a successor
    }
  }
}

/// Walks the re-disassembled CFG from the edited position of an original
/// block head until every path reaches another mapped head or leaves the
/// routine; collects the markers.
MarkerSet editedWalk(const Cfg &EG,
                     const std::map<const BasicBlock *, Addr> &Jumps,
                     const BasicBlock *StartB, unsigned StartI,
                     const std::set<Addr> &MappedHeads, Addr TranslatorAddr) {
  MarkerSet Out;
  std::set<const BasicBlock *> Entered;
  std::vector<const BasicBlock *> Queue;
  unsigned Steps = 0;
  const unsigned Budget = 4096;

  auto external = [&](const Edge *E) {
    auto It = Jumps.find(E->src());
    if (It == Jumps.end()) {
      Out.insert({Marker::Kind::Unknown});
    } else if (TranslatorAddr && It->second == TranslatorAddr) {
      // Routed through the run-time translator: the static analogue of an
      // unresolved jump.
      Out.insert({Marker::Kind::Unresolved});
    } else {
      Out.insert({Marker::Kind::External, It->second});
    }
  };

  auto follow = [&](const BasicBlock *B) {
    for (const Edge *E : B->succ()) {
      const BasicBlock *D = E->dst();
      if (D->kind() == BlockKind::Exit) {
        if (E->kind() == EdgeKind::ExitReturn)
          Out.insert({Marker::Kind::Return});
        else if (E->kind() == EdgeKind::ExitUnresolved)
          Out.insert({Marker::Kind::Unresolved});
        else
          external(E);
      } else {
        Queue.push_back(D);
      }
    }
  };

  // Scans instruction positions [From, size); true when the path ended at
  // a mapped head. Position From itself is never treated as a head: the
  // walk starts *on* a head and must move past it.
  auto scan = [&](const BasicBlock *B, unsigned From) -> bool {
    if (B->kind() != BlockKind::Normal)
      return false;
    for (unsigned I = From + 1; I < B->size(); ++I) {
      if (++Steps > Budget) {
        Out.insert({Marker::Kind::Unknown});
        return true;
      }
      if (MappedHeads.count(B->insts()[I].OrigAddr)) {
        Out.insert({Marker::Kind::Head, B->insts()[I].OrigAddr});
        return true;
      }
    }
    return false;
  };

  if (!scan(StartB, StartI))
    follow(StartB);
  while (!Queue.empty()) {
    const BasicBlock *B = Queue.back();
    Queue.pop_back();
    if (!Entered.insert(B).second)
      continue;
    if (++Steps > Budget) {
      Out.insert({Marker::Kind::Unknown});
      break;
    }
    if (B->kind() == BlockKind::Normal && !B->empty() &&
        MappedHeads.count(B->anchor())) {
      Out.insert({Marker::Kind::Head, B->anchor()});
      continue;
    }
    if (!scan(B, 0))
      follow(B);
  }
  (void)EG;
  return Out;
}

} // namespace

void eel::verify::checkTranslation(RoutineCheckContext &Ctx) {
  Cfg *G = Ctx.G;
  if (!G || Ctx.Verbatim || G->unsupported() || !Ctx.EditedExec ||
      !Ctx.AddrMap)
    return;
  Routine &R = Ctx.R;
  const FlatAddrMap &Map = *Ctx.AddrMap;

  auto StartMapped = Map.find(R.startAddr());
  if (StartMapped == Map.end()) {
    Ctx.diag(VerifyPass::TranslationValidation, DiagSeverity::Error, -1,
             R.startAddr(), true, "routine start has no edited address");
    return;
  }
  Routine *ER =
      Ctx.EditedExec->analysis().routineContaining(StartMapped->second);
  if (!ER) {
    Ctx.diag(VerifyPass::TranslationValidation, DiagSeverity::Error, -1,
             StartMapped->second, true,
             "no routine in the edited image covers the edited start");
    return;
  }
  Cfg *EG = ER->controlFlowGraph();
  if (!EG || EG->unsupported()) {
    Ctx.diag(VerifyPass::TranslationValidation, DiagSeverity::Note, -1,
             StartMapped->second, true,
             "edited routine could not be re-analyzed" +
                 (EG ? ": " + EG->unsupportedReason() : std::string()));
    return;
  }

  // Blocks proven reachable from an entry point: only those have an
  // edited-image counterpart (speculatively covered code is laid out but
  // reached solely through the run-time translator).
  std::set<const BasicBlock *> Reachable;
  {
    std::vector<const BasicBlock *> Queue(G->entryBlocks().begin(),
                                          G->entryBlocks().end());
    while (!Queue.empty()) {
      const BasicBlock *B = Queue.back();
      Queue.pop_back();
      if (!Reachable.insert(B).second)
        continue;
      for (const Edge *E : B->succ())
        Queue.push_back(E->dst());
    }
  }

  // Original block heads, and the delay words the normalizer duplicated. A
  // head that doubles as a delay word has two mapped positions after fold
  // duplication; its walk anchors are ambiguous, so such routines are
  // skipped rather than mis-reported.
  std::set<Addr> Heads, DelayWords;
  for (const auto &BP : G->blocks()) {
    if (BP->kind() == BlockKind::DelaySlot) {
      for (const CfgInst &CI : BP->insts())
        DelayWords.insert(CI.OrigAddr);
    } else if (BP->kind() == BlockKind::Normal && !BP->empty() &&
               Reachable.count(BP)) {
      Heads.insert(BP->anchor());
    }
  }
  for (Addr H : Heads)
    if (DelayWords.count(H)) {
      Ctx.diag(VerifyPass::TranslationValidation, DiagSeverity::Note, -1, H,
               true,
               "block head doubles as a delay word; mapped positions are "
               "ambiguous, translation validation skipped");
      return;
    }

  std::set<Addr> MappedHeads;
  for (Addr H : Heads) {
    auto It = Map.find(H);
    if (It == Map.end()) {
      Ctx.diag(VerifyPass::TranslationValidation, DiagSeverity::Error, -1, H,
               true, "reachable block head has no edited address");
      return;
    }
    MappedHeads.insert(It->second);
  }

  // Index every instruction position of the edited routine's normal blocks.
  std::map<Addr, std::pair<const BasicBlock *, unsigned>> EditedPos;
  for (const auto &BP : EG->blocks()) {
    if (BP->kind() != BlockKind::Normal)
      continue;
    for (unsigned I = 0; I < BP->size(); ++I)
      EditedPos.emplace(BP->insts()[I].OrigAddr,
                        std::make_pair(BP, I));
  }

  std::map<const BasicBlock *, Addr> OrigJumps = interJumpTargets(*G);
  std::map<const BasicBlock *, Addr> EditedJumps = interJumpTargets(*EG);
  // "Isomorphism modulo inserted snippets": snippet code on a block or its
  // edges may legitimately introduce new transfers (guard branches to a
  // violation handler, counter stubs), so extra successors are not errors
  // there — the intended successors must still all be reachable.
  TouchedBlocks Touched(Ctx.Exec, *G);

  for (const auto &BP : G->blocks()) {
    const BasicBlock *B = BP;
    if (B->kind() != BlockKind::Normal || B->empty() || !Reachable.count(B))
      continue;
    bool HasSnippets = blockOrSuccTouched(Touched, B);
    const int Id = static_cast<int>(B->id());
    Addr H = B->anchor();
    Addr MappedH = Map.at(H);
    Ctx.check();

    // Original successor markers, normalized to edited addresses.
    MarkerSet Orig;
    origSuccMarkers(*G, OrigJumps, B, Orig, 0);
    MarkerSet OrigNorm;
    for (const Marker &M : Orig) {
      Marker N = M;
      if (M.K == Marker::Kind::Head || M.K == Marker::Kind::External) {
        auto It = Map.find(M.A);
        if (It == Map.end()) {
          // A transfer whose target has no edited address (e.g. a jump
          // into a data table): the image necessarily resolves it some
          // other way; nothing sound to compare.
          N = {Marker::Kind::Unknown, 0};
        } else {
          N.A = It->second;
        }
      }
      OrigNorm.insert(N);
    }

    auto PosIt = EditedPos.find(MappedH);
    if (PosIt == EditedPos.end()) {
      Ctx.diag(VerifyPass::TranslationValidation, DiagSeverity::Note, Id,
               MappedH, true,
               "edited position of block head " + hex(H) +
                   " was not recovered as code; successor check skipped");
      continue;
    }
    MarkerSet EditedM =
        editedWalk(*EG, EditedJumps, PosIt->second.first, PosIt->second.second,
                   MappedHeads, Ctx.TranslatorAddr);

    if (hasKind(OrigNorm, Marker::Kind::Unknown) ||
        hasKind(EditedM, Marker::Kind::Unknown))
      continue; // incomparable; already noted where it matters

    bool OrigUnres = hasKind(OrigNorm, Marker::Kind::Unresolved);
    bool EditedUnres = hasKind(EditedM, Marker::Kind::Unresolved);

    // Every concrete place the edited image can deliver control to must be
    // a successor the edited CFG intends.
    for (const Marker &M : EditedM) {
      if (M.K == Marker::Kind::Unresolved)
        continue;
      if (HasSnippets)
        continue; // inserted code adds transfers by design
      if (!OrigNorm.count(M))
        Ctx.diag(VerifyPass::TranslationValidation, DiagSeverity::Error, Id,
                 MappedH, true,
                 "edited image can transfer control from block head " +
                     hex(H) + " to " + M.describe() +
                     ", which is not a successor in the edited CFG");
    }
    // And every intended successor must be deliverable — unless the
    // re-analysis gave up somewhere along the way.
    for (const Marker &M : OrigNorm) {
      if (M.K == Marker::Kind::Unresolved) {
        if (!EditedUnres)
          Ctx.diag(VerifyPass::TranslationValidation, DiagSeverity::Warning,
                   Id, MappedH, true,
                   "unresolved jump was not routed through the run-time "
                   "translator");
        continue;
      }
      if (EditedM.count(M))
        continue;
      if (EditedUnres && !OrigUnres) {
        Ctx.diag(VerifyPass::TranslationValidation, DiagSeverity::Note, Id,
                 MappedH, true,
                 "re-analysis of the edited image could not resolve a jump; "
                 "successor " + M.describe() + " not statically confirmed");
        continue;
      }
      Ctx.diag(VerifyPass::TranslationValidation, DiagSeverity::Error, Id,
               MappedH, true,
               "edited image lost the successor " + M.describe() +
                   " of block head " + hex(H));
    }
  }
}
