//===- analysis/Infer.cpp - eel-infer fixpoint driver --------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixpoint of analysis/Infer.h: iterate entry voting (R5) against the
/// derived facts — call targets, prologues, isolated code pointers, and
/// the targets of resolutions R6 recovered — until the entry set and the
/// per-site resolutions stop changing. The rule scans live in
/// InferRules.cpp; this file owns the voting weights, the round loop, and
/// the confidence model.
///
//===----------------------------------------------------------------------===//

#include "analysis/Infer.h"

#include "analysis/InferInternal.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>

using namespace eel;
using namespace eel::infer;

namespace {

/// R5 voting weights. An address becomes an entry at WinThreshold votes,
/// so one strong rule (a call target, an inferred transfer target) almost
/// suffices, while weak rules (an isolated code pointer, a prologue idiom)
/// must corroborate each other. Dispatch-table words vote zero: case
/// labels are internal, not routine starts.
constexpr unsigned ImageEntryVote = 100;
constexpr unsigned CallTargetVote = 3;
constexpr unsigned ResolutionVote = 3;
constexpr unsigned CodePointerVote = 2;
constexpr unsigned PrologueVote = 2;
constexpr unsigned WinThreshold = 3;

/// One round of R5: rebuild the entry set from the current facts.
void voteEntries(InferContext &Ctx) {
  Ctx.Entries.clear();
  auto Vote = [&Ctx](Addr A, unsigned Weight) -> EntryFact & {
    EntryFact &F = Ctx.Entries[A];
    F.At = A;
    F.Votes += Weight;
    return F;
  };

  // The program entry point and the first text address are always kept —
  // exactly the stage-2 seeds the naive stripped path used, so inference
  // degrades to it when no other rule fires.
  Vote(Ctx.An.image().Entry, ImageEntryVote).IsImageEntry = true;
  Vote(Ctx.TB, 1);

  for (Addr T : Ctx.CallTargets)
    if (Ctx.plausibleAt(T))
      Vote(T, CallTargetVote).IsCallTarget = true;
  for (const CellFact &Cell : Ctx.Cells)
    if (Cell.PointsToText && !Cell.InTableRun && Ctx.plausibleAt(Cell.Value))
      Vote(Cell.Value, CodePointerVote).IsCodePointer = true;
  for (Addr T : Ctx.ResolutionTargets)
    if (Ctx.plausibleAt(T))
      Vote(T, ResolutionVote).FromResolution = true;
  // Prologues strengthen an address other evidence already points at (and
  // pair with code pointers); alone they are everywhere a leaf routine
  // saves nothing, so they never reach the threshold by themselves.
  for (Addr A : Ctx.PrologueSites)
    if (Ctx.Entries.count(A))
      Ctx.Entries[A].HasPrologue = true;

  // Keep the winners.
  for (auto It = Ctx.Entries.begin(); It != Ctx.Entries.end();) {
    const EntryFact &F = It->second;
    bool Keep = F.IsImageEntry || F.At == Ctx.TB || F.Votes >= WinThreshold;
    It = Keep ? std::next(It) : Ctx.Entries.erase(It);
  }
}

/// The candidate extents of the current entry set: [entry, next entry)
/// clamped to the text segment.
std::vector<Extent> partition(const InferContext &Ctx) {
  std::vector<Addr> Starts;
  for (const auto &[A, F] : Ctx.Entries) {
    (void)F;
    if (A >= Ctx.TB && A < Ctx.TE && (A & 3) == 0)
      Starts.push_back(A);
  }
  std::sort(Starts.begin(), Starts.end());
  std::vector<Extent> Extents;
  for (size_t I = 0; I < Starts.size(); ++I)
    Extents.push_back(
        {Starts[I], I + 1 < Starts.size() ? Starts[I + 1] : Ctx.TE});
  return Extents;
}

/// Convergence fingerprint: the entry set plus every site's resolution.
std::vector<uint64_t> fingerprint(const InferContext &Ctx) {
  std::vector<uint64_t> FP;
  for (const auto &[A, F] : Ctx.Entries) {
    (void)F;
    FP.push_back(A);
  }
  FP.push_back(~uint64_t(0));
  for (const auto &[A, Res] : Ctx.Sites) {
    FP.push_back(A);
    FP.push_back(static_cast<uint64_t>(Res.K) |
                 (uint64_t(Res.Inferred) << 8) |
                 (uint64_t(Res.TableAddr) << 16));
    for (Addr T : Res.Targets)
      FP.push_back(T);
  }
  return FP;
}

InferConfidence confidenceFor(const EntryFact &F, bool WeakOracle) {
  bool Strong = F.IsCallTarget || F.FromResolution;
  if (F.IsImageEntry)
    return InferConfidence::High;
  if (Strong && F.HasPrologue) {
    // A conclusion reached only through weak-store cell facts never rates
    // High: the byte-store leap of faith caps it.
    if (WeakOracle && !F.IsCallTarget)
      return InferConfidence::Medium;
    return InferConfidence::High;
  }
  if (Strong || (F.IsCodePointer && F.HasPrologue))
    return InferConfidence::Medium;
  return InferConfidence::Low;
}

/// Fixpoint iteration cap; the rule set converges in 2–3 rounds on
/// everything we generate, the cap only bounds adversarial inputs.
constexpr unsigned MaxRounds = 8;

} // namespace

InferResult eel::inferLayout(Analysis &An) {
  EEL_TRACE_SCOPE("infer");

  InferContext Ctx(An);
  Ctx.TB = An.textBase();
  Ctx.TE = An.textEnd();
  scanText(Ctx);          // R1 + R2, byte-level, fixed across rounds
  scanDataPointers(Ctx);  // R3, likewise

  std::vector<uint64_t> PrevFP;
  for (unsigned Round = 1; Round <= MaxRounds; ++Round) {
    Ctx.Stats.Rounds = Round;
    voteEntries(Ctx);                                    // R5
    std::vector<Extent> Extents = partition(Ctx);
    computeReachable(Ctx);   // uses last round's Sites for indirect targets
    An.InferredCells = computeCellConstancy(Ctx, Extents); // R4 (oracle)
    resolveSites(Ctx, Extents);                          // R6
    std::vector<uint64_t> FP = fingerprint(Ctx);
    if (FP == PrevFP)
      break;
    PrevFP = std::move(FP);
  }

  bool WeakOracle = false;
  for (const CellFact &Cell : Ctx.Cells)
    if (Cell.Constant && Cell.WeakStores)
      WeakOracle = true;

  InferResult Result;
  Result.ConstantCells = An.InferredCells;
  Result.Sites = std::move(Ctx.Sites);
  {
    std::vector<const EntryFact *> Sorted;
    for (const auto &[A, F] : Ctx.Entries) {
      (void)A;
      Sorted.push_back(&F);
    }
    std::sort(Sorted.begin(), Sorted.end(),
              [](const EntryFact *A, const EntryFact *B) {
                return A->At < B->At;
              });
    for (size_t I = 0; I < Sorted.size(); ++I) {
      const EntryFact &F = *Sorted[I];
      InferredRoutine R;
      R.Lo = F.At;
      R.Hi = I + 1 < Sorted.size() ? Sorted[I + 1]->At : Ctx.TE;
      if (F.At == An.image().Entry)
        R.Name = "entry";
      else if (F.At == Ctx.TB)
        R.Name = "text_start";
      else
        R.Name = "proc_" + std::to_string(F.At);
      R.Confidence = confidenceFor(F, WeakOracle);
      R.Votes = F.Votes;
      Result.Routines.push_back(std::move(R));
    }
  }

  for (const auto &[A, Res] : Result.Sites) {
    (void)A;
    bool Resolved = Res.K == IndirectResolution::Kind::Literal ||
                    Res.K == IndirectResolution::Kind::DispatchTable;
    if (Resolved) {
      ++Ctx.Stats.ResolvedSites;
      if (Res.Inferred)
        ++Ctx.Stats.InferredResolutions;
    } else {
      ++Ctx.Stats.UnresolvedSites;
    }
  }
  Result.Stats = Ctx.Stats;

  bumpStat("eel.infer.runs");
  bumpStat("eel.infer.rounds", Ctx.Stats.Rounds);
  bumpStat("eel.infer.routines", Result.Routines.size());
  bumpStat("eel.infer.constant_cells", Ctx.Stats.ConstantCells);
  bumpStat("eel.infer.resolved_sites", Ctx.Stats.ResolvedSites);
  bumpStat("eel.infer.inferred_resolutions", Ctx.Stats.InferredResolutions);
  bumpStat("eel.infer.unresolved_sites", Ctx.Stats.UnresolvedSites);
  return Result;
}
