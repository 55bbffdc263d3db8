//===- core/RegAlloc.cpp - Snippet register scavenging ------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/RegAlloc.h"

#include "support/Metrics.h"
#include "support/Stats.h"

#include <numeric>

using namespace eel;

/// The plan for \p Snippet, whose body words \p Body decodes.
static Expected<ScavengePlan> planFor(const TargetInfo &Target,
                                      const CodeSnippet &Snippet,
                                      const std::vector<DecodedWord> &Body,
                                      const RegSet &Live) {
  const TargetConventions &Conv = Target.conventions();

  // Registers the body names literally (reads or writes) that are not
  // placeholders must keep their identity; they cannot receive a
  // placeholder assignment.
  RegSet LiterallyUsed;
  for (const DecodedWord &D : Body)
    for (unsigned Reg : D.Reads | D.Writes)
      if (Reg < 32)
        LiterallyUsed.insert(Reg);
  LiterallyUsed.remove(Snippet.regsToAllocate());

  RegSet Universe;
  for (unsigned Reg = 1; Reg < Target.numRegisters(); ++Reg)
    Universe.insert(Reg);
  Universe.remove(Conv.Reserved);
  Universe.remove(Snippet.forbidden());
  Universe.remove(LiterallyUsed);
  Universe.remove(Snippet.regsToAllocate());

  RegSet Dead = Universe - Live;

  // How many registers do we need? One per placeholder, plus one scratch
  // for condition-code save/restore if the snippet clobbers live CC.
  ScavengePlan Plan;
  Plan.NeedCCSave = Snippet.clobbersCC() && Target.hasConditionCodes() &&
                    Live.contains(RegIdCC);
  unsigned Needed =
      Snippet.regsToAllocate().size() + (Plan.NeedCCSave ? 1 : 0);

  // Assign from the dead pool first; spill live registers for the rest.
  for (unsigned Reg : Dead) {
    if (Plan.Granted.size() >= Needed)
      break;
    Plan.Granted.push_back(Reg);
  }
  if (Plan.Granted.size() < Needed && Snippet.requireDeadRegs())
    return Error(ErrorCode::NoDeadRegisters,
                 "snippet needs " + std::to_string(Needed) +
                     " dead registers at this site but only " +
                     std::to_string(Plan.Granted.size()) +
                     " are dead and spilling is disallowed");
  if (Plan.Granted.size() < Needed) {
    RegSet SpillPool = Universe & Live;
    for (unsigned Reg : SpillPool) {
      if (Plan.Granted.size() >= Needed)
        break;
      Plan.Granted.push_back(Reg);
      Plan.SpilledSet.insert(Reg);
    }
  }
  if (Plan.Granted.size() < Needed)
    return Error(ErrorCode::NoDeadRegisters,
                 "snippet needs " + std::to_string(Needed) +
                     " registers but only " +
                     std::to_string(Plan.Granted.size()) +
                     " can be scavenged or spilled");
  unsigned MaxSpillSlots =
      static_cast<unsigned>((SnippetSpillBase - SnippetSpillLimit) / 4);
  if (Plan.SpilledSet.size() > MaxSpillSlots)
    return Error(ErrorCode::SpillExhausted, "snippet spill area exhausted");
  for (unsigned Reg : Plan.Granted)
    Plan.GrantedSet.insert(Reg);
  return Plan;
}

/// Decodes each body word once, for both the plan and the renaming.
static std::vector<DecodedWord> decodeBody(const TargetInfo &Target,
                                           const CodeSnippet &Snippet) {
  std::vector<DecodedWord> Body;
  Body.reserve(Snippet.body().size());
  for (MachWord W : Snippet.body())
    Body.push_back(Target.decode(W));
  return Body;
}

Expected<ScavengePlan> eel::planScavenge(const TargetInfo &Target,
                                         const CodeSnippet &Snippet,
                                         const RegSet &Live) {
  return planFor(Target, Snippet, decodeBody(Target, Snippet), Live);
}

Expected<SnippetInstance> eel::instantiateSnippet(const TargetInfo &Target,
                                                  const CodeSnippet &Snippet,
                                                  const RegSet &Live) {
  bumpStat("eel.snippet.instances");
  const std::vector<DecodedWord> Body = decodeBody(Target, Snippet);
  Expected<ScavengePlan> Planned = planFor(Target, Snippet, Body, Live);
  if (Planned.hasError())
    return Planned.error();
  const ScavengePlan &Plan = Planned.value();
  // Scavenge-quality distributions: how many registers each site got for
  // free vs. had to spill. Per-site values, so deterministic across
  // thread counts.
  bumpHistogram("scavenge.granted_per_site", Plan.Granted.size());
  bumpHistogram("scavenge.spilled_per_site", Plan.SpilledSet.size());
  const TargetConventions &Conv = Target.conventions();

  SnippetInstance Inst;
  for (unsigned Reg = 0; Reg < 32; ++Reg)
    Inst.RegMap[Reg] = static_cast<uint8_t>(Reg);
  Inst.Granted = Plan.GrantedSet;
  Inst.Spilled = Plan.SpilledSet;
  bool NeedCCSave = Plan.NeedCCSave;
  std::vector<unsigned> Spilled;
  for (unsigned Reg : Plan.SpilledSet)
    Spilled.push_back(Reg);

  // Bind placeholders (in ascending order) to granted registers.
  unsigned Cursor = 0;
  for (unsigned Placeholder : Snippet.regsToAllocate())
    Inst.RegMap[Placeholder] = static_cast<uint8_t>(Plan.Granted[Cursor++]);
  unsigned CCScratch = NeedCCSave ? Plan.Granted[Cursor++] : 0;

  // Prologue: spill stores, then CC save.
  unsigned SP = Conv.StackPointer;
  for (size_t I = 0; I < Spilled.size(); ++I)
    Target.emitStoreWord(Spilled[I], SP,
                         SnippetSpillBase - static_cast<int32_t>(4 * I) - 4,
                         Inst.Words);
  if (NeedCCSave) {
    bumpStat("eel.snippet.ccsaves");
    Target.emitSaveCC(CCScratch, Inst.Words);
  }
  Inst.BodyBegin = static_cast<unsigned>(Inst.Words.size());

  // Body with placeholders rewritten.
  for (size_t I = 0; I < Body.size(); ++I) {
    std::optional<MachWord> New =
        rewriteRegisters(Body[I], Snippet.body()[I], Inst.RegMap);
    if (!New)
      return Error("snippet instruction cannot be register-rewritten");
    Inst.Words.push_back(*New);
  }

  // Epilogue: CC restore, then spill reloads.
  if (NeedCCSave)
    Target.emitRestoreCC(CCScratch, Inst.Words);
  for (size_t I = Spilled.size(); I-- > 0;)
    Target.emitLoadWord(Spilled[I], SP,
                        SnippetSpillBase - static_cast<int32_t>(4 * I) - 4,
                        Inst.Words);

  Inst.SpillCount = static_cast<unsigned>(Spilled.size());
  if (Inst.SpillCount)
    bumpStat("eel.snippet.spills", Inst.SpillCount);
  Inst.SavedCC = NeedCCSave;
  return Inst;
}
