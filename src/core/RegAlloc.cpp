//===- core/RegAlloc.cpp - Snippet register scavenging ------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/RegAlloc.h"

#include "support/Metrics.h"

#include <bit>
#include <memory>
#include <type_traits>

using namespace eel;

namespace {

/// A snippet's body words, each decoded once for both the plan and the
/// renaming. A body of up to InlineWords words lives in stack slots of
/// which only the body's own are constructed (an array of DecodedWords
/// would run every slot's member initialisers); a longer one takes the
/// heap.
class DecodedBody {
public:
  DecodedBody(const TargetInfo &Target, const std::vector<MachWord> &Body)
      : Overflow(Body.size() > InlineWords ? new Slot[Body.size()] : nullptr),
        Slots(Overflow ? Overflow.get() : Inline), Size(Body.size()) {
    for (size_t I = 0; I < Size; ++I)
      std::construct_at(&Slots[I].Word, Target.decode(Body[I]));
  }
  DecodedBody(const DecodedBody &) = delete;
  DecodedBody &operator=(const DecodedBody &) = delete;

  size_t size() const { return Size; }
  const DecodedWord &operator[](size_t I) const { return Slots[I].Word; }

private:
  /// Room for one word, left unconstructed until the body fills it; no
  /// word needs destroying.
  union Slot {
    Slot() {}
    DecodedWord Word;
  };
  static_assert(std::is_trivially_destructible_v<DecodedWord>);
  static constexpr size_t InlineWords = 16;

  Slot Inline[InlineWords];
  std::unique_ptr<Slot[]> Overflow;
  Slot *Slots;
  size_t Size;
};

} // namespace

/// The plan for \p Snippet, whose body words \p Body decodes.
static Expected<ScavengePlan> planFor(const TargetInfo &Target,
                                      const CodeSnippet &Snippet,
                                      const DecodedBody &Body,
                                      const RegSet &Live) {
  const TargetConventions &Conv = Target.conventions();

  // Registers the body names literally (reads or writes) that are not
  // placeholders must keep their identity; they cannot receive a
  // placeholder assignment.
  RegSet LiterallyUsed;
  for (size_t I = 0; I < Body.size(); ++I)
    for (unsigned Reg : Body[I].Reads | Body[I].Writes)
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

  // How many registers do we need? One per placeholder, plus one scratch
  // for condition-code save/restore if the snippet clobbers live CC.
  ScavengePlan Plan;
  Plan.NeedCCSave = Snippet.clobbersCC() && Target.hasConditionCodes() &&
                    Live.contains(RegIdCC);
  unsigned Needed =
      Snippet.regsToAllocate().size() + (Plan.NeedCCSave ? 1 : 0);

  // Grant from the dead pool first, lowest first; spill live registers,
  // lowest first, for the rest.
  for (unsigned Reg : Universe - Live) {
    if (Plan.GrantedSet.size() >= Needed)
      break;
    Plan.GrantedSet.insert(Reg);
  }
  if (Plan.GrantedSet.size() < Needed && Snippet.requireDeadRegs())
    return Error(ErrorCode::NoDeadRegisters,
                 "snippet needs " + std::to_string(Needed) +
                     " dead registers at this site but only " +
                     std::to_string(Plan.GrantedSet.size()) +
                     " are dead and spilling is disallowed");
  for (unsigned Reg : Universe & Live) {
    if (Plan.GrantedSet.size() >= Needed)
      break;
    Plan.GrantedSet.insert(Reg);
    Plan.SpilledSet.insert(Reg);
  }
  if (Plan.GrantedSet.size() < Needed)
    return Error(ErrorCode::NoDeadRegisters,
                 "snippet needs " + std::to_string(Needed) +
                     " registers but only " +
                     std::to_string(Plan.GrantedSet.size()) +
                     " can be scavenged or spilled");
  unsigned MaxSpillSlots =
      static_cast<unsigned>((SnippetSpillBase - SnippetSpillLimit) / 4);
  if (Plan.SpilledSet.size() > MaxSpillSlots)
    return Error(ErrorCode::SpillExhausted, "snippet spill area exhausted");
  return Plan;
}

Expected<ScavengePlan> eel::planScavenge(const TargetInfo &Target,
                                         const CodeSnippet &Snippet,
                                         const RegSet &Live) {
  return planFor(Target, Snippet, DecodedBody(Target, Snippet.body()), Live);
}

Expected<bool> eel::placeSnippet(const TargetInfo &Target,
                                 const CodeSnippet &Snippet,
                                 const RegSet &Live,
                                 std::vector<MachWord> &Code,
                                 SnippetInstance &Site) {
  const DecodedBody Body(Target, Snippet.body());
  Expected<ScavengePlan> Planned = planFor(Target, Snippet, Body, Live);
  if (Planned.hasError())
    return Planned.error();
  const ScavengePlan &Plan = Planned.value();
  const size_t Start = Code.size();

  for (unsigned Reg = 0; Reg < 32; ++Reg)
    Site.RegMap[Reg] = static_cast<uint8_t>(Reg);
  Site.Granted = Plan.GrantedSet;
  Site.Spilled = Plan.SpilledSet;
  Site.SpillCount = Plan.SpilledSet.size();
  Site.SavedCC = Plan.NeedCCSave;

  // Bind placeholders (ascending) to the grants in plan order; the CC
  // scratch register, if any, takes the grant after them.
  RegSet DeadLeft = Plan.GrantedSet - Plan.SpilledSet;
  RegSet SpilledLeft = Plan.SpilledSet;
  auto NextGrant = [&] {
    RegSet &From = DeadLeft.empty() ? SpilledLeft : DeadLeft;
    unsigned Reg = From.first();
    From.remove(Reg);
    return Reg;
  };
  for (unsigned Placeholder : Snippet.regsToAllocate())
    Site.RegMap[Placeholder] = static_cast<uint8_t>(NextGrant());
  unsigned CCScratch = Plan.NeedCCSave ? NextGrant() : 0;

  // The Ith spilled register (ascending) owns the Ith slot below the base.
  auto SlotOf = [](unsigned Index) {
    return SnippetSpillBase - static_cast<int32_t>(4 * Index) - 4;
  };

  // Prologue: spill stores, then CC save.
  unsigned SP = Target.conventions().StackPointer;
  unsigned Slot = 0;
  for (unsigned Reg : Plan.SpilledSet)
    Target.emitStoreWord(Reg, SP, SlotOf(Slot++), Code);
  if (Plan.NeedCCSave)
    Target.emitSaveCC(CCScratch, Code);
  Site.BodyBegin = static_cast<unsigned>(Code.size() - Start);

  // Body with placeholders rewritten.
  for (size_t I = 0; I < Body.size(); ++I) {
    std::optional<MachWord> New =
        rewriteRegisters(Body[I], Snippet.body()[I], Site.RegMap);
    if (!New) {
      Code.resize(Start);
      return Error("snippet instruction cannot be register-rewritten");
    }
    Code.push_back(*New);
  }

  // Epilogue: CC restore, then spill reloads, highest register first.
  if (Plan.NeedCCSave)
    Target.emitRestoreCC(CCScratch, Code);
  for (uint64_t Left = Plan.SpilledSet.mask(); Left;) {
    unsigned Reg = static_cast<unsigned>(std::bit_width(Left)) - 1;
    Left &= ~(uint64_t(1) << Reg);
    Target.emitLoadWord(Reg, SP, SlotOf(std::popcount(Left)), Code);
  }
  return true;
}

Expected<SnippetInstance> eel::instantiateSnippet(const TargetInfo &Target,
                                                  const CodeSnippet &Snippet,
                                                  const RegSet &Live) {
  SnippetInstance Inst;
  Expected<bool> Placed =
      placeSnippet(Target, Snippet, Live, Inst.Words, Inst);
  if (Placed.hasError())
    return Placed.error();
  ScavengeTally Tally;
  Tally.add(Inst);
  Tally.record();
  return Inst;
}

void ScavengeTally::add(const SnippetInstance &Site) {
  ++Instances;
  Spills += Site.SpillCount;
  CCSaves += Site.SavedCC ? 1 : 0;
  GrantedPerSite.record(Site.Granted.size());
  SpilledPerSite.record(Site.Spilled.size());
}

void ScavengeTally::record() const {
  if (Instances == 0)
    return;
  bumpStat("eel.snippet.instances", Instances);
  if (Spills)
    bumpStat("eel.snippet.spills", Spills);
  if (CCSaves)
    bumpStat("eel.snippet.ccsaves", CCSaves);
  // Per-site values, so deterministic across thread counts: how many
  // registers each site got, and how many of them it had to spill.
  bumpHistogram("scavenge.granted_per_site", GrantedPerSite);
  bumpHistogram("scavenge.spilled_per_site", SpilledPerSite);
}
