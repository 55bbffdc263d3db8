//===- core/Instruction.cpp - Machine-independent instructions -------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Instruction.h"

#include "support/Error.h"
#include "support/Stats.h"

using namespace eel;

Instruction::~Instruction() = default;

Instruction::Instruction(InstKind Kind, const TargetInfo &Target,
                         MachWord Word)
    : Kind(Kind), Word(Word), Target(Target) {
  // One decode pass gathers every per-word fact (backends override
  // decodeMeta with a single-classify implementation).
  TargetInfo::InstMeta Meta = Target.decodeMeta(Word);
  Reads = Meta.Reads;
  Writes = Meta.Writes;
  DelaySlot = Meta.HasDelaySlot;
  Delay = Meta.Delay;
  Conditional = Meta.Conditional;
}

namespace {

/// Shared factory skeleton: invokes Make<T>(args...) with the subclass
/// matching the word's category.
template <template <typename> class MakeT, typename Result, typename... Extra>
Result buildInstruction(const TargetInfo &Target, MachWord Word,
                        Extra &&...E) {
  bumpStat("eel.inst.allocated");
  switch (Target.classify(Word)) {
  case InstCategory::Invalid:
    return MakeT<InvalidInst>()(std::forward<Extra>(E)..., Target, Word);
  case InstCategory::Computation:
    return MakeT<ComputationInst>()(std::forward<Extra>(E)..., Target, Word);
  case InstCategory::Load:
    return MakeT<MemoryInst>()(std::forward<Extra>(E)..., InstKind::Load,
                               Target, Word);
  case InstCategory::Store:
    return MakeT<MemoryInst>()(std::forward<Extra>(E)..., InstKind::Store,
                               Target, Word);
  case InstCategory::LoadStore:
    return MakeT<MemoryInst>()(std::forward<Extra>(E)..., InstKind::LoadStore,
                               Target, Word);
  case InstCategory::BranchDirect:
    return MakeT<BranchInst>()(std::forward<Extra>(E)..., Target, Word);
  case InstCategory::JumpDirect:
    return MakeT<JumpInst>()(std::forward<Extra>(E)..., Target, Word);
  case InstCategory::CallDirect:
    return MakeT<CallInst>()(std::forward<Extra>(E)..., Target, Word);
  case InstCategory::System:
    return MakeT<SystemCallInst>()(std::forward<Extra>(E)..., Target, Word);
  case InstCategory::IndirectJump: {
    // Resolve the overloaded uses by convention (Figure 6 of the paper):
    // writing the link register makes it a call; jumping through the link
    // register at the conventional offset makes it a return.
    const TargetConventions &Conv = Target.conventions();
    IndirectTargetInfo Info = *Target.indirectTarget(Word);
    if (Info.LinkReg == Conv.LinkReg && Conv.LinkReg != 0)
      return MakeT<IndirectCallInst>()(std::forward<Extra>(E)..., Target,
                                       Word);
    if (Info.LinkReg == 0 && !Info.HasIndex && Info.BaseReg == Conv.LinkReg &&
        Info.Offset == Conv.ReturnOffset)
      return MakeT<ReturnInst>()(std::forward<Extra>(E)..., Target, Word);
    return MakeT<IndirectJumpInst>()(std::forward<Extra>(E)..., Target, Word);
  }
  }
  unreachable("unhandled instruction category");
}

template <typename T> struct MakeUnique {
  template <typename... Args>
  std::unique_ptr<Instruction> operator()(Args &&...A) {
    return std::make_unique<T>(std::forward<Args>(A)...);
  }
};

template <typename T> struct MakeInArena {
  template <typename... Args>
  Instruction *operator()(BumpArena &Arena, Args &&...A) {
    // Placement-new outside BumpArena::create: the virtual destructor
    // makes instructions formally non-trivially-destructible, but pool
    // instructions own nothing and are deliberately never destroyed.
    return new (Arena.allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(A)...);
  }
};

} // namespace

std::unique_ptr<Instruction> eel::makeInstruction(const TargetInfo &Target,
                                                  MachWord Word) {
  return buildInstruction<MakeUnique, std::unique_ptr<Instruction>>(Target,
                                                                    Word);
}

Instruction *eel::makeInstructionIn(BumpArena &Arena, const TargetInfo &Target,
                                    MachWord Word) {
  return buildInstruction<MakeInArena, Instruction *>(Target, Word, Arena);
}

const Instruction *InstructionPool::get(MachWord Word) {
  size_t ShardIdx = shardIndexFor(Word);
  ShardedBumpArena::Shard &S = Arenas.shard(ShardIdx);
  std::lock_guard<std::mutex> Lock(S.M);
  auto &Map = Maps[ShardIdx];
  auto It = Map.find(Word);
  if (It != Map.end())
    return It->second;
  // Constructed under the shard lock: exactly one Instruction per word.
  Instruction *Inst = makeInstructionIn(S.Arena, Target, Word);
  Inst->OpIdx = Ops.intern(Inst->reads().mask(), Inst->writes().mask());
  Map.emplace(Word, Inst);
  return Inst;
}

void InstructionPool::attachDecodeIndex(Addr TextBase, size_t WordCount) {
  IndexBase = TextBase;
  IndexWords = WordCount;
  DecodeIndex =
      std::make_unique<std::atomic<const Instruction *>[]>(WordCount);
}

const Instruction *InstructionPool::getAt(Addr A, MachWord Word) {
  std::atomic<const Instruction *> *Slot = slotFor(A);
  if (!Slot)
    return get(Word);
  if (const Instruction *I = Slot->load(std::memory_order_acquire)) {
    assert(I->word() == Word && "decode index out of sync with image");
    return I;
  }
  const Instruction *I = get(Word);
  // Racing decoders of the same address publish the same pointer (the
  // flyweight invariant), so the store order is immaterial.
  Slot->store(I, std::memory_order_release);
  return I;
}

uint64_t InstructionPool::allocated() const {
  uint64_t Total = 0;
  for (size_t I = 0; I < ShardCount; ++I) {
    std::lock_guard<std::mutex> Lock(Arenas.shard(I).M);
    Total += Maps[I].size();
  }
  return Total;
}
