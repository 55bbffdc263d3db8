//===- core/Instruction.cpp - Machine-independent instructions -------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Instruction.h"

#include "support/BitOps.h"
#include "support/Error.h"
#include "support/Stats.h"
#include "support/Trace.h"

using namespace eel;

Instruction::~Instruction() = default;

namespace {

/// Shared factory skeleton: decodes \p Word once and invokes
/// Make<T>(args...) with the subclass matching its category.
template <template <typename> class MakeT, typename Result, typename... Extra>
Result buildInstruction(const TargetInfo &Target, MachWord Word,
                        Extra &&...E) {
  const DecodedWord D = Target.decode(Word);
  switch (D.Category) {
  case InstCategory::Invalid:
    return MakeT<InvalidInst>()(std::forward<Extra>(E)..., Target, Word, D);
  case InstCategory::Computation:
    return MakeT<ComputationInst>()(std::forward<Extra>(E)..., Target, Word, D);
  case InstCategory::Load:
    return MakeT<MemoryInst>()(std::forward<Extra>(E)..., InstKind::Load,
                               Target, Word, D);
  case InstCategory::Store:
    return MakeT<MemoryInst>()(std::forward<Extra>(E)..., InstKind::Store,
                               Target, Word, D);
  case InstCategory::LoadStore:
    return MakeT<MemoryInst>()(std::forward<Extra>(E)..., InstKind::LoadStore,
                               Target, Word, D);
  case InstCategory::BranchDirect:
    return MakeT<BranchInst>()(std::forward<Extra>(E)..., Target, Word, D);
  case InstCategory::JumpDirect:
    return MakeT<JumpInst>()(std::forward<Extra>(E)..., Target, Word, D);
  case InstCategory::CallDirect:
    return MakeT<CallInst>()(std::forward<Extra>(E)..., Target, Word, D);
  case InstCategory::System:
    return MakeT<SystemCallInst>()(std::forward<Extra>(E)..., Target, Word, D);
  case InstCategory::IndirectJump: {
    // Resolve the overloaded uses by convention (Figure 6 of the paper):
    // writing the link register makes it a call; jumping through the link
    // register at the conventional offset makes it a return.
    const TargetConventions &Conv = Target.conventions();
    const IndirectTargetInfo &Info = D.Indirect;
    if (Info.LinkReg == Conv.LinkReg && Conv.LinkReg != 0)
      return MakeT<IndirectCallInst>()(std::forward<Extra>(E)...,
                                       Target, Word, D);
    if (Info.LinkReg == 0 && !Info.HasIndex && Info.BaseReg == Conv.LinkReg &&
        Info.Offset == Conv.ReturnOffset)
      return MakeT<ReturnInst>()(std::forward<Extra>(E)..., Target, Word, D);
    return MakeT<IndirectJumpInst>()(std::forward<Extra>(E)...,
                                     Target, Word, D);
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
    // makes instructions formally non-trivially-destructible, but table
    // instructions own nothing and are deliberately never destroyed.
    return new (Arena.allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(A)...);
  }
};

/// Numbers the distinct words among the \p N words at \p Text in order of
/// first appearance: Ids[I] is word I's number, Words[Id] the word.
struct WordNumbers {
  std::vector<uint32_t> Ids;
  std::vector<MachWord> Words;
};

WordNumbers numberWords(const uint8_t *Text, size_t N) {
  // Open addressing with linear probing; a slot holds a word and its
  // number + 1 (0 = empty), and the table doubles at half load.
  struct Slot {
    MachWord Word = 0;
    uint32_t Id = 0;
  };
  WordNumbers R;
  R.Ids.resize(N);
  unsigned Bits = 10;
  std::vector<Slot> Slots(size_t(1) << Bits);
  auto Home = [&Bits](MachWord W) {
    // Multiplicative hash: opcode bits cluster, so mix before taking bits.
    return size_t(MachWord(W * 0x9E3779B9u) >> (32 - Bits));
  };
  auto Find = [&Slots, &Home](MachWord W) -> Slot & {
    size_t H = Home(W);
    while (Slots[H].Id && Slots[H].Word != W)
      H = (H + 1) & (Slots.size() - 1);
    return Slots[H];
  };
  for (size_t I = 0; I < N; ++I) {
    MachWord W = loadLE32(Text + 4 * I);
    Slot &S = Find(W);
    if (!S.Id) {
      R.Words.push_back(W);
      S = {W, static_cast<uint32_t>(R.Words.size())};
    }
    R.Ids[I] = S.Id - 1;
    if (2 * R.Words.size() > Slots.size()) {
      ++Bits;
      Slots.assign(size_t(1) << Bits, Slot());
      for (size_t Id = 0; Id < R.Words.size(); ++Id)
        Find(R.Words[Id]) = {R.Words[Id], static_cast<uint32_t>(Id + 1)};
    }
  }
  return R;
}

} // namespace

std::unique_ptr<Instruction> eel::makeInstruction(const TargetInfo &Target,
                                                  MachWord Word) {
  bumpStat("eel.inst.allocated");
  return buildInstruction<MakeUnique, std::unique_ptr<Instruction>>(Target,
                                                                    Word);
}

DecodeTable::DecodeTable(const TargetInfo &Target, Addr BaseIn,
                         std::span<const uint8_t> Text)
    : Base(BaseIn) {
  EEL_TRACE_SCOPE("decode", "words", uint64_t(Text.size() / 4));
  const WordNumbers Numbers = numberWords(Text.data(), Text.size() / 4);
  Distinct = Numbers.Words.size();
  std::vector<const Instruction *> Insts(Distinct);
  for (size_t Id = 0; Id < Distinct; ++Id)
    Insts[Id] = buildInstruction<MakeInArena, Instruction *>(
        Target, Numbers.Words[Id], Arena);
  ByAddr.resize(Numbers.Ids.size());
  for (size_t I = 0; I < ByAddr.size(); ++I)
    ByAddr[I] = Insts[Numbers.Ids[I]];
  if (Distinct)
    bumpStat("eel.inst.allocated", Distinct);
}
