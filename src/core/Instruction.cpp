//===- core/Instruction.cpp - Machine-independent instructions -------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Instruction.h"

#include "support/BitOps.h"
#include "support/Error.h"
#include "support/Metrics.h"
#include "support/Trace.h"

using namespace eel;

InstKind eel::instKind(const DecodedWord &D, const TargetConventions &Conv) {
  switch (D.Category) {
  case InstCategory::Invalid:
    return InstKind::Invalid;
  case InstCategory::Computation:
    return InstKind::Computation;
  case InstCategory::Load:
    return InstKind::Load;
  case InstCategory::Store:
    return InstKind::Store;
  case InstCategory::LoadStore:
    return InstKind::LoadStore;
  case InstCategory::BranchDirect:
    return InstKind::Branch;
  case InstCategory::JumpDirect:
    return InstKind::Jump;
  case InstCategory::CallDirect:
    return InstKind::Call;
  case InstCategory::System:
    return InstKind::SystemCall;
  case InstCategory::IndirectJump: {
    const IndirectTargetInfo &Info = D.Indirect;
    if (Info.LinkReg == Conv.LinkReg && Conv.LinkReg != 0)
      return InstKind::IndirectCall;
    if (Info.LinkReg == 0 && !Info.HasIndex && Info.BaseReg == Conv.LinkReg &&
        Info.Offset == Conv.ReturnOffset)
      return InstKind::Return;
    return InstKind::IndirectJump;
  }
  }
  unreachable("unhandled instruction category");
}

Instruction::Instruction(const TargetInfo &Target, MachWord Word)
    : Word(Word), D(Target.decode(Word)) {
  Kind = instKind(D, Target.conventions());
}

Instruction eel::makeInstruction(const TargetInfo &Target, MachWord Word) {
  bumpStat("eel.inst.allocated");
  return Instruction(Target, Word);
}

namespace {

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

DecodeTable::DecodeTable(const TargetInfo &Target, Addr BaseIn,
                         std::span<const uint8_t> Text)
    : Base(BaseIn) {
  EEL_TRACE_SCOPE("decode", "words", uint64_t(Text.size() / 4));
  const WordNumbers Numbers = numberWords(Text.data(), Text.size() / 4);
  Insts.reserve(Numbers.Words.size());
  for (MachWord Word : Numbers.Words)
    Insts.emplace_back(Target, Word);
  ByAddr.resize(Numbers.Ids.size());
  for (size_t I = 0; I < ByAddr.size(); ++I)
    ByAddr[I] = &Insts[Numbers.Ids[I]];
  if (!Insts.empty())
    bumpStat("eel.inst.allocated", Insts.size());
}
