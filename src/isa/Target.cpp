//===- isa/Target.cpp - Targets and operations on decoded words -----------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A target's construction, which compiles its machine description into
/// the decode table, and the operations written once over the DecodedWord
/// decode() returns: retargeting a direct transfer and renaming a word's
/// registers.
///
//===----------------------------------------------------------------------===//

#include "isa/Target.h"

#include "spawn/Analysis.h"
#include "support/BitOps.h"
#include "support/Error.h"

using namespace eel;

TargetInfo::TargetInfo(TargetArch Arch, const char *Description,
                       TargetConventions TheConv)
    : Arch(Arch), Conv(std::move(TheConv)) {
  Expected<std::shared_ptr<spawn::MachineDesc>> Desc =
      spawn::parseMachineDescription(Description);
  if (Desc.hasError())
    reportFatalError("embedded machine description is broken: " +
                     Desc.error().message());
  const spawn::MachineDesc &D = *Desc.value();
  for (const spawn::RegFileDef &RF : D.RegFiles) {
    if (RF.Count == 0)
      ConditionCodes = true;
    else if (NumRegisters == 0)
      NumRegisters = RF.Count;
  }
  DelaySlots = D.hasDelayMarks();
  Decoder = std::make_unique<const spawn::CompiledDecoder>(Desc.takeValue(),
                                                           Conv);
}

TargetInfo::~TargetInfo() = default;

const char *TargetInfo::name() const { return desc().ArchName.c_str(); }

DecodedWord TargetInfo::decode(MachWord Word) const {
  return Decoder->decode(Word);
}

const spawn::MachineDesc &TargetInfo::desc() const { return Decoder->desc(); }

void DecodedWord::tooManyRegFields() {
  reportFatalError("instruction has more register fields than DecodedWord "
                   "holds");
}

std::optional<MachWord> eel::retargetDirect(const DecodedWord &D,
                                            MachWord Word, Addr NewPC,
                                            Addr NewTarget) {
  if (!D.isDirectTransfer())
    return std::nullopt;
  return retargetDirect(D.Direct, Word, NewPC, NewTarget);
}

std::optional<MachWord> eel::retargetDirect(const DirectShape &S,
                                            MachWord Word, Addr NewPC,
                                            Addr NewTarget) {
  if (!S.HasField)
    return std::nullopt;
  int64_t Needed;
  if (S.Region) {
    if ((NewPC & S.RegionMask) != (NewTarget & S.RegionMask))
      return std::nullopt;
    Needed = static_cast<int64_t>(NewTarget & ~S.RegionMask) - S.Bias;
  } else {
    Needed = static_cast<int64_t>(NewTarget) - static_cast<int64_t>(NewPC) -
             S.Bias;
  }
  assert((Needed & ((int64_t(1) << S.Shift) - 1)) == 0 &&
         "misaligned branch target");
  int64_t FieldVal = Needed >> S.Shift;
  unsigned Width = S.Field.Hi - S.Field.Lo + 1u;
  if (S.Signed ? !fitsSigned(FieldVal, Width)
               : !fitsUnsigned(static_cast<uint64_t>(FieldVal), Width))
    return std::nullopt;
  return insertBits(Word, S.Field.Lo, S.Field.Hi,
                    static_cast<uint32_t>(FieldVal));
}

std::optional<MachWord> eel::rewriteRegisters(const DecodedWord &D,
                                              MachWord Word,
                                              const RegisterMap &Map) {
  for (unsigned Reg : D.FixedRegs) {
    assert(Reg < Map.size() && "implicit register outside the map");
    if (Map[Reg] != Reg)
      return std::nullopt;
  }
  MachWord Out = Word;
  for (unsigned I = 0; I < D.NumRegFields; ++I) {
    const BitRange &F = D.RegFields[I];
    unsigned OldReg = extractBits(Word, F.Lo, F.Hi);
    assert(OldReg < Map.size() && "register field outside the map");
    unsigned NewReg = Map[OldReg];
    assert(fitsUnsigned(NewReg, F.Hi - F.Lo + 1u) &&
           "register map produced a bad id");
    Out = insertBits(Out, F.Lo, F.Hi, NewReg);
  }
  return Out;
}

const TargetInfo &eel::targetFor(TargetArch Arch) {
  switch (Arch) {
  case TargetArch::Srisc:
    return sriscTarget();
  case TargetArch::Mrisc:
    return mriscTarget();
  case TargetArch::Arisc:
    return ariscTarget();
  }
  unreachable("unknown target architecture");
}
