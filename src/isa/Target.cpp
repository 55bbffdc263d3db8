//===- isa/Target.cpp - Machine-independent operations on decoded words ---===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operations every backend used to implement for itself, written once
/// over the DecodedWord a backend's decode() returns: retargeting a direct
/// transfer and renaming a word's registers.
///
//===----------------------------------------------------------------------===//

#include "isa/Target.h"

#include "support/BitOps.h"
#include "support/Error.h"

using namespace eel;

TargetInfo::~TargetInfo() = default;

void DecodedWord::tooManyRegFields() {
  reportFatalError("instruction has more register fields than DecodedWord "
                   "holds");
}

std::optional<MachWord> eel::retargetDirect(const DecodedWord &D,
                                            MachWord Word, Addr NewPC,
                                            Addr NewTarget) {
  const DirectShape &S = D.Direct;
  if (!D.isDirectTransfer() || !S.HasField)
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
