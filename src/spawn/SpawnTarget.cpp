//===- spawn/SpawnTarget.cpp - Description-derived target ------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "spawn/SpawnTarget.h"

#include "isa/Descriptions.h"
#include "support/Error.h"

#include <set>

using namespace eel;
using namespace eel::spawn;

SpawnTarget::SpawnTarget(std::shared_ptr<const MachineDesc> Desc,
                         const TargetInfo &CodegenDelegate)
    : Desc(std::move(Desc)), Delegate(CodegenDelegate) {
  DisplayName = this->Desc->ArchName + "-spawn";
}

TargetArch SpawnTarget::arch() const { return Delegate.arch(); }
const char *SpawnTarget::name() const { return DisplayName.c_str(); }
const TargetConventions &SpawnTarget::conventions() const {
  return Delegate.conventions();
}
unsigned SpawnTarget::numRegisters() const {
  for (const RegFileDef &RF : Desc->RegFiles)
    if (RF.Count)
      return RF.Count;
  return Delegate.numRegisters();
}
bool SpawnTarget::hasConditionCodes() const {
  for (const RegFileDef &RF : Desc->RegFiles)
    if (RF.Count == 0)
      return true;
  return false;
}
std::string SpawnTarget::regName(unsigned Reg) const {
  return Delegate.regName(Reg);
}

bool SpawnTarget::branchDelaySlots() const {
  // Derived from the description, not the delegate: the architecture has
  // delay slots iff some semantic expression carries a `;` delay mark.
  return Desc->hasDelayMarks();
}

DecodedWord SpawnTarget::decode(MachWord Word) const {
  DecodedWord D = analyzeWord(*Desc, Word);
  // Trap conventions live outside the description (paper §4).
  if (D.Category == InstCategory::System) {
    D.Reads = conventions().SyscallReads;
    D.Writes = conventions().SyscallWrites;
  }
  return D;
}

MachWord SpawnTarget::nopWord() const { return Delegate.nopWord(); }
bool SpawnTarget::emitJump(Addr PC, Addr Target,
                           std::vector<MachWord> &Out) const {
  return Delegate.emitJump(PC, Target, Out);
}
bool SpawnTarget::emitCall(Addr PC, Addr Target,
                           std::vector<MachWord> &Out) const {
  return Delegate.emitCall(PC, Target, Out);
}
void SpawnTarget::emitLoadConst(unsigned Reg, uint32_t Value,
                                std::vector<MachWord> &Out) const {
  Delegate.emitLoadConst(Reg, Value, Out);
}
void SpawnTarget::emitLoadWord(unsigned DataReg, unsigned Base, int32_t Offset,
                               std::vector<MachWord> &Out) const {
  Delegate.emitLoadWord(DataReg, Base, Offset, Out);
}
void SpawnTarget::emitStoreWord(unsigned DataReg, unsigned Base,
                                int32_t Offset,
                                std::vector<MachWord> &Out) const {
  Delegate.emitStoreWord(DataReg, Base, Offset, Out);
}
void SpawnTarget::emitAddImm(unsigned Rd, unsigned Rs1, int32_t Imm,
                             std::vector<MachWord> &Out) const {
  Delegate.emitAddImm(Rd, Rs1, Imm, Out);
}
void SpawnTarget::emitAddReg(unsigned Rd, unsigned Rs1, unsigned Rs2,
                             std::vector<MachWord> &Out) const {
  Delegate.emitAddReg(Rd, Rs1, Rs2, Out);
}
void SpawnTarget::emitAluImm(DataOpKind Op, unsigned Rd, unsigned Rs1,
                             int32_t Imm, std::vector<MachWord> &Out) const {
  Delegate.emitAluImm(Op, Rd, Rs1, Imm, Out);
}
void SpawnTarget::emitIndirectJump(unsigned Reg, std::vector<MachWord> &Out,
                                   std::optional<MachWord> DelayWord) const {
  Delegate.emitIndirectJump(Reg, Out, DelayWord);
}
bool SpawnTarget::emitSkipIfEqual(unsigned Ra, unsigned Rb,
                                  unsigned SkipWords,
                                  std::vector<MachWord> &Out) const {
  return Delegate.emitSkipIfEqual(Ra, Rb, SkipWords, Out);
}
bool SpawnTarget::emitSkipIfNotEqual(unsigned Ra, unsigned Rb,
                                     unsigned SkipWords,
                                     std::vector<MachWord> &Out) const {
  return Delegate.emitSkipIfNotEqual(Ra, Rb, SkipWords, Out);
}
bool SpawnTarget::emitSkipIfLess(unsigned Ra, unsigned Rb, unsigned Scratch,
                                 unsigned SkipWords,
                                 std::vector<MachWord> &Out) const {
  return Delegate.emitSkipIfLess(Ra, Rb, Scratch, SkipWords, Out);
}

bool SpawnTarget::emitSaveCC(unsigned ScratchReg,
                             std::vector<MachWord> &Out) const {
  return Delegate.emitSaveCC(ScratchReg, Out);
}
bool SpawnTarget::emitRestoreCC(unsigned ScratchReg,
                                std::vector<MachWord> &Out) const {
  return Delegate.emitRestoreCC(ScratchReg, Out);
}

std::string SpawnTarget::disassemble(MachWord Word, Addr PC) const {
  int PatternIndex = Desc->decode(Word);
  if (PatternIndex < 0)
    return "<invalid>";
  const InstPattern &P = Desc->Patterns[PatternIndex];
  std::string Out = P.Name;
  // Append unconstrained fields for context.
  std::set<std::string> Constrained;
  for (const PatternConstraint &C : P.Constraints)
    Constrained.insert(C.Field);
  bool First = true;
  for (const FieldDef &F : Desc->Fields) {
    if (Constrained.count(F.Name))
      continue;
    Out += First ? " " : ", ";
    First = false;
    Out += F.Name + "=" + std::to_string(Desc->fieldValue(F, Word));
  }
  (void)PC;
  return Out;
}

static const SpawnTarget &buildSpawnTarget(TargetArch Arch) {
  const char *Source = Arch == TargetArch::Srisc   ? sriscDescription()
                       : Arch == TargetArch::Mrisc ? mriscDescription()
                                                   : ariscDescription();
  Expected<std::shared_ptr<MachineDesc>> Desc =
      parseMachineDescription(Source);
  if (Desc.hasError())
    reportFatalError("embedded machine description is broken: " +
                     Desc.error().message());
  static std::vector<std::unique_ptr<SpawnTarget>> Targets;
  Targets.push_back(
      std::make_unique<SpawnTarget>(Desc.takeValue(), targetFor(Arch)));
  return *Targets.back();
}

const SpawnTarget &spawn::spawnSriscTarget() {
  static const SpawnTarget &Target = buildSpawnTarget(TargetArch::Srisc);
  return Target;
}

const SpawnTarget &spawn::spawnMriscTarget() {
  static const SpawnTarget &Target = buildSpawnTarget(TargetArch::Mrisc);
  return Target;
}

const SpawnTarget &spawn::spawnAriscTarget() {
  static const SpawnTarget &Target = buildSpawnTarget(TargetArch::Arisc);
  return Target;
}

const SpawnTarget &spawn::spawnTargetFor(TargetArch Arch) {
  switch (Arch) {
  case TargetArch::Srisc:
    return spawnSriscTarget();
  case TargetArch::Mrisc:
    return spawnMriscTarget();
  case TargetArch::Arisc:
    return spawnAriscTarget();
  }
  unreachable("unknown target architecture");
}
