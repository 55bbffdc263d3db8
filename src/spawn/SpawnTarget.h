//===- spawn/SpawnTarget.h - Description-derived target ---------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TargetInfo implementation derived entirely from a spawn machine
/// description — the reproduction of the paper's claim that the handwritten
/// machine-specific layer can be generated from a ~150-line description.
/// Calling conventions and snippet code generation are supplied externally
/// (the paper: "spawn is currently unaware of a system's subroutine and
/// system call conventions"); everything analytical is derived from RTL.
///
/// The test suite checks that its decode() answer equals the handwritten
/// backend's, whole, over large random and structured word samples.
/// decode() interprets the word's RTL afresh on every call, with no cache;
/// bench_machdesc records its cost per word against the handwritten
/// decoder's (decode_ns_spawn_* against decode_ns_hand_*: about twenty
/// times as much), which is why the handwritten decoders remain the
/// production ones.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SPAWN_SPAWNTARGET_H
#define EEL_SPAWN_SPAWNTARGET_H

#include "isa/Target.h"
#include "spawn/Analysis.h"
#include "spawn/MachineDesc.h"

#include <memory>

namespace eel {
namespace spawn {

/// TargetInfo backed by a machine description. Codegen helpers (snippet
/// emission) and conventions delegate to \p CodegenDelegate, the handwritten
/// backend for the same architecture.
class SpawnTarget : public TargetInfo {
public:
  SpawnTarget(std::shared_ptr<const MachineDesc> Desc,
              const TargetInfo &CodegenDelegate);

  const MachineDesc &desc() const { return *Desc; }

  // TargetInfo interface.
  TargetArch arch() const override;
  const char *name() const override;
  const TargetConventions &conventions() const override;
  unsigned numRegisters() const override;
  bool hasConditionCodes() const override;
  std::string regName(unsigned Reg) const override;

  bool branchDelaySlots() const override;
  DecodedWord decode(MachWord Word) const override;

  MachWord nopWord() const override;
  bool emitJump(Addr PC, Addr Target,
                std::vector<MachWord> &Out) const override;
  bool emitCall(Addr PC, Addr Target,
                std::vector<MachWord> &Out) const override;
  void emitLoadConst(unsigned Reg, uint32_t Value,
                     std::vector<MachWord> &Out) const override;
  void emitLoadWord(unsigned DataReg, unsigned Base, int32_t Offset,
                    std::vector<MachWord> &Out) const override;
  void emitStoreWord(unsigned DataReg, unsigned Base, int32_t Offset,
                     std::vector<MachWord> &Out) const override;
  void emitAddImm(unsigned Rd, unsigned Rs1, int32_t Imm,
                  std::vector<MachWord> &Out) const override;
  void emitAddReg(unsigned Rd, unsigned Rs1, unsigned Rs2,
                  std::vector<MachWord> &Out) const override;
  void emitAluImm(DataOpKind Op, unsigned Rd, unsigned Rs1, int32_t Imm,
                  std::vector<MachWord> &Out) const override;
  void emitIndirectJump(unsigned Reg, std::vector<MachWord> &Out,
                        std::optional<MachWord> DelayWord) const override;
  bool emitSkipIfEqual(unsigned Ra, unsigned Rb, unsigned SkipWords,
                       std::vector<MachWord> &Out) const override;
  bool emitSkipIfNotEqual(unsigned Ra, unsigned Rb, unsigned SkipWords,
                          std::vector<MachWord> &Out) const override;
  bool emitSkipIfLess(unsigned Ra, unsigned Rb, unsigned Scratch,
                      unsigned SkipWords,
                      std::vector<MachWord> &Out) const override;
  bool emitSaveCC(unsigned ScratchReg,
                  std::vector<MachWord> &Out) const override;
  bool emitRestoreCC(unsigned ScratchReg,
                     std::vector<MachWord> &Out) const override;
  std::string disassemble(MachWord Word, Addr PC) const override;

private:
  std::shared_ptr<const MachineDesc> Desc;
  const TargetInfo &Delegate;
  std::string DisplayName;
};

/// Spawn-derived targets for the embedded descriptions (parsed once).
const SpawnTarget &spawnSriscTarget();
const SpawnTarget &spawnMriscTarget();
const SpawnTarget &spawnAriscTarget();
const SpawnTarget &spawnTargetFor(TargetArch Arch);

} // namespace spawn
} // namespace eel

#endif // EEL_SPAWN_SPAWNTARGET_H
