//===- core/Instruction.h - Machine-independent instructions ----*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EEL's machine-independent instruction abstraction (§3.4 of the paper).
/// Instructions divide into functional categories — memory references,
/// control transfers, computations, and invalid (data) — with inquiry
/// methods about their effect on program state, so tools analyze EEL
/// instructions in place of machine instructions.
///
/// Construction mirrors Figure 6: the target layer decodes the word once
/// (TargetInfo::decode), and the three overloaded uses of an indirect jump
/// (indirect call, return, jump) are resolved here using the target's
/// calling conventions, exactly where the paper resolves SPARC's jmpl
/// overloads. Every inquiry below reads that one decoded answer.
///
/// As in EEL, only one instruction object exists per distinct machine word
/// (per decode table); the paper reports this flyweight cuts allocations
/// by ~4x, which bench_sharing reproduces. PC-dependent inquiries
/// therefore take the address as a parameter.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_INSTRUCTION_H
#define EEL_CORE_INSTRUCTION_H

#include "isa/Target.h"
#include "support/Arena.h"
#include "support/Casting.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace eel {

/// Discriminator for the Instruction class hierarchy.
enum class InstKind : uint8_t {
  Invalid,
  Computation,
  Load,
  Store,
  LoadStore,
  Branch,       ///< Conditional PC-relative branch.
  Jump,         ///< Unconditional direct jump (including annul-skip).
  Call,         ///< Direct call.
  IndirectJump, ///< Register-target jump (not call/return by convention).
  IndirectCall, ///< Register-target transfer writing the link register.
  Return,       ///< Jump through link + return offset.
  SystemCall,
};

/// Base of the instruction hierarchy. Immutable and shared; never holds
/// address-specific state.
class Instruction {
public:
  virtual ~Instruction();

  InstKind kind() const { return Kind; }
  MachWord word() const { return Word; }
  const TargetInfo &target() const { return Target; }

  /// The target's whole answer about this word.
  const DecodedWord &decoded() const { return D; }

  /// Registers read / written (condition codes included as RegIdCC).
  const RegSet &reads() const { return D.Reads; }
  const RegSet &writes() const { return D.Writes; }

  bool hasDelaySlot() const { return D.hasDelaySlot(); }
  DelayBehavior delayBehavior() const { return D.Delay; }
  bool isConditional() const { return D.Conditional; }

  bool isControlTransfer() const {
    switch (Kind) {
    case InstKind::Branch:
    case InstKind::Jump:
    case InstKind::Call:
    case InstKind::IndirectJump:
    case InstKind::IndirectCall:
    case InstKind::Return:
      return true;
    default:
      return false;
    }
  }

  bool isMemoryReference() const {
    return Kind == InstKind::Load || Kind == InstKind::Store ||
           Kind == InstKind::LoadStore;
  }

  /// Static target of a direct transfer executed at \p PC.
  std::optional<Addr> directTarget(Addr PC) const {
    return D.directTarget(PC);
  }

  /// Dataflow shape for slicing (DataOpKind::None when inexpressible).
  const DataOp &dataOp() const { return D.Op; }

  std::string disassemble(Addr PC) const {
    return Target.disassemble(Word, PC);
  }

  static bool classof(const Instruction *) { return true; }

protected:
  Instruction(InstKind Kind, const TargetInfo &Target, MachWord Word,
              const DecodedWord &D)
      : Target(Target), Word(Word), Kind(Kind), D(D) {}

private:
  const TargetInfo &Target;
  MachWord Word;
  InstKind Kind;
  DecodedWord D;
};

/// A word that does not decode: probably data (§3.1 stage 4 uses these to
/// find data tables masquerading as routines).
class InvalidInst : public Instruction {
public:
  InvalidInst(const TargetInfo &T, MachWord W, const DecodedWord &D)
      : Instruction(InstKind::Invalid, T, W, D) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Invalid;
  }
};

/// Ordinary computation.
class ComputationInst : public Instruction {
public:
  ComputationInst(const TargetInfo &T, MachWord W, const DecodedWord &D)
      : Instruction(InstKind::Computation, T, W, D) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Computation;
  }
};

/// Loads, stores, and combined accesses.
class MemoryInst : public Instruction {
public:
  MemoryInst(InstKind Kind, const TargetInfo &T,
             MachWord W, const DecodedWord &D)
      : Instruction(Kind, T, W, D) {}

  const MemOp &memOp() const { return decoded().Mem; }
  bool isLoad() const { return memOp().IsLoad; }
  bool isStore() const { return memOp().IsStore; }
  unsigned width() const { return memOp().Width; }

  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Load || I->kind() == InstKind::Store ||
           I->kind() == InstKind::LoadStore;
  }
};

/// Common base of all control transfers.
class ControlInst : public Instruction {
public:
  using Instruction::Instruction;
  static bool classof(const Instruction *I) {
    return I->isControlTransfer();
  }
};

/// Conditional PC-relative branch.
class BranchInst : public ControlInst {
public:
  BranchInst(const TargetInfo &T, MachWord W, const DecodedWord &D)
      : ControlInst(InstKind::Branch, T, W, D) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Branch;
  }
};

/// Unconditional direct jump.
class JumpInst : public ControlInst {
public:
  JumpInst(const TargetInfo &T, MachWord W, const DecodedWord &D)
      : ControlInst(InstKind::Jump, T, W, D) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Jump;
  }
};

/// Direct call.
class CallInst : public ControlInst {
public:
  CallInst(const TargetInfo &T, MachWord W, const DecodedWord &D)
      : ControlInst(InstKind::Call, T, W, D) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Call;
  }
};

/// Base of register-target transfers; exposes the address computation.
class IndirectInst : public ControlInst {
public:
  IndirectInst(InstKind Kind, const TargetInfo &T,
               MachWord W, const DecodedWord &D)
      : ControlInst(Kind, T, W, D) {}

  const IndirectTargetInfo &targetInfo() const { return decoded().Indirect; }

  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::IndirectJump ||
           I->kind() == InstKind::IndirectCall ||
           I->kind() == InstKind::Return;
  }
};

class IndirectJumpInst : public IndirectInst {
public:
  IndirectJumpInst(const TargetInfo &T, MachWord W, const DecodedWord &D)
      : IndirectInst(InstKind::IndirectJump, T, W, D) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::IndirectJump;
  }
};

class IndirectCallInst : public IndirectInst {
public:
  IndirectCallInst(const TargetInfo &T, MachWord W, const DecodedWord &D)
      : IndirectInst(InstKind::IndirectCall, T, W, D) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::IndirectCall;
  }
};

class ReturnInst : public IndirectInst {
public:
  ReturnInst(const TargetInfo &T, MachWord W, const DecodedWord &D)
      : IndirectInst(InstKind::Return, T, W, D) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Return;
  }
};

class SystemCallInst : public Instruction {
public:
  SystemCallInst(const TargetInfo &T, MachWord W, const DecodedWord &D)
      : Instruction(InstKind::SystemCall, T, W, D) {}

  /// Trap number when it is an immediate field (as Figure 6 extracts the
  /// SPARC trap literal); nullopt when register-carried.
  std::optional<unsigned> number() const { return decoded().TrapNumber; }

  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::SystemCall;
  }
};

/// The flyweight decode table (§3.4): one Instruction per distinct machine
/// word of a text segment, and one entry per text word pointing at its
/// word's instruction. Analysis builds it once, at construction, and it
/// never changes again, so any number of threads read it without a lock:
/// at() is a bounds check and one load.
///
/// The build is serial: one pass numbers the distinct words in order of
/// first appearance, one loop constructs their instructions into the
/// table's arena, and one loop fills the entries. It bumps
/// "eel.inst.allocated" (Table 1) once, by the distinct count.
/// Instructions own nothing and are never destroyed; they die with the
/// table's arena.
class DecodeTable {
public:
  /// Decodes the whole words of \p Text, which is loaded at \p Base.
  DecodeTable(const TargetInfo &Target, Addr Base,
              std::span<const uint8_t> Text);

  /// The instruction at \p A, or nullptr when \p A is not a whole number
  /// of words into the text.
  const Instruction *at(Addr A) const {
    Addr Off = A - Base;
    if ((Off & 3) || Off / 4 >= ByAddr.size())
      return nullptr;
    return ByAddr[Off / 4];
  }

  /// Instruction objects in the table: the number of distinct words.
  size_t distinct() const { return Distinct; }

private:
  Addr Base;
  std::vector<const Instruction *> ByAddr;
  size_t Distinct = 0;
  BumpArena Arena;
};

/// Builds the right subclass for \p Word — the Figure 6 factory. Each call
/// bumps "eel.inst.allocated".
std::unique_ptr<Instruction> makeInstruction(const TargetInfo &Target,
                                             MachWord Word);

} // namespace eel

#endif // EEL_CORE_INSTRUCTION_H
