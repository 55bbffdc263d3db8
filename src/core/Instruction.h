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
/// An Instruction is one plain value: its word, its InstKind and the
/// target's decoded answer (TargetInfo::decode). The category is the kind
/// alone; there is no class per category, and an inquiry that does not
/// apply to the kind reads the decoded word's zeroed fact.
///
/// The constructor is Figure 6's factory: it decodes the word once and
/// resolves the three overloaded uses of an indirect jump (indirect call,
/// return, jump) using the target's calling conventions, exactly where the
/// paper resolves SPARC's jmpl overloads.
///
/// As in EEL, only one instruction exists per distinct machine word (per
/// decode table); the paper reports this flyweight cuts allocations by
/// ~4x, which bench_sharing reproduces. PC-dependent inquiries therefore
/// take the address as a parameter.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_INSTRUCTION_H
#define EEL_CORE_INSTRUCTION_H

#include "isa/Target.h"

#include <span>
#include <type_traits>
#include <vector>

namespace eel {

/// An instruction's functional category, with indirect jumps resolved.
enum class InstKind : uint8_t {
  Invalid,      ///< Does not decode: probably data (§3.1 stage 4 finds
                ///  data tables masquerading as routines by these).
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

/// The kind of a word decoded as \p D: its category, with the overloaded
/// uses of an indirect jump resolved by \p Conv (Figure 6 of the paper).
/// Writing the link register makes it a call; jumping through the link
/// register at the conventional offset makes it a return.
InstKind instKind(const DecodedWord &D, const TargetConventions &Conv);

/// One machine word and everything EEL asks about it. Immutable and
/// shared; never holds address-specific state.
class Instruction final {
public:
  /// Decodes \p Word once and resolves its kind (Figure 6).
  Instruction(const TargetInfo &Target, MachWord Word);

  InstKind kind() const { return Kind; }
  MachWord word() const { return Word; }

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

  /// A register-target transfer: an indirect jump, call or return.
  bool isIndirect() const {
    return Kind == InstKind::IndirectJump || Kind == InstKind::IndirectCall ||
           Kind == InstKind::Return;
  }

  /// Static target of a direct transfer executed at \p PC.
  std::optional<Addr> directTarget(Addr PC) const {
    return D.directTarget(PC);
  }

  /// Dataflow shape for slicing (DataOpKind::None when inexpressible).
  const DataOp &dataOp() const { return D.Op; }

  /// Access shape of a memory reference; all zero for any other kind.
  const MemOp &memOp() const { return D.Mem; }

  /// Address computation of an indirect transfer; all zero otherwise.
  const IndirectTargetInfo &indirectInfo() const { return D.Indirect; }

  /// Trap number when it is an immediate field (as Figure 6 extracts the
  /// SPARC trap literal); nullopt when register-carried or not a trap.
  std::optional<unsigned> trapNumber() const { return D.TrapNumber; }

private:
  MachWord Word;
  InstKind Kind;
  DecodedWord D;
};

static_assert(!std::is_polymorphic_v<Instruction> &&
                  std::is_trivially_copyable_v<Instruction>,
              "an Instruction is a plain value");

/// The flyweight decode table (§3.4): one Instruction per distinct machine
/// word of a text segment, and one entry per text word pointing at its
/// word's instruction. Analysis builds it once, at construction, and it
/// never changes again, so any number of threads read it without a lock:
/// at() is a bounds check and one load.
///
/// The build is serial: one pass numbers the distinct words in order of
/// first appearance, one loop constructs their instructions into one
/// vector, and one loop fills the entries. It bumps "eel.inst.allocated"
/// (Table 1) once, by the distinct count. The entries point into that
/// vector, so the table is neither copied nor moved.
class DecodeTable {
public:
  /// Decodes the whole words of \p Text, which is loaded at \p Base.
  DecodeTable(const TargetInfo &Target, Addr Base,
              std::span<const uint8_t> Text);
  DecodeTable(const DecodeTable &) = delete;
  DecodeTable &operator=(const DecodeTable &) = delete;

  /// The instruction at \p A, or nullptr when \p A is not a whole number
  /// of words into the text.
  const Instruction *at(Addr A) const {
    Addr Off = A - Base;
    if ((Off & 3) || Off / 4 >= ByAddr.size())
      return nullptr;
    return ByAddr[Off / 4];
  }

  /// Instruction objects in the table: the number of distinct words.
  size_t distinct() const { return Insts.size(); }

private:
  Addr Base;
  std::vector<Instruction> Insts;
  std::vector<const Instruction *> ByAddr;
};

/// One instruction outside any decode table. Bumps "eel.inst.allocated".
Instruction makeInstruction(const TargetInfo &Target, MachWord Word);

} // namespace eel

#endif // EEL_CORE_INSTRUCTION_H
