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
/// Construction mirrors Figure 6: the target layer supplies the raw
/// category, and the three overloaded uses of an indirect jump (indirect
/// call, return, jump) are resolved here using the target's calling
/// conventions, exactly where the paper resolves SPARC's jmpl overloads.
///
/// As in EEL, only one instruction object exists per distinct machine word
/// (per pool); the paper reports this flyweight cuts allocations by ~4x,
/// which bench_sharing reproduces. PC-dependent inquiries therefore take
/// the address as a parameter.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_INSTRUCTION_H
#define EEL_CORE_INSTRUCTION_H

#include "isa/Target.h"
#include "support/Arena.h"
#include "support/Casting.h"

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

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

  /// Registers read / written (condition codes included as RegIdCC).
  const RegSet &reads() const { return Reads; }
  const RegSet &writes() const { return Writes; }

  bool hasDelaySlot() const { return DelaySlot; }
  DelayBehavior delayBehavior() const { return Delay; }
  bool isConditional() const { return Conditional; }

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
    return Target.directTarget(Word, PC);
  }

  /// Dataflow shape for slicing (DataOpKind::None when inexpressible).
  DataOp dataOp() const { return Target.dataOp(Word); }

  std::string disassemble(Addr PC) const {
    return Target.disassemble(Word, PC);
  }

  /// Index of this instruction's (reads, writes) pair in its pool's
  /// interned-operand table (InstructionPool::operands()), or NoOpIndex
  /// for instructions built outside a pool. Analyses walking flat CFG rows
  /// resolve operands through the table instead of chasing this object.
  static constexpr uint32_t NoOpIndex = 0xFFFFFFFFu;
  uint32_t opIndex() const { return OpIdx; }

  static bool classof(const Instruction *) { return true; }

protected:
  Instruction(InstKind Kind, const TargetInfo &Target, MachWord Word);

private:
  friend class InstructionPool;
  InstKind Kind;
  MachWord Word;
  const TargetInfo &Target;
  RegSet Reads, Writes;
  bool DelaySlot = false;
  DelayBehavior Delay = DelayBehavior::None;
  bool Conditional = false;
  uint32_t OpIdx = NoOpIndex;
};

/// A word that does not decode: probably data (§3.1 stage 4 uses these to
/// find data tables masquerading as routines).
class InvalidInst : public Instruction {
public:
  InvalidInst(const TargetInfo &T, MachWord W)
      : Instruction(InstKind::Invalid, T, W) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Invalid;
  }
};

/// Ordinary computation.
class ComputationInst : public Instruction {
public:
  ComputationInst(const TargetInfo &T, MachWord W)
      : Instruction(InstKind::Computation, T, W) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Computation;
  }
};

/// Loads, stores, and combined accesses.
class MemoryInst : public Instruction {
public:
  MemoryInst(InstKind Kind, const TargetInfo &T, MachWord W)
      : Instruction(Kind, T, W), Mem(*T.memOp(W)) {}

  const MemOp &memOp() const { return Mem; }
  bool isLoad() const { return Mem.IsLoad; }
  bool isStore() const { return Mem.IsStore; }
  unsigned width() const { return Mem.Width; }

  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Load || I->kind() == InstKind::Store ||
           I->kind() == InstKind::LoadStore;
  }

private:
  MemOp Mem;
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
  BranchInst(const TargetInfo &T, MachWord W)
      : ControlInst(InstKind::Branch, T, W) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Branch;
  }
};

/// Unconditional direct jump.
class JumpInst : public ControlInst {
public:
  JumpInst(const TargetInfo &T, MachWord W)
      : ControlInst(InstKind::Jump, T, W) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Jump;
  }
};

/// Direct call.
class CallInst : public ControlInst {
public:
  CallInst(const TargetInfo &T, MachWord W)
      : ControlInst(InstKind::Call, T, W) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Call;
  }
};

/// Base of register-target transfers; exposes the address computation.
class IndirectInst : public ControlInst {
public:
  IndirectInst(InstKind Kind, const TargetInfo &T, MachWord W)
      : ControlInst(Kind, T, W), Info(*T.indirectTarget(W)) {}

  const IndirectTargetInfo &targetInfo() const { return Info; }

  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::IndirectJump ||
           I->kind() == InstKind::IndirectCall ||
           I->kind() == InstKind::Return;
  }

private:
  IndirectTargetInfo Info;
};

class IndirectJumpInst : public IndirectInst {
public:
  IndirectJumpInst(const TargetInfo &T, MachWord W)
      : IndirectInst(InstKind::IndirectJump, T, W) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::IndirectJump;
  }
};

class IndirectCallInst : public IndirectInst {
public:
  IndirectCallInst(const TargetInfo &T, MachWord W)
      : IndirectInst(InstKind::IndirectCall, T, W) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::IndirectCall;
  }
};

class ReturnInst : public IndirectInst {
public:
  ReturnInst(const TargetInfo &T, MachWord W)
      : IndirectInst(InstKind::Return, T, W) {}
  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::Return;
  }
};

class SystemCallInst : public Instruction {
public:
  SystemCallInst(const TargetInfo &T, MachWord W)
      : Instruction(InstKind::SystemCall, T, W),
        Number(T.syscallNumber(W)) {}

  /// Trap number when it is an immediate field (as Figure 6 extracts the
  /// SPARC trap literal); nullopt when register-carried.
  std::optional<unsigned> number() const { return Number; }

  static bool classof(const Instruction *I) {
    return I->kind() == InstKind::SystemCall;
  }

private:
  std::optional<unsigned> Number;
};

/// Flyweight pool: one Instruction per distinct machine word. Lookups do
/// no accounting; construction bumps "eel.inst.allocated" (Table 1), and
/// bench_sharing sets allocated() against the words it submits itself.
///
/// Thread-safe: the word→instruction maps are split into shards folded
/// into a sharded bump arena — shard i's mutex guards both its map and the
/// arena chunk its instructions are placed in, so routine-analysis workers
/// decoding disjoint words rarely contend and never serialize on one
/// global lock. Instructions are immutable once constructed, so the
/// returned pointers can be shared freely across threads; holding the
/// shard lock through construction guarantees exactly one Instruction per
/// word (allocated() stays equal whatever the thread count — the flyweight
/// invariant bench_sharing measures). Pool instructions are arena-placed
/// and never individually destroyed (they own nothing); they die with the
/// pool.
///
/// On the decode hot path the per-word hash probe is replaced by a dense
/// per-address index: attachDecodeIndex() reserves one atomic slot per
/// text word, and getAt() resolves (addr - textBase) / 4 with a single
/// lock-free load after first decode. readContents' transfer scan is the
/// first decoder of every text word: it fills the whole index through
/// chunk-local WordMemos before any other analysis decodes.
class InstructionPool {
public:
  explicit InstructionPool(const TargetInfo &Target)
      : Target(Target), Arenas(ShardCount) {}

  /// Returns the shared instruction for \p Word (creating it on first use).
  const Instruction *get(MachWord Word);

  /// Reserves the dense decode index for text addresses
  /// [TextBase, TextBase + 4 * WordCount). Call before concurrent decoding
  /// (Executable's constructor does).
  void attachDecodeIndex(Addr TextBase, size_t WordCount);

  /// get(Word) for the word fetched from text address \p A: first decode
  /// of an address publishes the instruction into its index slot; every
  /// later decode is one acquire load, no lock, no hashing.
  const Instruction *getAt(Addr A, MachWord Word);

  /// One decoder's private word→instruction memo in front of get(): a scan
  /// that meets the same words over and over takes a shard lock about once
  /// per distinct word, not once per address. Direct-mapped, so a colliding
  /// word evicts the older one (a forgotten word costs one more get()). It
  /// is a local of one scan chunk, never shared and never a thread_local,
  /// so it cannot outlive the pool whose instructions it holds.
  class WordMemo {
    friend class InstructionPool;
    static constexpr unsigned Bits = 10;
    std::array<const Instruction *, size_t(1) << Bits> Slots{};
  };

  /// First decode of text address \p A: getAt() with \p Memo answering
  /// repeated words before the shard lock. Publishes into A's index slot
  /// without reading it first.
  const Instruction *getAt(Addr A, MachWord Word, WordMemo &Memo) {
    const Instruction *&Cached =
        Memo.Slots[MachWord(Word * 0x9E3779B9u) >> (32 - WordMemo::Bits)];
    if (!Cached || Cached->word() != Word)
      Cached = get(Word);
    if (std::atomic<const Instruction *> *Slot = slotFor(A))
      Slot->store(Cached, std::memory_order_release);
    return Cached;
  }

  const TargetInfo &target() const { return Target; }
  uint64_t allocated() const;

  /// Interned (reads, writes) register-mask pairs: Pair::First is the
  /// reads mask, Pair::Second the writes mask, indexed by
  /// Instruction::opIndex().
  const InternedPairTable &operands() const { return Ops; }

  /// Payload bytes bump-allocated for pool instructions.
  size_t arenaBytes() const { return Arenas.bytesAllocated(); }

private:
  static constexpr size_t ShardCount = 64; ///< Power of two.

  size_t shardIndexFor(MachWord Word) const {
    // Multiplicative hash: opcode bits cluster, so mix before masking.
    return (Word * 0x9E3779B9u >> 16) & (ShardCount - 1);
  }

  /// \p A's decode-index slot, or nullptr when the index does not cover it.
  std::atomic<const Instruction *> *slotFor(Addr A) {
    if (!DecodeIndex || (A & 3) || A < IndexBase)
      return nullptr;
    size_t Slot = (A - IndexBase) / 4;
    return Slot < IndexWords ? &DecodeIndex[Slot] : nullptr;
  }

  const TargetInfo &Target;
  ShardedBumpArena Arenas; ///< Shard i's mutex also guards Maps[i].
  std::array<std::unordered_map<MachWord, const Instruction *>, ShardCount>
      Maps;
  InternedPairTable Ops;

  Addr IndexBase = 0;
  size_t IndexWords = 0;
  std::unique_ptr<std::atomic<const Instruction *>[]> DecodeIndex;
};

/// Builds the right subclass for \p Word — the Figure 6 factory.
std::unique_ptr<Instruction> makeInstruction(const TargetInfo &Target,
                                             MachWord Word);

/// Arena-placing variant of the factory: the instruction lives until the
/// arena dies and is never destroyed (pool instructions own no resources).
Instruction *makeInstructionIn(BumpArena &Arena, const TargetInfo &Target,
                               MachWord Word);

} // namespace eel

#endif // EEL_CORE_INSTRUCTION_H
