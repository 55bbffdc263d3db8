//===- isa/Target.h - Machine-specific target interface --------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The boundary between machine-independent EEL and architecture-specific
/// code, mirroring §4 of the paper. Everything above this interface (CFGs,
/// analyses, editing, tools) is written once; below it are three machines:
/// SRISC, a SPARC-like ISA with annulled delay slots; MRISC, a MIPS-like
/// ISA; and ARISC, an Alpha-like ISA without delay slots.
///
/// A target answers one analytical question per word, `decode()`, whose
/// DecodedWord holds every fact EEL asks about it. That answer comes from
/// the machine's spawn description (isa/Descriptions.cpp), compiled into a
/// decode table when the target is constructed (spawn/Analysis.h), and so
/// do the register count, the condition codes and the delay slots. Target
/// evaluation, retargeting and register renaming are machine-independent
/// functions of the answer. What a port still writes by hand is its
/// conventions, snippet code generation, `regName` and `disassemble`.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_ISA_TARGET_H
#define EEL_ISA_TARGET_H

#include "support/BitOps.h"
#include "support/RegSet.h"

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace eel {

/// A 32-bit virtual address in the simulated machine.
using Addr = uint32_t;

/// A raw 32-bit machine instruction word. Every target uses fixed-width
/// 32-bit encodings, like the RISC machines the paper targets.
using MachWord = uint32_t;

/// Identifies a target architecture.
enum class TargetArch : uint8_t {
  Srisc, ///< SPARC-like: delay slots, annulled branches, condition codes.
  Mrisc, ///< MIPS-like: delay slots, no annulment, compare-and-branch.
  Arisc, ///< Alpha-like: no delay slots, compare-and-branch, PC-relative.
};

/// Functional instruction categories, following Figure 6 of the paper.
/// Overloaded uses of indirect jumps (indirect call, return) are resolved
/// by machine-independent convention parameters in eel::Instruction, exactly
/// as the paper resolves SPARC's three overloaded uses of jmpl in annotated
/// C++ rather than in the machine description.
enum class InstCategory : uint8_t {
  Invalid,      ///< Not a valid instruction encoding (probably data).
  Computation,  ///< Register-to-register computation.
  Load,         ///< Memory read.
  Store,        ///< Memory write.
  LoadStore,    ///< Both (e.g. an autoincrement access); unused by SRISC.
  BranchDirect, ///< PC-relative conditional or unconditional branch.
  JumpDirect,   ///< PC-relative unconditional jump (MRISC `j`).
  CallDirect,   ///< Direct call that writes the link register.
  IndirectJump, ///< Control transfer through registers (SRISC jmpl, MIPS jr).
  System,       ///< Trap / system call.
};

/// When a control transfer's delay-slot instruction executes.
enum class DelayBehavior : uint8_t {
  None,        ///< Instruction has no delay slot.
  Always,      ///< Delay instruction executes on both paths (or the one path).
  AnnulUntaken,///< Executes only if the branch is taken (SRISC `,a` on
               ///  a conditional branch; the Figure 3 case).
  AnnulAlways, ///< Never executes (SRISC `ba,a` / `bn,a`).
};

/// Simple dataflow facts about a computation instruction, consumed by the
/// backward slicer (§3.3) when it chases the value of a jump's address
/// registers. Kind None means "not expressible"; the slicer then gives up on
/// that path, which is exactly the conservative behaviour the paper wants.
enum class DataOpKind : uint8_t {
  None,
  LoadImmHi, ///< rd = constant (SRISC sethi / MIPS lui); Imm holds the value.
  Add,
  Sub,
  And,
  Or,
  Xor,
  Sll,
  Srl,
  Sra,
  Mul,
  Div,
  Rem,
  SetLess, ///< MIPS slt/slti.
};

struct DataOp {
  DataOpKind Kind = DataOpKind::None;
  uint8_t Rd = 0;
  uint8_t Rs1 = 0;
  uint8_t Rs2 = 0;     ///< Second operand register when !HasImm.
  bool HasImm = false;
  bool SetsCC = false; ///< Also writes the condition codes (SRISC *cc forms).
  int32_t Imm = 0;     ///< Second operand when HasImm (full value for
                       ///  LoadImmHi, already shifted).
  bool operator==(const DataOp &) const = default;
};

/// Address computation and access shape of a memory instruction.
struct MemOp {
  bool IsLoad = false;
  bool IsStore = false;
  uint8_t Width = 0;       ///< Access size in bytes (1, 2, or 4).
  bool SignExtendLoad = false;
  uint8_t AddrBase = 0;    ///< Base register.
  bool HasIndex = false;
  uint8_t AddrIndex = 0;   ///< Index register when HasIndex.
  uint8_t DataReg = 0;     ///< Loaded-into / stored-from register.
  int32_t Offset = 0;      ///< Immediate displacement when !HasIndex.
  bool operator==(const MemOp &) const = default;
};

/// Shape of an indirect control transfer (SRISC jmpl, MIPS jr/jalr).
struct IndirectTargetInfo {
  uint8_t BaseReg = 0;
  bool HasIndex = false;
  uint8_t IndexReg = 0;
  uint8_t LinkReg = 0; ///< Register receiving the return PC; 0 (the
                       ///  hard-zero register) means no live link.
  int32_t Offset = 0;
  bool operator==(const IndirectTargetInfo &) const = default;
};

/// Per-target calling/trap conventions that the machine description cannot
/// express (the paper notes spawn is unaware of conventions; they are
/// supplied here, in code, as in Figure 6).
struct TargetConventions {
  unsigned LinkReg = 0;      ///< Register written by calls.
  int ReturnOffset = 0;      ///< `return` jumps to link + this offset.
  unsigned StackPointer = 0;
  unsigned FramePointer = 0;
  RegSet ArgRegs;            ///< Argument registers (syscalls and calls).
  RegSet RetRegs;            ///< Return-value registers.
  RegSet CallerSaved;        ///< Clobbered across calls.
  RegSet Reserved;           ///< Never scavenged (hard zero, sp, fp, ...).
  unsigned SyscallNumReg = 0;///< MRISC passes the trap number in a register;
                             ///  0 means the number is an immediate field.
  RegSet SyscallReads;       ///< Registers a trap instruction reads.
  RegSet SyscallWrites;      ///< Registers a trap instruction writes.
};

/// A contiguous bit field [Lo, Hi] of an instruction word.
struct BitRange {
  uint8_t Lo = 0;
  uint8_t Hi = 0;
  bool operator==(const BitRange &) const = default;
};

/// How a direct transfer's target follows from its word and PC, and how a
/// new target is encoded back into the word.
struct DirectShape {
  bool Region = false;   ///< target = (PC & RegionMask) | Value (MRISC j);
                         ///  otherwise target = PC + Value.
  bool HasField = false; ///< Value = Bias + (Field << Shift), so the word
                         ///  can be retargeted; false for implicit targets.
  bool Signed = false;   ///< Field is sign-extended.
  uint8_t Shift = 0;
  BitRange Field;
  uint32_t Value = 0;    ///< This word's displacement (or region offset).
  uint32_t RegionMask = 0;
  int32_t Bias = 0;
  bool operator==(const DirectShape &) const = default;
};

/// Everything EEL asks about one machine word, answered by one
/// TargetInfo::decode() call. Facts that do not apply to the word's
/// category stay zero, so two decoders' answers compare with ==.
struct DecodedWord {
  /// User-provided so that GCC zeroes the members one by one, in vector
  /// stores; an aggregate this size is cleared with `rep stos`, which
  /// doubled the cost of decode() on every snippet word.
  DecodedWord() {}

  // Liveness and CFG construction read these first.
  RegSet Reads, Writes; ///< Including RegIdCC; never the hard-zero register.
  InstCategory Category = InstCategory::Invalid;
  DelayBehavior Delay = DelayBehavior::None; ///< None: no delay slot.
  bool Conditional = false;
  uint8_t NumRegFields = 0;
  DirectShape Direct;           ///< Direct transfers only.

  IndirectTargetInfo Indirect;  ///< IndirectJump only.
  DataOp Op;                    ///< Kind None when not simple dataflow.
  MemOp Mem;                    ///< Loads and stores only.
  std::optional<unsigned> TrapNumber; ///< System, when an immediate field.

  /// Fields holding register numbers, ascending by Lo, and registers the
  /// word names implicitly (a call's link); renaming rewrites the former
  /// and must keep the latter.
  static constexpr unsigned MaxRegFields = 3;
  std::array<BitRange, MaxRegFields> RegFields{};
  RegSet FixedRegs;

  bool operator==(const DecodedWord &) const = default;

  bool hasDelaySlot() const { return Delay != DelayBehavior::None; }

  bool isDirectTransfer() const {
    return Category == InstCategory::BranchDirect ||
           Category == InstCategory::JumpDirect ||
           Category == InstCategory::CallDirect;
  }

  /// Target of a direct transfer executed at \p PC.
  std::optional<Addr> directTarget(Addr PC) const {
    if (!isDirectTransfer())
      return std::nullopt;
    return Direct.Region ? (PC & Direct.RegionMask) | Direct.Value
                         : PC + Direct.Value;
  }

  /// Records bits [Lo, Hi] as a register field.
  void addRegField(unsigned Lo, unsigned Hi) {
    for (unsigned I = 0; I < NumRegFields; ++I)
      if (RegFields[I].Lo == Lo)
        return;
    if (NumRegFields == MaxRegFields)
      tooManyRegFields();
    unsigned At = NumRegFields++;
    for (; At > 0 && RegFields[At - 1].Lo > Lo; --At)
      RegFields[At] = RegFields[At - 1];
    RegFields[At] = {static_cast<uint8_t>(Lo), static_cast<uint8_t>(Hi)};
  }

private:
  [[noreturn]] static void tooManyRegFields();
};

/// Re-encodes the direct transfer \p Word, decoded as \p D, to reach
/// \p NewTarget when executed at \p NewPC. Returns nullopt if the word has
/// no displacement field or the target does not fit it, in which case the
/// layout engine substitutes a longer-span sequence (§3.3.1).
std::optional<MachWord> retargetDirect(const DecodedWord &D, MachWord Word,
                                       Addr NewPC, Addr NewTarget);

/// The same for a direct transfer whose shape \p S a decode already found.
std::optional<MachWord> retargetDirect(const DirectShape &S, MachWord Word,
                                       Addr NewPC, Addr NewTarget);

/// A renaming of the general registers: register R becomes Map[R].
using RegisterMap = std::array<uint8_t, 32>;

/// Rewrites every register field of \p Word, decoded as \p D, through
/// \p Map (snippet register allocation, register liberation). Returns
/// nullopt if \p Map moves a register the word names implicitly.
std::optional<MachWord> rewriteRegisters(const DecodedWord &D, MachWord Word,
                                         const RegisterMap &Map);

namespace spawn {
class CompiledDecoder;
class MachineDesc;
} // namespace spawn

/// One machine's instruction set, immutable once constructed; one
/// instance exists per target. The analytical half is compiled from the
/// machine's description; a backend subclass adds what the description
/// cannot say.
class TargetInfo {
public:
  virtual ~TargetInfo();

  TargetArch arch() const { return Arch; }
  /// The description's architecture name ("srisc", "mrisc", "arisc").
  const char *name() const;
  const TargetConventions &conventions() const { return Conv; }

  /// Number of general registers (32 on every target). Register id 32 is
  /// the condition-code register on targets that have one.
  unsigned numRegisters() const { return NumRegisters; }
  bool hasConditionCodes() const { return ConditionCodes; }

  /// Whether this architecture places a delay slot after its control
  /// transfers: whether its description carries a `;` delay mark (a
  /// word's DecodedWord::Delay refines it per encoding). False on ARISC,
  /// true on SRISC and MRISC.
  bool branchDelaySlots() const { return DelaySlots; }

  /// Everything EEL asks about \p Word: the description's pattern for it,
  /// that pattern's precompiled answer, and the word's fields filled in.
  DecodedWord decode(MachWord Word) const;

  /// The compiled decode table, and the description it was compiled from.
  const spawn::CompiledDecoder &decoder() const { return *Decoder; }
  const spawn::MachineDesc &desc() const;

  /// Printable register name (for the disassembler and diagnostics).
  virtual std::string regName(unsigned Reg) const = 0;

  // --- Code generation helpers for snippets and stubs --------------------

  virtual MachWord nopWord() const = 0;

  /// Emits an unconditional PC-relative jump (with its delay-slot nop) from
  /// \p PC to \p Target. Returns false if the span is unreachable.
  virtual bool emitJump(Addr PC, Addr Target,
                        std::vector<MachWord> &Out) const = 0;

  /// Emits code materializing the 32-bit constant \p Value into \p Reg.
  virtual void emitLoadConst(unsigned Reg, uint32_t Value,
                             std::vector<MachWord> &Out) const = 0;

  /// Emits a word load/store of \p DataReg at [Base + Offset].
  virtual void emitLoadWord(unsigned DataReg, unsigned Base, int32_t Offset,
                            std::vector<MachWord> &Out) const = 0;
  virtual void emitStoreWord(unsigned DataReg, unsigned Base, int32_t Offset,
                             std::vector<MachWord> &Out) const = 0;

  /// Emits rd = rs1 + Imm.
  virtual void emitAddImm(unsigned Rd, unsigned Rs1, int32_t Imm,
                          std::vector<MachWord> &Out) const = 0;

  /// Emits rd = rs1 + rs2.
  virtual void emitAddReg(unsigned Rd, unsigned Rs1, unsigned Rs2,
                          std::vector<MachWord> &Out) const = 0;

  /// Emits rd = rs1 <op> imm for Add/And/Or/Xor/Sll/Srl. The immediate must
  /// fit the target's ALU-immediate field (13/16 bits).
  virtual void emitAluImm(DataOpKind Op, unsigned Rd, unsigned Rs1,
                          int32_t Imm, std::vector<MachWord> &Out) const = 0;

  /// Emits an indirect jump through \p Reg with a delay-slot nop; when
  /// \p DelayWord is provided it fills the delay slot instead.
  virtual void emitIndirectJump(unsigned Reg, std::vector<MachWord> &Out,
                                std::optional<MachWord> DelayWord =
                                    std::nullopt) const = 0;

  /// Emits "if (Ra == Rb) skip the next SkipWords words". Returns true if
  /// the emitted sequence clobbers the condition codes (tools consult
  /// liveness or declare the clobber on their snippets).
  virtual bool emitSkipIfEqual(unsigned Ra, unsigned Rb, unsigned SkipWords,
                               std::vector<MachWord> &Out) const = 0;

  /// Emits "if (Ra != Rb) skip the next SkipWords words".
  virtual bool emitSkipIfNotEqual(unsigned Ra, unsigned Rb,
                                  unsigned SkipWords,
                                  std::vector<MachWord> &Out) const = 0;

  /// Emits "if (Ra < Rb, signed) skip the next SkipWords words". Targets
  /// without condition codes may use \p Scratch.
  virtual bool emitSkipIfLess(unsigned Ra, unsigned Rb, unsigned Scratch,
                              unsigned SkipWords,
                              std::vector<MachWord> &Out) const = 0;

  /// Emits condition-code save/restore through \p ScratchReg. On targets
  /// without condition codes these emit nothing and return false.
  virtual bool emitSaveCC(unsigned ScratchReg,
                          std::vector<MachWord> &Out) const = 0;
  virtual bool emitRestoreCC(unsigned ScratchReg,
                             std::vector<MachWord> &Out) const = 0;

  // --- Disassembly -------------------------------------------------------

  virtual std::string disassemble(MachWord Word, Addr PC) const = 0;

protected:
  /// Parses and compiles \p Description, laying \p Conv's trap registers
  /// over its trap words. A broken description is a fatal error.
  TargetInfo(TargetArch Arch, const char *Description, TargetConventions Conv);

private:
  TargetArch Arch;
  TargetConventions Conv;
  std::unique_ptr<const spawn::CompiledDecoder> Decoder;
  unsigned NumRegisters = 0;
  bool ConditionCodes = false;
  bool DelaySlots = false;
};

/// The three targets, built on first use.
const TargetInfo &sriscTarget();
const TargetInfo &mriscTarget();
const TargetInfo &ariscTarget();

/// All supported architectures, for cross-ISA test and bench matrices.
inline constexpr TargetArch AllTargetArches[] = {
    TargetArch::Srisc, TargetArch::Mrisc, TargetArch::Arisc};

/// Returns the target for \p Arch.
const TargetInfo &targetFor(TargetArch Arch);

} // namespace eel

#endif // EEL_ISA_TARGET_H
