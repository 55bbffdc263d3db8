//===- vm/Machine.h - Simulator for SXF executables ------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simulator for SXF executables, standing in for the SPARCstation the
/// paper ran on. Its roles:
///
///  * ground truth — tests run the original and the edited executable and
///    require identical observable behaviour (output, exit code) and correct
///    instrumentation results;
///  * measurement — instruction counts give the slowdown ratios for the
///    Active Memory and profiling-overhead experiments;
///  * hooks — per-instruction, control-transfer, and memory hooks produce
///    the reference profiles and traces the tools are validated against.
///
/// One run loop serves every ISA: it fetches, fires OnInst, asks a step
/// function what the word did, and retires it. Each ISA's step is a field
/// decoder written from its encoding header (never from the spawn
/// description, so the VM stays an independent oracle for it) over pieces
/// written once: the integer ALU, the data access (which fires OnMemory),
/// the control transfer (which fires OnTransfer) and the trap path.
///
/// The pipeline model is the SPARC/MIPS (PC, NPC) pair: a taken transfer
/// replaces NPC after the delay-slot instruction issues; an annulled slot is
/// squashed by skipping it. Delayed transfers inside delay slots therefore
/// have a well-defined (if exotic) meaning, just as on real hardware. An ISA
/// without delay slots degenerates to sequential fetch.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_VM_MACHINE_H
#define EEL_VM_MACHINE_H

#include "sxf/Sxf.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace eel {

/// System-call numbers shared by all targets (the SRISC and ARISC `sys`
/// immediate, MRISC $v0).
enum : unsigned {
  SysExit = 0,  ///< exit(status)
  SysWrite = 1, ///< write(fd, buf, len) -> len
  SysSbrk = 2,  ///< sbrk(incr) -> old break
  SysRead = 3,  ///< read(fd, buf, len) -> 0 (no stdin in this world)
  SysInstRet = 4, ///< retired-instruction count (a cycle counter)
};

/// Sparse paged memory over the 32-bit simulated address space.
class VmMemory {
public:
  static constexpr uint32_t PageBits = 12;
  static constexpr uint32_t PageSize = 1u << PageBits;

  uint8_t readByte(Addr A) const;
  void writeByte(Addr A, uint8_t B);

  uint32_t readWord(Addr A) const;    ///< Little-endian, must be 4-aligned.
  void writeWord(Addr A, uint32_t W); ///< Little-endian, must be 4-aligned.
  uint16_t readHalf(Addr A) const;
  void writeHalf(Addr A, uint16_t H);

  void writeBytes(Addr A, const uint8_t *Data, size_t N);

private:
  const uint8_t *pageFor(Addr A) const;
  uint8_t *mutablePageFor(Addr A);

  mutable std::unordered_map<uint32_t, std::unique_ptr<uint8_t[]>> Pages;
};

/// Architectural state. Register 32 is the condition-code register on
/// targets that have one.
struct CpuState {
  uint32_t Regs[33] = {0};
  Addr PC = 0;
  Addr NPC = 0;
};

/// Why execution stopped.
enum class StopReason : uint8_t {
  Exited,          ///< SysExit or return from the entry routine.
  StepLimit,       ///< Ran out of the step budget (probably looping).
  BadInstruction,  ///< Fetched an invalid encoding.
  BadAlignment,    ///< Misaligned PC or memory access.
};

struct RunResult {
  StopReason Reason = StopReason::Exited;
  int ExitCode = 0;
  uint64_t Instructions = 0; ///< Instructions retired (annulled slots and
                             ///  squashed delay slots do not count).
  std::string Output;        ///< Bytes written to fd 1.
  Addr FaultPC = 0;          ///< PC at a BadInstruction/BadAlignment stop.
};

/// What one instruction did, as the run loop needs it.
struct StepOutcome {
  bool Branch = false; ///< A taken transfer to Target.
  Addr Target = 0;
  bool Annul = false;  ///< Squash the delay slot.
  bool Exited = false;
  int ExitCode = 0;
  bool Invalid = false;
  bool BadAlign = false;
};

/// Loads and runs one executable image.
class Machine {
public:
  explicit Machine(const SxfFile &File);

  /// Runs until exit or \p MaxSteps instructions.
  RunResult run(uint64_t MaxSteps = 200'000'000);

  /// Runs with a caller-provided single-instruction stepper (used by the
  /// spawn-semantics interpreter) over the same loop as run(), with the
  /// delay-slot model the target's description declares.
  using StepFn = std::function<StepOutcome(Machine &M, Addr PC, MachWord W)>;
  RunResult runGeneric(const StepFn &Step, uint64_t MaxSteps = 200'000'000);

  VmMemory &memory() { return Mem; }
  const VmMemory &memory() const { return Mem; }
  CpuState &cpu() { return Cpu; }

  /// The magic return address installed in the link register at startup;
  /// jumping here ends the program with the conventional return value.
  static constexpr Addr ExitMagic = 0xFFFFFFF0u;

  /// Observation hooks (null by default; they slow simulation down).
  /// onInst fires before each retired instruction.
  std::function<void(Addr PC, MachWord Word)> OnInst;
  /// onTransfer fires for every control-transfer instruction with its
  /// (possibly not-taken) outcome; Target is meaningful only when Taken.
  std::function<void(Addr PC, Addr Target, bool Taken)> OnTransfer;
  /// onMemory fires for every load/store with the effective address.
  std::function<void(Addr PC, Addr EffAddr, unsigned Width, bool IsStore)>
      OnMemory;

  /// The one trap path: the ISA supplies \p Number, the arguments come
  /// from the first three argument registers and the result goes to the
  /// first return register. Returns the exit status when the trap is
  /// SysExit, which ends the run.
  std::optional<int> trap(unsigned Number);

private:
  template <typename StepT>
  RunResult loop(const StepT &Step, bool DelaySlots, uint64_t MaxSteps);

  TargetArch Arch;
  VmMemory Mem;
  CpuState Cpu;
  unsigned TrapArgs[3] = {0, 0, 0};
  unsigned RetReg = 0;
  Addr Break = 0; ///< sbrk break pointer.
  uint64_t Retired = 0;
  std::string Output;
};

/// Convenience: runs \p File on a fresh Machine and returns the result,
/// however the run stopped.
RunResult runToCompletion(const SxfFile &File,
                          uint64_t MaxSteps = 200'000'000);

} // namespace eel

#endif // EEL_VM_MACHINE_H
