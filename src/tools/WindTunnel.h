//===- tools/WindTunnel.h - Virtual cycle counting ---------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Wisconsin Wind Tunnel use case from §1: the underlying hardware
/// "does not provide a cycle counter or an efficient mechanism for
/// interleaving computation and simulation. The Wind Tunnel system edits
/// programs so that they update a cycle timer and return control at timer
/// expirations."
///
/// This tool maintains an exact virtual instruction-cycle counter in edited
/// code: every basic block adds its weight (instruction count, with the
/// delay-slot instruction attributed to the path on which it actually
/// executes — +1 on both paths of a non-annulled branch, +1 on only the
/// taken edge of an annulled one), and every block boundary checks whether
/// the current quantum expired, recording the expiration ("returning
/// control to the simulator" in WWT terms).
///
/// Exactness is testable: the final virtual cycle count must equal the
/// simulator's retired-instruction count for the original program, and the
/// number of quantum expirations must equal floor(cycles / quantum).
///
//===----------------------------------------------------------------------===//

#ifndef EEL_TOOLS_WINDTUNNEL_H
#define EEL_TOOLS_WINDTUNNEL_H

#include "core/Executable.h"
#include "vm/Machine.h"

namespace eel {

class CycleCounter {
public:
  /// \p Quantum = 0 disables expiration checks (pure cycle counting).
  CycleCounter(Executable &Exec, uint32_t Quantum = 0);

  void instrument();

  uint64_t cycles(const VmMemory &Memory) const;
  uint64_t quantumExpirations(const VmMemory &Memory) const;
  unsigned edgeIncrements() const { return EdgeIncrements; }

private:
  SnippetPtr makeAddSnippet(uint32_t Weight, bool WithQuantumCheck) const;

  Executable &Exec;
  uint32_t Quantum;
  Addr CycleCell = 0;
  Addr NextQuantumCell = 0;
  Addr ExpirationsCell = 0;
  unsigned EdgeIncrements = 0;
};

} // namespace eel

#endif // EEL_TOOLS_WINDTUNNEL_H
