//===- perfbench/Checker.h - Output check for every edit --------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark counts an edit only when the edited program behaves like
/// the original, the way Datalog Disassembly judges a rewriter by whether
/// its rewritten binaries still pass their tests. An edit passes when
///  * its bytes reload through the strict SxfFile::deserialize (so an
///    image whose segments overlap fails);
///  * it runs in the VM to a clean exit with the original's output and
///    exit code;
///  * for qpt2, every block counter equals the original run's OnInst tally
///    at its anchor and every taken/not-taken edge counter the matching
///    OnTransfer tally (the oracle tests/ToolsTest.cpp uses).
/// Checks run outside every timed region and never abort the run.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_PERFBENCH_CHECKER_H
#define EEL_PERFBENCH_CHECKER_H

#include "sxf/Sxf.h"
#include "tools/Qpt.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// What the original program did.
struct Reference {
  bool Ok = false;   ///< The original itself ran to a clean exit.
  std::string Why;   ///< Why not, when !Ok.
  std::string Output;
  int ExitCode = 0;
  uint64_t Instructions = 0;
  uint64_t TextBytes = 0;
  /// Filled only when tallies were requested (the qpt2 counter oracle).
  std::map<eel::Addr, uint64_t> InstTally;
  std::map<std::pair<eel::Addr, bool>, uint64_t> BranchTally;
};

/// Runs \p Original in the VM and records its behaviour.
Reference runReference(const eel::SxfFile &Original, bool WithTallies);

struct Verdict {
  bool Ok = false;
  std::string Why; ///< First failed condition; empty when Ok.
  uint64_t Instructions = 0; ///< Retired by the edited program.
  uint64_t TextBytes = 0;    ///< Edited text, all text segments.
};

/// Checks one edited image against the original's \p Ref. \p Counters,
/// when given, are the qpt2 counters the edit inserted.
Verdict
checkEdit(const std::vector<uint8_t> &EditedBytes, const Reference &Ref,
          const std::vector<eel::Qpt2Profiler::CounterInfo> *Counters =
              nullptr);

} // namespace perfbench

#endif // EEL_PERFBENCH_CHECKER_H
