//===- tools/ActiveMem.h - Active Memory cache simulation --------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Active Memory (Lebeck & Wood, cited as [16] in the paper): efficient
/// memory-system simulation by inserting a quick state test *before* every
/// load and store instead of post-processing an address trace. This is the
/// tool the paper credits with cutting cache-simulation cost to a 2–7x
/// slowdown.
///
/// The inserted snippet simulates a direct-mapped cache inline: compute the
/// effective address, look up the line's tag in a table appended to the
/// executable, bump the access counter, and on a tag mismatch record the
/// miss and update the tag. On SRISC the inline compare clobbers the
/// condition codes, so EEL's liveness-driven CC save/restore engages
/// exactly where needed — the Blizzard-S optimization of §5; on MRISC the
/// compare-and-branch needs no CC handling at all.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_TOOLS_ACTIVEMEM_H
#define EEL_TOOLS_ACTIVEMEM_H

#include "core/Executable.h"
#include "vm/Machine.h"

namespace eel {

struct CacheConfig {
  unsigned LineBytes = 16; ///< Power of two.
  unsigned Lines = 64;     ///< Power of two (direct-mapped).
};

class ActiveMemory {
public:
  ActiveMemory(Executable &Exec, CacheConfig Config = CacheConfig());

  /// Inserts the cache test before every editable load/store site.
  void instrument();

  unsigned sitesInstrumented() const { return Sites; }

  /// Simulation results, read from a finished run's memory.
  uint64_t accesses(const VmMemory &Memory) const;
  uint64_t misses(const VmMemory &Memory) const;

private:
  SnippetPtr makeCacheTestSnippet(const MemOp &M) const;

  Executable &Exec;
  CacheConfig Config;
  Addr TagsBase = 0;
  Addr AccessCounter = 0;
  Addr MissCounter = 0;
  unsigned Sites = 0;
};

} // namespace eel

#endif // EEL_TOOLS_ACTIVEMEM_H
