//===- core/Routine.h - Routines ---------------------------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Routines (§3.2): named entities in the text segment that hold
/// instructions and data. A routine records what symbol-table refinement
/// learned about it (extent, entry points, whether it was hidden or is
/// really a data table) and holds the results of EEL's control-flow
/// analysis: its CFG and liveness. A routine belongs to an Analysis and is
/// read-only once readContents() returns; tools edit it through the CFG's
/// blocks and edges, but the edits live in the edit session
/// (core/Executable.h).
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_ROUTINE_H
#define EEL_CORE_ROUTINE_H

#include "core/Cfg.h"

#include <memory>
#include <string>
#include <vector>

namespace eel {

class Analysis;
class Liveness;

class Routine {
public:
  // Both out-of-line: the Liveness member is incomplete here.
  Routine(const Analysis &Parent, std::string Name, Addr Lo, Addr Hi);
  ~Routine();

  const Analysis &analysis() const { return Parent; }
  const std::string &name() const { return Name; }

  /// Extent [startAddr, endAddr) in the text segment.
  Addr startAddr() const { return Lo; }
  Addr endAddr() const { return Hi; }
  uint32_t sizeBytes() const { return Hi - Lo; }
  bool contains(Addr A) const { return A >= Lo && A < Hi; }

  /// Entry points, in increasing address order; the first is startAddr().
  const std::vector<Addr> &entryPoints() const { return Entries; }

  /// True if the routine was discovered by analysis rather than named by a
  /// symbol (a "hidden routine", §3.1).
  bool hidden() const { return Hidden; }

  /// True if analysis concluded the extent holds data, not code (a data
  /// table carrying a routine-like symbol, §3.1).
  bool isData() const { return IsData; }

  /// The control-flow graph readContents() built; null for a data
  /// routine, which has none.
  Cfg *controlFlowGraph() const { return Graph.get(); }

  /// The live-register analysis over the CFG, computed by readContents()
  /// for every routine layout edits; null where layout copies the routine
  /// verbatim (data, an unsupported graph, or unresolved indirect jumps
  /// with run-time translation off). Edits never invalidate it: they
  /// accumulate in the edit session, not in the graph.
  Liveness *liveness() const { return Live.get(); }

private:
  friend class Analysis;

  const Analysis &Parent;
  std::string Name;
  Addr Lo, Hi;
  std::vector<Addr> Entries;
  bool Hidden = false;
  bool IsData = false;
  std::unique_ptr<Cfg> Graph;
  std::unique_ptr<Liveness> Live;
};

} // namespace eel

#endif // EEL_CORE_ROUTINE_H
