//===- core/CallGraph.h - Interprocedural call graph -------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The call-graph support the paper mentions alongside CFGs ("EEL also
/// supports interprocedural analysis and call graphs"). Nodes are routines;
/// edges come from direct call sites and from indirect calls whose
/// function-pointer cell the slicer resolved to a statically initialized
/// code address.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_CALLGRAPH_H
#define EEL_CORE_CALLGRAPH_H

#include "core/Executable.h"

#include <map>
#include <vector>

namespace eel {

class CallGraph {
public:
  struct Node {
    Routine *R = nullptr;
    std::vector<Routine *> Callees; ///< Deduplicated, address order.
    std::vector<Routine *> Callers;
    unsigned DirectCallSites = 0;
    unsigned IndirectCallSites = 0;
    unsigned ResolvedIndirectSites = 0; ///< Via statically known cells.
  };

  /// Builds the graph over a finished analysis (readContents() has run).
  static CallGraph build(const Analysis &An);

  const Node *node(const Routine *R) const;
  const std::vector<Node> &nodes() const { return Nodes; }

  /// Routines with no callers other than themselves (roots; includes the
  /// entry routine).
  std::vector<Routine *> roots() const;

  /// Post-order over the call DAG from \p Root (cycles visited once).
  std::vector<Routine *> postorderFrom(Routine *Root) const;

private:
  std::vector<Node> Nodes;
  std::map<const Routine *, size_t> Index;
};

} // namespace eel

#endif // EEL_CORE_CALLGRAPH_H
