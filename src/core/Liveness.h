//===- core/Liveness.h - Live-register analysis ------------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward live-register analysis over a routine's CFG (§3.3 lists it among
/// EEL's standard analyses). Its primary customer is snippet register
/// scavenging (§3.5): EEL finds the registers live at an insertion point and
/// assigns dead ones to the snippet. Condition codes participate as the
/// pseudo-register RegIdCC — the Blizzard-S optimization in §5 ("a faster
/// test sequence when condition codes are not live") queries exactly this.
///
/// Conservatism at routine boundaries: returns treat callee-saved and
/// return-value registers as live; calls use argument registers and clobber
/// caller-saved ones; unresolved indirect jumps and jumps out of the
/// routine treat every register as live.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_LIVENESS_H
#define EEL_CORE_LIVENESS_H

#include "core/Cfg.h"

#include <vector>

namespace eel {

class Liveness {
public:
  explicit Liveness(const Cfg &G);

  RegSet liveIn(const BasicBlock *B) const { return In[B->id()]; }
  RegSet liveOut(const BasicBlock *B) const { return Out[B->id()]; }

  /// Registers live immediately before / after instruction \p InstIndex of
  /// \p B (i.e. the sets snippets inserted there must preserve). Before
  /// instruction 0 is liveIn(B), read without walking the block.
  RegSet liveBefore(const BasicBlock *B, unsigned InstIndex) const;
  RegSet liveAfter(const BasicBlock *B, unsigned InstIndex) const;

  /// Registers live while traversing \p E (code added along the edge must
  /// preserve exactly these).
  RegSet liveOnEdge(const Edge *E) const;

private:
  RegSet transferCall(const BasicBlock *B, RegSet LiveOutSet) const;
  void compute(const Cfg &G);

  const Cfg &Graph;
  RegSet All;
  RegSet ReturnLive;
  std::vector<RegSet> In, Out;
};

} // namespace eel

#endif // EEL_CORE_LIVENESS_H
