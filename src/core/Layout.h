//===- core/Layout.h - Edited-routine production ------------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Producing an edited routine (§3.3.1): lay out blocks and snippets,
/// adjust displacements and addresses in control-transfer instructions, and
/// fold unedited delay-slot duplicates back into delay slots. Conditional
/// branches with edited paths are rewritten to branch to a stub holding the
/// path's code; dispatch-table entries are redirected to edited case blocks
/// or per-case stubs; unanalyzable indirect jumps become run-time
/// translation sequences.
///
/// A routine's layout is position-independent: every reference whose value
/// depends on final placement (inter-routine calls and jumps, internal
/// jumps on region-addressed targets, translator addresses, rewritten
/// address materializations) is recorded as a relocation that the writer
/// patches once all routines are placed.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_LAYOUT_H
#define EEL_CORE_LAYOUT_H

#include "core/Executable.h"
#include "core/Snippet.h"
#include "support/Arena.h"
#include "support/Error.h"

#include <span>
#include <utility>
#include <vector>

namespace eel {

/// A placement-dependent patch within one routine's code.
struct Reloc {
  enum class Kind : uint8_t {
    CallTo,       ///< Direct call: retarget to editedAddr(OrigTarget).
    JumpTo,       ///< Direct branch/jump out: retarget to editedAddr(...).
    Internal,     ///< Transfer to DestWordIndex within this routine.
    AddrHi,       ///< %hi part of a materialized code address.
    AddrLo,       ///< %lo part of a materialized code address.
    TranslatorHi, ///< %hi of the run-time translator's entry.
    TranslatorLo, ///< %lo of the run-time translator's entry.
  };
  Kind K = Kind::Internal;
  unsigned WordIndex = 0;
  Addr OrigTarget = 0;       ///< CallTo/JumpTo/AddrHi/AddrLo.
  unsigned DestWordIndex = 0;///< Internal.
  /// CallTo/JumpTo/Internal: the displacement field of the word being
  /// retargeted, as layout decoded it (no field when the word is not a
  /// direct transfer), so patching needs no decode.
  DirectShape Shape;
};

/// One rewritten dispatch-table entry, word \p Index of the table at
/// \p TableAddr: the new value is either the edited address of an
/// original target or a stub inside the routine.
struct TableEntryFix {
  Addr TableAddr = 0;
  unsigned Index = 0;
  Addr OrigTarget = 0;        ///< Used when StubWordIndex is unset.
  int StubWordIndex = -1;     ///< >= 0: entry points at this routine word.
};

/// A constant code-pointer cell that feeds a Literal-resolved indirect
/// jump (eel-infer's cell facts). The writer rewrites the cell to the
/// target's edited address unconditionally — precise rewrites happen even
/// with the heuristic whole-segment pointer scan disabled.
struct CellFix {
  Addr Cell = 0;
  Addr Target = 0; ///< Original jump target; mapped through the addr map.
};

/// A snippet whose callback must run once final addresses are known.
struct PendingCallback {
  SnippetPtr Snippet;
  SnippetInstance Instance;
  unsigned WordIndex = 0; ///< Placement of Instance.Words within the code.
};

/// The machine-code rendering of one routine. The arrays live in the
/// arena the caller passed to layoutRoutine(), which frees them all at
/// once; only the rare snippet call-backs own memory of their own.
struct RoutineLayout {
  std::span<const MachWord> Code;
  std::span<const Reloc> Relocs;
  /// Original address → word index of its edited location (block starts
  /// point before any code inserted ahead of their first instruction).
  /// Sorted by original address; every key lies in the routine's extent
  /// and appears once.
  std::span<const std::pair<Addr, unsigned>> AddrMap;
  std::span<const TableEntryFix> TableEntries; ///< Table by table.
  std::span<const CellFix> CellFixes;
  std::vector<PendingCallback> Callbacks;
  bool Verbatim = false;
  bool NeedsTranslator = false;
  unsigned DelayFolded = 0;
  unsigned DelayMaterialized = 0;
  unsigned SnippetInstances = 0;
  unsigned SnippetSpills = 0;
  unsigned SnippetCCSaves = 0;
};

/// Lays out \p R, applying the batch \p Exec accumulated for its CFG,
/// with the result's arrays in \p Arena. Fails when a snippet cannot be
/// instantiated or an edited routine is unsupported.
Expected<RoutineLayout> layoutRoutine(const Executable &Exec, const Routine &R,
                                      BumpArena &Arena);

} // namespace eel

#endif // EEL_CORE_LAYOUT_H
