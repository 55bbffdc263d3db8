//===- analysis/Infer.h - Fixpoint heuristic disassembly ---------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// eel-infer: routine-boundary and dispatch-table inference for stripped
/// (or untrusted-symbol) images, in the spirit of datalog disassembly —
/// cheap byte-level heuristics feeding mutually-recursive rules, iterated
/// to a deterministic fixpoint:
///
///   R1  plausible decoding    every text word either decodes or is a
///                             data-in-text seed;
///   R2  control facts         direct call targets, prologue idioms, store
///                             sites, and indirect-jump sites from the
///                             plausible words;
///   R3  data pointers         aligned data words aimed at text vote for
///                             entries — isolated words strongly (function
///                             pointer cells), words inside consecutive
///                             runs weakly (dispatch-table entries are
///                             internal labels, not routine starts);
///   R4  cell constancy        a pointer cell no store can alias holds its
///                             initial value forever (stack-relative and
///                             provably-elsewhere stores don't alias;
///                             unknown word stores block the rule);
///   R5  entry voting          weighted evidence picks the entry set; the
///                             sorted entries partition the text into
///                             candidate routine extents;
///   R6  indirect resolution   each extent's indirect jumps are sliced
///                             with the constant cells of R4 installed as
///                             an oracle (core/Slice.h folds loads from
///                             them), recovering cell tail calls as
///                             literals and mangled, base-through-memory
///                             dispatch tables; resolved targets feed new
///                             votes back into R5.
///
/// Rules repeat until the entry set and resolutions stop changing. The
/// result seeds Analysis::readContents in place of symbol refinement
/// stage 2; stages 3–4 (inter-routine entries, data detection, hidden
/// tails) then run unchanged, so stripped images go down the same
/// pipeline — CFG build, editing, verification — as symboled ones.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_ANALYSIS_INFER_H
#define EEL_ANALYSIS_INFER_H

#include "analysis/InferFacts.h"

namespace eel {

class Analysis;

/// Everything the fixpoint concluded, in core-consumable form.
struct InferResult {
  std::vector<InferredRoutine> Routines;
  /// Constant cells (sorted by address) for the slicing oracle.
  std::vector<std::pair<Addr, uint32_t>> ConstantCells;
  /// Per-site resolutions, keyed by jump address.
  std::map<Addr, IndirectResolution> Sites;
  InferStats Stats;
};

/// Runs the fixpoint over \p An's text and data segments. Pure analysis:
/// reads the image, touches no routine state. Deterministic — serial by
/// design, with every container ordered by address — so two runs (and any
/// thread setting) produce identical results.
InferResult inferLayout(Analysis &An);

} // namespace eel

#endif // EEL_ANALYSIS_INFER_H
