//===- analysis/InferInternal.h - eel-infer rule plumbing --------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared state between the fixpoint driver (Infer.cpp) and the rule
/// implementations (InferRules.cpp). Not installed; tools consume
/// analysis/Infer.h only.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_ANALYSIS_INFERINTERNAL_H
#define EEL_ANALYSIS_INFERINTERNAL_H

#include "analysis/InferFacts.h"
#include "core/Executable.h"

#include <set>

namespace eel {
namespace infer {

/// A candidate routine extent [Lo, Hi) between two consecutive entries.
struct Extent {
  Addr Lo = 0;
  Addr Hi = 0;
};

/// All facts the rules have derived so far. The byte-level facts (R1–R3)
/// are computed once — they depend only on the image; the aliasing, entry,
/// and resolution facts are recomputed every round of the fixpoint.
struct InferContext {
  Analysis &An;
  Addr TB = 0; ///< Text segment [TB, TE).
  Addr TE = 0;

  // R1: plausible decoding, one flag per text word.
  std::vector<bool> Plausible;
  // Words reachable from the current entry set plus resolved indirect
  // targets (recomputed per round). Data interleaved into text is never
  // reached, so its junk decodings contribute no aliasing facts.
  std::vector<bool> Reachable;

  // R2: control facts from the plausible words (each sorted by address).
  std::vector<Addr> CallTargets;
  std::vector<Addr> PrologueSites;
  std::vector<Addr> IndirectJumps;
  std::vector<StoreFact> Stores;

  // R3: pointer-looking data cells, sorted by cell address.
  std::vector<CellFact> Cells;

  // R5/R6 per-round state.
  std::map<Addr, EntryFact> Entries;
  std::set<Addr> ResolutionTargets; ///< Literal targets of inferred sites.
  std::map<Addr, IndirectResolution> Sites;
  std::vector<TableFact> Tables;

  InferStats Stats;

  explicit InferContext(Analysis &E) : An(E) {}

  bool plausibleAt(Addr A) const {
    return A >= TB && A < TE && (A & 3) == 0 && Plausible[(A - TB) / 4];
  }
};

/// R1 + R2: linear scan of the text segment for plausibility, direct call
/// targets, prologue idioms, store sites, and indirect-jump sites.
void scanText(InferContext &Ctx);

/// R3: scan initialized data segments for word-aligned values aimed at
/// text, classifying isolated cells vs. consecutive table-like runs.
void scanDataPointers(InferContext &Ctx);

/// Recomputes Ctx.Reachable by following control flow from the current
/// entries and the targets of the previous round's resolutions. The
/// data-in-text exclusion: only reachable stores feed R4.
void computeReachable(InferContext &Ctx);

/// R4: store-alias classification over the current extent partition;
/// updates CellFact::Constant / WeakStores in place and returns the
/// sorted (cell, value) pairs proved constant.
std::vector<std::pair<Addr, uint32_t>>
computeCellConstancy(InferContext &Ctx, const std::vector<Extent> &Extents);

/// R6: slice every indirect jump inside its extent with the installed
/// oracle; fills Ctx.Sites / Ctx.Tables and the resolution-derived votes.
void resolveSites(InferContext &Ctx, const std::vector<Extent> &Extents);

} // namespace infer
} // namespace eel

#endif // EEL_ANALYSIS_INFERINTERNAL_H
