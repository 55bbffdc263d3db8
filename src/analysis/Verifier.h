//===- analysis/Verifier.h - Static soundness checker ------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// eel-verify: a pass-based static checker over both the in-memory IR and
/// emitted images. EEL's central claim is that editing fully linked code
/// can be made sound; the verifier checks that claim from the outside
/// instead of trusting the pipeline's own bookkeeping:
///
///   1. cfg-wellformed   — structural CFG invariants (single-entry blocks,
///                         edges target block heads, terminator arity, no
///                         dangling delay-slot blocks).
///   2. delay-slot       — delay-slot/annul normalization invariants on the
///                         IR, and annul-bit/slot preservation in emitted
///                         images, for both SRISC and MRISC.
///   3. scavenge-audit   — liveness recomputed from scratch with an
///                         independent worklist solver; every register
///                         RegAlloc handed to a snippet must be provably
///                         dead at that site.
///   4. layout-consistency — every relocated call, materialized sethi/or
///                         pair, dispatch-table entry, and the entry point
///                         in the output image resolve to the edited
///                         address of the intended original target.
///   5. translation-validation — the emitted image is re-disassembled with
///                         a fresh Executable::openImage and its CFGs are
///                         compared, block by block, against the edited
///                         in-memory CFGs (graph isomorphism modulo
///                         inserted snippets, via quotient successor sets
///                         over original block heads).
///
/// Entry points: verifyIR (passes 1–3, IR only), verifyEdit (all five,
/// needs the emitted image and the Executable whose address map produced
/// it), and lintImage (standalone checking of an arbitrary image — used by
/// the eel-lint CLI, the examples' self-checks, and the fuzz harness).
/// Verification over parallel-edited images is deterministic: per-routine
/// findings are merged in routine-index order.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_ANALYSIS_VERIFIER_H
#define EEL_ANALYSIS_VERIFIER_H

#include "analysis/Diagnostics.h"
#include "support/RegSet.h"

#include <string>

namespace eel {

class BasicBlock;
class CodeSnippet;
class Executable;
class Routine;
class SxfFile;
class TargetInfo;

struct VerifyOptions {
  bool CheckCfg = true;
  bool CheckDelay = true;
  bool CheckScavenge = true;
  bool CheckLayout = true;
  bool CheckTranslation = true;
  /// Worker threads for the per-routine fan-out; 0 uses the executable's
  /// own effectiveThreads(). Results are identical for all settings.
  unsigned Threads = 0;

  /// The profile the Options::Verify gate in writeEditedExecutable() runs:
  /// every check that needs no re-analysis of the emitted image (passes
  /// 1-4). Translation validation re-disassembles the whole output — a
  /// cost comparable to the edit itself — so it stays an explicit
  /// verifyEdit()/eel-lint step, keeping the gate's overhead a small
  /// fraction of the path it guards.
  static VerifyOptions writeGate() {
    VerifyOptions Opts;
    Opts.CheckTranslation = false;
    return Opts;
  }
};

/// Passes 1–3 over the analyzed in-memory IR of \p Exec. Safe on any
/// loaded image (runs readContents() if needed; analysis failures become
/// image-load diagnostics, never aborts).
DiagnosticReport verifyIR(Executable &Exec, const VerifyOptions &Opts = {});

/// All five passes over an edit: \p Exec must be the executable whose
/// writeEditedExecutable() produced \p Edited (its address map and edited
/// CFGs are the "intent" the image is checked against).
DiagnosticReport verifyEdit(Executable &Exec, const SxfFile &Edited,
                            const VerifyOptions &Opts = {});

/// Standalone lint of an arbitrary image: load, analyze, run the IR-side
/// structural passes. Content-level checks that need editing intent are
/// skipped; findings that depend on analysis strength are warnings, not
/// errors, so lint is safe on images EEL did not produce.
DiagnosticReport lintImage(const SxfFile &Image, const VerifyOptions &Opts = {});

/// Liveness immediately before instruction \p InstIndex of \p B, computed
/// by the verifier's independent worklist solver (not core/Liveness.cpp).
/// Exposed for the scavenging audit's tests.
RegSet auditLiveBefore(Routine &R, const BasicBlock *B, unsigned InstIndex);

/// The site-level scavenging check: re-plans \p Snippet's allocation
/// (planScavenge, the decision procedure placeSnippet realizes)
/// against the live set the pipeline used (\p LiveUsed) and reports an
/// error if any register granted to the snippet without a spill is live
/// according to the independently computed truth (\p LiveTruth). Exposed
/// so tests can inject a deliberately understated live set.
void auditScavengeSite(const TargetInfo &Target, const CodeSnippet &Snippet,
                       const RegSet &LiveUsed, const RegSet &LiveTruth,
                       const std::string &RoutineName, int BlockId, Addr A,
                       DiagnosticReport &Report);

} // namespace eel

#endif // EEL_ANALYSIS_VERIFIER_H
