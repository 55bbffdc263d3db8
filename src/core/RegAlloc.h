//===- core/RegAlloc.h - Snippet register scavenging -------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Context-dependent register allocation for snippets (§3.5): EEL finds the
/// registers live at the insertion point and assigns dead ones to the
/// snippet's placeholder registers ("register scavenging"). When too few
/// dead registers exist, the snippet is wrapped with code that spills live
/// registers to a stack red zone; when the snippet clobbers live condition
/// codes, it is wrapped with CC save/restore.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_REGALLOC_H
#define EEL_CORE_REGALLOC_H

#include "core/Snippet.h"
#include "support/Error.h"
#include "support/Metrics.h"

namespace eel {

/// Stack offsets below SP reserved for EEL-inserted code. The run-time
/// translator uses [sp-64, sp-96); snippet spills use [sp-96, sp-160).
/// Programs in this world never touch memory below SP (no signal handlers,
/// no red-zone use by compilers), which makes both safe.
enum : int32_t { SnippetSpillBase = -96, SnippetSpillLimit = -160 };

/// The allocator's decision for one site, computed without emitting any
/// code: which registers the snippet receives, the subset that must be
/// spilled because they are live, and whether the condition codes need
/// save/restore. Grants are handed out dead registers first, ascending,
/// then spilled ones, ascending: placeholders (ascending) take them in that
/// order, and the CC scratch register, when needed, takes the last.
/// placeSnippet realizes exactly this plan; the verifier's scavenging
/// audit judges the plan directly and skips the emission cost.
struct ScavengePlan {
  RegSet GrantedSet;       ///< Every register handed to the snippet.
  RegSet SpilledSet;       ///< Granted registers that were live.
  bool NeedCCSave = false; ///< Snippet clobbers live condition codes.
};

/// Plans the register assignment for \p Snippet at a site where \p Live
/// registers are live. Fails only if the snippet demands more registers
/// than can be scavenged or spilled.
Expected<ScavengePlan> planScavenge(const TargetInfo &Target,
                                    const CodeSnippet &Snippet,
                                    const RegSet &Live);

/// Instantiates \p Snippet for a site where \p Live registers are live:
/// appends the wrapped, register-allocated words to \p Code and fills
/// every field of \p Site but Words and StartAddr (BodyBegin counts from
/// the site's first word). The one instantiation path: layout appends to
/// the routine's code, instantiateSnippet to an instance of its own. On
/// failure \p Code is left as it was.
Expected<bool> placeSnippet(const TargetInfo &Target,
                            const CodeSnippet &Snippet, const RegSet &Live,
                            std::vector<MachWord> &Code,
                            SnippetInstance &Site);

/// Instantiates \p Snippet for a site where \p Live registers are live
/// and records the site's statistics. Returns the wrapped,
/// register-allocated code. Fails only if the snippet demands more
/// registers than can be spilled.
Expected<SnippetInstance> instantiateSnippet(const TargetInfo &Target,
                                             const CodeSnippet &Snippet,
                                             const RegSet &Live);

/// Scavenging statistics of any number of placed sites, recorded at once:
/// the eel.snippet.{instances,spills,ccsaves} counters and the
/// scavenge.{granted,spilled}_per_site histograms end up exactly as one
/// record per site would leave them, for one counter lookup per name.
/// Layout keeps one for each routine that places a snippet.
struct ScavengeTally {
  unsigned Instances = 0;
  unsigned Spills = 0;
  unsigned CCSaves = 0;
  HistogramSnapshot GrantedPerSite;
  HistogramSnapshot SpilledPerSite;

  void add(const SnippetInstance &Site);
  /// Records the totals; a counter that reads zero is not touched.
  void record() const;
};

} // namespace eel

#endif // EEL_CORE_REGALLOC_H
