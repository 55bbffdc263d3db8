//===- core/Translate.h - Run-time address translation -----------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §3.3 fallback: "when control flow cannot be completely analyzed,
/// run-time code ensures that control passes to the correct edited
/// instruction". An unanalyzable indirect jump is replaced by a short
/// sequence that captures the original target address in a protocol
/// register and enters a translator routine appended to the executable;
/// the translator binary-searches a sorted original→edited address table
/// (also appended) and jumps to the edited location, preserving every
/// register and the condition codes.
///
/// Protocols (machine-specific, like all EEL run-time code):
///  * SRISC — target in %g1, translator entered through %g2, with the
///    caller's %g1/%g2 saved in the stack red zone at [sp-64]/[sp-68]; the
///    translator spills %g3-%g6 and the condition codes below that and
///    restores everything before jumping.
///  * MRISC — target in $k0, translator entered through $k1; $k0/$k1/$gp
///    are reserved registers no generated code uses, and $at/$t8/$t9 are
///    saved in the red zone.
///  * ARISC — target in $t14, translator entered through $at; no value is
///    live in either across an indirect jump, so the site saves nothing,
///    and the translator saves $t10-$t13 in the red zone. There is no
///    delay slot.
///
/// A target missing from the table is taken as already edited, and the
/// translator jumps straight to it (`.Lmiss`; `.Lout` on ARISC): that is
/// how code pointers and return addresses the writer already rewrote get
/// through, since edited and original text occupy disjoint ranges.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_TRANSLATE_H
#define EEL_CORE_TRANSLATE_H

#include "core/Instruction.h"
#include "core/Layout.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace eel {

/// Emits the site sequence replacing the indirect transfer \p Jump (whose
/// original delay-slot instruction is \p DelayWord; a nop on ARISC).
/// Appends code to \p Code and TranslatorHi/TranslatorLo relocations to
/// \p Relocs. Fails when the delay instruction conflicts with the protocol
/// registers in an unresolvable way.
Expected<bool> emitTranslationSite(const TargetInfo &Target,
                                   const Instruction &Jump,
                                   MachWord DelayWord,
                                   std::vector<MachWord> &Code,
                                   std::vector<Reloc> &Relocs);

/// Assembly text of the translator routine for \p Target, searching
/// \p EntryCount pairs at \p TableAddr.
std::string translatorAsm(const TargetInfo &Target, Addr TableAddr,
                          unsigned EntryCount);

} // namespace eel

#endif // EEL_CORE_TRANSLATE_H
