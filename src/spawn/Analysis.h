//===- spawn/Analysis.h - Per-word semantic analysis ------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Derives everything a TargetInfo must answer about one machine word from
/// the word's RTL semantics: classification, register reads/writes, delay
/// behaviour, direct/indirect transfer shapes, dataflow and memory shapes,
/// and the instruction fields that hold register numbers — the same
/// DecodedWord a handwritten backend's decode() fills. This is the
/// machine-independent core of spawn — the paper's claim that classification,
/// register sets, literal values, and even "the computation in most
/// instructions" fall out of a concise description is reproduced here.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SPAWN_ANALYSIS_H
#define EEL_SPAWN_ANALYSIS_H

#include "isa/Target.h"
#include "spawn/MachineDesc.h"

namespace eel {
namespace spawn {

/// Analyzes one word into the DecodedWord a TargetInfo answers, before
/// the trap conventions (which the description does not know) are laid
/// over it. Never fails: undecodable words yield an Invalid answer;
/// malformed semantics abort (they indicate a broken description, which
/// MachineDesc::finalize should have caught).
DecodedWord analyzeWord(const MachineDesc &Desc, MachWord Word);

} // namespace spawn
} // namespace eel

#endif // EEL_SPAWN_ANALYSIS_H
