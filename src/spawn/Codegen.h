//===- spawn/Codegen.h - Generated-source dump -------------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a machine description as generated C++ source — the artifact the
/// paper's spawn emitted (6,178 lines for SPARC from a 145-line description).
/// The output contains the decode tables, field accessors, and a direct
/// translation of every instruction's RTL semantics into C++ statements.
/// bench_machdesc counts its lines against the description and what a
/// port still writes by hand to reproduce the §4 conciseness comparison.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SPAWN_CODEGEN_H
#define EEL_SPAWN_CODEGEN_H

#include "spawn/MachineDesc.h"

#include <string>

namespace eel {
namespace spawn {

/// Generates a self-contained C++ rendering of \p Desc.
std::string generateCppSource(const MachineDesc &Desc);

} // namespace spawn
} // namespace eel

#endif // EEL_SPAWN_CODEGEN_H
