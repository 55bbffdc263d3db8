//===- isa/Descriptions.h - Embedded spawn machine descriptions -*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The spawn machine descriptions for SRISC, MRISC and ARISC (the Figure 7
/// language). Each target compiles its description into the decode table
/// behind TargetInfo::decode() when it is built. They are embedded as
/// strings so that the targets need no file-system configuration, and so
/// the machine-description conciseness benchmark (bench_machdesc) can count
/// their lines against what a port still writes by hand.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_ISA_DESCRIPTIONS_H
#define EEL_ISA_DESCRIPTIONS_H

namespace eel {

/// Spawn description of the SRISC (SPARC-like) instruction set.
const char *sriscDescription();

/// Spawn description of the MRISC (MIPS-like) instruction set.
const char *mriscDescription();

/// Spawn description of the ARISC (Alpha-like, no delay slots) set.
const char *ariscDescription();

} // namespace eel

#endif // EEL_ISA_DESCRIPTIONS_H
