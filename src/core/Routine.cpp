//===- core/Routine.cpp - Routines -------------------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Routine.h"

#include "core/Liveness.h"

using namespace eel;

Routine::Routine(const Analysis &Parent, std::string Name, Addr Lo, Addr Hi)
    : Parent(Parent), Name(std::move(Name)), Lo(Lo), Hi(Hi) {
  Entries.push_back(Lo);
}

Routine::~Routine() = default;
