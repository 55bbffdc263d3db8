//===- core/Routine.cpp - Routines -------------------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Routine.h"

#include "core/Liveness.h"

#include <algorithm>

using namespace eel;

Routine::Routine(const Analysis &Parent, std::string Name, Addr Lo, Addr Hi)
    : Parent(Parent), Name(std::move(Name)), Lo(Lo), Hi(Hi) {
  Entries.push_back(Lo);
}

Routine::~Routine() = default;

void Routine::addEntryPoint(Addr A) {
  assert(contains(A) && "entry point outside routine extent");
  if (std::find(Entries.begin(), Entries.end(), A) != Entries.end())
    return;
  Entries.push_back(A);
  std::sort(Entries.begin(), Entries.end());
}
