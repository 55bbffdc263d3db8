//===- tests/WordSamples.h - Machine words for per-ISA sweeps ---*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The word samples that decode sweeps run over on each ISA: a seeded
/// random sample, and a structured one that enumerates every major opcode
/// (on SRISC every op3 and every branch condition and annul bit) with
/// random fills, since random words rarely hit rare-but-valid encodings.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_TESTS_WORDSAMPLES_H
#define EEL_TESTS_WORDSAMPLES_H

#include "isa/AriscEncoding.h"
#include "isa/MriscEncoding.h"
#include "isa/SriscEncoding.h"
#include "support/Rng.h"

#include <vector>

namespace eel {

/// 30,000 random words, from a seed of their own per ISA.
inline std::vector<MachWord> randomWords(TargetArch Arch) {
  Rng R(2024 + static_cast<unsigned>(Arch));
  std::vector<MachWord> Words(30000);
  for (MachWord &W : Words)
    W = static_cast<MachWord>(R.next());
  return Words;
}

/// The structured sample of \p Arch.
inline std::vector<MachWord> structuredWords(TargetArch Arch) {
  Rng R(7 + static_cast<unsigned>(Arch));
  std::vector<MachWord> Words;
  auto Random = [&R] { return static_cast<MachWord>(R.next()); };
  switch (Arch) {
  case TargetArch::Srisc:
    for (uint32_t Op3 = 0; Op3 < 64; ++Op3) {
      for (int I = 0; I < 40; ++I) {
        MachWord W = insertBits(Random(), 19, 24, Op3);
        Words.push_back(insertBits(W, 30, 31, srisc::OpArith));
        Words.push_back(insertBits(W, 30, 31, srisc::OpMem));
      }
    }
    for (uint32_t Cond = 0; Cond < 16; ++Cond) {
      for (uint32_t A = 0; A < 2; ++A) {
        for (int I = 0; I < 20; ++I) {
          MachWord W = insertBits(Random(), 30, 31, srisc::OpFormat2);
          W = insertBits(W, 22, 24, srisc::Op2Bicc);
          W = insertBits(W, 25, 28, Cond);
          Words.push_back(insertBits(W, 29, 29, A));
        }
      }
    }
    break;
  case TargetArch::Mrisc:
    for (uint32_t Op = 0; Op < 64; ++Op) {
      for (int I = 0; I < 60; ++I) {
        MachWord W = insertBits(Random(), 26, 31, Op);
        Words.push_back(W);
        if (Op == 0) {
          // R-type: shamt often must be zero for validity.
          Words.push_back(insertBits(W, 6, 10, 0));
          Words.push_back(insertBits(W, 21, 25, 0));
        }
      }
    }
    break;
  case TargetArch::Arisc:
    // A random fill rarely encodes a valid operate, jmp, sys or ldih
    // word, so those also appear with the bits they must leave clear
    // zeroed (for operate, the func field's high bits, which reaches
    // every defined func).
    for (uint32_t Op = 0; Op < 64; ++Op) {
      for (int I = 0; I < 200; ++I) {
        MachWord W = insertBits(Random(), 26, 31, Op);
        Words.push_back(W);
        switch (Op) {
        case arisc::OpOperate:
          Words.push_back(insertBits(W, 4, 10, 0));
          break;
        case arisc::OpJmp:
          Words.push_back(insertBits(W, 0, 15, 0));
          break;
        case arisc::OpSys:
          Words.push_back(insertBits(W, 16, 25, 0));
          break;
        case arisc::OpLdih:
          Words.push_back(insertBits(W, 21, 25, 0));
          break;
        }
      }
    }
    break;
  }
  return Words;
}

} // namespace eel

#endif // EEL_TESTS_WORDSAMPLES_H
