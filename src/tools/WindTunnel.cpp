//===- tools/WindTunnel.cpp - Virtual cycle counting ----------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "tools/WindTunnel.h"

#include <cassert>

using namespace eel;

CycleCounter::CycleCounter(Executable &Exec, uint32_t Quantum)
    : Exec(Exec), Quantum(Quantum) {
  assert(Quantum <= 4095 && "quantum must fit an ALU immediate");
  // Three consecutive cells: [cycles, next-quantum, expirations]; the
  // first quantum expires at `Quantum` cycles.
  std::vector<uint8_t> Init(12, 0);
  Init[4] = static_cast<uint8_t>(Quantum);
  Init[5] = static_cast<uint8_t>(Quantum >> 8);
  CycleCell = Exec.appendData(12, 8, std::move(Init));
  NextQuantumCell = CycleCell + 4;
  ExpirationsCell = CycleCell + 8;
}

SnippetPtr CycleCounter::makeAddSnippet(uint32_t Weight,
                                        bool WithQuantumCheck) const {
  const TargetInfo &T = Exec.target();
  const unsigned P1 = 1, P2 = 2, P3 = 3, P4 = 4;
  std::vector<MachWord> Body;
  T.emitLoadConst(P1, CycleCell, Body);
  T.emitLoadWord(P2, P1, 0, Body);
  T.emitAddImm(P2, P2, static_cast<int32_t>(Weight), Body);
  T.emitStoreWord(P2, P1, 0, Body);
  bool ClobbersCC = false;
  if (WithQuantumCheck) {
    T.emitLoadWord(P3, P1, 4, Body); // next-quantum boundary
    std::vector<MachWord> Expire;
    T.emitLoadWord(P4, P1, 8, Expire);
    T.emitAddImm(P4, P4, 1, Expire);
    T.emitStoreWord(P4, P1, 8, Expire);
    T.emitAddImm(P3, P3, static_cast<int32_t>(Quantum), Expire);
    T.emitStoreWord(P3, P1, 4, Expire);
    ClobbersCC = T.emitSkipIfLess(
        P2, P3, P4, static_cast<unsigned>(Expire.size()), Body);
    Body.insert(Body.end(), Expire.begin(), Expire.end());
  }
  auto Snip = std::make_shared<CodeSnippet>(
      std::move(Body),
      WithQuantumCheck ? RegSet{P1, P2, P3, P4} : RegSet{P1, P2});
  Snip->setClobbersCC(ClobbersCC);
  return Snip;
}

void CycleCounter::instrument() {
  Exec.readContents();
  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    if (G->unsupported())
      continue;
    for (const auto &Block : G->blocks()) {
      if (Block->kind() != BlockKind::Normal || !Block->editable())
        continue;
      uint32_t TailExtra = 0;
      const Instruction *Term = Block->terminator();
      if (Term) {
        switch (Term->delayBehavior()) {
        case DelayBehavior::Always:
          ++TailExtra; // the delay-slot instruction executes on every path
          break;
        case DelayBehavior::AnnulUntaken:
          // Executes only when taken: charge the taken edge instead.
          for (Edge *E : Block->succ()) {
            if (E->kind() != EdgeKind::Taken || !E->editable())
              continue;
            Exec.addCodeAlong(E,
                              makeAddSnippet(1, /*WithQuantumCheck=*/false));
            ++EdgeIncrements;
          }
          break;
        default:
          break; // AnnulAlways / no delay slot: nothing extra
        }
      }
      // A system call may terminate the program mid-block (exit), so the
      // weight after each one is charged only once it returns — keeping
      // the virtual cycle count exact to the instruction.
      unsigned SegmentStart = 0;
      unsigned LastSyscall = 0;
      bool FirstSegment = true;
      auto Charge = [&](unsigned Begin, unsigned End, bool Tail) {
        uint32_t Weight = End - Begin + (Tail ? TailExtra : 0);
        if (!Weight)
          return;
        if (FirstSegment) {
          Exec.addCodeBefore(Block, 0,
                             makeAddSnippet(Weight, Quantum != 0));
          FirstSegment = false;
        } else {
          Exec.addCodeAfter(Block, LastSyscall,
                            makeAddSnippet(Weight, Quantum != 0));
        }
      };
      for (unsigned I = 0; I < Block->size(); ++I) {
        if (Block->insts()[I].Inst->kind() != InstKind::SystemCall)
          continue;
        Charge(SegmentStart, I + 1, /*Tail=*/false);
        SegmentStart = I + 1;
        LastSyscall = I;
      }
      Charge(SegmentStart, Block->size(), /*Tail=*/true);
    }
  }
}

uint64_t CycleCounter::cycles(const VmMemory &Memory) const {
  return Memory.readWord(CycleCell);
}

uint64_t CycleCounter::quantumExpirations(const VmMemory &Memory) const {
  return Memory.readWord(ExpirationsCell);
}
