//===- tools/Tracer.cpp - Memory-reference tracing ------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "tools/Tracer.h"

using namespace eel;

static std::vector<uint8_t> wordBytes(uint32_t V) {
  return {static_cast<uint8_t>(V), static_cast<uint8_t>(V >> 8),
          static_cast<uint8_t>(V >> 16), static_cast<uint8_t>(V >> 24)};
}

MemoryTracer::MemoryTracer(Executable &Exec, uint32_t CapacityEntries)
    : Exec(Exec), Capacity(CapacityEntries) {
  Buffer = Exec.appendData(Capacity * 4, 8);
  PtrCell = Exec.appendData(4, 4, wordBytes(Buffer));
  EndCell = Exec.appendData(4, 4, wordBytes(Buffer + Capacity * 4));
}

SnippetPtr MemoryTracer::makeTraceSnippet(const MemOp &M) const {
  const TargetInfo &T = Exec.target();
  RegSet Avoid{M.AddrBase};
  if (M.HasIndex)
    Avoid.insert(M.AddrIndex);
  std::vector<unsigned> P = choosePlaceholderRegs(T, 4, Avoid);
  const unsigned P1 = P[0], P2 = P[1], P3 = P[2], P4 = P[3];
  std::vector<MachWord> Body;

  T.emitLoadConst(P1, PtrCell, Body);
  T.emitLoadWord(P2, P1, 0, Body); // next free slot
  if (M.HasIndex)
    T.emitAddReg(P3, M.AddrBase, M.AddrIndex, Body);
  else
    T.emitAddImm(P3, M.AddrBase, M.Offset, Body);
  T.emitLoadConst(P4, Buffer + Capacity * 4, Body);

  std::vector<MachWord> Record;
  T.emitStoreWord(P3, P2, 0, Record);
  T.emitAddImm(P2, P2, 4, Record);
  T.emitStoreWord(P2, P1, 0, Record);

  // Saturate: when the buffer is full, skip recording.
  bool ClobbersCC = T.emitSkipIfEqual(
      P2, P4, static_cast<unsigned>(Record.size()), Body);
  Body.insert(Body.end(), Record.begin(), Record.end());

  auto Snip = std::make_shared<CodeSnippet>(std::move(Body),
                                            RegSet{P1, P2, P3, P4});
  Snip->setClobbersCC(ClobbersCC);
  return Snip;
}

void MemoryTracer::instrument(bool Loads, bool Stores) {
  Exec.readContents();
  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    if (G->unsupported())
      continue;
    for (const auto &Block : G->blocks()) {
      if (!Block->editable())
        continue;
      for (unsigned I = 0; I < Block->size(); ++I) {
        const Instruction *Inst = Block->insts()[I].Inst;
        if (!Inst->isMemoryReference())
          continue;
        const MemOp &M = Inst->memOp();
        if ((M.IsLoad && !Loads) || (M.IsStore && !Stores))
          continue;
        Exec.addCodeBefore(Block, I, makeTraceSnippet(M));
        ++Sites;
      }
    }
  }
}

std::vector<Addr> MemoryTracer::readTrace(const VmMemory &Memory) const {
  std::vector<Addr> Trace;
  Addr Ptr = Memory.readWord(PtrCell);
  for (Addr A = Buffer; A < Ptr; A += 4)
    Trace.push_back(Memory.readWord(A));
  return Trace;
}
