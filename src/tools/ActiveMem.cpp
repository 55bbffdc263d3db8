//===- tools/ActiveMem.cpp - Active Memory cache simulation --------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "tools/ActiveMem.h"

#include <cassert>

using namespace eel;

static unsigned log2Exact(unsigned V) {
  assert(V && (V & (V - 1)) == 0 && "must be a power of two");
  unsigned L = 0;
  while ((1u << L) != V)
    ++L;
  return L;
}

ActiveMemory::ActiveMemory(Executable &Exec, CacheConfig Config)
    : Exec(Exec), Config(Config) {
  // Tag table initialized to an impossible tag (all ones).
  std::vector<uint8_t> Init(Config.Lines * 4, 0xFF);
  TagsBase = Exec.appendData(Config.Lines * 4, 8, std::move(Init));
  AccessCounter = Exec.appendData(4, 4);
  MissCounter = Exec.appendData(4, 4);
}

SnippetPtr ActiveMemory::makeCacheTestSnippet(const MemOp &M) const {
  const TargetInfo &T = Exec.target();
  // Placeholders: p1 = line/tag, p2 = index/scratch, p3 = table slot
  // address, p4 = loaded tag, p5 = counter scratch. Their numbers must not
  // collide with the registers the site's address computation names.
  RegSet Avoid{M.AddrBase};
  if (M.HasIndex)
    Avoid.insert(M.AddrIndex);
  std::vector<unsigned> P = choosePlaceholderRegs(T, 5, Avoid);
  const unsigned P1 = P[0], P2 = P[1], P3 = P[2], P4 = P[3], P5 = P[4];
  std::vector<MachWord> Body;

  // Effective address -> p1.
  if (M.HasIndex)
    T.emitAddReg(P1, M.AddrBase, M.AddrIndex, Body);
  else
    T.emitAddImm(P1, M.AddrBase, M.Offset, Body);
  // Line number (tag) and set index.
  T.emitAluImm(DataOpKind::Srl, P1, P1,
               static_cast<int32_t>(log2Exact(Config.LineBytes)), Body);
  T.emitAluImm(DataOpKind::And, P2, P1,
               static_cast<int32_t>(Config.Lines - 1), Body);
  T.emitAluImm(DataOpKind::Sll, P2, P2, 2, Body);
  // Slot address = tags + index*4.
  T.emitLoadConst(P3, TagsBase, Body);
  T.emitAddReg(P3, P3, P2, Body);
  T.emitLoadWord(P4, P3, 0, Body);
  // Access counter++ (P4 holds the cached tag and P3 the slot address for
  // the miss path, so counter arithmetic gets its own placeholder).
  T.emitLoadConst(P2, AccessCounter, Body);
  T.emitLoadWord(P5, P2, 0, Body);
  T.emitAddImm(P5, P5, 1, Body);
  T.emitStoreWord(P5, P2, 0, Body);

  // Miss path: executed unless tag matches.
  std::vector<MachWord> MissCode;
  T.emitStoreWord(P1, P3, 0, MissCode); // update the tag
  T.emitLoadConst(P2, MissCounter, MissCode);
  T.emitLoadWord(P5, P2, 0, MissCode);
  T.emitAddImm(P5, P5, 1, MissCode);
  T.emitStoreWord(P5, P2, 0, MissCode);

  bool ClobbersCC = T.emitSkipIfEqual(
      P4, P1, static_cast<unsigned>(MissCode.size()), Body);
  Body.insert(Body.end(), MissCode.begin(), MissCode.end());

  auto Snip = std::make_shared<CodeSnippet>(std::move(Body),
                                            RegSet{P1, P2, P3, P4, P5});
  Snip->setClobbersCC(ClobbersCC);
  return Snip;
}

void ActiveMemory::instrument() {
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
        // A memory reference whose base or index register is one the
        // snippet cannot read transparently does not exist on our targets;
        // instrument unconditionally.
        Exec.addCodeBefore(Block, I, makeCacheTestSnippet(Inst->memOp()));
        ++Sites;
      }
    }
  }
}

uint64_t ActiveMemory::accesses(const VmMemory &Memory) const {
  return Memory.readWord(AccessCounter);
}

uint64_t ActiveMemory::misses(const VmMemory &Memory) const {
  return Memory.readWord(MissCounter);
}
