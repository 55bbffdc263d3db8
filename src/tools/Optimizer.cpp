//===- tools/Optimizer.cpp - Liveness-driven dead-code elimination -------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "tools/Optimizer.h"

#include "core/Liveness.h"

using namespace eel;

unsigned DeadCodeEliminator::run() {
  Exec.readContents();
  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    if (G->unsupported())
      continue;
    Liveness Live(*G);
    for (const auto &Block : G->blocks()) {
      if (Block->kind() != BlockKind::Normal || !Block->editable())
        continue;
      // Backward scan with a running live set so that a chain of dead
      // computations dies in one pass.
      RegSet LiveNow = Live.liveOut(Block);
      // Recompute the block's own backward flow, marking deletions.
      for (size_t I = Block->size(); I-- > 0;) {
        const Instruction *Inst = Block->insts()[I].Inst;
        bool Deletable = Inst->kind() == InstKind::Computation &&
                         !Inst->writes().empty() &&
                         (Inst->writes() & LiveNow).empty();
        if (Deletable) {
          Exec.deleteInst(Block, static_cast<unsigned>(I));
          ++Removed;
          // A deleted instruction contributes neither uses nor defs.
          continue;
        }
        LiveNow.remove(Inst->writes());
        LiveNow |= Inst->reads();
      }
    }
  }
  return Removed;
}
