//===- core/Liveness.cpp - Live-register analysis -----------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Liveness.h"

#include "support/Trace.h"

using namespace eel;

Liveness::Liveness(const Cfg &G) : Graph(G) {
  EEL_TRACE_SCOPE("liveness", "blocks", uint64_t(G.blocks().size()));
  const TargetInfo &Target = G.target();
  const TargetConventions &Conv = Target.conventions();
  for (unsigned Reg = 1; Reg < Target.numRegisters(); ++Reg)
    All.insert(Reg);
  if (Target.hasConditionCodes())
    All.insert(RegIdCC);
  // At a return: callee-saved registers, return values, and the stack
  // belong to the caller. Condition codes do not survive returns.
  ReturnLive = (All - Conv.CallerSaved) | Conv.RetRegs;
  ReturnLive.insert(Conv.StackPointer);
  ReturnLive.insert(Conv.FramePointer);
  ReturnLive.remove(RegIdCC);
  compute(G);
}

/// Gen/kill transfer for a call-surrogate block.
RegSet Liveness::transferCall(const BasicBlock *B, RegSet LiveOutSet) const {
  const TargetConventions &Conv = Graph.target().conventions();
  (void)B;
  LiveOutSet.remove(Conv.CallerSaved); // clobbered by the callee
  LiveOutSet.insert(Conv.ArgRegs);     // possibly read by the callee
  LiveOutSet.insert(Conv.StackPointer);
  return LiveOutSet;
}

void Liveness::compute(const Cfg &G) {
  size_t N = G.blocks().size();
  In.assign(N, RegSet());
  Out.assign(N, RegSet());

  // The backward scans read each row's masks where its Instruction keeps
  // them: the decode table packs instructions into one vector, and copying
  // the masks into flat arrays first measured slower, not faster.
  std::span<const CfgInst> Rows = G.instRows();

  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Iterate blocks in reverse creation order — close enough to reverse
    // topological order that the fixpoint converges quickly.
    for (size_t Index = N; Index-- > 0;) {
      const BasicBlock *B = G.blocks()[Index];
      RegSet NewOut;
      for (const Edge *E : B->succ()) {
        switch (E->kind()) {
        case EdgeKind::ExitReturn:
          NewOut |= ReturnLive;
          break;
        case EdgeKind::ExitInterJump:
        case EdgeKind::ExitUnresolved:
          // Control leaves for an unknown context: everything may be read.
          NewOut |= All;
          break;
        default:
          NewOut |= In[E->dst()->id()];
          break;
        }
      }
      if (B->kind() == BlockKind::Exit)
        NewOut = ReturnLive;

      RegSet NewIn = NewOut;
      if (B->kind() == BlockKind::CallSurrogate) {
        NewIn = transferCall(B, NewOut);
      } else {
        uint64_t Mask = NewIn.mask();
        const InstrIdx First = B->firstInstr();
        for (InstrIdx I = First + B->size(); I-- > First;)
          Mask = (Mask & ~Rows[I].Inst->writes().mask()) |
                 Rows[I].Inst->reads().mask();
        NewIn = RegSet::fromMask(Mask);
      }
      if (NewIn != In[Index] || NewOut != Out[Index]) {
        In[Index] = NewIn;
        Out[Index] = NewOut;
        Changed = true;
      }
    }
  }
}

RegSet Liveness::liveBefore(const BasicBlock *B, unsigned InstIndex) const {
  assert(InstIndex <= B->insts().size() && "index out of range");
  // The fixpoint already walked the whole block (a call surrogate's
  // transfer included) into its live-in set.
  if (InstIndex == 0)
    return In[B->id()];
  RegSet Live = Out[B->id()];
  if (B->kind() == BlockKind::CallSurrogate)
    return transferCall(B, Live);
  for (size_t I = B->insts().size(); I-- > InstIndex;) {
    const Instruction *Inst = B->insts()[I].Inst;
    Live.remove(Inst->writes());
    Live |= Inst->reads();
  }
  return Live;
}

RegSet Liveness::liveAfter(const BasicBlock *B, unsigned InstIndex) const {
  return liveBefore(B, InstIndex + 1);
}

RegSet Liveness::liveOnEdge(const Edge *E) const {
  switch (E->kind()) {
  case EdgeKind::ExitReturn:
    return ReturnLive;
  case EdgeKind::ExitInterJump:
  case EdgeKind::ExitUnresolved:
    return All;
  default:
    return In[E->dst()->id()];
  }
}
