//===- tools/Sandbox.cpp - Software fault isolation ----------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "tools/Sandbox.h"

#include "asmkit/TargetAsm.h"

using namespace eel;

Sandboxer::Sandboxer(Executable &Exec, Addr DataRegionBase,
                     Addr StackRegionBase, unsigned RegionBits)
    : Exec(Exec), DataHi(DataRegionBase >> RegionBits),
      StackHi(StackRegionBase >> RegionBits), RegionBits(RegionBits) {
  const char *Asm = nullptr;
  switch (Exec.target().arch()) {
  case TargetArch::Srisc:
    Asm = ".text\n__sfi_violation:\n  mov 91, %o0\n  sys 0\n";
    break;
  case TargetArch::Mrisc:
    Asm = ".text\n__sfi_violation:\n  li $a0, 91\n  li $v0, 0\n  syscall\n";
    break;
  case TargetArch::Arisc:
    Asm = ".text\n__sfi_violation:\n  li $a0, 91\n  sys 0\n";
    break;
  }
  ViolationRoutine = Exec.addRoutineAsm("__sfi_violation", Asm);
}

SnippetPtr Sandboxer::makeStoreGuard(const MemOp &M) const {
  const TargetInfo &T = Exec.target();
  RegSet Avoid{M.AddrBase};
  if (M.HasIndex)
    Avoid.insert(M.AddrIndex);
  std::vector<unsigned> P = choosePlaceholderRegs(T, 3, Avoid);
  const unsigned P1 = P[0], P2 = P[1], P3 = P[2];
  std::vector<MachWord> Body;

  // Region number of the effective address -> p1.
  if (M.HasIndex)
    T.emitAddReg(P1, M.AddrBase, M.AddrIndex, Body);
  else
    T.emitAddImm(P1, M.AddrBase, M.Offset, Body);
  T.emitAluImm(DataOpKind::Srl, P1, P1, static_cast<int32_t>(RegionBits),
               Body);

  // Violation tail: load the violation routine's address (a fixed-length
  // two-word materialization patched by the callback) and jump.
  std::vector<MachWord> Violation;
  T.emitLoadConst(P3, 0x7FFFF123u, Violation); // forces the long form
  assert(Violation.size() == 2 && "expected a hi/lo pair");
  T.emitIndirectJump(P3, Violation);

  // Stack-region check: equal -> skip the violation.
  std::vector<MachWord> StackCheck;
  T.emitLoadConst(P2, StackHi, StackCheck);
  bool Clobbers2 = T.emitSkipIfEqual(
      P1, P2, static_cast<unsigned>(Violation.size()), StackCheck);

  // Data-region check: equal -> skip stack check and violation.
  std::vector<MachWord> DataCheck;
  T.emitLoadConst(P2, DataHi, DataCheck);
  bool Clobbers1 = T.emitSkipIfEqual(
      P1, P2,
      static_cast<unsigned>(StackCheck.size() + Violation.size()),
      DataCheck);

  unsigned ViolationStart =
      static_cast<unsigned>(Body.size() + DataCheck.size() +
                            StackCheck.size());
  Body.insert(Body.end(), DataCheck.begin(), DataCheck.end());
  Body.insert(Body.end(), StackCheck.begin(), StackCheck.end());
  Body.insert(Body.end(), Violation.begin(), Violation.end());

  auto Snip = std::make_shared<CodeSnippet>(std::move(Body),
                                            RegSet{P1, P2, P3});
  Snip->setClobbersCC(Clobbers1 || Clobbers2);

  // Patch the violation routine's real address once everything is placed.
  Executable *ExecPtr = &Exec;
  unsigned RoutineId = ViolationRoutine;
  Snip->setCallback([ExecPtr, RoutineId, ViolationStart](
                        SnippetInstance &Inst) {
    Addr Target = ExecPtr->editedAddrOfAdded(RoutineId);
    const asmkit::InstParser &Parser =
        asmkit::instParserFor(ExecPtr->target().arch());
    unsigned HiIndex = Inst.BodyBegin + ViolationStart;
    Inst.Words[HiIndex] = Parser.applyImmHi(Inst.Words[HiIndex], Target);
    Inst.Words[HiIndex + 1] =
        Parser.applyImmLo(Inst.Words[HiIndex + 1], Target);
  });
  return Snip;
}

void Sandboxer::instrument() {
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
        if (!Inst->isMemoryReference() || !Inst->memOp().IsStore)
          continue;
        Exec.addCodeBefore(Block, I, makeStoreGuard(Inst->memOp()));
        ++Sites;
      }
    }
  }
}
