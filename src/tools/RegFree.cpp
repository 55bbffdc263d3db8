//===- tools/RegFree.cpp - Whole-program register liberation -------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "tools/RegFree.h"

using namespace eel;

RegFreeResult eel::freeRegisterEverywhere(Executable &Exec, unsigned Reg) {
  RegFreeResult Result;
  Exec.readContents();
  const TargetInfo &Target = Exec.target();
  const TargetConventions &Conv = Target.conventions();
  if (Reg == 0 || Conv.Reserved.contains(Reg) || Reg == Conv.LinkReg) {
    Result.FailedRoutines.push_back("<register is reserved or the link>");
    return Result;
  }

  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    if (G->unsupported()) {
      // Verbatim routines cannot be rewritten; they must not use Reg.
      bool Uses = false;
      for (Addr A = R->startAddr(); A + 4 <= R->endAddr(); A += 4) {
        const Instruction *I = Exec.analysis().instAt(A);
        if (!I)
          break;
        if (I->reads().contains(Reg) || I->writes().contains(Reg))
          Uses = true;
      }
      if (Uses)
        Result.FailedRoutines.push_back(R->name());
      continue;
    }

    // Registers this routine touches anywhere (including uneditable
    // positions) — the substitute must be entirely untouched.
    RegSet Touched;
    bool UneditableUse = false;
    for (const auto &Block : G->blocks()) {
      for (const CfgInst &CI : Block->insts()) {
        Touched |= CI.Inst->reads();
        Touched |= CI.Inst->writes();
        if (!Block->editable() && (CI.Inst->reads().contains(Reg) ||
                                   CI.Inst->writes().contains(Reg)))
          UneditableUse = true;
      }
    }
    if (UneditableUse) {
      Result.FailedRoutines.push_back(R->name());
      continue;
    }
    if (!Touched.contains(Reg))
      continue; // nothing to do here

    // Pick a substitute of the same save class that the routine never
    // touches (so no liveness reasoning is needed).
    unsigned Substitute = 0;
    bool WantCallerSaved = Conv.CallerSaved.contains(Reg);
    for (unsigned Candidate = 1; Candidate < Target.numRegisters();
         ++Candidate) {
      if (Touched.contains(Candidate) || Conv.Reserved.contains(Candidate) ||
          Candidate == Conv.LinkReg)
        continue;
      if (Conv.CallerSaved.contains(Candidate) != WantCallerSaved)
        continue;
      Substitute = Candidate;
      break;
    }
    if (!Substitute) {
      Result.FailedRoutines.push_back(R->name());
      continue;
    }

    RegisterMap Map;
    for (unsigned R2 = 0; R2 < Map.size(); ++R2)
      Map[R2] = static_cast<uint8_t>(R2 == Reg ? Substitute : R2);
    // Collect every replacement first; apply only if the whole routine can
    // be rewritten (edits cannot be rolled back once accumulated).
    struct Planned {
      BasicBlock *Block;
      unsigned Index;
      MachWord NewWord;
    };
    std::vector<Planned> Plan;
    bool Failed = false;
    for (const auto &Block : G->blocks()) {
      if (!Block->editable())
        continue;
      for (unsigned I = 0; I < Block->size(); ++I) {
        const Instruction *Inst = Block->insts()[I].Inst;
        if (!Inst->reads().contains(Reg) && !Inst->writes().contains(Reg))
          continue;
        switch (Inst->kind()) {
        case InstKind::Branch:
        case InstKind::Jump:
          break; // direct transfers: register fields rename cleanly
        case InstKind::IndirectJump:
        case InstKind::IndirectCall:
        case InstKind::Return:
        case InstKind::Call:
          // Transfers whose addressing or linkage involves Reg cannot be
          // renamed by replaceInst; the routine fails liberation.
          Failed = true;
          break;
        default:
          break;
        }
        if (Failed)
          break;
        std::optional<MachWord> New =
            rewriteRegisters(Inst->decoded(), Inst->word(), Map);
        if (!New) {
          Failed = true;
          break;
        }
        Plan.push_back({Block, I, *New});
      }
      if (Failed)
        break;
    }
    if (Failed) {
      Result.FailedRoutines.push_back(R->name());
      continue;
    }
    for (const Planned &P : Plan)
      Exec.replaceInst(P.Block, P.Index, P.NewWord);
    if (!Plan.empty()) {
      ++Result.RoutinesRewritten;
      Result.InstructionsRewritten += static_cast<unsigned>(Plan.size());
    }
  }
  Result.Success = Result.FailedRoutines.empty();
  return Result;
}
