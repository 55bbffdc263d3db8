//===- analysis/Verifier.cpp - Static soundness checker -----------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "analysis/VerifyInternal.h"

#include "core/RegAlloc.h"
#include "core/Routine.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <vector>

using namespace eel;
using namespace eel::verify;

//===----------------------------------------------------------------------===//
// WorklistLiveness
//===----------------------------------------------------------------------===//

WorklistLiveness::WorklistLiveness(const Cfg &G) : Graph(G) {
  const TargetInfo &Target = G.target();
  const TargetConventions &Conv = Target.conventions();
  for (unsigned Reg = 1; Reg < Target.numRegisters(); ++Reg)
    All.insert(Reg);
  if (Target.hasConditionCodes())
    All.insert(RegIdCC);
  ReturnLive = (All - Conv.CallerSaved) | Conv.RetRegs;
  ReturnLive.insert(Conv.StackPointer);
  ReturnLive.insert(Conv.FramePointer);
  ReturnLive.remove(RegIdCC);

  size_t N = G.blocks().size();
  In.assign(N, RegSet());
  Out.assign(N, RegSet());

  // A genuine worklist (FIFO plus membership bits), unlike the production
  // solver's repeated full sweeps: a block is reprocessed only when one of
  // its successors' In sets changed. A vector with a head cursor instead
  // of a deque: one allocation, and total pushes are bounded by the
  // solver's convergence (a few times N in practice).
  std::vector<size_t> Work;
  Work.reserve(2 * N);
  std::vector<bool> Queued(N, true);
  for (size_t I = N; I-- > 0;)
    Work.push_back(I);
  size_t Head = 0;

  while (Head < Work.size()) {
    size_t Index = Work[Head++];
    Queued[Index] = false;
    const BasicBlock *B = G.blocks()[Index];

    RegSet NewOut = outOf(B);
    RegSet NewIn = NewOut;
    if (B->kind() == BlockKind::CallSurrogate) {
      NewIn = transferCall(NewOut);
    } else {
      for (size_t I = B->insts().size(); I-- > 0;) {
        const Instruction *Inst = B->insts()[I].Inst;
        NewIn.remove(Inst->writes());
        NewIn |= Inst->reads();
      }
    }
    if (NewIn == In[Index] && NewOut == Out[Index])
      continue;
    In[Index] = NewIn;
    Out[Index] = NewOut;
    for (const Edge *E : B->pred()) {
      size_t P = E->src()->id();
      if (!Queued[P]) {
        Queued[P] = true;
        Work.push_back(P);
      }
    }
  }
}

RegSet WorklistLiveness::outOf(const BasicBlock *B) const {
  if (B->kind() == BlockKind::Exit)
    return ReturnLive;
  RegSet Live;
  for (const Edge *E : B->succ()) {
    switch (E->kind()) {
    case EdgeKind::ExitReturn:
      Live |= ReturnLive;
      break;
    case EdgeKind::ExitInterJump:
    case EdgeKind::ExitUnresolved:
      Live |= All;
      break;
    default:
      Live |= In[E->dst()->id()];
      break;
    }
  }
  return Live;
}

RegSet WorklistLiveness::transferCall(RegSet LiveOut) const {
  const TargetConventions &Conv = Graph.target().conventions();
  LiveOut.remove(Conv.CallerSaved);
  LiveOut.insert(Conv.ArgRegs);
  LiveOut.insert(Conv.StackPointer);
  return LiveOut;
}

RegSet WorklistLiveness::liveBefore(const BasicBlock *B,
                                    unsigned InstIndex) const {
  RegSet Live = Out[B->id()];
  if (B->kind() == BlockKind::CallSurrogate)
    return transferCall(Live);
  for (size_t I = B->insts().size(); I-- > InstIndex;) {
    const Instruction *Inst = B->insts()[I].Inst;
    Live.remove(Inst->writes());
    Live |= Inst->reads();
  }
  return Live;
}

RegSet WorklistLiveness::liveOnEdge(const Edge *E) const {
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

//===----------------------------------------------------------------------===//
// Exposed audit helpers
//===----------------------------------------------------------------------===//

RegSet eel::auditLiveBefore(Routine &R, const BasicBlock *B,
                            unsigned InstIndex) {
  Cfg *G = R.controlFlowGraph();
  if (!G)
    return RegSet();
  WorklistLiveness Solver(*G);
  return Solver.liveBefore(B, InstIndex);
}

void eel::auditScavengeSite(const TargetInfo &Target,
                            const CodeSnippet &Snippet, const RegSet &LiveUsed,
                            const RegSet &LiveTruth,
                            const std::string &RoutineName, int BlockId,
                            Addr A, DiagnosticReport &Report) {
  // Re-run the allocator's decision procedure exactly as the pipeline does,
  // with the live set the pipeline used, then judge its grants against the
  // independent truth. planScavenge is the same code placeSnippet
  // realizes, minus the emission, so the audit stays cheap enough for the
  // writeEditedExecutable() gate.
  Expected<ScavengePlan> Plan = planScavenge(Target, Snippet, LiveUsed);
  Report.noteChecks();
  if (Plan.hasError()) {
    Report.add(VerifyPass::ScavengeAudit, DiagSeverity::Warning, RoutineName,
               BlockId, A, A != 0,
               "snippet allocation could not be re-planned for the audit: " +
                   Plan.error().describe());
    return;
  }
  RegSet Scavenged = Plan.value().GrantedSet - Plan.value().SpilledSet;
  RegSet LiveScavenged = Scavenged & LiveTruth;
  if (!LiveScavenged.empty()) {
    std::string Names;
    for (unsigned Reg : LiveScavenged) {
      if (!Names.empty())
        Names += ", ";
      Names += Target.regName(Reg);
    }
    Report.add(VerifyPass::ScavengeAudit, DiagSeverity::Error, RoutineName,
               BlockId, A, A != 0,
               "register(s) {" + Names +
                   "} were scavenged without a spill but are live at the "
                   "snippet site");
  }
  if (Snippet.clobbersCC() && Target.hasConditionCodes() &&
      LiveTruth.contains(RegIdCC) && !Plan.value().NeedCCSave)
    Report.add(VerifyPass::ScavengeAudit, DiagSeverity::Error, RoutineName,
               BlockId, A, A != 0,
               "snippet clobbers the condition codes, which are live at the "
               "site, without save/restore");
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

namespace {

void runRoutinePasses(RoutineCheckContext &Ctx, const VerifyOptions &Opts) {
  if (Opts.CheckCfg) {
    EEL_TRACE_SCOPE("verify.cfg_wellformed", "routine", Ctx.R.name());
    checkCfgWellFormed(Ctx);
  }
  if (Opts.CheckDelay) {
    EEL_TRACE_SCOPE("verify.delay_slot", "routine", Ctx.R.name());
    checkDelaySlotsIR(Ctx);
    if (Ctx.Edited)
      checkDelaySlotsImage(Ctx);
  }
  if (Opts.CheckScavenge) {
    EEL_TRACE_SCOPE("verify.scavenge_audit", "routine", Ctx.R.name());
    checkScavenging(Ctx);
  }
  if (Opts.CheckLayout && Ctx.Edited) {
    EEL_TRACE_SCOPE("verify.layout_consistency", "routine", Ctx.R.name());
    checkLayoutConsistency(Ctx);
  }
  if (Opts.CheckTranslation && Ctx.EditedExec) {
    EEL_TRACE_SCOPE("verify.translation_validation", "routine", Ctx.R.name());
    checkTranslation(Ctx);
  }
}

/// Fans the per-routine passes out over \p Threads workers and merges the
/// reports in routine-index order, so the result is identical for every
/// thread count.
DiagnosticReport
runOverRoutines(Executable &Exec, unsigned Threads, const VerifyOptions &Opts,
                const SxfFile *Edited, const FlatAddrMap *AddrMap,
                Executable *EditedExec, Addr TranslatorAddr) {
  const auto &Routines = Exec.routines();
  std::vector<DiagnosticReport> Slots(Routines.size());
  parallelForEach(Threads, Routines.size(), [&](size_t Index) {
    Routine &R = *Routines[Index];
    RoutineCheckContext Ctx(Exec, R);
    Ctx.G = R.isData() ? nullptr : R.controlFlowGraph();
    Ctx.Verbatim = isVerbatimRoutine(Exec, R);
    Ctx.Edited = Edited;
    Ctx.AddrMap = AddrMap;
    Ctx.EditedExec = EditedExec;
    Ctx.TranslatorAddr = TranslatorAddr;
    runRoutinePasses(Ctx, Opts);
    Slots[Index] = std::move(Ctx.Report);
  });
  DiagnosticReport Report;
  for (DiagnosticReport &Slot : Slots)
    Report.append(std::move(Slot));
  return Report;
}

unsigned resolveThreads(const Executable &Exec, const VerifyOptions &Opts) {
  return Opts.Threads ? Opts.Threads : Exec.analysis().effectiveThreads();
}

} // namespace

DiagnosticReport eel::verifyIR(Executable &Exec, const VerifyOptions &Opts) {
  EEL_TRACE_SCOPE("verifyIR");
  DiagnosticReport Report;
  Expected<bool> Analyzed = Exec.readContents();
  Report.noteChecks();
  if (Analyzed.hasError()) {
    Report.add(VerifyPass::ImageLoad, DiagSeverity::Error, "", -1, 0, false,
               "image is not analyzable: " + Analyzed.error().describe());
    return Report;
  }
  Report.append(runOverRoutines(Exec, resolveThreads(Exec, Opts), Opts,
                                nullptr, nullptr, nullptr, 0));
  return Report;
}

DiagnosticReport eel::verifyEdit(Executable &Exec, const SxfFile &Edited,
                                 const VerifyOptions &Opts) {
  EEL_TRACE_SCOPE("verifyEdit");
  DiagnosticReport Report;
  Expected<bool> Analyzed = Exec.readContents();
  Report.noteChecks();
  if (Analyzed.hasError()) {
    Report.add(VerifyPass::ImageLoad, DiagSeverity::Error, "", -1, 0, false,
               "image is not analyzable: " + Analyzed.error().describe());
    return Report;
  }
  const FlatAddrMap &AddrMap = Exec.addrMap();
  if (AddrMap.empty()) {
    Report.add(VerifyPass::ImageLoad, DiagSeverity::Error, "", -1, 0, false,
               "executable has no address map; verifyEdit must run after "
               "writeEditedExecutable()");
    return Report;
  }

  // The image-level entry check (pass 4): the new entry point must be the
  // edited address of the original one.
  Report.noteChecks();
  auto EntryIt = AddrMap.find(Exec.image().Entry);
  if (EntryIt == AddrMap.end())
    Report.add(VerifyPass::LayoutConsistency, DiagSeverity::Error, "", -1,
               Exec.image().Entry, true,
               "original entry point has no edited address");
  else if (Edited.Entry != EntryIt->second)
    Report.add(VerifyPass::LayoutConsistency, DiagSeverity::Error, "", -1,
               Edited.Entry, true,
               "edited entry point does not equal the edited address of the "
               "original entry point");

  // Translation validation needs the emitted image re-disassembled from
  // scratch. readContents() builds every edited CFG at the verifier's
  // width, so the per-routine fan-out below only ever reads cached graphs.
  std::unique_ptr<Executable> EditedExec;
  Addr TranslatorAddr = 0;
  if (Opts.CheckTranslation) {
    Executable::Options ReOpts = Exec.analysis().options();
    ReOpts.Threads = resolveThreads(Exec, Opts);
    ReOpts.Verify = false;
    Expected<std::unique_ptr<Executable>> Reopened =
        Executable::openImage(Edited, ReOpts);
    Report.noteChecks();
    if (Reopened.hasError()) {
      Report.add(VerifyPass::ImageLoad, DiagSeverity::Error, "", -1, 0, false,
                 "edited image does not reload: " +
                     Reopened.error().describe());
    } else {
      EditedExec = Reopened.takeValue();
      Expected<bool> ReAnalyzed = EditedExec->readContents();
      if (ReAnalyzed.hasError()) {
        Report.add(VerifyPass::ImageLoad, DiagSeverity::Error, "", -1, 0,
                   false,
                   "edited image is not analyzable: " +
                       ReAnalyzed.error().describe());
        EditedExec.reset();
      } else if (const SxfSymbol *Sym = Edited.findSymbol("__eel_translate")) {
        TranslatorAddr = Sym->Value;
      }
    }
  }

  Report.append(runOverRoutines(Exec, resolveThreads(Exec, Opts), Opts,
                                &Edited, &AddrMap, EditedExec.get(),
                                TranslatorAddr));
  return Report;
}

DiagnosticReport eel::lintImage(const SxfFile &Image,
                                const VerifyOptions &Opts) {
  EEL_TRACE_SCOPE("lintImage");
  DiagnosticReport Report;
  Executable::Options OpenOpts;
  OpenOpts.Threads = Opts.Threads ? Opts.Threads : 1;
  Expected<std::unique_ptr<Executable>> Opened =
      Executable::openImage(Image, OpenOpts);
  Report.noteChecks();
  if (Opened.hasError()) {
    Report.add(VerifyPass::ImageLoad, DiagSeverity::Error, "", -1, 0, false,
               "image does not load: " + Opened.error().describe());
    return Report;
  }
  std::unique_ptr<Executable> Exec = Opened.takeValue();
  // Content-level checks need the producing executable's intent (address
  // map, edits); standalone lint runs the structural IR passes only.
  VerifyOptions LintOpts = Opts;
  LintOpts.CheckScavenge = false;
  LintOpts.CheckLayout = false;
  LintOpts.CheckTranslation = false;
  Report.append(verifyIR(*Exec, LintOpts));
  return Report;
}
