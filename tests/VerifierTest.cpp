//===- tests/VerifierTest.cpp - Static verifier tests -----------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static verifier (analysis/Verifier.h) tested in both directions:
///
///  * positive — random workload edits verify cleanly, at 1 and at 8
///    threads with byte-identical reports, and standalone lint accepts
///    every generated image;
///  * negative — for each of the five passes, a hand-injected defect
///    (edge into the middle of a block, flipped annul bit, live-register
///    scavenge, off-by-4 dispatch-table entry, corrupted branch
///    displacement) must be pinpointed by exactly that pass at Error
///    severity. A verifier is only as good as the bugs it provably sees.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "analysis/VerifyInternal.h"
#include "core/Executable.h"
#include "core/Liveness.h"
#include "core/RegAlloc.h"
#include "isa/SriscEncoding.h"
#include "tools/Qpt.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace eel {

/// Befriended by BasicBlock, Edge, and Cfg: the negative tests corrupt
/// otherwise-unreachable invariants through this one access point.
struct VerifierTestAccess {
  /// Re-aims \p E at \p NewDst, keeping succ/pred symmetry intact so only
  /// the semantic target is wrong (the "edge into mid-block" defect).
  static void retarget(Edge *E, BasicBlock *NewDst) {
    E->Dst->removePred(E);
    E->Dst = NewDst;
    NewDst->addPred(E, E->Parent->IR);
  }

  /// Re-aims \p E without fixing the predecessor lists (the asymmetric-
  /// graph defect).
  static void retargetAsymmetric(Edge *E, BasicBlock *NewDst) {
    E->Dst = NewDst;
  }

  /// Relabels \p E (the "tail jump read as a return" defect).
  static void setKind(Edge *E, EdgeKind K) { E->Kind = K; }
};

} // namespace eel

using namespace eel;

namespace {

SxfFile makeWorkload(uint64_t Seed, unsigned Routines,
                     unsigned SwitchPercent = 35) {
  WorkloadOptions Options;
  Options.Seed = Seed;
  Options.Routines = Routines;
  Options.SwitchPercent = SwitchPercent;
  return generateWorkload(TargetArch::Srisc, Options);
}

/// Generates, instruments with the qpt profiler, and writes the edited
/// executable; the pair feeds verifyEdit.
struct EditedWorkload {
  std::unique_ptr<Executable> Exec;
  SxfFile Edited;
};

EditedWorkload makeEditedWorkload(uint64_t Seed, bool Instrument = true,
                                  unsigned SwitchPercent = 35) {
  EditedWorkload W;
  Executable::Options Opts;
  Opts.Threads = 1;
  W.Exec = std::make_unique<Executable>(
      makeWorkload(Seed, 10, SwitchPercent), Opts);
  if (Instrument) {
    Qpt2Profiler Profiler(*W.Exec);
    Profiler.instrument();
  } else {
    EXPECT_TRUE(W.Exec->readContents().hasValue());
  }
  Expected<SxfFile> Edited = W.Exec->writeEditedExecutable();
  EXPECT_TRUE(Edited.hasValue())
      << (Edited.hasError() ? Edited.error().describe() : "");
  W.Edited = Edited.takeValue();
  return W;
}

/// True when translation validation would not skip this routine: every
/// reachable head must have an unambiguous mapped position.
bool validatableRoutine(const Cfg &G) {
  std::set<Addr> DelayWords;
  for (const auto &BP : G.blocks())
    if (BP->kind() == BlockKind::DelaySlot)
      for (const CfgInst &CI : BP->insts())
        DelayWords.insert(CI.OrigAddr);
  for (const auto &BP : G.blocks())
    if (BP->kind() == BlockKind::Normal && !BP->empty() &&
        DelayWords.count(BP->anchor()))
      return false;
  return true;
}

std::set<const BasicBlock *> reachableBlocks(const Cfg &G) {
  std::set<const BasicBlock *> Seen;
  std::vector<const BasicBlock *> Queue(G.entryBlocks().begin(),
                                        G.entryBlocks().end());
  while (!Queue.empty()) {
    const BasicBlock *B = Queue.back();
    Queue.pop_back();
    if (!Seen.insert(B).second)
      continue;
    for (const Edge *E : B->succ())
      Queue.push_back(E->dst());
  }
  return Seen;
}

//===----------------------------------------------------------------------===//
// Positive direction
//===----------------------------------------------------------------------===//

// The property test from the acceptance criteria: random workload edits
// verify cleanly, and the report is byte-identical at 1 and 8 threads.
TEST(Verifier, RandomEditsVerifyCleanlyAndDeterministically) {
  for (uint64_t Seed : {11u, 2026u, 77u}) {
    EditedWorkload W = makeEditedWorkload(Seed);
    VerifyOptions One;
    One.Threads = 1;
    DiagnosticReport AtOne = verifyEdit(*W.Exec, W.Edited, One);
    VerifyOptions Eight;
    Eight.Threads = 8;
    DiagnosticReport AtEight = verifyEdit(*W.Exec, W.Edited, Eight);

    EXPECT_EQ(AtOne.errorCount(), 0u)
        << "seed " << Seed << ":\n" << AtOne.renderText();
    EXPECT_GT(AtOne.checksRun(), 100u) << "vacuous verification";
    EXPECT_EQ(AtOne.renderText(), AtEight.renderText())
        << "seed " << Seed << ": thread count changed the report";
    EXPECT_EQ(AtOne.checksRun(), AtEight.checksRun());
  }
}

// Standalone lint accepts every generated image on both architectures.
TEST(Verifier, LintAcceptsGeneratedImages) {
  for (TargetArch Arch : AllTargetArches) {
    WorkloadOptions Options;
    Options.Seed = 5;
    Options.Routines = 8;
    DiagnosticReport Report = lintImage(generateWorkload(Arch, Options));
    EXPECT_FALSE(Report.hasErrors()) << Report.renderText();
    EXPECT_GT(Report.checksRun(), 0u);
  }
}

// The verifier's independent worklist solver must agree with the
// production liveness analysis on unedited code — the baseline that makes
// pass 3 a genuine cross-check rather than a reimplementation echo.
TEST(Verifier, WorklistLivenessAgreesWithProduction) {
  Executable::Options Opts;
  Opts.Threads = 1;
  Executable Exec(makeWorkload(21, 8), Opts);
  ASSERT_TRUE(Exec.readContents().hasValue());
  unsigned Compared = 0;
  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    if (!G || G->unsupported())
      continue;
    Liveness *Prod = R->liveness();
    for (const auto &BP : G->blocks()) {
      if (BP->kind() != BlockKind::Normal || BP->empty())
        continue;
      EXPECT_EQ(Prod->liveBefore(BP, 0),
                auditLiveBefore(*R, BP, 0))
          << "routine " << R->name() << " block " << BP->id();
      if (++Compared >= 64)
        return;
    }
  }
  EXPECT_GT(Compared, 0u);
}

//===----------------------------------------------------------------------===//
// Pass 1: cfg-wellformed
//===----------------------------------------------------------------------===//

// Re-aim a branch's final edge at a block whose head is not the branch
// target: control would enter the middle of a block's address range.
TEST(Verifier, Pass1FlagsEdgeIntoMidBlock) {
  Executable::Options EOpts;
  EOpts.Threads = 1;
  Executable Exec(makeWorkload(3, 8), EOpts);
  ASSERT_TRUE(Exec.readContents().hasValue());

  bool Corrupted = false;
  for (const auto &R : Exec.routines()) {
    if (R->isData() || Corrupted)
      continue;
    Cfg *G = R->controlFlowGraph();
    if (!G || G->unsupported())
      continue;
    for (const auto &BP : G->blocks()) {
      BasicBlock *B = BP;
      const Instruction *Term = B->terminator();
      if (B->kind() != BlockKind::Normal || !Term ||
          Term->kind() != InstKind::Branch)
        continue;
      std::optional<Addr> T =
          Term->directTarget(B->insts().back().OrigAddr);
      if (!T || !R->contains(*T))
        continue;
      // The taken path: B -> (delay) -> target head.
      Edge *Final = nullptr;
      for (Edge *E : B->succ())
        if (E->kind() == EdgeKind::Taken)
          Final = E;
      if (Final && Final->dst()->kind() == BlockKind::DelaySlot)
        for (Edge *E : Final->dst()->succ())
          Final = E;
      if (!Final || Final->dst()->kind() != BlockKind::Normal)
        continue;
      // Any other normal block makes the landing site wrong.
      for (const auto &OP : G->blocks()) {
        if (OP->kind() == BlockKind::Normal && !OP->empty() &&
            OP->anchor() != Final->dst()->anchor()) {
          VerifierTestAccess::retarget(Final, OP);
          Corrupted = true;
          break;
        }
      }
      if (Corrupted)
        break;
    }
  }
  ASSERT_TRUE(Corrupted) << "no corruptible branch found";

  VerifyOptions Opts;
  Opts.CheckDelay = Opts.CheckScavenge = false;
  Opts.Threads = 1;
  DiagnosticReport Report = verifyIR(Exec, Opts);
  EXPECT_TRUE(Report.has(VerifyPass::CfgWellFormed, DiagSeverity::Error))
      << Report.renderText();
}

// A tail jump out of the routine must reach Exit as an ExitInterJump:
// liveness reads the edge kind, and an ordinary jump edge into Exit gets
// the return-live set, which leaves argument registers looking dead.
TEST(Verifier, Pass1FlagsNonExitEdgeIntoExit) {
  WorkloadOptions Options;
  Options.Seed = 303;
  Options.Routines = 12;
  Options.TailCallPercent = 35;
  SxfFile File = generateWorkload(TargetArch::Mrisc, Options);
  File.strip();
  Executable::Options EOpts;
  EOpts.Threads = 1;
  Executable Exec(std::move(File), EOpts);
  ASSERT_TRUE(Exec.readContents().hasValue());

  VerifyOptions Opts;
  Opts.CheckDelay = Opts.CheckScavenge = false;
  Opts.Threads = 1;
  DiagnosticReport Clean = verifyIR(Exec, Opts);
  EXPECT_FALSE(Clean.hasErrors()) << Clean.renderText();

  Edge *TailJump = nullptr;
  for (const auto &R : Exec.routines()) {
    Cfg *G = R->controlFlowGraph();
    if (!G || G->unsupported())
      continue;
    for (Edge *E : G->exitBlock()->pred())
      if (E->kind() == EdgeKind::ExitInterJump && !TailJump)
        TailJump = E;
  }
  ASSERT_NE(TailJump, nullptr) << "no tail jump leaves a routine";
  VerifierTestAccess::setKind(TailJump, EdgeKind::UncondJump);
  DiagnosticReport Report = verifyIR(Exec, Opts);
  EXPECT_TRUE(Report.has(VerifyPass::CfgWellFormed, DiagSeverity::Error))
      << Report.renderText();
}

// Break succ/pred symmetry: forward and backward walks must disagree.
TEST(Verifier, Pass1FlagsAsymmetricEdge) {
  Executable::Options EOpts;
  EOpts.Threads = 1;
  Executable Exec(makeWorkload(3, 8), EOpts);
  ASSERT_TRUE(Exec.readContents().hasValue());

  bool Corrupted = false;
  for (const auto &R : Exec.routines()) {
    if (R->isData() || Corrupted)
      continue;
    Cfg *G = R->controlFlowGraph();
    if (!G || G->unsupported() || G->edges().empty())
      continue;
    for (const auto &EP : G->edges()) {
      Edge *E = EP;
      for (const auto &OP : G->blocks()) {
        if (OP != E->dst() && OP->kind() == BlockKind::Normal) {
          VerifierTestAccess::retargetAsymmetric(E, OP);
          Corrupted = true;
          break;
        }
      }
      if (Corrupted)
        break;
    }
  }
  ASSERT_TRUE(Corrupted);

  VerifyOptions Opts;
  Opts.CheckDelay = Opts.CheckScavenge = false;
  Opts.Threads = 1;
  DiagnosticReport Report = verifyIR(Exec, Opts);
  EXPECT_TRUE(Report.has(VerifyPass::CfgWellFormed, DiagSeverity::Error))
      << Report.renderText();
}

//===----------------------------------------------------------------------===//
// Pass 2: delay-slot
//===----------------------------------------------------------------------===//

// Flip the annul bit of a re-laid-out conditional branch in the emitted
// image: the delay instruction would execute under different conditions
// than in the original program.
TEST(Verifier, Pass2FlagsWrongAnnulBit) {
  EditedWorkload W = makeEditedWorkload(9, /*Instrument=*/false);
  const FlatAddrMap &Map = W.Exec->addrMap();

  bool Corrupted = false;
  for (const auto &R : W.Exec->routines()) {
    if (R->isData() || Corrupted)
      continue;
    Cfg *G = R->controlFlowGraph();
    if (!G || G->unsupported() || verify::isVerbatimRoutine(*W.Exec, *R))
      continue;
    for (const auto &BP : G->blocks()) {
      const Instruction *Term = BP->terminator();
      if (BP->kind() != BlockKind::Normal || !Term ||
          Term->kind() != InstKind::Branch || !Term->isConditional())
        continue;
      Addr A = BP->insts().back().OrigAddr;
      auto MappedA = Map.find(A);
      if (MappedA == Map.end())
        continue;
      std::optional<MachWord> Word = W.Edited.readWord(MappedA->second);
      ASSERT_TRUE(Word.has_value());
      ASSERT_TRUE(W.Edited.writeWord(MappedA->second, *Word ^ (1u << 29)));
      Corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(Corrupted) << "no conditional branch found to corrupt";

  VerifyOptions Opts;
  Opts.Threads = 1;
  DiagnosticReport Report = verifyEdit(*W.Exec, W.Edited, Opts);
  EXPECT_TRUE(Report.has(VerifyPass::DelaySlot, DiagSeverity::Error))
      << Report.renderText();
}

//===----------------------------------------------------------------------===//
// Pass 3: scavenge-audit
//===----------------------------------------------------------------------===//

SnippetPtr makeScratchSnippet(const TargetInfo &T) {
  std::vector<MachWord> Body;
  const unsigned RegA = 1;
  T.emitAddImm(RegA, RegA, 1, Body);
  return std::make_shared<CodeSnippet>(Body, RegSet{RegA});
}

// An understated live set lets the allocator scavenge a live register
// without a spill; the audit's independent truth must catch it.
TEST(Verifier, Pass3FlagsLiveRegisterScavenge) {
  const TargetInfo &T = sriscTarget();
  SnippetPtr Snippet = makeScratchSnippet(T);
  RegSet Understated; // the pipeline (wrongly) claims everything is dead
  RegSet Truth;
  for (unsigned Reg = 1; Reg < T.numRegisters(); ++Reg)
    Truth.insert(Reg);

  DiagnosticReport Report;
  auditScavengeSite(T, *Snippet, Understated, Truth, "f", 0, 0x1000, Report);
  EXPECT_TRUE(Report.has(VerifyPass::ScavengeAudit, DiagSeverity::Error))
      << Report.renderText();

  // Control: with a truthful live set the same site is clean.
  DiagnosticReport Clean;
  auditScavengeSite(T, *Snippet, Understated, Understated, "f", 0, 0x1000,
                    Clean);
  EXPECT_FALSE(Clean.hasErrors()) << Clean.renderText();
  EXPECT_GT(Clean.checksRun(), 0u);
}

// Clobbered-but-live condition codes without save/restore are an error.
TEST(Verifier, Pass3FlagsUnsavedConditionCodes) {
  const TargetInfo &T = sriscTarget();
  SnippetPtr Snippet = makeScratchSnippet(T);
  Snippet->setClobbersCC(true);
  RegSet Understated;
  RegSet Truth{RegIdCC};

  DiagnosticReport Report;
  auditScavengeSite(T, *Snippet, Understated, Truth, "f", 0, 0x1000, Report);
  EXPECT_TRUE(Report.has(VerifyPass::ScavengeAudit, DiagSeverity::Error))
      << Report.renderText();
}

// The RegAlloc negative path: a snippet that forbids spilling gets the
// structured NoDeadRegisters error when every register is live, instead of
// a silent spill.
TEST(Verifier, RequireDeadRegsFailsWithNoDeadRegisters) {
  const TargetInfo &T = sriscTarget();
  SnippetPtr Snippet = makeScratchSnippet(T);
  Snippet->setRequireDeadRegs(true);
  RegSet AllLive;
  for (unsigned Reg = 1; Reg < T.numRegisters(); ++Reg)
    AllLive.insert(Reg);

  Expected<SnippetInstance> Inst = instantiateSnippet(T, *Snippet, AllLive);
  ASSERT_TRUE(Inst.hasError());
  EXPECT_EQ(Inst.error().code(), ErrorCode::NoDeadRegisters);

  // Without the opt-in the same site spills and records what it spilled.
  Snippet->setRequireDeadRegs(false);
  Expected<SnippetInstance> Spilling =
      instantiateSnippet(T, *Snippet, AllLive);
  ASSERT_TRUE(Spilling.hasValue());
  EXPECT_GT(Spilling.value().SpillCount, 0u);
  EXPECT_EQ(Spilling.value().Granted - Spilling.value().Spilled, RegSet());
}

//===----------------------------------------------------------------------===//
// Pass 4: layout-consistency
//===----------------------------------------------------------------------===//

// Shift every dispatch-table entry by 4: control would enter each case one
// instruction late.
TEST(Verifier, Pass4FlagsOffByFourDispatchEntry) {
  EditedWorkload W =
      makeEditedWorkload(13, /*Instrument=*/false, /*SwitchPercent=*/100);

  unsigned Shifted = 0;
  for (const auto &R : W.Exec->routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    if (!G || G->unsupported())
      continue;
    for (const IndirectSite &Site : G->indirectSites()) {
      if (Site.Resolution.K != IndirectResolution::Kind::DispatchTable)
        continue;
      const SxfSegment *Seg = W.Exec->image().segmentContaining(
          Site.Resolution.TableAddr);
      if (!Seg || Seg->Kind == SegKind::Text)
        continue;
      for (size_t I = 0; I < Site.Resolution.Targets.size(); ++I) {
        Addr EntryAddr =
            Site.Resolution.TableAddr + 4 * static_cast<Addr>(I);
        std::optional<MachWord> Entry = W.Edited.readWord(EntryAddr);
        if (!Entry)
          continue;
        ASSERT_TRUE(W.Edited.writeWord(EntryAddr, *Entry + 4));
        ++Shifted;
      }
    }
  }
  ASSERT_GT(Shifted, 0u) << "workload produced no rewritable dispatch table";

  VerifyOptions Opts;
  Opts.Threads = 1;
  Opts.CheckTranslation = false; // isolate the layout pass
  DiagnosticReport Report = verifyEdit(*W.Exec, W.Edited, Opts);
  EXPECT_TRUE(Report.has(VerifyPass::LayoutConsistency, DiagSeverity::Error))
      << Report.renderText();
}

//===----------------------------------------------------------------------===//
// Pass 5: translation-validation
//===----------------------------------------------------------------------===//

// Bump a relocated branch's displacement by one instruction: the emitted
// image delivers control somewhere the edited CFG never intended.
TEST(Verifier, Pass5FlagsCorruptedBranchDisplacement) {
  EditedWorkload W = makeEditedWorkload(17, /*Instrument=*/false);
  const FlatAddrMap &Map = W.Exec->addrMap();

  bool Corrupted = false;
  for (const auto &R : W.Exec->routines()) {
    if (R->isData() || Corrupted)
      continue;
    Cfg *G = R->controlFlowGraph();
    if (!G || G->unsupported() ||
        verify::isVerbatimRoutine(*W.Exec, *R) || !validatableRoutine(*G))
      continue;
    std::set<const BasicBlock *> Reachable = reachableBlocks(*G);
    for (const auto &BP : G->blocks()) {
      const Instruction *Term = BP->terminator();
      if (BP->kind() != BlockKind::Normal || !Term ||
          Term->kind() != InstKind::Branch || !Reachable.count(BP))
        continue;
      Addr A = BP->insts().back().OrigAddr;
      std::optional<Addr> T = Term->directTarget(A);
      if (!T || !R->contains(*T) || !Map.count(A) || !Map.count(*T))
        continue;
      Addr MappedA = Map.at(A);
      std::optional<MachWord> Word = W.Edited.readWord(MappedA);
      ASSERT_TRUE(Word.has_value());
      MachWord Bad = (*Word & ~0x3FFFFFu) |
                     (static_cast<uint32_t>(srisc::fieldDisp22(*Word) + 1) &
                      0x3FFFFFu);
      ASSERT_TRUE(W.Edited.writeWord(MappedA, Bad));
      Corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(Corrupted) << "no suitable branch found";

  VerifyOptions Opts;
  Opts.Threads = 1;
  DiagnosticReport Report = verifyEdit(*W.Exec, W.Edited, Opts);
  EXPECT_TRUE(
      Report.has(VerifyPass::TranslationValidation, DiagSeverity::Error))
      << Report.renderText();
}

//===----------------------------------------------------------------------===//
// The Options::Verify gate
//===----------------------------------------------------------------------===//

// The opt-in gate runs inside writeEditedExecutable and passes clean edits
// through unchanged.
TEST(Verifier, WriteGatePassesCleanEdit) {
  Executable::Options Opts;
  Opts.Threads = 1;
  Opts.Verify = true;
  Executable Exec(makeWorkload(29, 8), Opts);
  Qpt2Profiler Profiler(Exec);
  Profiler.instrument();
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  EXPECT_TRUE(Edited.hasValue())
      << (Edited.hasError() ? Edited.error().describe() : "");
}

// verifyEdit before writeEditedExecutable is a diagnosable misuse, not UB.
TEST(Verifier, VerifyEditWithoutWriteReportsImageLoadError) {
  Executable::Options Opts;
  Opts.Threads = 1;
  Executable Exec(makeWorkload(29, 4), Opts);
  ASSERT_TRUE(Exec.readContents().hasValue());
  SxfFile NotWritten = Exec.image();
  DiagnosticReport Report = verifyEdit(Exec, NotWritten);
  EXPECT_TRUE(Report.has(VerifyPass::ImageLoad, DiagSeverity::Error));
}

} // namespace
