//===- tests/InferTest.cpp - eel-infer heuristic disassembly tests ----------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The eel-infer fixpoint (analysis/Infer.h) verified end-to-end: stripped
/// workloads go down the inference path of readContents() and must produce
/// (a) bit-identical boundaries and resolutions across thread counts and
/// consecutive runs, (b) recovered resolutions for the cell tail-call and
/// mangled-dispatch idioms that defeat plain slicing, (c) no poisoning
/// from data interleaved into text, and (d) edited executables whose
/// observable behaviour is identical to the original.
///
//===----------------------------------------------------------------------===//

#include "analysis/Infer.h"
#include "core/Executable.h"
#include "core/Slice.h"
#include "vm/Machine.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace eel;

namespace {

WorkloadOptions adversarial(uint64_t Seed, TargetArch Arch) {
  WorkloadOptions W;
  W.Seed = Seed;
  W.Routines = 12;
  W.SwitchPercent = 60;
  W.TailCallPercent = 40;
  W.MangledTablePercent = 50;
  W.InterleavedDataPercent = 40;
  W.AnnulledBranches = Arch == TargetArch::Srisc;
  return W;
}

SxfFile strippedCopy(const SxfFile &File) {
  SxfFile Out(File);
  Out.Symbols.clear();
  return Out;
}

/// Everything inference decides, as one comparable string: routine names,
/// extents, confidence, and every indirect site's resolution.
std::string layoutFingerprint(Executable &Exec) {
  std::string FP;
  for (const auto &R : Exec.routines()) {
    FP += R->name() + ":" + std::to_string(R->startAddr()) + "-" +
          std::to_string(R->endAddr()) + (R->isData() ? ":data" : "") +
          ":c" +
          std::to_string(Exec.analysis().inferredConfidence(R->startAddr())) +
          "\n";
    if (R->isData())
      continue;
    for (const IndirectSite &Site : R->controlFlowGraph()->indirectSites()) {
      FP += " @" + std::to_string(Site.JumpAddr) + " k" +
            std::to_string(static_cast<int>(Site.Resolution.K)) +
            (Site.Resolution.Inferred ? " inf" : "");
      for (Addr T : Site.Resolution.Targets) {
        FP += ' ';
        FP += std::to_string(T);
      }
      FP += "\n";
    }
  }
  return FP;
}

std::set<Addr> routineStarts(const SxfFile &File) {
  Executable Exec((SxfFile(File)));
  Exec.readContents();
  std::set<Addr> Starts;
  for (const auto &R : Exec.routines())
    if (!R->isData())
      Starts.insert(R->startAddr());
  return Starts;
}

} // namespace

// --- Determinism -----------------------------------------------------------

TEST(InferDeterminism, ThreadsAndConsecutiveRuns) {
  for (TargetArch Arch : AllTargetArches) {
    SxfFile File = strippedCopy(generateWorkload(Arch, adversarial(1003, Arch)));
    auto Run = [&File](unsigned Threads) {
      Executable::Options O;
      O.Threads = Threads;
      Executable Exec(SxfFile(File), O);
      Exec.readContents();
      EXPECT_TRUE(Exec.analysis().inferenceUsed());
      return layoutFingerprint(Exec);
    };
    std::string Serial = Run(1);
    std::string Parallel = Run(8);
    std::string Again = Run(8);
    EXPECT_FALSE(Serial.empty());
    EXPECT_EQ(Serial, Parallel);
    EXPECT_EQ(Parallel, Again);
  }
}

// --- Recovery of slicing-defeating idioms ----------------------------------

TEST(InferRecovery, StrippedCellTailCalls) {
  WorkloadOptions W;
  W.Seed = 1001;
  W.Routines = 24;
  W.SwitchPercent = 0;
  W.TailCallPercent = 100;
  SxfFile File = generateWorkload(TargetArch::Srisc, W);
  std::set<Addr> Starts = routineStarts(File);

  Executable Exec(strippedCopy(File));
  Exec.readContents();
  ASSERT_TRUE(Exec.analysis().inferenceUsed());
  unsigned Jumps = 0, Recovered = 0;
  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    for (const IndirectSite &Site : R->controlFlowGraph()->indirectSites()) {
      if (Site.IsCall)
        continue;
      ++Jumps;
      if (Site.Resolution.K == IndirectResolution::Kind::Literal &&
          Site.Resolution.Inferred) {
        ++Recovered;
        ASSERT_EQ(Site.Resolution.Targets.size(), 1u);
        // The recovered target must be a real routine start (per the
        // symboled analysis of the same image).
        EXPECT_TRUE(Starts.count(Site.Resolution.Targets[0]))
            << "bogus inferred target " << Site.Resolution.Targets[0];
      }
    }
  }
  EXPECT_GT(Jumps, 0u);
  EXPECT_EQ(Recovered, Jumps) << "some cell tail calls stayed unanalyzable";
}

TEST(InferRecovery, MangledDispatchTables) {
  for (TargetArch Arch : AllTargetArches) {
    WorkloadOptions W;
    W.Seed = 7;
    W.Routines = 10;
    W.SwitchPercent = 100;
    W.MangledTablePercent = 100;
    W.AnnulledBranches = Arch == TargetArch::Srisc;
    SxfFile File = generateWorkload(Arch, W);

    // With symbols, plain backward slicing sees only an opaque load of the
    // table base: the sites stay unanalyzable.
    unsigned SymboledAnalyzed = 0, SymboledJumps = 0;
    {
      Executable Exec((SxfFile(File)));
      Exec.readContents();
      for (const auto &R : Exec.routines()) {
        if (R->isData())
          continue;
        for (const IndirectSite &Site :
             R->controlFlowGraph()->indirectSites()) {
          if (Site.IsCall)
            continue;
          ++SymboledJumps;
          if (Site.Resolution.K == IndirectResolution::Kind::DispatchTable)
            ++SymboledAnalyzed;
        }
      }
    }
    EXPECT_GT(SymboledJumps, 0u);
    EXPECT_EQ(SymboledAnalyzed, 0u)
        << "mangled tables should defeat plain slicing";

    // Stripped, the fixpoint's constant-cell oracle folds the base load
    // and the table idiom resolves.
    Executable Exec(strippedCopy(File));
    Exec.readContents();
    unsigned Jumps = 0, Recovered = 0;
    for (const auto &R : Exec.routines()) {
      if (R->isData())
        continue;
      for (const IndirectSite &Site :
           R->controlFlowGraph()->indirectSites()) {
        if (Site.IsCall)
          continue;
        ++Jumps;
        if (Site.Resolution.K == IndirectResolution::Kind::DispatchTable &&
            Site.Resolution.Inferred) {
          ++Recovered;
          EXPECT_GE(Site.Resolution.Targets.size(), 4u);
        }
      }
    }
    EXPECT_EQ(Jumps, SymboledJumps);
    EXPECT_EQ(Recovered, Jumps)
        << "mangled dispatch tables not recovered on arch "
        << static_cast<int>(Arch);
  }
}

// --- Data-in-text exclusion ------------------------------------------------

TEST(InferExclusion, InterleavedDataDoesNotPoisonCellFacts) {
  for (TargetArch Arch : AllTargetArches) {
    WorkloadOptions W;
    W.Seed = 11;
    W.Routines = 16;
    W.SwitchPercent = 0;
    W.TailCallPercent = 100;
    W.InterleavedDataPercent = 100;
    W.AnnulledBranches = Arch == TargetArch::Srisc;
    Executable Exec(strippedCopy(generateWorkload(Arch, W)));
    Exec.readContents();
    unsigned Jumps = 0, Recovered = 0;
    for (const auto &R : Exec.routines()) {
      if (R->isData())
        continue;
      for (const IndirectSite &Site :
           R->controlFlowGraph()->indirectSites()) {
        if (Site.IsCall)
          continue;
        ++Jumps;
        if (Site.Resolution.K == IndirectResolution::Kind::Literal &&
            Site.Resolution.Inferred)
          ++Recovered;
      }
    }
    EXPECT_GT(Jumps, 0u);
    EXPECT_EQ(Recovered, Jumps)
        << "junk decodings of interleaved data poisoned cell constancy";
  }
}

// --- Boundary sanity -------------------------------------------------------

TEST(InferBoundaries, InferredStartsAreRealStarts) {
  WorkloadOptions W;
  W.Seed = 5;
  W.Routines = 6; // all called directly from main: every start referenced
  W.SwitchPercent = 50;
  W.TailCallPercent = 40;
  SxfFile File = generateWorkload(TargetArch::Srisc, W);
  std::set<Addr> SymStarts = routineStarts(File);

  Executable Exec(strippedCopy(File));
  Exec.readContents();
  std::set<Addr> InfStarts;
  for (const auto &R : Exec.routines())
    if (!R->isData())
      InfStarts.insert(R->startAddr());
  EXPECT_EQ(InfStarts, SymStarts);
}

TEST(InferBoundaries, ResultInvariants) {
  SxfFile File =
      generateWorkload(TargetArch::Srisc, adversarial(9, TargetArch::Srisc));
  Analysis An(strippedCopy(File), Analysis::Options());
  InferResult Result = inferLayout(An);
  ASSERT_FALSE(Result.Routines.empty());
  EXPECT_GE(Result.Stats.Rounds, 1u);
  EXPECT_LE(Result.Stats.Rounds, 8u);
  for (size_t I = 0; I < Result.Routines.size(); ++I) {
    const InferredRoutine &R = Result.Routines[I];
    EXPECT_LT(R.Lo, R.Hi);
    EXPECT_FALSE(R.Name.empty());
    if (I) {
      EXPECT_EQ(Result.Routines[I - 1].Hi, R.Lo) << "extents must tile text";
    }
  }
  // Running it twice yields identical facts.
  InferResult Again = inferLayout(An);
  ASSERT_EQ(Again.Routines.size(), Result.Routines.size());
  for (size_t I = 0; I < Result.Routines.size(); ++I) {
    EXPECT_EQ(Again.Routines[I].Lo, Result.Routines[I].Lo);
    EXPECT_EQ(Again.Routines[I].Hi, Result.Routines[I].Hi);
    EXPECT_EQ(Again.Routines[I].Name, Result.Routines[I].Name);
    EXPECT_EQ(static_cast<int>(Again.Routines[I].Confidence),
              static_cast<int>(Result.Routines[I].Confidence));
  }
  EXPECT_EQ(Again.ConstantCells, Result.ConstantCells);
}

// --- Options ---------------------------------------------------------------

TEST(InferOptions, NoSymbolsForcesInference) {
  WorkloadOptions W;
  W.Seed = 3;
  W.Routines = 6;
  SxfFile File = generateWorkload(TargetArch::Srisc, W);
  {
    Executable Exec((SxfFile(File)));
    Exec.readContents();
    EXPECT_FALSE(Exec.analysis().inferenceUsed());
  }
  Executable::Options O;
  O.NoSymbols = true;
  Executable Exec(SxfFile(File), O);
  Exec.readContents();
  EXPECT_TRUE(Exec.analysis().inferenceUsed());
  bool SawInferredName = false;
  for (const auto &R : Exec.routines())
    if (R->name() == "entry" || R->name().rfind("proc_", 0) == 0)
      SawInferredName = true;
  EXPECT_TRUE(SawInferredName);
}

// --- Behavioural identity of edited stripped binaries ----------------------

TEST(InferVm, EditedStrippedAdversarialIdentity) {
  for (TargetArch Arch : AllTargetArches) {
    for (uint64_t Seed : {42u, 43u, 44u}) {
      SxfFile File =
          strippedCopy(generateWorkload(Arch, adversarial(Seed, Arch)));
      Executable::Options O;
      O.Verify = true;
      Executable Exec(SxfFile(File), O);
      Exec.readContents();
      ASSERT_TRUE(Exec.analysis().inferenceUsed());
      RunResult Original = runToCompletion(File);
      Expected<SxfFile> Edited = Exec.writeEditedExecutable();
      ASSERT_FALSE(Edited.hasError())
          << "writeEditedExecutable: " << Edited.error().message();
      RunResult After = runToCompletion(Edited.value());
      EXPECT_EQ(static_cast<int>(Original.Reason),
                static_cast<int>(After.Reason));
      EXPECT_EQ(Original.ExitCode, After.ExitCode);
      EXPECT_EQ(Original.Output, After.Output);
      EXPECT_EQ(static_cast<int>(Original.Reason),
                static_cast<int>(StopReason::Exited));
    }
  }
}
