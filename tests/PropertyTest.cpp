//===- tests/PropertyTest.cpp - Parameterized property sweeps ----------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized (TEST_P) property suites sweeping (architecture × seed ×
/// workload style) over the invariants that make executable editing sound:
///
///  * P1 identity: re-laying out a program preserves behaviour exactly;
///  * P2 instrumentation transparency: a fully profiled program behaves
///    identically and its counters sum consistently;
///  * P3 dual-interpreter agreement: handwritten VM and description-driven
///    (spawn RTL) interpreter agree on whole programs;
///  * P4 scavenging soundness: registers the allocator hands to snippets
///    are genuinely dead (verified behaviourally by clobbering them);
///  * P5 ablation safety: disabling slicing or fold-back never changes
///    behaviour, only cost;
///  * P6 analysis totality: every generated routine's analyses run and
///    agree on basic invariants (edge symmetry, dominator reflexivity,
///    liveness at block boundaries).
///
//===----------------------------------------------------------------------===//

#include "core/Dominators.h"
#include "core/Executable.h"
#include "core/Liveness.h"
#include "spawn/Eval.h"
#include "tools/Qpt.h"
#include "vm/Machine.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace eel;

namespace {

/// gtest names each case by printing the parameter's bytes, so the struct
/// has no padding: the zeroed filler fields keep every byte defined and
/// the ctest names identical from run to run and build to build.
struct SweepParam {
  SweepParam(TargetArch Arch, uint64_t Seed, unsigned TailCallPercent,
             bool Pathologies, bool Stripped = false)
      : Arch(Arch), Seed(Seed), TailCallPercent(TailCallPercent),
        Pathologies(Pathologies), Stripped(Stripped) {}

  TargetArch Arch;
  uint8_t Fill0[7] = {};
  uint64_t Seed;
  unsigned TailCallPercent;
  bool Pathologies;
  bool Stripped; ///< Symbols removed: routines come from eel-infer.
  uint8_t Fill1[2] = {};
};
static_assert(std::has_unique_object_representations_v<SweepParam>,
              "SweepParam must have no padding bytes");

std::string paramName(const testing::TestParamInfo<SweepParam> &Info) {
  const SweepParam &P = Info.param;
  std::string Name = P.Arch == TargetArch::Srisc   ? "srisc"
                     : P.Arch == TargetArch::Mrisc ? "mrisc"
                                                   : "arisc";
  Name += "_seed" + std::to_string(P.Seed);
  if (P.TailCallPercent)
    Name += "_tail";
  if (P.Pathologies)
    Name += "_path";
  if (P.Stripped)
    Name += "_stripped";
  return Name;
}

std::vector<SweepParam> sweepParams() {
  std::vector<SweepParam> Params;
  for (TargetArch Arch : AllTargetArches) {
    for (uint64_t Seed : {101u, 102u, 103u, 104u, 105u, 106u}) {
      Params.push_back({Arch, Seed, 0, false});
      Params.push_back({Arch, Seed, 40, false});
    }
  }
  // Symbol pathologies only make sense on SRISC (text-embedded data decodes
  // as valid words on MRISC).
  for (uint64_t Seed : {201u, 202u, 203u})
    Params.push_back({TargetArch::Srisc, Seed, 20, true});
  // Stripped sunpro-style images: eel-infer resolves their tail calls, so
  // tail jumps leave the routine as ExitInterJump edges after which every
  // register is live (qpt2 once scavenged argument registers there).
  for (TargetArch Arch : AllTargetArches)
    for (uint64_t Seed : {301u, 302u, 303u, 304u})
      Params.push_back({Arch, Seed, 35, false, /*Stripped=*/true});
  return Params;
}

SxfFile makeProgram(const SweepParam &P) {
  WorkloadOptions Opts;
  Opts.Seed = P.Seed;
  Opts.Routines = 12;
  Opts.SwitchPercent = 35;
  Opts.TailCallPercent = P.TailCallPercent;
  Opts.SymbolPathologies = P.Pathologies;
  SxfFile File = generateWorkload(P.Arch, Opts);
  if (P.Stripped)
    File.strip();
  return File;
}

class EditingSweep : public testing::TestWithParam<SweepParam> {};

} // namespace

// --- P1: identity --------------------------------------------------------------

TEST_P(EditingSweep, IdentityRewrite) {
  SxfFile File = makeProgram(GetParam());
  RunResult Original = runToCompletion(File);
  ASSERT_EQ(Original.Reason, StopReason::Exited);
  Executable Exec(std::move(File));
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  RunResult After = runToCompletion(Edited.value());
  EXPECT_EQ(After.Output, Original.Output);
  EXPECT_EQ(After.ExitCode, Original.ExitCode);
}

// --- P2: instrumentation transparency -----------------------------------------------

TEST_P(EditingSweep, ProfiledProgramTransparent) {
  SxfFile File = makeProgram(GetParam());
  RunResult Original = runToCompletion(File);
  Executable Exec(std::move(File));
  Qpt2Profiler Profiler(Exec);
  Profiler.instrument();
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  Machine M(Edited.value());
  RunResult After = M.run();
  EXPECT_EQ(After.Output, Original.Output);
  EXPECT_EQ(After.ExitCode, Original.ExitCode);

  // Consistency: for every instrumented branch, taken + not-taken edge
  // counts must equal the branch block's execution count.
  std::vector<uint64_t> Counts = Profiler.readCounts(M.memory());
  std::map<Addr, uint64_t> BlockCount;
  std::map<Addr, uint64_t> EdgeSum;
  std::map<Addr, bool> HasBothEdges;
  for (size_t I = 0; I < Counts.size(); ++I) {
    const Qpt2Profiler::CounterInfo &Info = Profiler.counters()[I];
    if (Info.K == Qpt2Profiler::CounterInfo::Kind::Block)
      BlockCount[Info.BlockAnchor] = Counts[I];
    else if (Info.Edge == EdgeKind::Taken || Info.Edge == EdgeKind::NotTaken) {
      EdgeSum[Info.BlockAnchor] += Counts[I];
      HasBothEdges[Info.BlockAnchor] = true;
    }
  }
  unsigned Checked = 0;
  for (const auto &[Anchor, Sum] : EdgeSum) {
    if (!HasBothEdges[Anchor] || !BlockCount.count(Anchor))
      continue;
    EXPECT_EQ(Sum, BlockCount[Anchor])
        << "edge counts do not sum to block count @0x" << std::hex << Anchor;
    ++Checked;
  }
  EXPECT_GT(Checked, 0u);
}

// --- P3: dual-interpreter agreement ---------------------------------------------------

TEST_P(EditingSweep, SpawnInterpreterAgrees) {
  SxfFile File = makeProgram(GetParam());
  RunResult Hand = runToCompletion(File);
  RunResult Spawn = spawn::runWithDescription(
      targetFor(GetParam().Arch).desc(), File);
  EXPECT_EQ(static_cast<int>(Hand.Reason), static_cast<int>(Spawn.Reason));
  EXPECT_EQ(Hand.ExitCode, Spawn.ExitCode);
  EXPECT_EQ(Hand.Output, Spawn.Output);
  EXPECT_EQ(Hand.Instructions, Spawn.Instructions);
}

// --- P5: ablation safety ---------------------------------------------------------------

TEST_P(EditingSweep, AblationsPreserveBehavior) {
  SxfFile File = makeProgram(GetParam());
  RunResult Original = runToCompletion(File);
  for (int Which = 0; Which < 2; ++Which) {
    Executable::Options Opts;
    if (Which == 0)
      Opts.DisableSlicing = true;
    else
      Opts.DisableDelayFolding = true;
    Executable Exec(SxfFile(File), Opts);
    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    ASSERT_TRUE(Edited.hasValue())
        << "ablation " << Which << ": " << Edited.error().message();
    RunResult After = runToCompletion(Edited.value());
    EXPECT_EQ(After.Output, Original.Output) << "ablation " << Which;
    EXPECT_EQ(After.ExitCode, Original.ExitCode) << "ablation " << Which;
  }
}

// --- P6: analysis totality and invariants -------------------------------------------------

TEST_P(EditingSweep, AnalysisInvariants) {
  SxfFile File = makeProgram(GetParam());
  Executable Exec(std::move(File));
  Exec.readContents();
  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    // Edge symmetry: every successor edge appears in its destination's
    // predecessor list.
    for (const auto &B : G->blocks()) {
      for (const Edge *E : B->succ()) {
        EXPECT_EQ(E->src(), B);
        bool Found = false;
        for (const Edge *P : E->dst()->pred())
          if (P == E)
            Found = true;
        EXPECT_TRUE(Found);
      }
    }
    if (G->unsupported())
      continue;
    Dominators Doms(*G);
    Liveness Live(*G);
    for (const auto &B : G->blocks()) {
      if (Doms.reachable(B)) {
        EXPECT_TRUE(Doms.dominates(B, B));
      }
      // Liveness boundary agreement: liveBefore(0) == liveIn for blocks
      // with instructions.
      if (!B->empty() && B->kind() != BlockKind::CallSurrogate) {
        EXPECT_EQ(Live.liveBefore(B, 0), Live.liveIn(B));
      }
      // Entry blocks of the routine never consider reserved scratch
      // (hard zero) live.
      EXPECT_FALSE(Live.liveIn(B).contains(0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EditingSweep,
                         testing::ValuesIn(sweepParams()), paramName);

// --- P4: scavenging soundness (its own fixture; SRISC) ---------------------------------

namespace {

class ScavengeSweep : public testing::TestWithParam<uint64_t> {};

/// A snippet that CLOBBERS its scavenged registers with a poison value and
/// never restores them. If the registers EEL hands out are genuinely dead,
/// the program still behaves identically.
SnippetPtr makePoisonSnippet(const TargetInfo &T) {
  std::vector<MachWord> Body;
  T.emitLoadConst(1, 0xDEAD0001u, Body);
  T.emitLoadConst(2, 0xDEAD0002u, Body);
  T.emitLoadConst(3, 0xDEAD0003u, Body);
  return std::make_shared<CodeSnippet>(std::move(Body), RegSet{1, 2, 3});
}

} // namespace

TEST_P(ScavengeSweep, ScavengedRegistersAreDead) {
  WorkloadOptions Opts;
  Opts.Seed = GetParam();
  Opts.Routines = 10;
  SxfFile File = generateWorkload(TargetArch::Srisc, Opts);
  RunResult Original = runToCompletion(File);
  Executable Exec(std::move(File));
  Exec.readContents();
  for (const auto &R : Exec.routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    if (G->unsupported())
      continue;
    for (const auto &B : G->blocks()) {
      if (B->kind() != BlockKind::Normal || !B->editable())
        continue;
      Exec.addCodeBefore(B, 0, makePoisonSnippet(Exec.target()));
    }
  }
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  RunResult After = runToCompletion(Edited.value());
  EXPECT_EQ(After.Output, Original.Output);
  EXPECT_EQ(After.ExitCode, Original.ExitCode);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScavengeSweep,
                         testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

//===----------------------------------------------------------------------===//
// P7 — writer/reader inverse: for randomized *valid* images (random segment
// layouts, symbol tables, and relocation sets), serialize() ∘ deserialize()
// is the identity, deserialize() accepts, and validate() agrees. This is
// the positive half of the loader contract; the fault-injection harness
// (tests/FuzzTest.cpp) checks the negative half.
//===----------------------------------------------------------------------===//

#include "support/Rng.h"

namespace {

SxfFile randomValidImage(uint64_t Seed) {
  Rng G(Seed);
  SxfFile File;
  File.Arch = G.chance(50) ? TargetArch::Srisc : TargetArch::Mrisc;

  Addr Next = 0x1000 + static_cast<Addr>(G.below(256)) * 16;
  unsigned NumSegs = 1 + static_cast<unsigned>(G.below(4));
  for (unsigned I = 0; I < NumSegs; ++I) {
    SxfSegment Seg;
    Seg.Kind = I == 0 ? SegKind::Text
                      : static_cast<SegKind>(G.below(3));
    Seg.VAddr = Next;
    if (Seg.Kind == SegKind::Bss) {
      Seg.MemSize = 4 + static_cast<uint32_t>(G.below(64)) * 4;
    } else {
      unsigned Words = 1 + static_cast<unsigned>(G.below(64));
      for (unsigned W = 0; W < Words * 4; ++W)
        Seg.Bytes.push_back(static_cast<uint8_t>(G.below(256)));
      Seg.MemSize = static_cast<uint32_t>(Seg.Bytes.size()) +
                    static_cast<uint32_t>(G.below(8)) * 4;
    }
    Next = Seg.VAddr + Seg.MemSize + 4 + static_cast<Addr>(G.below(64)) * 4;
    File.Segments.push_back(std::move(Seg));
  }

  const SxfSegment &Text = File.Segments[0];
  File.Entry =
      Text.VAddr + 4 * static_cast<Addr>(G.below(Text.Bytes.size() / 4));

  unsigned NumSyms = static_cast<unsigned>(G.below(12));
  for (unsigned I = 0; I < NumSyms; ++I) {
    SxfSymbol Sym;
    unsigned Len = static_cast<unsigned>(G.below(12));
    for (unsigned C = 0; C < Len; ++C)
      Sym.Name.push_back(static_cast<char>('a' + G.below(26)));
    const SxfSegment &Seg = File.Segments[G.below(File.Segments.size())];
    Sym.Value = Seg.VAddr + static_cast<Addr>(G.below(Seg.MemSize + 1));
    Sym.Size = static_cast<uint32_t>(G.below(16)) * 4;
    Sym.Kind = static_cast<SymKind>(G.below(5));
    Sym.Binding = static_cast<SymBinding>(G.below(2));
    File.Symbols.push_back(std::move(Sym));
  }

  unsigned NumRelocs = static_cast<unsigned>(G.below(8));
  for (unsigned I = 0; I < NumRelocs; ++I) {
    SxfReloc Reloc;
    // Site: a patchable word in a file-backed segment.
    const SxfSegment *Seg = nullptr;
    for (unsigned Tries = 0; Tries < 8 && !Seg; ++Tries) {
      const SxfSegment &Cand =
          File.Segments[G.below(File.Segments.size())];
      if (Cand.Bytes.size() >= 4)
        Seg = &Cand;
    }
    if (!Seg)
      Seg = &File.Segments[0];
    Reloc.Site =
        Seg->VAddr + 4 * static_cast<Addr>(G.below(Seg->Bytes.size() / 4));
    const SxfSegment &TargetSeg =
        File.Segments[G.below(File.Segments.size())];
    Reloc.Target =
        TargetSeg.VAddr + static_cast<Addr>(G.below(TargetSeg.MemSize + 1));
    Reloc.Kind = static_cast<RelocKind>(G.below(4));
    File.Relocs.push_back(Reloc);
  }
  return File;
}

} // namespace

TEST(RoundTripProperty, WriterReaderInverseOnRandomImages) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    SxfFile File = randomValidImage(Seed);
    ASSERT_TRUE(File.validate().hasValue())
        << "seed " << Seed << ": " << File.validate().error().describe();
    std::vector<uint8_t> Bytes = File.serialize();
    Expected<SxfFile> Back = SxfFile::deserialize(Bytes);
    ASSERT_TRUE(Back.hasValue())
        << "seed " << Seed << ": " << Back.error().describe();
    EXPECT_EQ(Back.value().serialize(), Bytes) << "seed " << Seed;
    const SxfFile &B = Back.value();
    EXPECT_EQ(B.Arch, File.Arch);
    EXPECT_EQ(B.Entry, File.Entry);
    ASSERT_EQ(B.Segments.size(), File.Segments.size());
    for (size_t I = 0; I < B.Segments.size(); ++I) {
      EXPECT_EQ(B.Segments[I].Kind, File.Segments[I].Kind);
      EXPECT_EQ(B.Segments[I].VAddr, File.Segments[I].VAddr);
      EXPECT_EQ(B.Segments[I].MemSize, File.Segments[I].MemSize);
      EXPECT_EQ(B.Segments[I].Bytes, File.Segments[I].Bytes);
    }
    ASSERT_EQ(B.Symbols.size(), File.Symbols.size());
    for (size_t I = 0; I < B.Symbols.size(); ++I) {
      EXPECT_EQ(B.Symbols[I].Name, File.Symbols[I].Name);
      EXPECT_EQ(B.Symbols[I].Value, File.Symbols[I].Value);
      EXPECT_EQ(B.Symbols[I].Kind, File.Symbols[I].Kind);
      EXPECT_EQ(B.Symbols[I].Binding, File.Symbols[I].Binding);
    }
    ASSERT_EQ(B.Relocs.size(), File.Relocs.size());
  }
}
