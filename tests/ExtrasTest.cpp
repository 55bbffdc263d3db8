//===- tests/ExtrasTest.cpp - Codegen, translator, regalloc, callgraph ------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deeper unit coverage for modules exercised mostly indirectly elsewhere:
/// the spawn code generator's output is genuinely compilable C++ (checked
/// by invoking the host compiler), the run-time translator assembles on
/// both targets and preserves registers, the snippet register allocator's
/// contract details (forbidden sets, callback ordering, spill symmetry),
/// and call-graph construction over indirect edges.
///
//===----------------------------------------------------------------------===//

#include "asmkit/Assembler.h"
#include "core/CallGraph.h"
#include "core/Executable.h"
#include "core/Liveness.h"
#include "core/RegAlloc.h"
#include "core/Translate.h"
#include "isa/SriscEncoding.h"
#include "spawn/Codegen.h"
#include "spawn/SpawnTarget.h"
#include "support/FileIO.h"
#include "support/Rng.h"
#include "tools/Qpt.h"
#include "vm/Machine.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace eel;

// --- Spawn-generated C++ is real C++ ---------------------------------------------

namespace {

/// Prelude supplying the runtime helpers the generated code calls, as the
/// real spawn's support library did.
const char *CodegenPrelude = R"(
#include <cstdint>
#include <cstdio>
template <class S> inline void write_reg(S &s, uint32_t r, uint32_t v) {
  if (r) s.R[r % 32] = v;
}
template <class S> inline void do_trap(S &, uint32_t) {}
template <class S> inline uint32_t mem_read8(S &, uint32_t) { return 0; }
template <class S> inline uint32_t mem_read16(S &, uint32_t) { return 0; }
template <class S> inline uint32_t mem_read32(S &, uint32_t) { return 0; }
template <class S> inline uint32_t mem_read8_sx(S &, uint32_t) { return 0; }
template <class S> inline uint32_t mem_read16_sx(S &, uint32_t) { return 0; }
template <class S> inline void mem_write8(S &, uint32_t, uint32_t) {}
template <class S> inline void mem_write16(S &, uint32_t, uint32_t) {}
template <class S> inline void mem_write32(S &, uint32_t, uint32_t) {}
#define DEF_FN(n) \
  inline uint32_t rtl_fn_##n(uint32_t a = 0, uint32_t b = 0) { \
    (void)a; (void)b; return 0; }
DEF_FN(0) DEF_FN(1) DEF_FN(2) DEF_FN(3) DEF_FN(4) DEF_FN(5) DEF_FN(6)
DEF_FN(7) DEF_FN(8) DEF_FN(9) DEF_FN(10) DEF_FN(11) DEF_FN(12) DEF_FN(13)
DEF_FN(14) DEF_FN(15) DEF_FN(16) DEF_FN(17) DEF_FN(18) DEF_FN(19) DEF_FN(20)
DEF_FN(21) DEF_FN(22) DEF_FN(23) DEF_FN(24) DEF_FN(25) DEF_FN(26) DEF_FN(27)
DEF_FN(28) DEF_FN(29) DEF_FN(30) DEF_FN(31) DEF_FN(32) DEF_FN(33) DEF_FN(34)
DEF_FN(35) DEF_FN(36) DEF_FN(37) DEF_FN(38) DEF_FN(39)
)";

bool hostCompilerAvailable() {
  return std::system("c++ --version > /dev/null 2>&1") == 0;
}

} // namespace

TEST(SpawnCodegenCompile, GeneratedSourceCompiles) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler available";
  for (TargetArch Arch : AllTargetArches) {
    std::string Source = CodegenPrelude;
    Source += spawn::generateCppSource(spawn::spawnTargetFor(Arch).desc());
    std::string Path = testing::TempDir() + "/eel_spawn_gen_" +
                       std::to_string(static_cast<int>(Arch)) + ".cpp";
    ASSERT_TRUE(writeFileBytes(Path, std::vector<uint8_t>(Source.begin(),
                                                          Source.end()))
                    .hasValue());
    std::string Cmd =
        "c++ -std=c++17 -fsyntax-only -Wall -Werror=return-type " + Path +
        " 2> " + Path + ".log";
    int Status = std::system(Cmd.c_str());
    EXPECT_EQ(Status, 0) << "generated source failed to compile; see "
                         << Path << ".log";
  }
}

// --- Translator ---------------------------------------------------------------------

TEST(Translator, AssemblesOnBothTargets) {
  for (TargetArch Arch : AllTargetArches) {
    std::string Asm =
        translatorAsm(targetFor(Arch), /*TableAddr=*/0x500000,
                      /*EntryCount=*/17);
    Expected<SxfFile> Assembled =
        assembleProgram(Arch, Asm, AsmOptions{0x40000, 0x7F000000});
    ASSERT_TRUE(Assembled.hasValue()) << Assembled.error().message();
    const SxfSegment *Text = Assembled.value().segment(SegKind::Text);
    EXPECT_GT(Text->Bytes.size(), 20u * 4u);
  }
}

TEST(Translator, SiteRejectsProtocolConflicts) {
  // A delay-slot instruction that uses the protocol registers cannot be
  // relocated into the translation sequence.
  using namespace srisc;
  const TargetInfo &T = sriscTarget();
  // jmpl %o2+0, %g0.
  std::vector<MachWord> Words;
  T.emitIndirectJump(10, Words);
  const Instruction Jump(T, Words[0]);
  ASSERT_TRUE(Jump.isIndirect());
  std::vector<MachWord> Code;
  std::vector<Reloc> Relocs;
  // Delay uses %g1 (protocol register): rejected.
  std::vector<MachWord> Bad;
  T.emitAddImm(1, 1, 4, Bad);
  EXPECT_TRUE(
      emitTranslationSite(T, Jump, Bad[0], Code, Relocs).hasError());
  // A nop delay is fine and produces the hi/lo translator relocations.
  Code.clear();
  Relocs.clear();
  EXPECT_TRUE(emitTranslationSite(T, Jump, T.nopWord(), Code, Relocs)
                  .hasValue());
  unsigned HiLo = 0;
  for (const Reloc &R : Relocs)
    if (R.K == Reloc::Kind::TranslatorHi || R.K == Reloc::Kind::TranslatorLo)
      ++HiLo;
  EXPECT_EQ(HiLo, 2u);
  (void)Jump;
}

// --- Register allocator contract -------------------------------------------------------

TEST(RegAllocUnit, ForbiddenRegistersNeverAssigned) {
  const TargetInfo &T = sriscTarget();
  std::vector<MachWord> Body;
  T.emitLoadConst(1, 0x400000, Body);
  RegSet Forbidden;
  for (unsigned Reg = 1; Reg < 16; ++Reg)
    Forbidden.insert(Reg);
  CodeSnippet Snip(Body, RegSet{1}, Forbidden);
  RegSet Live; // everything dead
  Expected<SnippetInstance> Inst = instantiateSnippet(T, Snip, Live);
  ASSERT_TRUE(Inst.hasValue()) << Inst.error().message();
  EXPECT_GE(Inst.value().RegMap[1], 16u);
}

TEST(RegAllocUnit, SpillsWrapSymmetrically) {
  const TargetInfo &T = sriscTarget();
  std::vector<MachWord> Body;
  T.emitLoadConst(1, 0x400000, Body);
  T.emitLoadWord(2, 1, 0, Body);
  CodeSnippet Snip(Body, RegSet{1, 2});
  // Every candidate register live: both placeholders must spill.
  RegSet Live;
  for (unsigned Reg = 1; Reg < 32; ++Reg)
    Live.insert(Reg);
  Expected<SnippetInstance> Inst = instantiateSnippet(T, Snip, Live);
  ASSERT_TRUE(Inst.hasValue()) << Inst.error().message();
  EXPECT_EQ(Inst.value().SpillCount, 2u);
  // Prologue stores + body + epilogue loads.
  EXPECT_EQ(Inst.value().Words.size(), Body.size() + 4);
  EXPECT_EQ(Inst.value().BodyBegin, 2u);
}

TEST(RegAllocUnit, ImpossibleDemandFails) {
  const TargetInfo &T = sriscTarget();
  std::vector<MachWord> Body;
  T.emitLoadConst(1, 0x400000, Body);
  RegSet Forbidden;
  for (unsigned Reg = 1; Reg < 32; ++Reg)
    Forbidden.insert(Reg);
  CodeSnippet Snip(Body, RegSet{1}, Forbidden);
  EXPECT_TRUE(instantiateSnippet(T, Snip, RegSet()).hasError());
}

TEST(RegAllocUnit, CCSaveOnlyWhenLive) {
  const TargetInfo &T = sriscTarget();
  std::vector<MachWord> Body;
  using namespace srisc;
  Body.push_back(encodeArithImm(Op3AddCC, 1, 1, 1));
  auto Make = [&](bool CCLive) {
    CodeSnippet Snip(Body, RegSet{1});
    Snip.setClobbersCC(true);
    RegSet Live;
    if (CCLive)
      Live.insert(RegIdCC);
    return instantiateSnippet(T, Snip, Live);
  };
  Expected<SnippetInstance> Dead = Make(false);
  ASSERT_TRUE(Dead.hasValue());
  EXPECT_FALSE(Dead.value().SavedCC);
  Expected<SnippetInstance> LiveCC = Make(true);
  ASSERT_TRUE(LiveCC.hasValue());
  EXPECT_TRUE(LiveCC.value().SavedCC);
  EXPECT_EQ(LiveCC.value().Words.size(), Dead.value().Words.size() + 2);
}

namespace {

/// qpt2's counter snippet, a condition-code clobbering snippet and one with
/// three placeholders, for \p T.
std::vector<SnippetPtr> scavengeSubjects(const TargetInfo &T) {
  std::vector<SnippetPtr> Out;
  Out.push_back(makeCounterIncrementSnippet(T, 0x400010));
  std::vector<MachWord> Body;
  T.emitAddImm(1, 1, 7, Body);
  auto Clobber = std::make_shared<CodeSnippet>(Body, RegSet{1});
  Clobber->setClobbersCC(true);
  Out.push_back(Clobber);
  std::vector<unsigned> P = choosePlaceholderRegs(T, 3, RegSet());
  Body.clear();
  T.emitLoadConst(P[0], 0x400020, Body);
  T.emitLoadWord(P[1], P[0], 0, Body);
  T.emitAddReg(P[2], P[1], P[1], Body);
  T.emitStoreWord(P[2], P[0], 0, Body);
  Out.push_back(
      std::make_shared<CodeSnippet>(Body, RegSet{P[0], P[1], P[2]}));
  return Out;
}

/// Checks \p Inst against what the allocator's contract says it must be
/// for \p Snip at a site where \p Live is live, rebuilt independently:
/// grants go dead registers ascending, then spilled ones ascending, to the
/// placeholders (ascending) and then the CC scratch register; the words are
/// the spill stores, the CC save, the renamed body, the CC restore and the
/// reloads in reverse.
void expectContract(const TargetInfo &T, const CodeSnippet &Snip,
                    const RegSet &Live, const SnippetInstance &Inst) {
  EXPECT_EQ(Inst.SavedCC, Snip.clobbersCC() && T.hasConditionCodes() &&
                              Live.contains(RegIdCC));
  EXPECT_EQ((Inst.Granted - Inst.Spilled) & Live, RegSet());
  EXPECT_EQ(Inst.Spilled - Inst.Granted, RegSet());
  EXPECT_EQ(Inst.Spilled - Live, RegSet());
  EXPECT_EQ(Inst.SpillCount, Inst.Spilled.size());
  std::vector<unsigned> Order, Spilled;
  for (unsigned Reg : Inst.Granted - Inst.Spilled)
    Order.push_back(Reg);
  for (unsigned Reg : Inst.Spilled) {
    Order.push_back(Reg);
    Spilled.push_back(Reg);
  }
  size_t Placeholders = Snip.regsToAllocate().size();
  ASSERT_EQ(Order.size(), Placeholders + (Inst.SavedCC ? 1 : 0));

  RegisterMap Map;
  for (unsigned Reg = 0; Reg < 32; ++Reg)
    Map[Reg] = static_cast<uint8_t>(Reg);
  size_t Next = 0;
  for (unsigned Placeholder : Snip.regsToAllocate())
    Map[Placeholder] = static_cast<uint8_t>(Order[Next++]);
  EXPECT_EQ(Inst.RegMap, Map);

  const unsigned SP = T.conventions().StackPointer;
  auto Slot = [](size_t I) {
    return SnippetSpillBase - static_cast<int32_t>(4 * I) - 4;
  };
  std::vector<MachWord> Want;
  for (size_t I = 0; I < Spilled.size(); ++I)
    T.emitStoreWord(Spilled[I], SP, Slot(I), Want);
  if (Inst.SavedCC)
    T.emitSaveCC(Order[Placeholders], Want);
  EXPECT_EQ(Inst.BodyBegin, Want.size());
  for (MachWord W : Snip.body())
    Want.push_back(*rewriteRegisters(T.decode(W), W, Map));
  if (Inst.SavedCC)
    T.emitRestoreCC(Order[Placeholders], Want);
  for (size_t I = Spilled.size(); I-- > 0;)
    T.emitLoadWord(Spilled[I], SP, Slot(I), Want);
  EXPECT_EQ(Inst.Words, Want);
}

} // namespace

TEST(RegAllocUnit, OneInstantiationPathOnEveryIsa) {
  // instantiateSnippet is a wrapper over placeSnippet, the path layout
  // appends to a routine's code through: both must give the same site,
  // and that site must be the one the contract describes.
  for (TargetArch Arch : AllTargetArches) {
    const TargetInfo &T = targetFor(Arch);
    SCOPED_TRACE(T.name());
    RegSet AllLive;
    for (unsigned Reg = 1; Reg < T.numRegisters(); ++Reg)
      AllLive.insert(Reg);
    std::vector<RegSet> LiveSets = {RegSet(), AllLive};
    if (T.hasConditionCodes()) {
      LiveSets.push_back(RegSet{RegIdCC});
      LiveSets.push_back(AllLive | RegSet{RegIdCC});
    }
    // Random sets, and nearly full ones that leave a site one or two dead
    // registers, so grants mix dead and spilled registers.
    Rng R(0x5EED + static_cast<unsigned>(Arch));
    for (unsigned I = 0; I < 80; ++I) {
      RegSet Live = RegSet::fromMask(R.next() & AllLive.mask());
      if (I % 2) {
        Live = AllLive;
        for (unsigned Dead = 1 + I % 4 / 2; Dead-- > 0;)
          Live.remove(1 + static_cast<unsigned>(R.below(31)));
      }
      if (T.hasConditionCodes() && R.below(2))
        Live.insert(RegIdCC);
      LiveSets.push_back(Live);
    }

    unsigned Mixed = 0;
    for (const SnippetPtr &Snip : scavengeSubjects(T)) {
      for (const RegSet &Live : LiveSets) {
        Expected<SnippetInstance> Inst = instantiateSnippet(T, *Snip, Live);
        ASSERT_TRUE(Inst.hasValue()) << Inst.error().message();
        const SnippetInstance &Want = Inst.value();
        expectContract(T, *Snip, Live, Want);
        if (Live == AllLive) {
          EXPECT_EQ(Want.SpillCount, Snip->regsToAllocate().size());
        }
        if (!Want.Spilled.empty() && Want.Granted != Want.Spilled)
          ++Mixed;

        // Layout's call: the site appends after code already emitted.
        std::vector<MachWord> Code = {T.nopWord(), T.nopWord()};
        SnippetInstance Site;
        ASSERT_TRUE(placeSnippet(T, *Snip, Live, Code, Site).hasValue());
        ASSERT_GE(Code.size(), 2u);
        EXPECT_EQ(std::vector<MachWord>(Code.begin() + 2, Code.end()),
                  Want.Words);
        EXPECT_EQ(Site.RegMap, Want.RegMap);
        EXPECT_EQ(Site.BodyBegin, Want.BodyBegin);
        EXPECT_EQ(Site.Granted, Want.Granted);
        EXPECT_EQ(Site.Spilled, Want.Spilled);
        EXPECT_EQ(Site.SpillCount, Want.SpillCount);
        EXPECT_EQ(Site.SavedCC, Want.SavedCC);

        // The verifier's audit re-plans the same decision.
        Expected<ScavengePlan> Plan = planScavenge(T, *Snip, Live);
        ASSERT_TRUE(Plan.hasValue());
        EXPECT_EQ(Plan.value().GrantedSet, Want.Granted);
        EXPECT_EQ(Plan.value().SpilledSet, Want.Spilled);
        EXPECT_EQ(Plan.value().NeedCCSave, Want.SavedCC);
      }
    }
    EXPECT_GT(Mixed, 0u) << "no site was granted both dead and spilled "
                            "registers";
  }
}

TEST(RegAllocUnit, LayoutPlacesWhatInstantiateSnippetBuilds) {
  // The sites layout places in a routine's code, seen through each
  // snippet's callback, equal instantiateSnippet's at the live set of the
  // site: before a block's first instruction (walked here from the
  // block's live-out set) and along an edge.
  for (TargetArch Arch : AllTargetArches) {
    const TargetInfo &T = targetFor(Arch);
    SCOPED_TRACE(T.name());
    WorkloadOptions W;
    W.Seed = 7;
    W.Routines = 12;
    W.SwitchPercent = 30;
    Executable Exec(generateWorkload(Arch, W));
    ASSERT_TRUE(Exec.readContents().hasValue());
    unsigned Sites = 0, Checked = 0;
    auto AddSite = [&](RegSet Live, auto Add) {
      SnippetPtr Snip = makeCounterIncrementSnippet(T, 0x400010 + 4 * Sites);
      const CodeSnippet *Raw = Snip.get();
      Snip->setCallback([&T, &Checked, Raw, Live](SnippetInstance &Inst) {
        Expected<SnippetInstance> Want = instantiateSnippet(T, *Raw, Live);
        ASSERT_TRUE(Want.hasValue());
        EXPECT_EQ(Inst.Words, Want.value().Words);
        EXPECT_EQ(Inst.RegMap, Want.value().RegMap);
        EXPECT_EQ(Inst.BodyBegin, Want.value().BodyBegin);
        EXPECT_EQ(Inst.Granted, Want.value().Granted);
        EXPECT_EQ(Inst.Spilled, Want.value().Spilled);
        EXPECT_EQ(Inst.SpillCount, Want.value().SpillCount);
        EXPECT_EQ(Inst.SavedCC, Want.value().SavedCC);
        ++Checked;
      });
      Add(std::move(Snip));
      ++Sites;
    };
    for (const auto &R : Exec.routines()) {
      if (R->isData())
        continue;
      Cfg *G = R->controlFlowGraph();
      if (G->unsupported())
        continue;
      const Liveness &L = *R->liveness();
      for (const BasicBlock *B : G->blocks()) {
        if (B->kind() == BlockKind::Normal && B->editable()) {
          RegSet Live = L.liveOut(B);
          for (size_t I = B->size(); I-- > 0;) {
            Live.remove(B->insts()[I].Inst->writes());
            Live |= B->insts()[I].Inst->reads();
          }
          EXPECT_EQ(L.liveBefore(B, 0), Live);
          AddSite(Live, [&](SnippetPtr S) { Exec.addCodeBefore(B, 0, S); });
        }
        if (B->succ().size() > 1)
          for (const Edge *E : B->succ())
            if (E->editable())
              AddSite(L.liveOnEdge(E),
                      [&](SnippetPtr S) { Exec.addCodeAlong(E, S); });
      }
    }
    ASSERT_GT(Sites, 0u);
    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
    EXPECT_EQ(Checked, Sites);
    EXPECT_EQ(Exec.editStats().SnippetInstances, Sites);
  }
}

// --- Call graph over indirect edges --------------------------------------------------------

TEST(CallGraphUnit, IndirectCellEdges) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  add %sp, -96, %sp
  st %o7, [%sp + 4]
  call middle
  nop
  set fptr, %o1
  ld [%o1 + 0], %o2
  jmpl %o2 + 0, %o7
  nop
  ld [%sp + 4], %o7
  add %sp, 96, %sp
  mov 0, %o0
  sys 0
  ret
  nop
middle:
  ret
  nop
leafy:
  ret
  mov 3, %o0
.data
.align 4
fptr: .word leafy
)"));
  Exec.readContents();
  CallGraph CG = CallGraph::build(Exec.analysis());
  Routine *Main = Exec.findRoutine("main");
  const CallGraph::Node *N = CG.node(Main);
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->DirectCallSites, 1u);
  EXPECT_EQ(N->IndirectCallSites, 1u);
  EXPECT_EQ(N->ResolvedIndirectSites, 1u);
  ASSERT_EQ(N->Callees.size(), 2u);
  EXPECT_EQ(N->Callees[0]->name(), "middle");
  EXPECT_EQ(N->Callees[1]->name(), "leafy");
  // Roots: main only (middle and leafy have callers).
  std::vector<Routine *> Roots = CG.roots();
  ASSERT_EQ(Roots.size(), 1u);
  EXPECT_EQ(Roots[0], Main);
}

// --- Edge parent back-pointer ----------------------------------------------------------------

TEST(CfgApi, EdgeParentAndAddCodeAlong) {
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  cmp %o0, 0
  be .Lx
  nop
  mov 1, %o1
.Lx:
  sys 0
  ret
  nop
)"));
  Exec.readContents();
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  for (const auto &E : G->edges())
    EXPECT_EQ(E->parent(), G);
}

// --- Relocation information (§3.1 footnote / §2 OM comparison) -------------------

TEST(Relocations, AssemblerEmitsThem) {
  SxfFile File = assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  sethi %hi(cell), %o1
  ld [%o1 + %lo(cell)], %o2
  call main
  nop
  sys 0
  ret
  nop
.data
.align 4
cell: .word main
)");
  unsigned Word32 = 0, Hi = 0, Lo = 0, PcRel = 0;
  for (const SxfReloc &R : File.Relocs) {
    switch (R.Kind) {
    case RelocKind::Word32: ++Word32; break;
    case RelocKind::Hi: ++Hi; break;
    case RelocKind::Lo: ++Lo; break;
    case RelocKind::PcRel: ++PcRel; break;
    }
  }
  EXPECT_EQ(Word32, 1u); // cell: .word main
  EXPECT_EQ(Hi, 1u);
  EXPECT_EQ(Lo, 1u);
  EXPECT_EQ(PcRel, 1u); // call main
  // Round-trips through serialization.
  Expected<SxfFile> Back = SxfFile::deserialize(File.serialize());
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back.value().Relocs.size(), File.Relocs.size());
}

TEST(Relocations, PreciseRewritingAvoidsIntegerCollision) {
  // `decoy` holds a plain integer whose value happens to equal a code
  // address. The heuristic data sweep (the only option for fully linked
  // programs without relocations, as the paper notes) cannot tell it from
  // a function pointer and corrupts it; relocation information rewrites
  // only real pointers. This is exactly the §2 trade-off between EEL and
  // relocation-based systems like OM.
  const char *Source = R"(
.text
main:
  set fptr, %o1
  ld [%o1 + 0], %o2
  jmpl %o2 + 0, %o7      ! a real function pointer: must be rewritten
  nop
  set decoy, %o3
  ld [%o3 + 0], %o0      ! the decoy integer: must NOT be rewritten
  sys 0
  ret
  nop
callee:
  ret
  mov 5, %o0
.data
.align 4
fptr:  .word callee
decoy: .word 65544       ! == 0x10008, a valid instruction address
)";
  SxfFile WithRelocs = assembleOrDie(TargetArch::Srisc, Source);
  ASSERT_FALSE(WithRelocs.Relocs.empty());
  RunResult Original = runToCompletion(WithRelocs);
  EXPECT_EQ(Original.ExitCode, 65544);

  // With relocations: both correct.
  {
    Executable Exec((SxfFile(WithRelocs)));
    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    ASSERT_TRUE(Edited.hasValue());
    RunResult R = runToCompletion(Edited.value());
    EXPECT_EQ(R.ExitCode, 65544); // decoy preserved
  }

  // Without relocations (the paper's setting): the function pointer is
  // still found by the sweep — and the decoy is, unavoidably, mangled.
  {
    SxfFile Stripped = WithRelocs;
    Stripped.stripRelocations();
    Executable Exec(std::move(Stripped));
    Expected<SxfFile> Edited = Exec.writeEditedExecutable();
    ASSERT_TRUE(Edited.hasValue());
    RunResult R = runToCompletion(Edited.value());
    EXPECT_EQ(R.Reason, StopReason::Exited); // program still runs...
    EXPECT_NE(R.ExitCode, 65544);            // ...but the decoy moved
  }
}

TEST(Relocations, StrippedImagesStillEditCorrectly) {
  // The headline property survives without relocations: generated
  // workloads avoid integer/code-address collisions, so the heuristic
  // sweep suffices, as it did for the paper's SPEC programs.
  WorkloadOptions Opts;
  Opts.Seed = 77;
  Opts.TailCallPercent = 30;
  SxfFile File = generateWorkload(TargetArch::Srisc, Opts);
  RunResult Original = runToCompletion(File);
  File.stripRelocations();
  Executable Exec(std::move(File));
  Expected<SxfFile> Edited = Exec.writeEditedExecutable();
  ASSERT_TRUE(Edited.hasValue()) << Edited.error().message();
  RunResult After = runToCompletion(Edited.value());
  EXPECT_EQ(After.Output, Original.Output);
  EXPECT_EQ(After.ExitCode, Original.ExitCode);
}
