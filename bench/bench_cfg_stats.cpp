//===- bench/bench_cfg_stats.cpp - §3.3/§5 CFG structure statistics ----------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the CFG-shape numbers scattered through the paper:
///
///  * Figure 3's normalization, demonstrated on an annulled branch;
///  * "although 15-20% of edges and blocks are uneditable, it is usually
///    easy to find an alternative location to edit" (§3.3);
///  * the §5 footnote: qpt2's CFGs held 26,912 blocks vs the old code's
///    15,441, the extra being 12,774 delay-slot blocks, 920 CFG entry/exit
///    blocks, and 1,942 call-surrogate blocks;
///  * delay-slot fold-back at layout (§3.3.1).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "asmkit/Assembler.h"
#include "core/Executable.h"

#include <benchmark/benchmark.h>

using namespace eel;
using namespace eelbench;

static void BM_BuildCfgs(benchmark::State &State) {
  SxfFile File =
      generateWorkload(TargetArch::Srisc, suiteMember(false, 3, 32));
  for (auto _ : State) {
    Executable Exec((SxfFile(File)));
    Exec.readContents();
    unsigned Blocks = 0;
    for (const auto &R : Exec.routines())
      if (!R->isData())
        Blocks += R->controlFlowGraph()->blocks().size();
    benchmark::DoNotOptimize(Blocks);
  }
}
BENCHMARK(BM_BuildCfgs)->Unit(benchmark::kMillisecond);

static void printFigure3() {
  printHeader("Figure 3: CFG normalization of an annulled delay slot");
  Executable Exec(assembleOrDie(TargetArch::Srisc, R"(
.text
main:
  bne,a .L1
  add %l1, %l2, %l1
  mov 0, %o3
.L1:
  sys 0
  ret
  nop
)"));
  Exec.readContents();
  Cfg *G = Exec.findRoutine("main")->controlFlowGraph();
  const TargetInfo &T = Exec.target();
  for (const auto &B : G->blocks()) {
    const char *Kind = "";
    switch (B->kind()) {
    case BlockKind::Normal: Kind = "normal"; break;
    case BlockKind::DelaySlot: Kind = "delay-slot"; break;
    case BlockKind::CallSurrogate: Kind = "call-surrogate"; break;
    case BlockKind::Entry: Kind = "entry"; break;
    case BlockKind::Exit: Kind = "exit"; break;
    }
    std::printf("block %u (%s)%s:\n", B->id(), Kind,
                B->editable() ? "" : " [uneditable]");
    for (const CfgInst &CI : B->insts())
      std::printf("    %05x: %s\n", CI.OrigAddr,
                  T.disassemble(CI.Inst->word(), CI.OrigAddr).c_str());
    for (const Edge *E : B->succ())
      std::printf("    -> block %u%s\n", E->dst()->id(),
                  E->editable() ? "" : " [uneditable]");
  }
  std::printf("the `add` appears only on the taken path, as in Figure 3\n");
}

static void printBlockComposition(eelbench::JsonSink &Sink) {
  printHeader("§5 footnote: block composition and §3.3 uneditable fraction");
  for (TargetArch Arch : AllTargetArches) {
    Cfg::Stats Total;
    unsigned Folded = 0, Materialized = 0;
    for (const SxfFile &File : makeSuite(Arch, false, 8)) {
      Executable Exec((SxfFile(File)));
      Exec.readContents();
      for (const auto &R : Exec.routines()) {
        if (R->isData())
          continue;
        Cfg::Stats S = R->controlFlowGraph()->stats();
        Total.NormalBlocks += S.NormalBlocks;
        Total.DelaySlotBlocks += S.DelaySlotBlocks;
        Total.CallSurrogateBlocks += S.CallSurrogateBlocks;
        Total.EntryExitBlocks += S.EntryExitBlocks;
        Total.UneditableBlocks += S.UneditableBlocks;
        Total.UneditableEdges += S.UneditableEdges;
        Total.TotalEdges += S.TotalEdges;
      }
      Expected<SxfFile> Edited = Exec.writeEditedExecutable();
      if (Edited.hasValue()) {
        Folded += Exec.editStats().DelaySlotsFolded;
        Materialized += Exec.editStats().DelaySlotsMaterialized;
      }
    }
    unsigned AllBlocks = Total.NormalBlocks + Total.DelaySlotBlocks +
                         Total.CallSurrogateBlocks + Total.EntryExitBlocks;
    std::printf("\n[%s suite]\n",
                Arch == TargetArch::Srisc   ? "SRISC"
                : Arch == TargetArch::Mrisc ? "MRISC"
                                            : "ARISC");
    std::printf("  blocks: %u total = %u normal + %u delay-slot + %u "
                "call-surrogate + %u entry/exit\n",
                AllBlocks, Total.NormalBlocks, Total.DelaySlotBlocks,
                Total.CallSurrogateBlocks, Total.EntryExitBlocks);
    std::printf("  (paper: 26,912 total with 12,774 delay-slot, 1,942 "
                "surrogate, 920 entry/exit)\n");
    std::printf("  EEL/leader-only block ratio: %.2fx (paper: 26,912 / "
                "15,441 = 1.74x)\n",
                static_cast<double>(AllBlocks) /
                    static_cast<double>(Total.NormalBlocks));
    std::printf("  uneditable blocks: %.1f%%  uneditable edges: %.1f%% "
                "(paper: 15-20%%)\n",
                100.0 * Total.UneditableBlocks / AllBlocks,
                100.0 * Total.UneditableEdges / Total.TotalEdges);
    std::printf("  unedited layouts: %u delay slots folded back, %u "
                "materialized\n",
                Folded, Materialized);
    const char *ArchName = Arch == TargetArch::Srisc   ? "srisc"
                           : Arch == TargetArch::Mrisc ? "mrisc"
                                                       : "arisc";
    Sink.metric(std::string("blocks_total_") + ArchName, AllBlocks, "count");
    Sink.metric(std::string("block_ratio_") + ArchName,
                static_cast<double>(AllBlocks) /
                    static_cast<double>(Total.NormalBlocks),
                "x");
    Sink.metric(std::string("uneditable_edges_pct_") + ArchName,
                100.0 * Total.UneditableEdges / Total.TotalEdges, "percent");
    Sink.metric(std::string("delay_slots_folded_") + ArchName, Folded,
                "count");
  }
}

int main(int argc, char **argv) {
  eelbench::JsonSink Sink("bench_cfg_stats", &argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printFigure3();
  printBlockComposition(Sink);
  return 0;
}
