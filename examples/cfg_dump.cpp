//===- examples/cfg_dump.cpp - Executable analysis browser ---------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small analysis browser over EEL's abstractions: runs symbol-table
/// refinement on an executable, prints the routine map (including hidden
/// routines and data tables discovered by analysis), and dumps one
/// routine's normalized CFG with disassembly, edge structure, editability,
/// dominator-computed loops, and indirect-jump resolutions.
///
/// Usage: cfg_dump [program.sxf [routine]]
///
//===----------------------------------------------------------------------===//

#include "core/CallGraph.h"
#include "core/Dominators.h"
#include "core/Executable.h"
#include "workload/Generator.h"

#include <cstdio>

using namespace eel;

static void dumpRoutine(Routine &R) {
  std::printf("\n--- CFG of %s ---\n", R.name().c_str());
  Cfg *G = R.controlFlowGraph();
  const TargetInfo &Target = G->target();
  std::printf("complete=%s%s%s\n", G->complete() ? "yes" : "no",
              G->unsupported() ? " UNSUPPORTED: " : "",
              G->unsupported() ? G->unsupportedReason().c_str() : "");
  for (const auto &B : G->blocks()) {
    const char *Kind = "";
    switch (B->kind()) {
    case BlockKind::Normal: Kind = "normal"; break;
    case BlockKind::DelaySlot: Kind = "delay-slot"; break;
    case BlockKind::CallSurrogate: Kind = "call-surrogate"; break;
    case BlockKind::Entry: Kind = "entry"; break;
    case BlockKind::Exit: Kind = "exit"; break;
    }
    std::printf("block %-3u %-14s %s\n", B->id(), Kind,
                B->editable() ? "" : "[uneditable]");
    for (const CfgInst &CI : B->insts())
      std::printf("    %05x: %s\n", CI.OrigAddr,
                  Target.disassemble(CI.Inst->word(), CI.OrigAddr).c_str());
    if (B->kind() == BlockKind::CallSurrogate) {
      if (std::optional<Addr> T = B->callTarget())
        std::printf("    (callee at 0x%x)\n", *T);
      else
        std::printf("    (indirect callee)\n");
    }
    for (const Edge *E : B->succ())
      std::printf("    -> %u%s\n", E->dst()->id(),
                  E->editable() ? "" : " [uneditable]");
  }
  for (const IndirectSite &Site : G->indirectSites()) {
    const char *Kind = "";
    switch (Site.Resolution.K) {
    case IndirectResolution::Kind::DispatchTable: Kind = "dispatch table"; break;
    case IndirectResolution::Kind::Literal: Kind = "literal"; break;
    case IndirectResolution::Kind::CellPointer: Kind = "pointer cell"; break;
    case IndirectResolution::Kind::Unanalyzable: Kind = "UNANALYZABLE"; break;
    }
    std::printf("indirect %s at 0x%x: %s", Site.IsCall ? "call" : "jump",
                Site.JumpAddr, Kind);
    if (Site.Resolution.K == IndirectResolution::Kind::DispatchTable)
      std::printf(" (%u entries at 0x%x%s)", Site.Resolution.EntryCount,
                  Site.Resolution.TableAddr,
                  Site.Resolution.BoundsProven ? ", bounds proven" : "");
    if (Site.Resolution.TailCallIdiom)
      std::printf(" [tail-call idiom]");
    std::printf("\n");
  }
  Dominators Doms(*G);
  std::vector<NaturalLoop> Loops = findNaturalLoops(*G, Doms);
  for (const NaturalLoop &Loop : Loops)
    std::printf("natural loop headed by block %u (%zu blocks)\n",
                Loop.Header->id(), Loop.Blocks.size());
}

int main(int argc, char **argv) {
  SxfFile File;
  if (argc > 1) {
    Expected<SxfFile> Loaded = SxfFile::readFromFile(argv[1]);
    if (Loaded.hasError()) {
      std::fprintf(stderr, "error: %s\n", Loaded.error().message().c_str());
      return 1;
    }
    File = Loaded.takeValue();
  } else {
    WorkloadOptions Options;
    Options.Seed = 5;
    Options.Routines = 6;
    Options.SymbolPathologies = true;
    File = generateWorkload(TargetArch::Srisc, Options);
  }

  Executable Exec(std::move(File));
  Exec.readContents();
  std::printf("routine map after symbol-table refinement:\n");
  std::printf("%-16s %-10s %-10s %7s %8s %6s\n", "name", "start", "end",
              "entries", "hidden", "data");
  for (const auto &R : Exec.routines())
    std::printf("%-16s 0x%-8x 0x%-8x %7zu %8s %6s\n", R->name().c_str(),
                R->startAddr(), R->endAddr(), R->entryPoints().size(),
                R->hidden() ? "yes" : "", R->isData() ? "yes" : "");

  CallGraph CG = CallGraph::build(Exec.analysis());
  std::printf("\ncall graph (callees per routine):\n");
  for (const CallGraph::Node &N : CG.nodes()) {
    if (N.Callees.empty())
      continue;
    std::printf("  %-16s ->", N.R->name().c_str());
    for (Routine *Callee : N.Callees)
      std::printf(" %s", Callee->name().c_str());
    std::printf("\n");
  }

  // Dump one routine: the named one, or the first with an indirect jump.
  Routine *Chosen = nullptr;
  if (argc > 2)
    Chosen = Exec.findRoutine(argv[2]);
  if (!Chosen) {
    for (const auto &R : Exec.routines()) {
      if (R->isData())
        continue;
      if (!R->controlFlowGraph()->indirectSites().empty()) {
        Chosen = R.get();
        break;
      }
    }
  }
  if (!Chosen)
    Chosen = Exec.findRoutine("main");
  if (Chosen)
    dumpRoutine(*Chosen);
  return 0;
}
