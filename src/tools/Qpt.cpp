//===- tools/Qpt.cpp - qpt2: EEL-based profiler --------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "tools/Qpt.h"

using namespace eel;

SnippetPtr eel::makeCounterIncrementSnippet(const TargetInfo &Target,
                                            Addr CounterAddr) {
  std::vector<MachWord> Body;
  Body.reserve(5); // at most a two-word constant, load, add and store
  const unsigned RegA = 1, RegB = 2; // placeholders, rebound per site
  Target.emitLoadConst(RegA, CounterAddr, Body);
  Target.emitLoadWord(RegB, RegA, 0, Body);
  Target.emitAddImm(RegB, RegB, 1, Body);
  Target.emitStoreWord(RegB, RegA, 0, Body);
  return std::make_shared<CodeSnippet>(std::move(Body), RegSet{RegA, RegB});
}

Qpt2Profiler::Qpt2Profiler(Executable &Exec)
    : Qpt2Profiler(Exec, Options()) {}

Qpt2Profiler::Qpt2Profiler(Executable &Exec, Options Opts)
    : Exec(Exec), Opts(Opts) {}

void Qpt2Profiler::instrument() {
  Exec.readContents();
  const TargetInfo &Target = Exec.target();

  // The Figure 1 structure, including iterating routines discovered during
  // analysis (hidden routines are already in the routine list here).
  for (const auto &R : Exec.routines()) {
    if (R->isData()) {
      ++RoutinesSkipped;
      continue;
    }
    Cfg *G = R->controlFlowGraph();
    if (G->unsupported()) {
      ++RoutinesSkipped;
      continue;
    }
    ++RoutinesInstrumented;

    auto NewCounter = [&](CounterInfo Info) {
      Info.Routine = R->name();
      Info.CounterAddr = Exec.appendData(4, 4);
      Counters.push_back(std::move(Info));
      return Counters.back().CounterAddr;
    };

    for (const auto &Block : G->blocks()) {
      if (Block->kind() == BlockKind::Normal && Opts.CountBlocks &&
          Block->editable()) {
        CounterInfo Info;
        Info.K = CounterInfo::Kind::Block;
        Info.BlockAnchor = Block->anchor();
        Addr Counter = NewCounter(std::move(Info));
        Exec.addCodeBefore(Block, 0,
                           makeCounterIncrementSnippet(Target, Counter));
      }
      if (!Opts.CountEdges)
        continue;
      // Edge profiling: blocks with more than one successor (Figure 1).
      if (Block->succ().size() <= 1)
        continue;
      for (Edge *E : Block->succ()) {
        if (!E->editable())
          continue;
        CounterInfo Info;
        Info.K = CounterInfo::Kind::Edge;
        Info.BlockAnchor = Block->anchor();
        if (!Block->insts().empty())
          Info.TermAddr = Block->insts().back().OrigAddr;
        Info.Edge = E->kind();
        Info.DestAnchor = E->dst()->anchor();
        Addr Counter = NewCounter(std::move(Info));
        Exec.addCodeAlong(E, makeCounterIncrementSnippet(Target, Counter));
      }
    }
  }
}

std::vector<uint64_t> Qpt2Profiler::readCounts(const VmMemory &Memory) const {
  std::vector<uint64_t> Counts;
  Counts.reserve(Counters.size());
  for (const CounterInfo &Info : Counters)
    Counts.push_back(Memory.readWord(Info.CounterAddr));
  return Counts;
}
