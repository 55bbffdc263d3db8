//===- core/CallGraph.cpp - Interprocedural call graph -------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/CallGraph.h"

#include <algorithm>
#include <set>

using namespace eel;

CallGraph CallGraph::build(const Analysis &An) {
  CallGraph CG;
  for (const auto &R : An.routines()) {
    CG.Index[R.get()] = CG.Nodes.size();
    Node N;
    N.R = R.get();
    CG.Nodes.push_back(N);
  }

  auto AddEdge = [&CG](Routine *From, Routine *To) {
    Node &F = CG.Nodes[CG.Index[From]];
    if (std::find(F.Callees.begin(), F.Callees.end(), To) == F.Callees.end())
      F.Callees.push_back(To);
    Node &T = CG.Nodes[CG.Index[To]];
    if (std::find(T.Callers.begin(), T.Callers.end(), From) ==
        T.Callers.end())
      T.Callers.push_back(From);
  };

  for (const auto &R : An.routines()) {
    if (R->isData())
      continue;
    Cfg *G = R->controlFlowGraph();
    if (G->unsupported())
      continue;
    Node &N = CG.Nodes[CG.Index[R.get()]];
    for (const auto &Block : G->blocks()) {
      if (Block->kind() != BlockKind::CallSurrogate)
        continue;
      if (Block->callIsIndirect()) {
        ++N.IndirectCallSites;
        continue; // resolved below via the indirect-site list
      }
      if (std::optional<Addr> T = Block->callTarget()) {
        if (Routine *Callee = An.routineContaining(*T)) {
          ++N.DirectCallSites;
          AddEdge(R.get(), Callee);
        }
      }
    }
    for (const IndirectSite &Site : G->indirectSites()) {
      if (!Site.IsCall)
        continue;
      if (Site.Resolution.K == IndirectResolution::Kind::CellPointer) {
        // Statically initialized function-pointer cell: the initial value
        // gives a (may-)callee.
        std::optional<uint32_t> Init =
            An.fetchWord(Site.Resolution.CellAddr);
        if (Init && An.isTextAddr(*Init)) {
          if (Routine *Callee = An.routineContaining(*Init)) {
            ++N.ResolvedIndirectSites;
            AddEdge(R.get(), Callee);
          }
        }
      } else if (Site.Resolution.K == IndirectResolution::Kind::Literal) {
        if (Routine *Callee =
                An.routineContaining(Site.Resolution.Targets[0])) {
          ++N.ResolvedIndirectSites;
          AddEdge(R.get(), Callee);
        }
      }
    }
  }
  for (Node &N : CG.Nodes) {
    auto ByAddr = [](const Routine *A, const Routine *B) {
      return A->startAddr() < B->startAddr();
    };
    std::sort(N.Callees.begin(), N.Callees.end(), ByAddr);
    std::sort(N.Callers.begin(), N.Callers.end(), ByAddr);
  }
  return CG;
}

const CallGraph::Node *CallGraph::node(const Routine *R) const {
  auto It = Index.find(R);
  return It == Index.end() ? nullptr : &Nodes[It->second];
}

std::vector<Routine *> CallGraph::roots() const {
  std::vector<Routine *> Roots;
  for (const Node &N : Nodes) {
    bool HasExternalCaller = false;
    for (Routine *Caller : N.Callers)
      if (Caller != N.R)
        HasExternalCaller = true;
    if (!HasExternalCaller && !N.R->isData())
      Roots.push_back(N.R);
  }
  return Roots;
}

std::vector<Routine *> CallGraph::postorderFrom(Routine *Root) const {
  std::vector<Routine *> Order;
  std::set<const Routine *> Visited;
  // Iterative DFS.
  std::vector<std::pair<Routine *, size_t>> Stack{{Root, 0}};
  Visited.insert(Root);
  while (!Stack.empty()) {
    auto &[R, Next] = Stack.back();
    const Node *N = node(R);
    if (N && Next < N->Callees.size()) {
      Routine *Callee = N->Callees[Next++];
      if (Visited.insert(Callee).second)
        Stack.push_back({Callee, 0});
      continue;
    }
    Order.push_back(R);
    Stack.pop_back();
  }
  return Order;
}
