//===- core/Cfg.cpp - Control-flow graphs -----------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Cfg.h"

#include "core/Routine.h"

#include <algorithm>

using namespace eel;

// Blocks and edges are bump-allocated and never destroyed; the arena
// reclaims their storage when the graph dies.
static_assert(std::is_trivially_destructible_v<BasicBlock>,
              "BasicBlock must stay trivially destructible (arena-placed)");
static_assert(std::is_trivially_destructible_v<Edge>,
              "Edge must stay trivially destructible (arena-placed)");

Cfg::Cfg(const Routine &ParentRoutine, const TargetInfo &Target)
    : Parent(ParentRoutine), Target(Target) {}

Cfg::~Cfg() = default;

BasicBlock *Cfg::newBlock(BlockKind Kind, Addr Anchor) {
  if (Kind == BlockKind::Normal) {
    assert(NumNormal == Blocks.size() &&
           "normal blocks must precede every other block");
    assert((NumNormal == 0 || Blocks[NumNormal - 1]->anchor() < Anchor) &&
           "normal blocks must be created in ascending address order");
    ++NumNormal;
  }
  BasicBlock *Ptr = IR.create<BasicBlock>(
      *this, static_cast<unsigned>(Blocks.size()), Kind, Anchor);
  Blocks.push_back(Ptr);
  return Ptr;
}

Edge *Cfg::newEdge(BasicBlock *Src, BasicBlock *Dst, EdgeKind Kind) {
  Edge *Ptr =
      IR.create<Edge>(static_cast<unsigned>(Edges.size()), Src, Dst, Kind);
  Ptr->Parent = this;
  Edges.push_back(Ptr);
  Src->addSucc(Ptr, IR);
  Dst->addPred(Ptr, IR);
  return Ptr;
}

void Cfg::appendInst(BasicBlock *Block, const Instruction *I, Addr OrigAddr) {
  if (Block->NumRows == 0)
    Block->FirstRow = static_cast<InstrIdx>(Rows.size());
  assert(Block->FirstRow + Block->NumRows == Rows.size() &&
         "blocks must be filled in creation order to keep rows contiguous");
  Rows.push_back({I, OrigAddr});
  ++Block->NumRows;
}

void BasicBlock::addSucc(Edge *E, BumpArena &Arena) {
  if (SuccCount == SuccCap) {
    uint32_t NewCap = SuccCap ? SuccCap * 2 : 2;
    Edge **NewArr = Arena.allocateArray<Edge *>(NewCap);
    std::copy(SuccArr, SuccArr + SuccCount, NewArr);
    SuccArr = NewArr;
    SuccCap = NewCap;
  }
  SuccArr[SuccCount++] = E;
}

void BasicBlock::addPred(Edge *E, BumpArena &Arena) {
  if (PredCount == PredCap) {
    uint32_t NewCap = PredCap ? PredCap * 2 : 2;
    Edge **NewArr = Arena.allocateArray<Edge *>(NewCap);
    std::copy(PredArr, PredArr + PredCount, NewArr);
    PredArr = NewArr;
    PredCap = NewCap;
  }
  PredArr[PredCount++] = E;
}

void BasicBlock::removePred(Edge *E) {
  Edge **End = PredArr + PredCount;
  Edge **It = std::find(PredArr, End, E);
  assert(It != End && "edge not in predecessor list");
  std::copy(It + 1, End, It);
  --PredCount;
}

BasicBlock *Cfg::blockAt(Addr A) const {
  auto Normals = std::span(Blocks).first(NumNormal);
  auto It = std::partition_point(
      Normals.begin(), Normals.end(),
      [A](const BasicBlock *B) { return B->anchor() < A; });
  return It != Normals.end() && (*It)->anchor() == A ? *It : nullptr;
}

Cfg::Stats Cfg::stats() const {
  Stats S;
  for (const auto &Block : Blocks) {
    switch (Block->kind()) {
    case BlockKind::Normal:
      ++S.NormalBlocks;
      break;
    case BlockKind::DelaySlot:
      ++S.DelaySlotBlocks;
      break;
    case BlockKind::CallSurrogate:
      ++S.CallSurrogateBlocks;
      break;
    case BlockKind::Entry:
    case BlockKind::Exit:
      ++S.EntryExitBlocks;
      break;
    }
    if (!Block->editable())
      ++S.UneditableBlocks;
  }
  for (const auto &E : Edges) {
    ++S.TotalEdges;
    if (!E->editable())
      ++S.UneditableEdges;
  }
  return S;
}
