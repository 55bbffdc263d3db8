//===- core/Cfg.h - Control-flow graphs --------------------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EEL's primary program representation (§3.3 of the paper): a control-flow
/// graph per routine whose nodes are basic blocks and whose edges represent
/// control flow. Machine instructions' *internal* control flow is made
/// explicit so that instructions appear to have none:
///
///  * a delay-slot instruction lives in its own DelaySlot block placed on
///    the edges along which it executes — on the taken edge only for an
///    annulled conditional branch (Figure 3), duplicated along both edges
///    for a non-annulled one, on the single outgoing edge of unconditional
///    transfers, and nowhere for annul-always forms;
///  * a zero-length CallSurrogate block stands for the control transfer and
///    side effects of a callee's body;
///  * pseudo Entry blocks (one per entry point) and a single Exit block
///    bound the graph.
///
/// Blocks and edges that transfer control out of the routine are marked
/// uneditable (§3.3 reports 15–20% of them are). Normal blocks come first
/// in blocks(), in strictly ascending address order, so a graph needs no
/// address index: blockAt() is a binary search over that prefix. A graph
/// is analysis: once built it never changes. Edits — deleting
/// instructions, adding snippets before/after an instruction or along an
/// edge — name its blocks and edges but accumulate in the edit session
/// (core/Executable.h), a batch applied when the edited routine is
/// produced (§3.3.1).
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_CFG_H
#define EEL_CORE_CFG_H

#include "core/Instruction.h"
#include "core/Snippet.h"
#include "support/Arena.h"

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace eel {

class BasicBlock;
class Cfg;
class Executable;
class Routine;

/// 32-bit handles into a graph's flat instruction-row and block arrays.
/// The IR is structure-of-arrays: instruction occurrences live as dense
/// rows owned by the Cfg, and blocks address contiguous row ranges instead
/// of owning per-block vectors.
using InstrIdx = uint32_t;
using BlockIdx = uint32_t;
inline constexpr InstrIdx InvalidInstrIdx = 0xFFFFFFFFu;

enum class BlockKind : uint8_t {
  Normal,
  DelaySlot,     ///< Holds one delay-slot instruction copy.
  CallSurrogate, ///< Zero-length stand-in for a callee's body.
  Entry,         ///< Pseudo block; one per entry point.
  Exit,          ///< Pseudo block; single sink.
};

enum class EdgeKind : uint8_t {
  Fallthrough,
  Taken,
  NotTaken,
  UncondJump,
  CallFlow,      ///< Call → delay → surrogate → continuation chain.
  SwitchCase,    ///< Resolved indirect-jump case edge.
  ExitReturn,    ///< Return to caller.
  ExitInterJump, ///< Direct transfer out of the routine (tail jump).
  ExitUnresolved,///< Unanalyzable indirect jump (run-time translation).
  EntryEdge,
};

/// One instruction occurrence in a block. Delay-slot duplication can place
/// the same original instruction (same OrigAddr) in several blocks.
struct CfgInst {
  const Instruction *Inst = nullptr;
  Addr OrigAddr = 0;
};

class Edge {
public:
  Edge(unsigned Id, BasicBlock *Src, BasicBlock *Dst, EdgeKind Kind)
      : Id(Id), Src(Src), Dst(Dst), Kind(Kind) {}

  unsigned id() const { return Id; }
  BasicBlock *src() const { return Src; }
  BasicBlock *dst() const { return Dst; }
  EdgeKind kind() const { return Kind; }
  bool editable() const { return Editable; }

  /// Owning graph (set at creation).
  Cfg *parent() const { return Parent; }

private:
  friend class Cfg;
  friend class CfgBuilder;
  friend struct VerifierTestAccess; ///< Negative tests corrupt graphs.
  void setUneditable() { Editable = false; }

  unsigned Id;
  BasicBlock *Src;
  BasicBlock *Dst;
  EdgeKind Kind;
  bool Editable = true;
  Cfg *Parent = nullptr;
};

/// A basic block: a dense row range in its graph's flat instruction
/// arrays plus arena-packed adjacency. Trivially destructible — blocks
/// are bump-allocated by their Cfg and never individually destroyed.
class BasicBlock {
public:
  BasicBlock(Cfg &ParentGraph, unsigned Id, BlockKind Kind, Addr Anchor)
      : Parent(&ParentGraph), Id(Id), Kind(Kind), Anchor(Anchor) {}

  unsigned id() const { return Id; }
  BlockKind kind() const { return Kind; }
  const Cfg &parent() const { return *Parent; }

  /// Address of the block's first instruction; for pseudo and surrogate
  /// blocks, the address they are anchored at.
  Addr anchor() const { return Anchor; }

  /// This block's instruction occurrences: a contiguous slice of the
  /// graph's flat row array (defined after Cfg below).
  std::span<const CfgInst> insts() const;

  /// Index of the block's first row in Cfg::instRows(); rows
  /// [firstInstr(), firstInstr() + size()) belong to this block.
  InstrIdx firstInstr() const { return FirstRow; }

  unsigned size() const { return NumRows; }
  bool empty() const { return NumRows == 0; }

  std::span<Edge *const> succ() const { return {SuccArr, SuccCount}; }
  std::span<Edge *const> pred() const { return {PredArr, PredCount}; }

  bool editable() const { return Editable; }

  /// The control transfer terminating this block, if any.
  const Instruction *terminator() const;

  /// For CallSurrogate blocks: the direct callee address, if known.
  std::optional<Addr> callTarget() const { return CallTarget; }
  bool callIsIndirect() const { return CallIndirect; }

private:
  friend class Cfg;
  friend class CfgBuilder;
  friend struct VerifierTestAccess; ///< Negative tests corrupt graphs.

  void setUneditable() { Editable = false; }
  void addSucc(Edge *E, BumpArena &Arena);
  void addPred(Edge *E, BumpArena &Arena);
  void removePred(Edge *E);

  Cfg *Parent;
  unsigned Id;
  BlockKind Kind;
  Addr Anchor;
  InstrIdx FirstRow = 0;
  uint32_t NumRows = 0;
  Edge **SuccArr = nullptr;
  uint32_t SuccCount = 0, SuccCap = 0;
  Edge **PredArr = nullptr;
  uint32_t PredCount = 0, PredCap = 0;
  bool Editable = true;
  std::optional<Addr> CallTarget;
  bool CallIndirect = false;
};

/// How an indirect jump was resolved (§3.3's slicing results).
struct IndirectResolution {
  enum class Kind : uint8_t {
    DispatchTable, ///< Jump through a bounded table of code addresses.
    Literal,       ///< Jump to a statically known address.
    CellPointer,   ///< Jump through a single known memory cell.
    Unanalyzable,  ///< Slice failed; needs run-time translation.
  };
  Kind K = Kind::Unanalyzable;
  Addr TableAddr = 0;           ///< DispatchTable: first entry address.
  unsigned EntryCount = 0;      ///< DispatchTable: number of entries.
  bool BoundsProven = false;    ///< Entry count came from a bounds check.
  std::vector<Addr> Targets;    ///< DispatchTable/Literal targets.
  Addr CellAddr = 0;            ///< CellPointer: the cell's address. Also
                                ///  set on a Literal recovered through a
                                ///  constant cell, so the editor rewrites
                                ///  that cell precisely.
  bool TailCallIdiom = false;   ///< Frame-popping tail call (§3.3's idiom).
  bool Inferred = false;        ///< Recovered only with eel-infer's
                                ///  constant-cell facts; plain slicing
                                ///  would have reported CellPointer or
                                ///  Unanalyzable.
};

/// An indirect control transfer site within a routine.
struct IndirectSite {
  BasicBlock *Block = nullptr; ///< Block terminated by the indirect jump.
  Addr JumpAddr = 0;
  bool IsCall = false;
  IndirectResolution Resolution;
};

/// A pending modification, accumulated by the edit session until the
/// routine is produced. Edits at one point apply in the order they were
/// made.
struct Edit {
  enum class Kind : uint8_t { Before, After, OnEdge, Delete, Replace };
  Kind K = Kind::Before;
  const BasicBlock *Block = nullptr;
  unsigned InstIndex = 0;
  const Edge *E = nullptr;
  SnippetPtr Snippet;
  MachWord NewWord = 0; ///< Replacement word (Kind::Replace).
};

/// The control-flow graph of one routine.
class Cfg {
public:
  Cfg(const Routine &Parent, const TargetInfo &Target);
  ~Cfg();

  const Routine &routine() const { return Parent; }
  const TargetInfo &target() const { return Target; }

  /// Blocks and edges in creation order, bump-allocated from this graph's
  /// arena; index position equals id(). The first normalBlockCount()
  /// blocks are the Normal ones, in strictly ascending anchor order.
  const std::vector<BasicBlock *> &blocks() const { return Blocks; }
  unsigned normalBlockCount() const { return NumNormal; }
  const std::vector<Edge *> &edges() const { return Edges; }

  /// The flat instruction rows, in block-emission order: each block's
  /// occurrences are the contiguous slice [firstInstr(), +size()).
  std::span<const CfgInst> instRows() const { return Rows; }

  const std::vector<BasicBlock *> &entryBlocks() const { return Entries; }
  BasicBlock *exitBlock() const { return Exit; }

  /// False when an unanalyzable indirect jump prevents complete static
  /// control-flow knowledge; the editor then adds run-time translation so
  /// control still reaches the correct edited instruction (§3.3).
  bool complete() const { return Complete; }

  /// True when the routine cannot be edited at all (data reached from an
  /// entry, a delayed transfer inside a delay slot, or control running off
  /// the routine's end); the editor copies such routines verbatim.
  bool unsupported() const { return Unsupported; }
  const std::string &unsupportedReason() const { return UnsupportedReason; }

  const std::vector<IndirectSite> &indirectSites() const {
    return IndirectSites;
  }

  /// Direct transfers whose target lies outside the routine: pairs of
  /// (block, original target address).
  const std::vector<std::pair<BasicBlock *, Addr>> &interJumps() const {
    return InterJumps;
  }

  // --- Lookup helpers ------------------------------------------------------

  /// Block whose first instruction is at \p A (Normal blocks only): a
  /// binary search over the normal-block prefix of blocks().
  BasicBlock *blockAt(Addr A) const;

  /// Statistics used by the §3.3/§5 benchmarks.
  struct Stats {
    unsigned NormalBlocks = 0;
    unsigned DelaySlotBlocks = 0;
    unsigned CallSurrogateBlocks = 0;
    unsigned EntryExitBlocks = 0;
    unsigned UneditableBlocks = 0;
    unsigned UneditableEdges = 0;
    unsigned TotalEdges = 0;
  };
  Stats stats() const;

private:
  friend class CfgBuilder;
  friend struct VerifierTestAccess; ///< Negative tests corrupt graphs.

  /// Normal blocks must be created before any other kind, in strictly
  /// ascending anchor order (asserted): blockAt() relies on it.
  BasicBlock *newBlock(BlockKind Kind, Addr Anchor);
  Edge *newEdge(BasicBlock *Src, BasicBlock *Dst, EdgeKind Kind);

  /// Appends one instruction row to \p Block. Blocks are filled strictly
  /// in creation order (asserted), which is what keeps each block's rows
  /// contiguous in the flat array.
  void appendInst(BasicBlock *Block, const Instruction *I, Addr OrigAddr);

  const Routine &Parent;
  const TargetInfo &Target;
  /// 4 KiB chunks: most routines' graphs fit in one (36 MB of graphs for
  /// 10k routines). Larger chunks would mostly sit reserved, and their
  /// pages become resident as the allocator recycles them across images.
  BumpArena IR{4096};
  std::vector<BasicBlock *> Blocks;
  std::vector<Edge *> Edges;
  std::vector<CfgInst> Rows;
  std::vector<BasicBlock *> Entries;
  BasicBlock *Exit = nullptr;
  unsigned NumNormal = 0;
  bool Complete = true;
  bool Exotic = false;
  bool ReachedInvalid = false;
  bool Unsupported = false;
  std::string UnsupportedReason;
  std::vector<IndirectSite> IndirectSites;
  std::vector<std::pair<BasicBlock *, Addr>> InterJumps;
};

inline std::span<const CfgInst> BasicBlock::insts() const {
  // Computed against the graph's current row storage on every call: the
  // rows vector may reallocate while the graph is still being built, so
  // blocks hold indices, never pointers.
  return Parent->instRows().subspan(FirstRow, NumRows);
}

inline const Instruction *BasicBlock::terminator() const {
  if (NumRows == 0)
    return nullptr;
  const Instruction *Last = Parent->instRows()[FirstRow + NumRows - 1].Inst;
  return Last->isControlTransfer() ? Last : nullptr;
}

/// Builds the CFG for \p R. Defined in CfgBuild.cpp.
std::unique_ptr<Cfg> buildCfg(const Routine &R);

} // namespace eel

#endif // EEL_CORE_CFG_H
