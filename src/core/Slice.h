//===- core/Slice.h - Backward slicing for indirect jumps --------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §3.3 analysis that makes run-time translation "a rare occurrence":
/// a backward slice from an indirect jump's address registers, computed in
/// an architecture- and compiler-independent manner over the dataflow facts
/// instructions expose (Figure 4). The slice recognizes
///
///  * the dispatch-table idiom — a bounded, scaled load from a table of
///    code addresses (case statements);
///  * the literal idiom — a jump to a statically materialized address;
///  * the code-pointer-cell idiom — a load from one known memory cell
///    (function pointers), which the editor rewrites precisely;
///
/// and otherwise reports the jump unanalyzable, classifying the
/// frame-popping tail-call pattern behind the paper's Solaris/SunPro
/// unanalyzable jumps. On our SPEC92 stand-in suite that idiom accounts for
/// all 96 unanalyzable jumps bench_indirect measures (the bench asserts the
/// number; the paper's own count on real Solaris binaries was 138).
///
/// When eel-infer has proven code-pointer cells constant
/// (Analysis::inferredCellValue), the slice folds loads from those cells
/// into constants — turning the cell-jump idiom into a Literal and a
/// table-base-through-memory idiom into a DispatchTable. Resolutions that
/// needed such facts carry IndirectResolution::Inferred.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_SLICE_H
#define EEL_CORE_SLICE_H

#include "core/Cfg.h"

namespace eel {

class Analysis;
class Routine;

/// Symbolic value of a register at a program point, produced by the
/// backward slice.
struct SymValue {
  enum class Kind : uint8_t {
    Unknown,
    Const,     ///< Statically known constant.
    Scaled,    ///< OrigReg << Shift (a scaled table index).
    TableAddr, ///< Base + (OrigReg << Shift) — a table-entry address
               ///  (MIPS-style codegen adds base and index explicitly).
    TableLoad, ///< Mem[Base + (OrigReg << Shift)].
    CellLoad,  ///< Mem[CellAddr] — a single known cell.
  };
  Kind K = Kind::Unknown;
  uint32_t Const = 0;
  unsigned OrigReg = 0;
  unsigned Shift = 0;
  Addr Base = 0;
  Addr CellAddr = 0;
};

/// Computes the value of \p Reg immediately before the instruction at
/// \p At, walking backwards within \p R (stopping conservatively at join
/// points and unmodelled definitions).
SymValue backwardSlice(const Analysis &An, const Routine &R, Addr At,
                       unsigned Reg);

/// Resolves the indirect transfer at \p JumpAddr (which must decode to an
/// IndirectInst) using backwardSlice plus table-bounds discovery.
IndirectResolution resolveIndirect(const Analysis &An, const Routine &R,
                                   Addr JumpAddr);

/// The table-idiom evidence the slice gathered at one indirect jump,
/// exported as facts for eel-infer's rules rather than as a finished
/// resolution: the candidate base/stride of the scaled load feeding the
/// jump and the bounds-check result, before any table enumeration.
struct TableEvidence {
  bool HasTable = false;        ///< The jump target is a scaled table load.
  Addr Base = 0;                ///< Table base address.
  unsigned Shift = 0;           ///< Index scale (log2 of the stride).
  std::optional<unsigned> Bound; ///< Exclusive index bound, when checked.
  bool ViaConstantCell = false; ///< Base came through the cell oracle.
};
TableEvidence tableEvidence(const Analysis &An, const Routine &R,
                            Addr JumpAddr);

/// The statically known address written by the store at \p StoreAddr, if
/// the slice can prove one (sethi/or- or lui/ori-materialized bases, with
/// any constant index folded in). Used by eel-infer's cell-constancy rule
/// to show a store cannot alias a code-pointer cell. Returns nullopt for
/// unprovable addresses and for non-store instructions.
std::optional<Addr> storeTargetAddr(const Analysis &An, const Routine &R,
                                    Addr StoreAddr);

} // namespace eel

#endif // EEL_CORE_SLICE_H
