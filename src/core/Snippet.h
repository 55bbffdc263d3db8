//===- core/Snippet.h - Foreign-code snippets -------------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Code snippets (§3.5 of the paper) encapsulate foreign code added to an
/// executable. A snippet carries its machine-code body, a set of registers
/// that must be assigned unused (dead) registers at the insertion point, a
/// set of registers that must not be used even if free, and an optional
/// call-back invoked after register allocation but before the instructions
/// are placed — used for displacement adjustment and backpatching, exactly
/// the uses the paper lists. TaggedCodeSnippet adds the paper's
/// find_inst(): naming instructions so a tool can customize them per site
/// (e.g. patching a counter address into a sethi/or pair, Figure 5).
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_SNIPPET_H
#define EEL_CORE_SNIPPET_H

#include "isa/Target.h"

#include <array>
#include <functional>
#include <memory>
#include <vector>

namespace eel {

/// The result of instantiating a snippet at one site: register-allocated
/// (and possibly spill-wrapped) code plus the assignment map.
struct SnippetInstance {
  std::vector<MachWord> Words;
  /// Map from placeholder register number to assigned register; identity
  /// for registers not in the snippet's allocation set.
  RegisterMap RegMap;
  unsigned SpillCount = 0;    ///< Registers spilled to satisfy allocation.
  bool SavedCC = false;       ///< Condition codes saved/restored around it.
  Addr StartAddr = 0;         ///< Final placement (known at callback time).
  /// Indices into Words of the snippet body proper (excluding spill/CC
  /// wrapper code), so callbacks can find their instructions.
  unsigned BodyBegin = 0;
  /// Registers the allocator handed to the snippet, and the subset it had
  /// to spill because they were live. The scavenging audit proves every
  /// granted-but-not-spilled register dead with an independent solver.
  RegSet Granted;
  RegSet Spilled;
};

/// Machine-specific foreign code plus its register-allocation contract.
class CodeSnippet {
public:
  /// \p Body is the snippet's code. \p RegsToAllocate lists placeholder
  /// register numbers appearing in the body that EEL must rebind to dead
  /// registers; \p Forbidden registers are never assigned even if dead.
  explicit CodeSnippet(std::vector<MachWord> Body,
                       RegSet RegsToAllocate = RegSet(),
                       RegSet Forbidden = RegSet());
  virtual ~CodeSnippet();

  const std::vector<MachWord> &body() const { return Body; }
  std::vector<MachWord> &body() { return Body; }
  const RegSet &regsToAllocate() const { return RegsToAllocate; }
  const RegSet &forbidden() const { return Forbidden; }

  /// Declares that the snippet destroys the condition codes; if they are
  /// live at the insertion point EEL wraps the snippet in save/restore
  /// code (a tool can instead query liveness and pick a cheaper snippet —
  /// the Blizzard-S optimization in §5).
  void setClobbersCC(bool Value) { ClobbersCC = Value; }
  bool clobbersCC() const { return ClobbersCC; }

  /// Call-back invoked after register allocation, with the instance's final
  /// start address and register assignment. May modify the instructions but
  /// not their number.
  using Callback = std::function<void(SnippetInstance &Instance)>;
  void setCallback(Callback CB) { Finish = std::move(CB); }
  const Callback &callback() const { return Finish; }

  /// When set, allocation fails with ErrorCode::NoDeadRegisters instead of
  /// spilling live registers around the snippet. Tools that cannot afford
  /// the memory traffic of a spill (e.g. a tracing snippet on a hot path)
  /// opt in and pick a cheaper snippet at sites the error names.
  void setRequireDeadRegs(bool Value) { RequireDeadRegs = Value; }
  bool requireDeadRegs() const { return RequireDeadRegs; }

private:
  std::vector<MachWord> Body;
  RegSet RegsToAllocate;
  RegSet Forbidden;
  bool ClobbersCC = false;
  bool RequireDeadRegs = false;
  Callback Finish;
};

/// A snippet whose instructions are addressable by index for per-site
/// customization before insertion (the paper's tagged_code_snippet).
class TaggedCodeSnippet : public CodeSnippet {
public:
  using CodeSnippet::CodeSnippet;

  /// Reference to the Nth instruction of the body (0-based).
  MachWord &findInst(unsigned Index) {
    assert(Index < body().size() && "findInst index out of range");
    return body()[Index];
  }
};

using SnippetPtr = std::shared_ptr<CodeSnippet>;

/// Picks \p Count distinct placeholder register numbers that collide with
/// neither the reserved registers nor \p Avoid. Snippet bodies must not
/// name a real register whose number equals a placeholder's (the register
/// rewriter could not tell them apart), so tools building per-site snippets
/// pass the site's registers here.
std::vector<unsigned> choosePlaceholderRegs(const TargetInfo &Target,
                                            unsigned Count, RegSet Avoid);

} // namespace eel

#endif // EEL_CORE_SNIPPET_H
