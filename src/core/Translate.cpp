//===- core/Translate.cpp - Run-time address translation ----------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Translate.h"

#include "isa/AriscEncoding.h"
#include "isa/MriscEncoding.h"
#include "isa/SriscEncoding.h"

#include <cassert>
#include <cstdarg>
#include <cstdio>

using namespace eel;

/// Formats an assembly template, substituting %u-style arguments.
static std::string formatAsm(const char *Format, ...) {
  char Buffer[4096];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buffer, sizeof(Buffer), Format, Args);
  va_end(Args);
  return Buffer;
}

Expected<bool> eel::emitTranslationSite(const TargetInfo &Target,
                                        const Instruction &Jump,
                                        MachWord DelayWord,
                                        std::vector<MachWord> &Code,
                                        std::vector<Reloc> &Relocs) {
  assert(Jump.isIndirect() && "translation site for a direct transfer");
  const IndirectTargetInfo &Info = Jump.indirectInfo();
  // The caller passes the raw delay word; decode it for conflict checks.
  const Instruction Delay = makeInstruction(Target, DelayWord);

  if (Target.arch() == TargetArch::Srisc) {
    using namespace srisc;
    // Protocol registers: g1 carries the target, g2 the translator entry.
    const unsigned G1 = 1, G2 = 2, SP = RegSP;
    unsigned Rd = Info.LinkReg;
    if (Rd == G1 || Rd == G2)
      return Error("indirect transfer links through a protocol register");

    // Where can the original delay instruction go? It must execute after
    // the target value is captured (the original computes its target at
    // issue time, before the delay slot runs).
    bool DelayIsNop = DelayWord == Target.nopWord();
    bool DelayTouchesProtocol = Delay.reads().contains(G1) ||
                                Delay.reads().contains(G2) ||
                                Delay.writes().contains(G1) ||
                                Delay.writes().contains(G2);
    bool DelayWritesSources =
        Delay.writes().contains(Info.BaseReg) ||
        (Info.HasIndex && Delay.writes().contains(Info.IndexReg));
    if (Delay.isControlTransfer())
      return Error("delayed transfer in the delay slot of an indirect jump");

    // Capture the target first: st g1; add base,op2,g1. Reading base/index
    // is unaffected by the g1 save.
    Target.emitStoreWord(G1, SP, -64, Code);
    if (Info.HasIndex)
      Code.push_back(encodeArithReg(Op3Add, G1, Info.BaseReg, Info.IndexReg));
    else
      Code.push_back(encodeArithImm(Op3Add, G1, Info.BaseReg, Info.Offset));

    // Run the delay instruction now (it already follows the target
    // capture, preserving original semantics) unless it conflicts.
    if (!DelayIsNop) {
      if (DelayTouchesProtocol)
        return Error("delay instruction uses translation protocol registers");
      (void)DelayWritesSources; // harmless: target already captured
      Code.push_back(DelayWord);
    }

    Target.emitStoreWord(G2, SP, -68, Code);
    Relocs.push_back({Reloc::Kind::TranslatorHi,
                      static_cast<unsigned>(Code.size()), 0, 0, {}});
    Code.push_back(encodeSethi(G2, 0));
    Relocs.push_back({Reloc::Kind::TranslatorLo,
                      static_cast<unsigned>(Code.size()), 0, 0, {}});
    Code.push_back(encodeArithImm(Op3Or, G2, G2, 0));
    Code.push_back(encodeJmplImm(Rd, G2, 0));
    Code.push_back(nop());
    return true;
  }

  if (Target.arch() == TargetArch::Arisc) {
    using namespace arisc;
    // ARISC: $t14 carries the target, $at the translator entry. Like the
    // MIPS $at/$k0/$k1 contract, no value is live in either across an
    // indirect jump, so there is nothing to save. There is no delay slot;
    // the caller passes a nop as the delay word.
    const unsigned P0 = 27, P1 = RegAT;
    unsigned Rd = Info.LinkReg;
    if (Rd == P0 || Rd == P1)
      return Error("indirect transfer links through a protocol register");
    if (DelayWord != Target.nopWord()) {
      if (Delay.isControlTransfer())
        return Error("delayed transfer in the delay slot of an indirect jump");
      if (Delay.reads().contains(P0) || Delay.reads().contains(P1) ||
          Delay.writes().contains(P0) || Delay.writes().contains(P1))
        return Error("delay instruction uses translation protocol registers");
    }

    if (Info.HasIndex)
      Code.push_back(encodeOperate(Info.BaseReg, Info.IndexReg, P0, FnAdd));
    else
      Code.push_back(encodeIType(OpAddi, Info.BaseReg, P0,
                                 static_cast<uint32_t>(Info.Offset) & 0xFFFF));
    if (DelayWord != Target.nopWord())
      Code.push_back(DelayWord);
    Relocs.push_back({Reloc::Kind::TranslatorHi,
                      static_cast<unsigned>(Code.size()), 0, 0, {}});
    Code.push_back(encodeIType(OpLdih, 0, P1, 0));
    Relocs.push_back({Reloc::Kind::TranslatorLo,
                      static_cast<unsigned>(Code.size()), 0, 0, {}});
    Code.push_back(encodeIType(OpOri, P1, P1, 0));
    Code.push_back(encodeJmp(Rd, P1));
    return true;
  }

  // MRISC: k0 carries the target, k1 the translator entry. Both are
  // reserved registers that generated code never touches, so there is
  // nothing to save and the delay instruction can never conflict.
  using namespace mrisc;
  const unsigned K0 = 26, K1 = 27;
  unsigned Rd = Info.LinkReg;
  if (Rd == K0 || Rd == K1)
    return Error("indirect transfer links through a protocol register");
  if (Delay.isControlTransfer())
    return Error("delayed transfer in the delay slot of an indirect jump");
  if (Delay.reads().contains(K0) || Delay.reads().contains(K1) ||
      Delay.writes().contains(K0) || Delay.writes().contains(K1))
    return Error("delay instruction uses translation protocol registers");

  Code.push_back(encodeRType(Info.BaseReg, 0, K0, 0, FnOr)); // k0 = target
  if (DelayWord != Target.nopWord())
    Code.push_back(DelayWord);
  Relocs.push_back({Reloc::Kind::TranslatorHi,
                    static_cast<unsigned>(Code.size()), 0, 0, {}});
  Code.push_back(encodeIType(OpLui, 0, K1, 0));
  Relocs.push_back({Reloc::Kind::TranslatorLo,
                    static_cast<unsigned>(Code.size()), 0, 0, {}});
  Code.push_back(encodeIType(OpOri, K1, K1, 0));
  if (Rd == 0)
    Code.push_back(encodeRType(K1, 0, 0, 0, FnJr));
  else
    Code.push_back(encodeRType(K1, 0, Rd, 0, FnJalr));
  Code.push_back(nop());
  return true;
}

std::string eel::translatorAsm(const TargetInfo &Target, Addr TableAddr,
                               unsigned EntryCount) {
  if (Target.arch() == TargetArch::Srisc) {
    // In: %g1 = original target; [sp-64] = caller's g1, [sp-68] = g2.
    // Binary search over <EntryCount> (orig, edited) pairs at <TableAddr>.
    return formatAsm(R"(
.text
__eel_translate:
  st %%g3, [%%sp - 72]
  rdcc %%g3
  st %%g3, [%%sp - 76]
  st %%g4, [%%sp - 80]
  st %%g5, [%%sp - 84]
  st %%g6, [%%sp - 88]
  set 0x%x, %%g3        ! table base
  mov 0, %%g4           ! lo
  set %u, %%g5          ! hi = entry count
.Lloop:
  cmp %%g4, %%g5
  bge .Lmiss
  nop
  add %%g4, %%g5, %%g2
  srl %%g2, 1, %%g2     ! mid
  sll %%g2, 3, %%g6
  add %%g3, %%g6, %%g6  ! &pair[mid]
  ld [%%g6 + 0], %%g6   ! pair.orig
  cmp %%g6, %%g1
  be .Lfound
  nop
  bgu .Lhigh
  nop
  ba .Lloop
  add %%g2, 1, %%g4     ! lo = mid + 1
.Lhigh:
  ba .Lloop
  mov %%g2, %%g5        ! hi = mid
.Lfound:
  sll %%g2, 3, %%g6
  add %%g3, %%g6, %%g6
  ld [%%g6 + 4], %%g5   ! edited target
  ld [%%sp - 76], %%g6
  wrcc %%g6             ! restore condition codes
  ld [%%sp - 72], %%g3
  ld [%%sp - 80], %%g4
  ld [%%sp - 88], %%g6
  ld [%%sp - 68], %%g2
  ld [%%sp - 64], %%g1
  jmpl %%g5 + 0, %%g0
  ld [%%sp - 84], %%g5  ! delay slot restores g5
.Lmiss:
  ! Not an original address: it was already rewritten (edited code and
  ! original code occupy disjoint ranges), so jump to it directly.
  ld [%%sp - 76], %%g6
  wrcc %%g6
  ld [%%sp - 72], %%g3
  ld [%%sp - 80], %%g4
  ld [%%sp - 88], %%g6
  ld [%%sp - 68], %%g2
  ld [%%sp - 84], %%g5
  jmpl %%g1 + 0, %%g0
  ld [%%sp - 64], %%g1  ! delay slot restores g1
)",
                     TableAddr, EntryCount);
  }

  if (Target.arch() == TargetArch::Arisc) {
    // In: $t14 = original target; $at is free scratch (protocol contract).
    // The search registers are saved below the stack pointer and restored
    // before the final jump — no delay-slot restore tricks are needed or
    // possible, since ARISC transfers take effect immediately.
    return formatAsm(R"(
.text
__eel_translate:
  stw $t10, -64($sp)
  stw $t11, -68($sp)
  stw $t12, -72($sp)
  stw $t13, -76($sp)
  li $t11, 0x%x         # table base
  li $t12, 0            # lo
  li $t13, %u           # hi = entry count
.Lloop:
  cmplt $at, $t12, $t13
  beq $at, $zero, .Lout # lo >= hi: miss, $t14 already holds the target
  add $t10, $t12, $t13
  srli $t10, $t10, 1    # mid
  slli $at, $t10, 3
  add $at, $t11, $at    # &pair[mid]
  ldw $at, 0($at)       # pair.orig
  beq $at, $t14, .Lfound
  cmplt $at, $t14, $at  # target < pair.orig?
  bne $at, $zero, .Lhigh
  addi $t12, $t10, 1    # lo = mid + 1
  br .Lloop
.Lhigh:
  move $t13, $t10       # hi = mid
  br .Lloop
.Lfound:
  slli $at, $t10, 3
  add $at, $t11, $at
  ldw $t14, 4($at)      # edited target replaces the original in $t14
.Lout:
  ldw $t10, -64($sp)
  ldw $t11, -68($sp)
  ldw $t12, -72($sp)
  ldw $t13, -76($sp)
  jmp ($t14)
)",
                     TableAddr, EntryCount);
  }

  // MRISC. In: $k0 = original target. Uses $at/$t8/$t9 (saved) plus the
  // reserved $k1/$gp as search state.
  return formatAsm(R"(
.text
__eel_translate:
  sw $at, -64($sp)
  sw $t8, -68($sp)
  sw $t9, -72($sp)
  li $at, 0x%x          # table base
  li $t8, 0             # lo
  li $t9, %u            # hi = entry count
.Lloop:
  slt $k1, $t8, $t9
  beq $k1, $zero, .Lmiss
  nop
  add $gp, $t8, $t9
  srl $gp, $gp, 1       # mid
  sll $k1, $gp, 3
  add $k1, $at, $k1     # &pair[mid]
  lw $k1, 0($k1)        # pair.orig
  beq $k1, $k0, .Lfound
  nop
  slt $k1, $k0, $k1
  bne $k1, $zero, .Lhigh
  nop
  j .Lloop
  addi $t8, $gp, 1      # lo = mid + 1
.Lhigh:
  j .Lloop
  move $t9, $gp         # hi = mid
.Lfound:
  sll $k1, $gp, 3
  add $k1, $at, $k1
  lw $k1, 4($k1)        # edited target
  lw $at, -64($sp)
  lw $t8, -68($sp)
  jr $k1
  lw $t9, -72($sp)      # delay slot restores t9
.Lmiss:
  # Already-rewritten (or faithfully wild) address: jump to it directly.
  lw $at, -64($sp)
  lw $t8, -68($sp)
  jr $k0
  lw $t9, -72($sp)
)",
                   TableAddr, EntryCount);
}
