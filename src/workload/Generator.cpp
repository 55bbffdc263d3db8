//===- workload/Generator.cpp - Synthetic workload generation ----------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "workload/Generator.h"

#include "asmkit/Assembler.h"
#include "support/Rng.h"

#include <cassert>
#include <memory>

using namespace eel;

namespace {

/// Virtual registers the generator uses; each emitter maps them to real
/// registers. ACC carries the routine's running value (also the argument
/// and result); T0-T3 are scratch; SAVED survives calls (main only).
enum VReg { ACC, T0, T1, T2, T3, SAVED };

/// Comparison conditions for conditional branches.
enum class CondKind { Eq, Ne, Gt, Le };

/// Target-specific assembly emission. The generator drives this interface,
/// so the same program structure exists on both architectures.
class Emitter {
public:
  explicit Emitter(bool SunStyleAnnul) : AllowAnnul(SunStyleAnnul) {}
  virtual ~Emitter() = default;

  std::string take() { return std::move(Text); }
  void raw(const std::string &Line) { Text += Line + "\n"; }
  void label(const std::string &Name) { Text += Name + ":\n"; }

  virtual void loadImm(VReg D, int32_t Value) = 0;
  virtual void arith(const char *Op, VReg D, VReg A, int32_t Imm) = 0;
  virtual void arithReg(const char *Op, VReg D, VReg A, VReg B) = 0;
  virtual void move(VReg D, VReg S) = 0;
  /// Compare reg with an immediate and branch; Annul only affects SRISC.
  virtual void branchImm(CondKind Kind, VReg R, int32_t Imm,
                         const std::string &Target, bool Annul) = 0;
  virtual void jump(const std::string &Target) = 0;
  virtual void call(const std::string &Target) = 0;
  virtual void prologue(bool SavesLink, int Frame = 96) = 0;
  virtual void epilogueRet(bool SavesLink, int Frame = 96) = 0;
  virtual void loadGlobal(VReg D, const std::string &Sym, int Off) = 0;
  virtual void storeGlobal(VReg S, const std::string &Sym, int Off) = 0;
  /// Switch through a dispatch table: masks ACC to [0, N), bounds-checks,
  /// loads table[idx], jumps. Case labels are <Prefix>_0.. plus
  /// <Prefix>_def.
  virtual void switchJump(const std::string &TableSym, unsigned N,
                          const std::string &Prefix) = 0;
  /// Frame-popping tail call through a function-pointer cell.
  virtual void tailCallViaCell(const std::string &CellSym, bool SavesLink,
                               int Frame = 96) = 0;
  /// switchJump, except the table base is loaded from \p BaseCellSym (a
  /// data word holding the table's address) rather than materialized.
  virtual void switchJumpViaCell(const std::string &BaseCellSym, unsigned N,
                                 const std::string &Prefix) = 0;
  /// Split compare/branch pair, so other code can sit in the compare's
  /// shadow (on SRISC the condition codes stay live across it).
  virtual void compareImm(VReg R, int32_t Imm) = 0;
  virtual void branchAfterCompare(CondKind Kind, const std::string &Target) = 0;
  /// Indirect call through a function-pointer cell.
  virtual void callViaCell(const std::string &CellSym) = 0;
  virtual void exitWithZero() = 0;
  /// Moves ACC into the conventional result register before returning.
  virtual void retResult() {}
  /// Moves the conventional result register back into ACC after a call.
  virtual void useResult() {}
  /// The `.word`/data section syntax is shared; only code differs.

protected:
  std::string Text;
  bool AllowAnnul;
};

/// SRISC (SPARC-like) emitter. ACC=%o0, T0-T3=%o3,%o4,%o5,%g3, SAVED=%l0.
class SriscEmitter : public Emitter {
public:
  using Emitter::Emitter;

  const char *reg(VReg R) const {
    switch (R) {
    case ACC: return "%o0";
    case T0: return "%o3";
    case T1: return "%o4";
    case T2: return "%o5";
    case T3: return "%g3";
    case SAVED: return "%l0";
    }
    return "%g0";
  }

  void loadImm(VReg D, int32_t Value) override {
    if (Value >= -4096 && Value <= 4095)
      raw(std::string("  mov ") + std::to_string(Value) + ", " + reg(D));
    else
      raw(std::string("  set ") + std::to_string(Value) + ", " + reg(D));
  }
  void arith(const char *Op, VReg D, VReg A, int32_t Imm) override {
    raw(std::string("  ") + Op + " " + reg(A) + ", " + std::to_string(Imm) +
        ", " + reg(D));
  }
  void arithReg(const char *Op, VReg D, VReg A, VReg B) override {
    raw(std::string("  ") + Op + " " + reg(A) + ", " + reg(B) + ", " +
        reg(D));
  }
  void move(VReg D, VReg S) override {
    raw(std::string("  mov ") + reg(S) + ", " + reg(D));
  }
  void branchImm(CondKind Kind, VReg R, int32_t Imm,
                 const std::string &Target, bool Annul) override {
    raw(std::string("  cmp ") + reg(R) + ", " + std::to_string(Imm));
    const char *Mnemonic = "bn";
    switch (Kind) {
    case CondKind::Eq: Mnemonic = "be"; break;
    case CondKind::Ne: Mnemonic = "bne"; break;
    case CondKind::Gt: Mnemonic = "bg"; break;
    case CondKind::Le: Mnemonic = "ble"; break;
    }
    bool UseAnnul = Annul && AllowAnnul;
    raw(std::string("  ") + Mnemonic + (UseAnnul ? ",a " : " ") + Target);
    if (!UseAnnul)
      raw("  nop");
    // Annulled branches get their delay filled by the caller's next
    // emitted instruction only in handwritten code; here we keep a nop so
    // the structure stays simple but the annul bit is still exercised.
    else
      raw("  nop");
  }
  void compareImm(VReg R, int32_t Imm) override {
    raw(std::string("  cmp ") + reg(R) + ", " + std::to_string(Imm));
  }
  void branchAfterCompare(CondKind Kind, const std::string &Target) override {
    const char *Mnemonic = "bn";
    switch (Kind) {
    case CondKind::Eq: Mnemonic = "be"; break;
    case CondKind::Ne: Mnemonic = "bne"; break;
    case CondKind::Gt: Mnemonic = "bg"; break;
    case CondKind::Le: Mnemonic = "ble"; break;
    }
    raw(std::string("  ") + Mnemonic + " " + Target);
    raw("  nop");
  }
  void jump(const std::string &Target) override {
    raw("  ba " + Target);
    raw("  nop");
  }
  void call(const std::string &Target) override {
    raw("  call " + Target);
    raw("  nop");
  }
  void prologue(bool SavesLink, int Frame) override {
    raw("  add %sp, -" + std::to_string(Frame) + ", %sp");
    if (SavesLink)
      raw("  st %o7, [%sp + 4]");
  }
  void epilogueRet(bool SavesLink, int Frame) override {
    if (SavesLink)
      raw("  ld [%sp + 4], %o7");
    raw("  add %sp, " + std::to_string(Frame) + ", %sp");
    raw("  ret");
    raw("  nop");
  }
  void loadGlobal(VReg D, const std::string &Sym, int Off) override {
    raw(std::string("  sethi %hi(") + Sym + "), " + reg(T3));
    raw(std::string("  ld [") + reg(T3) + " + %lo(" + Sym + ")], " + reg(D));
    (void)Off; // offsets folded into distinct symbols by the generator
  }
  void storeGlobal(VReg S, const std::string &Sym, int Off) override {
    raw(std::string("  sethi %hi(") + Sym + "), " + reg(T3));
    raw(std::string("  st ") + reg(S) + ", [" + reg(T3) + " + %lo(" + Sym +
        ")]");
    (void)Off;
  }
  void switchJump(const std::string &TableSym, unsigned N,
                  const std::string &Prefix) override {
    assert((N & (N - 1)) == 0 && "switch arity must be a power of two");
    raw(std::string("  and ") + reg(ACC) + ", " + std::to_string(N - 1) +
        ", " + reg(T0));
    raw(std::string("  cmp ") + reg(T0) + ", " + std::to_string(N - 1));
    raw("  bgu " + Prefix + "_def");
    raw("  nop");
    raw(std::string("  sll ") + reg(T0) + ", 2, " + reg(T1));
    raw(std::string("  sethi %hi(") + TableSym + "), " + reg(T2));
    raw(std::string("  or ") + reg(T2) + ", %lo(" + TableSym + "), " +
        reg(T2));
    raw(std::string("  ld [") + reg(T2) + " + " + reg(T1) + "], " + reg(T3));
    raw(std::string("  jmpl ") + reg(T3) + " + 0, %g0");
    raw("  nop");
  }
  void tailCallViaCell(const std::string &CellSym, bool SavesLink,
                       int Frame) override {
    if (SavesLink)
      raw("  ld [%sp + 4], %o7");
    raw("  add %sp, " + std::to_string(Frame) + ", %sp"); // pop frame
    raw(std::string("  set ") + CellSym + ", " + reg(T0));
    raw(std::string("  ld [") + reg(T0) + " + 0], " + reg(T1));
    raw(std::string("  jmpl ") + reg(T1) + " + 0, %g0");
    raw("  nop");
  }
  void callViaCell(const std::string &CellSym) override {
    raw(std::string("  set ") + CellSym + ", " + reg(T0));
    raw(std::string("  ld [") + reg(T0) + " + 0], " + reg(T1));
    raw(std::string("  jmpl ") + reg(T1) + " + 0, %o7");
    raw("  nop");
  }
  void switchJumpViaCell(const std::string &BaseCellSym, unsigned N,
                         const std::string &Prefix) override {
    assert((N & (N - 1)) == 0 && "switch arity must be a power of two");
    raw(std::string("  and ") + reg(ACC) + ", " + std::to_string(N - 1) +
        ", " + reg(T0));
    raw(std::string("  cmp ") + reg(T0) + ", " + std::to_string(N - 1));
    raw("  bgu " + Prefix + "_def");
    raw("  nop");
    raw(std::string("  sll ") + reg(T0) + ", 2, " + reg(T1));
    raw(std::string("  set ") + BaseCellSym + ", " + reg(T2));
    raw(std::string("  ld [") + reg(T2) + " + 0], " + reg(T2));
    raw(std::string("  ld [") + reg(T2) + " + " + reg(T1) + "], " + reg(T3));
    raw(std::string("  jmpl ") + reg(T3) + " + 0, %g0");
    raw("  nop");
  }
  void exitWithZero() override {
    raw("  mov 0, %o0");
    raw("  sys 0");
  }
};

/// MRISC (MIPS-like) emitter. ACC=$a0, T0-T3=$t0..$t3, SAVED=$s0.
class MriscEmitter : public Emitter {
public:
  using Emitter::Emitter;

  const char *reg(VReg R) const {
    switch (R) {
    case ACC: return "$a0";
    case T0: return "$t0";
    case T1: return "$t1";
    case T2: return "$t2";
    case T3: return "$t3";
    case SAVED: return "$s0";
    }
    return "$zero";
  }

  void loadImm(VReg D, int32_t Value) override {
    raw(std::string("  li ") + reg(D) + ", " + std::to_string(Value));
  }
  void arith(const char *Op, VReg D, VReg A, int32_t Imm) override {
    // Map the generator's generic ops to MRISC forms.
    std::string Mnemonic = Op;
    if (Mnemonic == "add" || Mnemonic == "sub") {
      int32_t V = Mnemonic == "sub" ? -Imm : Imm;
      raw(std::string("  addi ") + reg(D) + ", " + reg(A) + ", " +
          std::to_string(V));
      return;
    }
    if (Mnemonic == "and" || Mnemonic == "or" || Mnemonic == "xor") {
      raw("  " + Mnemonic + "i " + reg(D) + ", " + reg(A) + ", " +
          std::to_string(Imm));
      return;
    }
    if (Mnemonic == "sll" || Mnemonic == "srl") {
      raw("  " + Mnemonic + " " + reg(D) + ", " + reg(A) + ", " +
          std::to_string(Imm));
      return;
    }
    if (Mnemonic == "smul") {
      raw(std::string("  li $at, ") + std::to_string(Imm));
      raw(std::string("  mul ") + reg(D) + ", " + reg(A) + ", $at");
      return;
    }
    assert(false && "unknown generic op");
  }
  void arithReg(const char *Op, VReg D, VReg A, VReg B) override {
    std::string Mnemonic = Op;
    if (Mnemonic == "smul")
      Mnemonic = "mul";
    raw("  " + Mnemonic + " " + reg(D) + ", " + reg(A) + ", " + reg(B));
  }
  void move(VReg D, VReg S) override {
    raw(std::string("  move ") + reg(D) + ", " + reg(S));
  }
  void branchImm(CondKind Kind, VReg R, int32_t Imm,
                 const std::string &Target, bool) override {
    switch (Kind) {
    case CondKind::Eq:
      raw(std::string("  li $at, ") + std::to_string(Imm));
      raw(std::string("  beq ") + reg(R) + ", $at, " + Target);
      break;
    case CondKind::Ne:
      raw(std::string("  li $at, ") + std::to_string(Imm));
      raw(std::string("  bne ") + reg(R) + ", $at, " + Target);
      break;
    case CondKind::Gt:
      // R > Imm  <=>  R - Imm > 0.
      raw(std::string("  addi $at, ") + reg(R) + ", " +
          std::to_string(-Imm));
      raw("  bgtz $at, " + Target);
      break;
    case CondKind::Le:
      raw(std::string("  addi $at, ") + reg(R) + ", " +
          std::to_string(-Imm));
      raw("  blez $at, " + Target);
      break;
    }
    raw("  nop");
  }
  void compareImm(VReg R, int32_t Imm) override {
    raw(std::string("  addi $at, ") + reg(R) + ", " + std::to_string(-Imm));
  }
  void branchAfterCompare(CondKind Kind, const std::string &Target) override {
    switch (Kind) {
    case CondKind::Eq:
      raw("  beq $at, $zero, " + Target);
      break;
    case CondKind::Ne:
      raw("  bne $at, $zero, " + Target);
      break;
    case CondKind::Gt:
      raw("  bgtz $at, " + Target);
      break;
    case CondKind::Le:
      raw("  blez $at, " + Target);
      break;
    }
    raw("  nop");
  }
  void jump(const std::string &Target) override {
    raw("  j " + Target);
    raw("  nop");
  }
  void call(const std::string &Target) override {
    raw("  jal " + Target);
    raw("  nop");
  }
  void prologue(bool SavesLink, int Frame) override {
    raw("  addi $sp, $sp, -" + std::to_string(Frame));
    if (SavesLink)
      raw("  sw $ra, 4($sp)");
  }
  void epilogueRet(bool SavesLink, int Frame) override {
    if (SavesLink)
      raw("  lw $ra, 4($sp)");
    raw("  addi $sp, $sp, " + std::to_string(Frame));
    raw("  jr $ra");
    raw("  nop");
  }
  void loadGlobal(VReg D, const std::string &Sym, int Off) override {
    raw(std::string("  lui $t4, %hi(") + Sym + ")");
    raw(std::string("  ori $t4, $t4, %lo(") + Sym + ")");
    raw(std::string("  lw ") + reg(D) + ", 0($t4)");
    (void)Off;
  }
  void storeGlobal(VReg S, const std::string &Sym, int Off) override {
    raw(std::string("  lui $t4, %hi(") + Sym + ")");
    raw(std::string("  ori $t4, $t4, %lo(") + Sym + ")");
    raw(std::string("  sw ") + reg(S) + ", 0($t4)");
    (void)Off;
  }
  void switchJump(const std::string &TableSym, unsigned N,
                  const std::string &Prefix) override {
    raw(std::string("  andi ") + reg(T0) + ", " + reg(ACC) + ", " +
        std::to_string(N - 1));
    raw(std::string("  slti $at, ") + reg(T0) + ", " + std::to_string(N));
    raw("  beq $at, $zero, " + Prefix + "_def");
    raw("  nop");
    raw(std::string("  sll ") + reg(T1) + ", " + reg(T0) + ", 2");
    raw(std::string("  lui ") + reg(T2) + ", %hi(" + TableSym + ")");
    raw(std::string("  ori ") + reg(T2) + ", " + reg(T2) + ", %lo(" +
        TableSym + ")");
    raw(std::string("  add ") + reg(T2) + ", " + reg(T2) + ", " + reg(T1));
    raw(std::string("  lw ") + reg(T3) + ", 0(" + reg(T2) + ")");
    raw(std::string("  jr ") + reg(T3));
    raw("  nop");
  }
  void tailCallViaCell(const std::string &CellSym, bool SavesLink,
                       int Frame) override {
    if (SavesLink)
      raw("  lw $ra, 4($sp)");
    raw("  addi $sp, $sp, " + std::to_string(Frame));
    raw(std::string("  lui ") + reg(T0) + ", %hi(" + CellSym + ")");
    raw(std::string("  ori ") + reg(T0) + ", " + reg(T0) + ", %lo(" +
        CellSym + ")");
    raw(std::string("  lw ") + reg(T1) + ", 0(" + reg(T0) + ")");
    raw(std::string("  jr ") + reg(T1));
    raw("  nop");
  }
  void callViaCell(const std::string &CellSym) override {
    raw(std::string("  lui ") + reg(T0) + ", %hi(" + CellSym + ")");
    raw(std::string("  ori ") + reg(T0) + ", " + reg(T0) + ", %lo(" +
        CellSym + ")");
    raw(std::string("  lw ") + reg(T1) + ", 0(" + reg(T0) + ")");
    raw(std::string("  jalr ") + reg(T1));
    raw("  nop");
  }
  void switchJumpViaCell(const std::string &BaseCellSym, unsigned N,
                         const std::string &Prefix) override {
    raw(std::string("  andi ") + reg(T0) + ", " + reg(ACC) + ", " +
        std::to_string(N - 1));
    raw(std::string("  slti $at, ") + reg(T0) + ", " + std::to_string(N));
    raw("  beq $at, $zero, " + Prefix + "_def");
    raw("  nop");
    raw(std::string("  sll ") + reg(T1) + ", " + reg(T0) + ", 2");
    raw(std::string("  lui ") + reg(T2) + ", %hi(" + BaseCellSym + ")");
    raw(std::string("  ori ") + reg(T2) + ", " + reg(T2) + ", %lo(" +
        BaseCellSym + ")");
    raw(std::string("  lw ") + reg(T2) + ", 0(" + reg(T2) + ")");
    raw(std::string("  add ") + reg(T2) + ", " + reg(T2) + ", " + reg(T1));
    raw(std::string("  lw ") + reg(T3) + ", 0(" + reg(T2) + ")");
    raw(std::string("  jr ") + reg(T3));
    raw("  nop");
  }
  void exitWithZero() override {
    raw("  li $a0, 0");
    raw("  li $v0, 0");
    raw("  syscall");
  }
  void retResult() override { raw("  move $v0, $a0"); }
  void useResult() override { raw("  move $a0, $v0"); }
};

/// ARISC (Alpha-like) emitter. ACC=$a0, T0-T3=$t0..$t3, SAVED=$s0. No
/// delay slots, so transfers never trail a nop; conditionals are
/// compare-and-branch on two registers with $at as the assembler temp.
class AriscEmitter : public Emitter {
public:
  using Emitter::Emitter;

  const char *reg(VReg R) const {
    switch (R) {
    case ACC: return "$a0";
    case T0: return "$t0";
    case T1: return "$t1";
    case T2: return "$t2";
    case T3: return "$t3";
    case SAVED: return "$s0";
    }
    return "$zero";
  }

  void loadImm(VReg D, int32_t Value) override {
    raw(std::string("  li ") + reg(D) + ", " + std::to_string(Value));
  }
  void arith(const char *Op, VReg D, VReg A, int32_t Imm) override {
    std::string Mnemonic = Op;
    if (Mnemonic == "add" || Mnemonic == "sub") {
      int32_t V = Mnemonic == "sub" ? -Imm : Imm;
      raw(std::string("  addi ") + reg(D) + ", " + reg(A) + ", " +
          std::to_string(V));
      return;
    }
    if (Mnemonic == "and" || Mnemonic == "or" || Mnemonic == "xor") {
      raw("  " + Mnemonic + "i " + reg(D) + ", " + reg(A) + ", " +
          std::to_string(Imm));
      return;
    }
    if (Mnemonic == "sll" || Mnemonic == "srl") {
      raw("  " + Mnemonic + "i " + reg(D) + ", " + reg(A) + ", " +
          std::to_string(Imm));
      return;
    }
    if (Mnemonic == "smul") {
      raw(std::string("  li $at, ") + std::to_string(Imm));
      raw(std::string("  mul ") + reg(D) + ", " + reg(A) + ", $at");
      return;
    }
    assert(false && "unknown generic op");
  }
  void arithReg(const char *Op, VReg D, VReg A, VReg B) override {
    std::string Mnemonic = Op;
    if (Mnemonic == "smul")
      Mnemonic = "mul";
    raw("  " + Mnemonic + " " + reg(D) + ", " + reg(A) + ", " + reg(B));
  }
  void move(VReg D, VReg S) override {
    raw(std::string("  move ") + reg(D) + ", " + reg(S));
  }
  void branchImm(CondKind Kind, VReg R, int32_t Imm,
                 const std::string &Target, bool) override {
    raw(std::string("  li $at, ") + std::to_string(Imm));
    switch (Kind) {
    case CondKind::Eq:
      raw(std::string("  beq ") + reg(R) + ", $at, " + Target);
      break;
    case CondKind::Ne:
      raw(std::string("  bne ") + reg(R) + ", $at, " + Target);
      break;
    case CondKind::Gt: // R > Imm  <=>  Imm < R
      raw(std::string("  blt $at, ") + reg(R) + ", " + Target);
      break;
    case CondKind::Le:
      raw(std::string("  ble ") + reg(R) + ", $at, " + Target);
      break;
    }
  }
  void compareImm(VReg R, int32_t Imm) override {
    raw(std::string("  addi $at, ") + reg(R) + ", " + std::to_string(-Imm));
  }
  void branchAfterCompare(CondKind Kind, const std::string &Target) override {
    switch (Kind) {
    case CondKind::Eq:
      raw("  beq $at, $zero, " + Target);
      break;
    case CondKind::Ne:
      raw("  bne $at, $zero, " + Target);
      break;
    case CondKind::Gt:
      raw("  blt $zero, $at, " + Target);
      break;
    case CondKind::Le:
      raw("  ble $at, $zero, " + Target);
      break;
    }
  }
  void jump(const std::string &Target) override { raw("  br " + Target); }
  void call(const std::string &Target) override { raw("  bsr " + Target); }
  void prologue(bool SavesLink, int Frame) override {
    raw("  addi $sp, $sp, -" + std::to_string(Frame));
    if (SavesLink)
      raw("  stw $ra, 4($sp)");
  }
  void epilogueRet(bool SavesLink, int Frame) override {
    if (SavesLink)
      raw("  ldw $ra, 4($sp)");
    raw("  addi $sp, $sp, " + std::to_string(Frame));
    raw("  ret");
  }
  void loadGlobal(VReg D, const std::string &Sym, int Off) override {
    raw(std::string("  ldih $t4, %hi(") + Sym + ")");
    raw(std::string("  ori $t4, $t4, %lo(") + Sym + ")");
    raw(std::string("  ldw ") + reg(D) + ", 0($t4)");
    (void)Off;
  }
  void storeGlobal(VReg S, const std::string &Sym, int Off) override {
    raw(std::string("  ldih $t4, %hi(") + Sym + ")");
    raw(std::string("  ori $t4, $t4, %lo(") + Sym + ")");
    raw(std::string("  stw ") + reg(S) + ", 0($t4)");
    (void)Off;
  }
  void switchJump(const std::string &TableSym, unsigned N,
                  const std::string &Prefix) override {
    raw(std::string("  andi ") + reg(T0) + ", " + reg(ACC) + ", " +
        std::to_string(N - 1));
    raw(std::string("  cmplti $at, ") + reg(T0) + ", " + std::to_string(N));
    raw("  beq $at, $zero, " + Prefix + "_def");
    raw(std::string("  slli ") + reg(T1) + ", " + reg(T0) + ", 2");
    raw(std::string("  ldih ") + reg(T2) + ", %hi(" + TableSym + ")");
    raw(std::string("  ori ") + reg(T2) + ", " + reg(T2) + ", %lo(" +
        TableSym + ")");
    raw(std::string("  add ") + reg(T2) + ", " + reg(T2) + ", " + reg(T1));
    raw(std::string("  ldw ") + reg(T3) + ", 0(" + reg(T2) + ")");
    raw(std::string("  jmp (") + reg(T3) + ")");
  }
  void tailCallViaCell(const std::string &CellSym, bool SavesLink,
                       int Frame) override {
    if (SavesLink)
      raw("  ldw $ra, 4($sp)");
    raw("  addi $sp, $sp, " + std::to_string(Frame));
    raw(std::string("  ldih ") + reg(T0) + ", %hi(" + CellSym + ")");
    raw(std::string("  ori ") + reg(T0) + ", " + reg(T0) + ", %lo(" +
        CellSym + ")");
    raw(std::string("  ldw ") + reg(T1) + ", 0(" + reg(T0) + ")");
    raw(std::string("  jmp (") + reg(T1) + ")");
  }
  void callViaCell(const std::string &CellSym) override {
    raw(std::string("  ldih ") + reg(T0) + ", %hi(" + CellSym + ")");
    raw(std::string("  ori ") + reg(T0) + ", " + reg(T0) + ", %lo(" +
        CellSym + ")");
    raw(std::string("  ldw ") + reg(T1) + ", 0(" + reg(T0) + ")");
    raw(std::string("  jmp $ra, (") + reg(T1) + ")");
  }
  void switchJumpViaCell(const std::string &BaseCellSym, unsigned N,
                         const std::string &Prefix) override {
    raw(std::string("  andi ") + reg(T0) + ", " + reg(ACC) + ", " +
        std::to_string(N - 1));
    raw(std::string("  cmplti $at, ") + reg(T0) + ", " + std::to_string(N));
    raw("  beq $at, $zero, " + Prefix + "_def");
    raw(std::string("  slli ") + reg(T1) + ", " + reg(T0) + ", 2");
    raw(std::string("  ldih ") + reg(T2) + ", %hi(" + BaseCellSym + ")");
    raw(std::string("  ori ") + reg(T2) + ", " + reg(T2) + ", %lo(" +
        BaseCellSym + ")");
    raw(std::string("  ldw ") + reg(T2) + ", 0(" + reg(T2) + ")");
    raw(std::string("  add ") + reg(T2) + ", " + reg(T2) + ", " + reg(T1));
    raw(std::string("  ldw ") + reg(T3) + ", 0(" + reg(T2) + ")");
    raw(std::string("  jmp (") + reg(T3) + ")");
  }
  void exitWithZero() override {
    raw("  li $a0, 0");
    raw("  sys 0");
  }
  void retResult() override { raw("  move $v0, $a0"); }
  void useResult() override { raw("  move $a0, $v0"); }
};

/// Drives one emitter to build the whole program.
class ProgramBuilder {
public:
  ProgramBuilder(TargetArch Arch, const WorkloadOptions &Options)
      : Arch(Arch), Options(Options), R(Options.Seed),
        Annul(Options.AnnulledBranches && Arch == TargetArch::Srisc) {
    if (Arch == TargetArch::Srisc)
      E.reset(new SriscEmitter(Annul));
    else if (Arch == TargetArch::Mrisc)
      E.reset(new MriscEmitter(Annul));
    else
      E.reset(new AriscEmitter(Annul));
  }

  std::string build();

private:
  std::string uniqueLabel(const std::string &Stem) {
    return ".L" + Stem + "_" + std::to_string(LabelCounter++);
  }

  void emitSegment(unsigned RoutineIndex);
  void emitRoutine(unsigned Index);
  void emitMain();
  void emitPrintU32();

  TargetArch Arch;
  WorkloadOptions Options;
  Rng R;
  bool Annul;
  std::unique_ptr<Emitter> E;
  unsigned LabelCounter = 0;
  unsigned TableCounter = 0;
  unsigned CellCounter = 0;
  std::string DataSection;
  std::vector<std::string> HiddenRoutines; ///< Emitted at the end.
};

} // namespace

void ProgramBuilder::emitSegment(unsigned RoutineIndex) {
  static const char *Ops[] = {"add", "sub", "xor", "and", "or"};
  switch (R.below(7)) {
  case 0: { // arithmetic chain
    for (int I = 0, N = static_cast<int>(R.range(1, 4)); I < N; ++I)
      E->arith(Ops[R.below(5)], ACC, ACC,
               static_cast<int32_t>(R.range(1, 500)));
    break;
  }
  case 1: { // counted loop
    std::string Top = uniqueLabel("loop");
    E->loadImm(T0, static_cast<int32_t>(
                       R.range(2, static_cast<int64_t>(Options.LoopIterations))));
    E->label(Top);
    E->arith("add", ACC, ACC, static_cast<int32_t>(R.range(1, 9)));
    E->arith("sub", T0, T0, 1);
    E->branchImm(CondKind::Gt, T0, 0, Top, false);
    break;
  }
  case 2: { // if/else diamond (possibly with an annulled branch)
    std::string Else = uniqueLabel("else");
    std::string Join = uniqueLabel("join");
    bool UseAnnul = Annul && R.chance(50);
    E->branchImm(R.chance(50) ? CondKind::Eq : CondKind::Gt, ACC,
                 static_cast<int32_t>(R.range(0, 64)), Else, UseAnnul);
    E->arith("add", ACC, ACC, 3);
    E->jump(Join);
    E->label(Else);
    E->arith("xor", ACC, ACC, 21);
    E->label(Join);
    break;
  }
  case 3: { // global array read-modify-write
    unsigned Slot = static_cast<unsigned>(R.below(8));
    std::string Sym = "garr" + std::to_string(Slot);
    E->loadGlobal(T0, Sym, 0);
    E->arithReg("add", ACC, ACC, T0);
    E->storeGlobal(ACC, Sym, 0);
    break;
  }
  case 4: { // call a later routine (keeps the DAG acyclic)
    if (RoutineIndex + 1 < Options.Routines) {
      unsigned Callee = static_cast<unsigned>(
          R.range(RoutineIndex + 1, Options.Routines - 1));
      E->call("r" + std::to_string(Callee));
      E->useResult();
    } else {
      E->arith("add", ACC, ACC, 7);
    }
    break;
  }
  case 6: { // a load in the compare's shadow: on SRISC the condition
            // codes are live across the memory reference, so CC-clobbering
            // instrumentation there must save/restore them (§5 Blizzard-S)
    std::string Else = uniqueLabel("ccelse");
    std::string Join = uniqueLabel("ccjoin");
    unsigned Slot = static_cast<unsigned>(R.below(8));
    E->compareImm(ACC, static_cast<int32_t>(R.range(0, 64)));
    E->loadGlobal(T0, "garr" + std::to_string(Slot), 0);
    E->branchAfterCompare(CondKind::Gt, Else);
    E->arithReg("add", ACC, ACC, T0);
    E->jump(Join);
    E->label(Else);
    E->arithReg("xor", ACC, ACC, T0);
    E->label(Join);
    break;
  }
  case 5: { // switch through a dispatch table
    if (R.below(100) >= Options.SwitchPercent) {
      E->arith("xor", ACC, ACC, 9);
      break;
    }
    unsigned N = R.chance(50) ? 4 : 8;
    std::string Prefix = ".Lsw" + std::to_string(TableCounter);
    std::string Table = "table" + std::to_string(TableCounter++);
    if (Options.MangledTablePercent &&
        R.below(100) < Options.MangledTablePercent) {
      // "Hand-mangled" dispatch: the table base lives in a data cell, so
      // a backward slice sees only an opaque load — the site is
      // unanalyzable without constant-cell facts.
      std::string BaseCell = "mcell" + std::to_string(CellCounter++);
      DataSection += ".align 4\n" + BaseCell + ": .word " + Table + "\n";
      E->switchJumpViaCell(BaseCell, N, Prefix);
    } else {
      E->switchJump(Table, N, Prefix);
    }
    std::string Join = Prefix + "_join";
    DataSection += ".align 4\n" + Table + ":";
    for (unsigned C = 0; C < N; ++C)
      DataSection += std::string(C ? "," : " .word") +
                     (C ? " " : " ") + Prefix + "_" + std::to_string(C);
    DataSection += "\n";
    for (unsigned C = 0; C < N; ++C) {
      E->label(Prefix + "_" + std::to_string(C));
      E->arith("add", ACC, ACC, static_cast<int32_t>(C * 17 + 1));
      E->jump(Join);
    }
    E->label(Prefix + "_def");
    E->arith("xor", ACC, ACC, 5);
    E->label(Join);
    break;
  }
  }
}

void ProgramBuilder::emitRoutine(unsigned Index) {
  bool IsLast = Index + 1 >= Options.Routines;
  bool NonLeaf = !IsLast; // may contain calls
  std::string Name = "r" + std::to_string(Index);
  E->label(Name);
  E->prologue(NonLeaf);

  if (Options.SymbolPathologies && R.chance(30)) {
    // A forward-branch internal label that carries a symbol (stage 1 must
    // drop it) plus debug/temp labels.
    std::string Internal = "skip_" + Name;
    E->branchImm(CondKind::Eq, ACC, 0, Internal, false);
    E->arith("add", ACC, ACC, 2);
    E->label(Internal);
    E->raw(".debuglabel dbg_" + Name);
    E->raw(".templabel tmp_" + Name);
  }

  for (unsigned S = 0; S < Options.SegmentsPerRoutine; ++S) {
    emitSegment(Index);
    if (Options.DeadCodePercent && R.below(100) < Options.DeadCodePercent) {
      // A dead chain: scratch results never read (every segment writes
      // its scratch registers before reading them).
      E->arith("add", T1, ACC, static_cast<int32_t>(R.range(1, 99)));
      E->arith("xor", T2, T1, 33);
      if (R.chance(50))
        E->arithReg("smul", T1, T2, T2);
    }
  }

  if (Options.SymbolPathologies && NonLeaf && R.chance(25)) {
    // Call a hidden routine through a function-pointer cell (only in
    // routines that save their link register).
    std::string Hidden = "hfun" + std::to_string(CellCounter);
    std::string Cell = "hcell" + std::to_string(CellCounter++);
    E->callViaCell(Cell);
    E->useResult();
    DataSection += ".align 4\n" + Cell + ": .word " + Hidden + "\n";
    HiddenRoutines.push_back(Hidden);
  }

  // Ending: plain return or a frame-popping tail call (SunPro style).
  if (!IsLast && R.below(100) < Options.TailCallPercent) {
    unsigned Callee = static_cast<unsigned>(
        R.range(Index + 1, Options.Routines - 1));
    std::string Cell = "tcell" + std::to_string(CellCounter++);
    DataSection +=
        ".align 4\n" + Cell + ": .word r" + std::to_string(Callee) + "\n";
    E->tailCallViaCell(Cell, NonLeaf);
  } else {
    E->retResult();
    E->epilogueRet(NonLeaf);
  }

  if (Options.InterleavedDataPercent &&
      R.below(100) < Options.InterleavedDataPercent) {
    // A literal pool interleaved into the text segment after the routine's
    // final transfer: odd words that never execute and (on SRISC) do not
    // decode. Heuristic disassembly must not let junk decodings of these
    // words poison the analysis.
    E->raw(".align 4");
    std::string Blob = ".word";
    unsigned Words = static_cast<unsigned>(R.range(2, 5));
    for (unsigned W = 0; W < Words; ++W)
      Blob += (W ? ", " : " ") +
              std::to_string(static_cast<uint32_t>(R.range(1, 127)) * 2 + 1);
    E->raw(Blob);
  }
}

void ProgramBuilder::emitMain() {
  E->label("main");
  E->prologue(/*SavesLink=*/false);
  E->loadImm(SAVED, static_cast<int32_t>(R.range(1, 1000)));
  unsigned Calls = std::min<unsigned>(Options.Routines, 6);
  for (unsigned I = 0; I < Calls; ++I) {
    E->move(ACC, SAVED);
    // std::string first: at -O3, GCC 12 reports a false -Wrestrict
    // overlap for "literal" + std::string&&.
    E->call(std::string("r") + std::to_string(I));
    E->useResult();
    E->move(SAVED, ACC);
  }
  // Print the checksum masked positive, then exit 0.
  E->move(ACC, SAVED);
  E->arith("srl", ACC, ACC, 4);
  E->call("print_u32");
  E->exitWithZero();
  // Never reached (exit does not return), but gives the analyses a clean
  // routine end instead of control running off the extent.
  E->epilogueRet(/*SavesLink=*/false);
}

void ProgramBuilder::emitPrintU32() {
  // Decimal printer: digits written backwards before a trailing newline.
  if (Arch == TargetArch::Srisc) {
    E->raw(R"(print_u32:
  add %sp, -32, %sp
  set pbuf_end, %o2
  mov %o2, %o3
.Lpdigit:
  sdiv %o0, 10, %o4
  smul %o4, 10, %o5
  sub %o0, %o5, %o5
  add %o5, 48, %o5
  sub %o3, 1, %o3
  stb %o5, [%o3 + 0]
  cmp %o4, 0
  bne .Lpdigit
  mov %o4, %o0
  mov 1, %o0
  mov %o3, %o1
  set pbuf_end, %o2
  sub %o2, %o3, %o2
  add %o2, 1, %o2
  sys 1
  add %sp, 32, %sp
  ret
  nop)");
  } else if (Arch == TargetArch::Arisc) {
    E->raw(R"(print_u32:
  addi $sp, $sp, -32
  ldih $t5, %hi(pbuf_end)
  ori $t5, $t5, %lo(pbuf_end)
  move $t6, $t5
.Lpdigit:
  li $t7, 10
  div $t0, $a0, $t7
  mul $t1, $t0, $t7
  sub $t1, $a0, $t1
  addi $t1, $t1, 48
  addi $t6, $t6, -1
  stb $t1, 0($t6)
  move $a0, $t0
  blt $zero, $t0, .Lpdigit
  li $a0, 1
  move $a1, $t6
  sub $a2, $t5, $t6
  addi $a2, $a2, 1
  sys 1
  addi $sp, $sp, 32
  ret)");
  } else {
    E->raw(R"(print_u32:
  addi $sp, $sp, -32
  lui $t5, %hi(pbuf_end)
  ori $t5, $t5, %lo(pbuf_end)
  move $t6, $t5
.Lpdigit:
  li $t7, 10
  div $t0, $a0, $t7
  mul $t1, $t0, $t7
  sub $t1, $a0, $t1
  addi $t1, $t1, 48
  addi $t6, $t6, -1
  sb $t1, 0($t6)
  move $a0, $t0
  bgtz $t0, .Lpdigit
  nop
  li $a0, 1
  move $a1, $t6
  sub $a2, $t5, $t6
  addi $a2, $a2, 1
  li $v0, 1
  syscall
  addi $sp, $sp, 32
  jr $ra
  nop)");
  }
}

std::string ProgramBuilder::build() {
  E->raw(".text");
  E->raw(".global main");
  emitMain();
  for (unsigned I = 0; I < Options.Routines; ++I)
    emitRoutine(I);
  emitPrintU32();

  // Hidden helper routines (no symbols; reached only through cells).
  for (const std::string &Hidden : HiddenRoutines) {
    E->raw(".hidden");
    E->label(Hidden);
    E->prologue(/*SavesLink=*/false);
    E->arith("add", ACC, ACC, 13);
    E->retResult();
    E->epilogueRet(/*SavesLink=*/false);
  }

  if (Options.SymbolPathologies) {
    // A data table in the text segment with a routine-like symbol: the
    // words are deliberately invalid encodings on SRISC (small values
    // shifted into invalid opcode space).
    E->raw("text_table:");
    E->raw(".word 3, 5, 7, 11");
  }

  std::string Out = E->take();
  Out += ".data\n";
  for (unsigned Slot = 0; Slot < 8; ++Slot)
    Out += ".align 4\ngarr" + std::to_string(Slot) + ": .word " +
           std::to_string(Slot * 3 + 1) + "\n";
  Out += DataSection;
  Out += ".align 4\npbuf: .space 16\npbuf_end: .byte 10\n.align 4\n";
  return Out;
}

std::string eel::generateWorkloadAsm(TargetArch Arch,
                                     const WorkloadOptions &Options) {
  ProgramBuilder Builder(Arch, Options);
  return Builder.build();
}

SxfFile eel::generateWorkload(TargetArch Arch,
                              const WorkloadOptions &Options) {
  return assembleOrDie(Arch, generateWorkloadAsm(Arch, Options));
}
