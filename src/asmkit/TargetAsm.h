//===- asmkit/TargetAsm.h - Per-target assembly syntax ---------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The target-specific half of the assembler: mnemonic parsing and fixup
/// application. The section/label/directive machinery is shared and lives in
/// Assembler.cpp; each target contributes an InstParser that turns one
/// tokenized instruction line into machine words plus pending fixups.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_ASMKIT_TARGETASM_H
#define EEL_ASMKIT_TARGETASM_H

#include "isa/Target.h"
#include "support/Error.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eel {
namespace asmkit {

/// How a not-yet-resolved symbol reference patches an emitted word.
enum class FixupKind : uint8_t {
  None,
  PcRelative, ///< Branch/call displacement; applied via retargetDirect.
  ImmHi,      ///< %hi(sym): SRISC sethi imm22, MRISC lui imm16.
  ImmLo,      ///< %lo(sym): SRISC simm13 low 10 bits, MRISC ori imm16.
  DataWord,   ///< Absolute 32-bit word (dispatch tables, pointers).
};

struct Fixup {
  FixupKind Kind = FixupKind::None;
  std::string Symbol;
  int64_t Addend = 0;
};

/// One emitted instruction word plus its pending fixup (if any).
struct AsmInst {
  MachWord Word = 0;
  Fixup Fix;
};

/// An operand immediate that may reference a symbol: value = Sym + Addend,
/// with Sym empty for plain constants. `Part` selects %hi/%lo splitting.
struct SymExpr {
  enum class Part : uint8_t { Full, Hi, Lo };
  std::string Sym;
  int64_t Addend = 0;
  Part Which = Part::Full;
};

/// Token cursor over one instruction line (Tokens[0] is the mnemonic).
class Cursor {
public:
  explicit Cursor(const std::vector<std::string> &Tokens) : Tokens(Tokens) {}

  bool atEnd() const { return Index >= Tokens.size(); }
  const std::string &peek() const {
    static const std::string Empty;
    return atEnd() ? Empty : Tokens[Index];
  }
  std::string next() {
    std::string T = peek();
    ++Index;
    return T;
  }
  bool eat(const std::string &T) {
    if (peek() != T)
      return false;
    ++Index;
    return true;
  }

private:
  const std::vector<std::string> &Tokens;
  size_t Index = 1;
};

/// Parses \p Token as a decimal or 0x-prefixed hexadecimal number with an
/// optional leading '-'. Any other character, and a magnitude past
/// INT64_MAX, is an error.
Expected<int64_t> parseNumber(const std::string &Token);

// --- MIPS-style operands, shared by MRISC and ARISC ---------------------------

/// A register `$name` from \p Names, or `$N` for N below 32.
Expected<unsigned> parseReg(const std::string &T,
                            const std::map<std::string, unsigned> &Names);

/// Immediate operand: a constant or a %hi/%lo symbol reference.
struct ImmOperand {
  int64_t Value = 0;
  Fixup Fix;
};

/// Parses an immediate: NUM, -NUM, %hi(sym[+n]), or %lo(sym[+n]).
Expected<ImmOperand> parseImmOperand(Cursor &C);

/// Target-specific mnemonic table and encoder.
class InstParser {
public:
  virtual ~InstParser();

  /// Parses one instruction from \p Tokens (mnemonic first). On success,
  /// appends one or more words to \p Out (pseudo-instructions may expand).
  /// Returns an error naming the problem for the driver to attribute to a
  /// source line.
  virtual Expected<bool> parse(const std::vector<std::string> &Tokens,
                               std::vector<AsmInst> &Out) const = 0;

  /// Applies a resolved %hi/%lo fixup value to \p Word.
  virtual MachWord applyImmHi(MachWord Word, uint32_t Value) const = 0;
  virtual MachWord applyImmLo(MachWord Word, uint32_t Value) const = 0;

  virtual const TargetInfo &target() const = 0;
};

/// Instruction-syntax parser for each target.
const InstParser &sriscInstParser();
const InstParser &mriscInstParser();
const InstParser &ariscInstParser();
const InstParser &instParserFor(TargetArch Arch);

} // namespace asmkit
} // namespace eel

#endif // EEL_ASMKIT_TARGETASM_H
