//===- spawn/MachineDesc.h - Parsed machine description ---------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic model a spawn machine description compiles to: instruction
/// fields, register resources, encoding patterns (mask/match pairs derived
/// from the paper's instruction-name matrices), and per-instruction RTL
/// semantics. Everything a target's decode table, the RTL evaluator and
/// the code generator need is derived from this object.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SPAWN_MACHINEDESC_H
#define EEL_SPAWN_MACHINEDESC_H

#include "isa/Target.h"
#include "spawn/Rtl.h"
#include "support/Error.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace eel {
namespace spawn {

struct FieldDef {
  std::string Name;
  unsigned Lo = 0;
  unsigned Hi = 0;
  unsigned width() const { return Hi - Lo + 1; }
};

struct RegFileDef {
  std::string Name;
  unsigned Width = 32;
  unsigned Count = 0; ///< 0 for a single register (e.g. CC).
  unsigned BaseId = 0;
};

struct PatternConstraint {
  std::string Field;
  uint32_t Value = 0;
};

struct InstPattern {
  std::string Name;
  uint32_t Mask = 0;
  uint32_t Match = 0;
  std::vector<PatternConstraint> Constraints;
  int SemIndex = -1;
};

/// A fully parsed machine description.
class MachineDesc {
public:
  std::string ArchName;
  unsigned WordSize = 32;
  std::vector<FieldDef> Fields;
  std::vector<RegFileDef> RegFiles;
  int ZeroRegId = -1; ///< Register id that is hard zero, or -1.
  std::vector<InstPattern> Patterns;
  std::vector<Semantics> Sems;

  const FieldDef *field(const std::string &Name) const;

  /// Whether any semantic expression carries a `;` delay mark — i.e. whether
  /// the described architecture has branch delay slots at all.
  bool hasDelayMarks() const {
    for (const Semantics &S : Sems)
      if (S.HasDelayMark)
        return true;
    return false;
  }

  /// Decodes \p Word to a pattern index, or -1 for invalid encodings, by
  /// walking the decode table finalize() compiles.
  int decode(MachWord Word) const {
    size_t Node = 0;
    for (;;) {
      int32_t Header = DecodeProgram[Node];
      if (Header < 0) {
        // Scan node: -Header candidates that could not be split further.
        for (int32_t I = 0; I < -Header; ++I) {
          int32_t PI = DecodeProgram[Node + 1 + I];
          if ((Word & Patterns[PI].Mask) == Patterns[PI].Match)
            return PI;
        }
        return -1;
      }
      unsigned Lo = static_cast<unsigned>(Header) >> 8;
      unsigned Width = static_cast<unsigned>(Header) & 0xFF;
      uint32_t Value = (Word >> Lo) & ((1u << Width) - 1u);
      int32_t Entry = DecodeProgram[Node + 1 + Value];
      if (Entry == -1)
        return -1;
      if (Entry >= 0)
        return (Word & Patterns[Entry].Mask) == Patterns[Entry].Match ? Entry
                                                                      : -1;
      Node = static_cast<size_t>(-(Entry + 2));
    }
  }

  /// The compiled decode table, a flattened tree. Each node starts with a
  /// header word:
  ///
  ///   header >= 0: switch node. header = (fieldLo << 8) | fieldWidth,
  ///     followed by 2^width entries indexed by the extracted field value.
  ///   header < 0: scan node. -header pattern indices follow; each is
  ///     tried in order against its mask/match pair.
  ///
  /// An entry is -1 (invalid), >= 0 (pattern-index leaf, verified against
  /// the pattern's mask/match), or <= -2 (child node at offset -(e + 2)).
  /// A description with one pattern compiles to a one-entry scan node.
  const std::vector<int32_t> &decodeProgram() const { return DecodeProgram; }

  uint32_t fieldValue(const FieldDef &F, MachWord Word) const;

  /// Register-file display names (for the RTL printer).
  std::vector<std::string> regFileNames() const;

  /// Called once after parsing: validates pattern disjointness and builds
  /// the decode table. Returns an error message on inconsistency.
  Expected<bool> finalize();

private:
  void buildDecodeProgram();

  std::vector<int32_t> DecodeProgram;
};

/// Parses a description; the returned object is immutable afterwards.
Expected<std::shared_ptr<MachineDesc>>
parseMachineDescription(const std::string &Source);

} // namespace spawn
} // namespace eel

#endif // EEL_SPAWN_MACHINEDESC_H
