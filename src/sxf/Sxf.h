//===- sxf/Sxf.h - Simple eXecutable Format ---------------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SXF is this project's executable file format, standing in for the
/// SunOS/Solaris formats (and the GNU bfd library) the paper's EEL reads.
/// An SXF file holds segments (text, data, bss), an entry point, and a
/// symbol table that can exhibit every pathology §3.1 of the paper
/// enumerates: routines hidden by omitted symbols, data tables in the text
/// segment with routine-like symbols, duplicate/temporary/debugging labels,
/// multiple entry points that are not labeled, and full stripping.
/// There is intentionally no relocation information: EEL's defining property
/// is editing fully linked executables by program analysis alone.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SXF_SXF_H
#define EEL_SXF_SXF_H

#include "isa/Target.h"
#include "support/Error.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace eel {

enum class SegKind : uint8_t { Text = 0, Data = 1, Bss = 2 };

/// Symbol classification, deliberately as weak as real 1990s symbol tables:
/// `Routine` marks something the compiler *claims* is code — the paper's
/// point is that such claims are unreliable and must be refined by analysis.
enum class SymKind : uint8_t {
  Routine = 0, ///< Claimed routine start (may really be a data table!).
  Object = 1,  ///< Data object.
  Label = 2,   ///< Internal code label (e.g. a loop head).
  Debug = 3,   ///< Debugger bookkeeping label.
  Temp = 4,    ///< Compiler temporary label.
};

enum class SymBinding : uint8_t { Local = 0, Global = 1 };

/// Relocation kinds. The paper's EEL worked without relocations (its
/// defining property); the authors planned to "supplement and verify its
/// analysis with relocation information, when available". SXF can carry
/// them, the assembler emits them, and the editor uses Word32 records for
/// precise code-pointer rewriting — stripRelocations() recovers the
/// paper's fully-linked-no-relocs setting.
enum class RelocKind : uint8_t {
  Word32 = 0, ///< 32-bit absolute address in data or text.
  Hi = 1,     ///< High part of a split immediate (sethi/lui).
  Lo = 2,     ///< Low part of a split immediate (or/ori/offset).
  PcRel = 3,  ///< Branch/call displacement.
};

struct SxfReloc {
  Addr Site = 0;   ///< Address of the patched word.
  Addr Target = 0; ///< The symbol value the site refers to.
  RelocKind Kind = RelocKind::Word32;
};

struct SxfSegment {
  SegKind Kind = SegKind::Text;
  Addr VAddr = 0;
  uint32_t MemSize = 0;            ///< Size in memory (>= Bytes.size()).
  std::vector<uint8_t> Bytes;      ///< File contents (empty for bss).
};

struct SxfSymbol {
  std::string Name;
  Addr Value = 0;
  uint32_t Size = 0; ///< 0 when unknown, as is common in real tables.
  SymKind Kind = SymKind::Routine;
  SymBinding Binding = SymBinding::Local;
};

/// An executable image: segments + symbols + entry point.
class SxfFile {
public:
  TargetArch Arch = TargetArch::Srisc;
  Addr Entry = 0;
  std::vector<SxfSegment> Segments;
  std::vector<SxfSymbol> Symbols;
  std::vector<SxfReloc> Relocs;

  // --- Segment access ----------------------------------------------------

  /// First segment of the given kind, or null.
  const SxfSegment *segment(SegKind Kind) const;
  SxfSegment *segment(SegKind Kind);

  /// Segment containing address \p A (by memory extent), or null.
  const SxfSegment *segmentContaining(Addr A) const;

  /// Reads a little-endian 32-bit word at \p A from file-backed contents.
  /// Returns nullopt outside any segment's file bytes (bss reads as zero).
  std::optional<uint32_t> readWord(Addr A) const;

  /// Writes a little-endian 32-bit word at \p A; returns false if \p A is
  /// not within a file-backed segment.
  bool writeWord(Addr A, uint32_t Value);

  /// The four file bytes writeWord(\p A, ...) stores to, or null. Valid
  /// until the segments change.
  uint8_t *wordBytes(Addr A);

  // --- Symbols ------------------------------------------------------------

  const SxfSymbol *findSymbol(const std::string &Name) const;

  /// Removes the entire symbol table (a stripped executable).
  void strip() { Symbols.clear(); }

  /// Removes relocation information (the paper's fully linked setting).
  void stripRelocations() { Relocs.clear(); }

  // --- Validation ---------------------------------------------------------

  /// Whole-image structural checks: segment overlap and address-space
  /// wrap, MemSize covering the file bytes, entry point inside text, and
  /// symbol/relocation range checks. deserialize() runs this on every
  /// decoded image (attaching file offsets to any failure); call it
  /// directly to check an image built in memory. Errors carry an
  /// ErrorCode from the load-time taxonomy (see support/Error.h).
  Expected<bool> validate() const;

  // --- Serialization ------------------------------------------------------

  std::vector<uint8_t> serialize() const;

  /// Decodes and validates \p Bytes. The input is treated as hostile:
  /// counts are checked against remaining bytes before any allocation,
  /// enum bytes are validated before casting, and the reader is strict
  /// enough (reserved fields zero, canonical binding bytes, no trailing
  /// bytes) that serialize() is an exact inverse on every accepted input.
  /// Failures are structured Errors with an ErrorCode and byte offset.
  static Expected<SxfFile> deserialize(const std::vector<uint8_t> &Bytes);

  Expected<bool> writeToFile(const std::string &Path) const;
  static Expected<SxfFile> readFromFile(const std::string &Path);
};

} // namespace eel

#endif // EEL_SXF_SXF_H
