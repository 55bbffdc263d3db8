//===- sxf/Sxf.cpp - Simple eXecutable Format -----------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SXF reader/writer. The reader treats its input as hostile (the same
/// stance §3.1 of the paper takes toward symbol tables): every count is
/// checked against the bytes that could actually back it before any
/// allocation, every bounds check is written in subtraction form so a
/// length near 2^32 cannot wrap past it, every enum byte is validated
/// before the cast, and the decoded image is structurally validated
/// (segment overlap, address-space wrap, entry point, symbol/reloc ranges)
/// before it is returned. A malformed input of any shape yields a
/// structured Error carrying an ErrorCode and the byte offset of the
/// offending record — never an abort, oversized allocation, or UB.
///
/// The reader is also strict: reserved header fields must be zero, the
/// binding byte must be canonical, and trailing bytes are rejected. This
/// makes deserialize/serialize exact inverses on accepted inputs, which is
/// the oracle the fault-injection harness checks.
///
//===----------------------------------------------------------------------===//

#include "sxf/Sxf.h"

#include "support/ByteBuffer.h"
#include "support/FileIO.h"

using namespace eel;

static const uint32_t SxfMagic = 0x31465853; // "SXF1" little-endian

const SxfSegment *SxfFile::segment(SegKind Kind) const {
  for (const SxfSegment &Seg : Segments)
    if (Seg.Kind == Kind)
      return &Seg;
  return nullptr;
}

SxfSegment *SxfFile::segment(SegKind Kind) {
  for (SxfSegment &Seg : Segments)
    if (Seg.Kind == Kind)
      return &Seg;
  return nullptr;
}

const SxfSegment *SxfFile::segmentContaining(Addr A) const {
  for (const SxfSegment &Seg : Segments)
    if (A >= Seg.VAddr && A - Seg.VAddr < Seg.MemSize)
      return &Seg;
  return nullptr;
}

std::optional<uint32_t> SxfFile::readWord(Addr A) const {
  for (const SxfSegment &Seg : Segments) {
    // Subtraction form: `A + 4 > VAddr + size` wraps for A near 2^32 and
    // would index far past the buffer.
    if (A < Seg.VAddr)
      continue;
    size_t Off = A - Seg.VAddr;
    if (Seg.Bytes.size() < 4 || Off > Seg.Bytes.size() - 4)
      continue;
    return static_cast<uint32_t>(Seg.Bytes[Off]) |
           (static_cast<uint32_t>(Seg.Bytes[Off + 1]) << 8) |
           (static_cast<uint32_t>(Seg.Bytes[Off + 2]) << 16) |
           (static_cast<uint32_t>(Seg.Bytes[Off + 3]) << 24);
  }
  return std::nullopt;
}

uint8_t *SxfFile::wordBytes(Addr A) {
  for (SxfSegment &Seg : Segments) {
    if (A < Seg.VAddr)
      continue;
    size_t Off = A - Seg.VAddr;
    if (Seg.Bytes.size() < 4 || Off > Seg.Bytes.size() - 4)
      continue;
    return &Seg.Bytes[Off];
  }
  return nullptr;
}

bool SxfFile::writeWord(Addr A, uint32_t Value) {
  uint8_t *Bytes = wordBytes(A);
  if (!Bytes)
    return false;
  Bytes[0] = static_cast<uint8_t>(Value);
  Bytes[1] = static_cast<uint8_t>(Value >> 8);
  Bytes[2] = static_cast<uint8_t>(Value >> 16);
  Bytes[3] = static_cast<uint8_t>(Value >> 24);
  return true;
}

const SxfSymbol *SxfFile::findSymbol(const std::string &Name) const {
  for (const SxfSymbol &Sym : Symbols)
    if (Sym.Name == Name)
      return &Sym;
  return nullptr;
}

std::vector<uint8_t> SxfFile::serialize() const {
  ByteWriter W;
  W.writeU32(SxfMagic);
  W.writeU8(static_cast<uint8_t>(Arch));
  W.writeU8(0); // reserved flags
  W.writeU16(0);
  W.writeU32(Entry);
  W.writeU32(static_cast<uint32_t>(Segments.size()));
  for (const SxfSegment &Seg : Segments) {
    W.writeU8(static_cast<uint8_t>(Seg.Kind));
    W.writeU32(Seg.VAddr);
    W.writeU32(Seg.MemSize);
    W.writeU32(static_cast<uint32_t>(Seg.Bytes.size()));
    W.writeBytes(Seg.Bytes.data(), Seg.Bytes.size());
  }
  W.writeU32(static_cast<uint32_t>(Symbols.size()));
  for (const SxfSymbol &Sym : Symbols) {
    W.writeString(Sym.Name);
    W.writeU32(Sym.Value);
    W.writeU32(Sym.Size);
    W.writeU8(static_cast<uint8_t>(Sym.Kind));
    W.writeU8(static_cast<uint8_t>(Sym.Binding));
  }
  W.writeU32(static_cast<uint32_t>(Relocs.size()));
  for (const SxfReloc &R : Relocs) {
    W.writeU32(R.Site);
    W.writeU32(R.Target);
    W.writeU8(static_cast<uint8_t>(R.Kind));
  }
  return W.take();
}

namespace {

/// File offsets of the records in a decoded image, recorded during
/// deserialization so whole-image validation can attach the offending
/// record's offset to its error. Null when validating an in-memory image
/// that never had a file representation.
struct RecordOffsets {
  uint64_t Entry = 0;
  std::vector<uint64_t> Segments;
  std::vector<uint64_t> Symbols;
  std::vector<uint64_t> Relocs;
};

Error withOffset(Error E, const std::vector<uint64_t> *Offsets, size_t Index) {
  if (Offsets && Index < Offsets->size())
    E.atOffset((*Offsets)[Index]);
  return E;
}

/// Whole-image structural checks shared by deserialize() (with offsets) and
/// the public validate() (without). Per-field checks — counts, enum bytes,
/// truncation — happen during decoding; everything here is a property of the
/// decoded image as a whole.
Expected<bool> validateImage(const SxfFile &File, const RecordOffsets *Offs) {
  const uint64_t AddrSpace = 1ull << 32;

  // Segments: MemSize covers the file bytes, extents do not wrap the
  // 32-bit address space, and no two extents intersect. Error-context
  // strings are built only on the failure paths — this code runs on every
  // load and must cost near nothing when the image is fine.
  for (size_t I = 0; I < File.Segments.size(); ++I) {
    const SxfSegment &Seg = File.Segments[I];
    if (Seg.MemSize < Seg.Bytes.size())
      return withOffset(Error(ErrorCode::BadMemSize,
                              "segment memory size is smaller than its file "
                              "contents")
                            .inField("segment[" + std::to_string(I) + "]"),
                        Offs ? &Offs->Segments : nullptr, I);
    if (static_cast<uint64_t>(Seg.VAddr) + Seg.MemSize >= AddrSpace)
      return withOffset(Error(ErrorCode::AddressWrap,
                              "segment extent wraps the address space")
                            .inField("segment[" + std::to_string(I) + "]"),
                        Offs ? &Offs->Segments : nullptr, I);
    for (size_t J = 0; J < I; ++J) {
      const SxfSegment &Other = File.Segments[J];
      uint64_t LoA = Seg.VAddr, HiA = LoA + Seg.MemSize;
      uint64_t LoB = Other.VAddr, HiB = LoB + Other.MemSize;
      if (LoA < HiB && LoB < HiA)
        return withOffset(Error(ErrorCode::SegmentOverlap,
                                "segment overlaps segment[" +
                                    std::to_string(J) + "]")
                              .inField("segment[" + std::to_string(I) + "]"),
                          Offs ? &Offs->Segments : nullptr, I);
    }
  }

  // Entry point: a nonzero entry must be a word-aligned instruction inside
  // a text segment's file-backed bytes; without a text segment the entry
  // must be the 0 sentinel.
  if (File.Entry != 0 || File.segment(SegKind::Text)) {
    bool EntryOk = false;
    if ((File.Entry & 3) == 0) {
      for (const SxfSegment &Seg : File.Segments) {
        if (Seg.Kind != SegKind::Text || File.Entry < Seg.VAddr)
          continue;
        size_t Off = File.Entry - Seg.VAddr;
        if (Seg.Bytes.size() >= 4 && Off <= Seg.Bytes.size() - 4) {
          EntryOk = true;
          break;
        }
      }
    }
    if (File.Entry == 0 && !EntryOk)
      EntryOk = true; // 0 stays a valid "no entry" sentinel
    if (!EntryOk) {
      Error E(ErrorCode::BadEntryPoint,
              "entry point is not an instruction in a text segment");
      E.inField("entry");
      if (Offs)
        E.atOffset(Offs->Entry);
      return E;
    }
  }

  // The per-symbol and per-reloc scans below only need each segment's
  // (VAddr, MemSize, file-byte count); hoist those into a compact local
  // array so the hot loops do not stride through the full SxfSegment
  // records (each carries a byte vector) for every symbol.
  struct Extent {
    Addr VAddr;
    uint32_t MemSize;
    size_t NumBytes;
  };
  Extent Inline[8];
  std::vector<Extent> Spill;
  const size_t NumExtents = File.Segments.size();
  Extent *Extents = Inline;
  if (NumExtents > 8) {
    Spill.resize(NumExtents);
    Extents = Spill.data();
  }
  for (size_t I = 0; I < NumExtents; ++I) {
    const SxfSegment &Seg = File.Segments[I];
    Extents[I] = {Seg.VAddr, Seg.MemSize, Seg.Bytes.size()};
  }

  // Symbols: the value (and the extent it claims via Size) must fall within
  // some segment's memory extent. Extent ends are inclusive — assemblers
  // legitimately emit labels one past the last byte of a section. Symbol
  // tables cluster by segment, so remembering the last hit turns the scan
  // into a single compare for nearly every symbol.
  size_t LastHit = 0;
  for (size_t I = 0; I < File.Symbols.size(); ++I) {
    const SxfSymbol &Sym = File.Symbols[I];
    if (static_cast<uint64_t>(Sym.Value) + Sym.Size >= AddrSpace)
      return withOffset(Error(ErrorCode::AddressWrap,
                              "symbol extent wraps the address space")
                            .inField("symbol[" + std::to_string(I) + "]"),
                        Offs ? &Offs->Symbols : nullptr, I);
    bool InRange = NumExtents == 0;
    if (LastHit < NumExtents) {
      const Extent &Seg = Extents[LastHit];
      InRange = Sym.Value >= Seg.VAddr && Sym.Value - Seg.VAddr <= Seg.MemSize;
    }
    if (!InRange) {
      for (size_t J = 0; J < NumExtents; ++J) {
        const Extent &Seg = Extents[J];
        if (Sym.Value >= Seg.VAddr && Sym.Value - Seg.VAddr <= Seg.MemSize) {
          InRange = true;
          LastHit = J;
          break;
        }
      }
    }
    if (!InRange)
      return withOffset(Error(ErrorCode::SymbolOutOfRange,
                              "symbol value lies outside every segment")
                            .inField("symbol[" + std::to_string(I) + "]"),
                        Offs ? &Offs->Symbols : nullptr, I);
  }

  // Relocations: the site must name a patchable word (4 file-backed bytes
  // within one segment) and the target must fall within some segment's
  // extent (inclusive end, as for symbols).
  for (size_t I = 0; I < File.Relocs.size(); ++I) {
    const SxfReloc &Reloc = File.Relocs[I];
    bool SiteOk = false;
    for (size_t J = 0; J < NumExtents; ++J) {
      const Extent &Seg = Extents[J];
      if (Reloc.Site < Seg.VAddr)
        continue;
      size_t Off = Reloc.Site - Seg.VAddr;
      if (Seg.NumBytes >= 4 && Off <= Seg.NumBytes - 4) {
        SiteOk = true;
        break;
      }
    }
    if (!SiteOk)
      return withOffset(Error(ErrorCode::RelocOutOfRange,
                              "relocation site is not a patchable word")
                            .inField("reloc[" + std::to_string(I) + "]"),
                        Offs ? &Offs->Relocs : nullptr, I);
    bool TargetOk = false;
    for (size_t J = 0; J < NumExtents; ++J) {
      const Extent &Seg = Extents[J];
      if (Reloc.Target >= Seg.VAddr &&
          Reloc.Target - Seg.VAddr <= Seg.MemSize) {
        TargetOk = true;
        break;
      }
    }
    if (!TargetOk)
      return withOffset(Error(ErrorCode::RelocOutOfRange,
                              "relocation target lies outside every segment")
                            .inField("reloc[" + std::to_string(I) + "]"),
                        Offs ? &Offs->Relocs : nullptr, I);
  }

  return true;
}

} // namespace

Expected<bool> SxfFile::validate() const {
  return validateImage(*this, nullptr);
}

Expected<SxfFile> SxfFile::deserialize(const std::vector<uint8_t> &Bytes) {
  ByteReader R(Bytes);
  uint32_t Magic = R.readU32();
  if (R.failed())
    return Error(ErrorCode::Truncated, "file too small for an SXF header")
        .atOffset(0)
        .inField("magic");
  if (Magic != SxfMagic)
    return Error(ErrorCode::BadMagic, "not an SXF file (bad magic)")
        .atOffset(0)
        .inField("magic");

  SxfFile File;
  uint64_t FieldOff = R.pos();
  uint8_t ArchByte = R.readU8();
  if (ArchByte > static_cast<uint8_t>(TargetArch::Arisc))
    return Error(ErrorCode::BadArch, "unknown architecture")
        .atOffset(FieldOff)
        .inField("arch");
  File.Arch = static_cast<TargetArch>(ArchByte);

  FieldOff = R.pos();
  uint8_t Reserved8 = R.readU8();
  uint16_t Reserved16 = R.readU16();
  if (Reserved8 != 0 || Reserved16 != 0)
    return Error(ErrorCode::BadHeader, "reserved header fields are not zero")
        .atOffset(FieldOff)
        .inField("reserved");

  RecordOffsets Offs;
  Offs.Entry = R.pos();
  File.Entry = R.readU32();

  // --- Segments -----------------------------------------------------------
  FieldOff = R.pos();
  uint32_t NumSegments = R.readU32();
  // A segment record is at least 13 bytes (kind + vaddr + memsize + nbytes),
  // so a count the remaining bytes cannot back is corrupt regardless of the
  // records' contents. Check before any allocation sized by the count.
  if (NumSegments > 64 || NumSegments > R.remaining() / 13)
    return Error(ErrorCode::ImplausibleCount, "implausible segment count")
        .atOffset(FieldOff)
        .inField("nsegments");
  for (uint32_t I = 0; I < NumSegments; ++I) {
    Offs.Segments.push_back(R.pos());
    SxfSegment Seg;
    FieldOff = R.pos();
    uint8_t KindByte = R.readU8();
    if (KindByte > static_cast<uint8_t>(SegKind::Bss))
      return Error(ErrorCode::BadSegmentKind, "bad segment kind")
          .atOffset(FieldOff)
          .inField("segment[" + std::to_string(I) + "].kind");
    Seg.Kind = static_cast<SegKind>(KindByte);
    Seg.VAddr = R.readU32();
    Seg.MemSize = R.readU32();
    FieldOff = R.pos();
    uint32_t NumBytes = R.readU32();
    if (R.failed() || NumBytes > R.remaining())
      return Error(ErrorCode::SegmentOverrun, "segment overruns file")
          .atOffset(FieldOff)
          .inField("segment[" + std::to_string(I) + "].nbytes");
    Seg.Bytes.resize(NumBytes);
    R.readBytes(Seg.Bytes.data(), NumBytes);
    File.Segments.push_back(std::move(Seg));
  }

  // --- Symbols ------------------------------------------------------------
  FieldOff = R.pos();
  uint32_t NumSymbols = R.readU32();
  // Minimum symbol record: 4 (name length) + 4 + 4 + 1 + 1 = 14 bytes.
  if (NumSymbols > R.remaining() / 14)
    return Error(ErrorCode::ImplausibleCount, "implausible symbol count")
        .atOffset(FieldOff)
        .inField("nsymbols");
  for (uint32_t I = 0; I < NumSymbols; ++I) {
    Offs.Symbols.push_back(R.pos());
    SxfSymbol Sym;
    Sym.Name = R.readString();
    Sym.Value = R.readU32();
    Sym.Size = R.readU32();
    FieldOff = R.pos();
    uint8_t KindByte = R.readU8();
    uint8_t BindingByte = R.readU8();
    if (R.failed())
      return Error(ErrorCode::Truncated, "truncated symbol table")
          .atOffset(Offs.Symbols.back())
          .inField("symbol[" + std::to_string(I) + "]");
    if (KindByte > static_cast<uint8_t>(SymKind::Temp) || BindingByte > 1)
      return Error(ErrorCode::BadSymbolKind, "bad symbol kind or binding")
          .atOffset(FieldOff)
          .inField("symbol[" + std::to_string(I) + "].kind");
    Sym.Kind = static_cast<SymKind>(KindByte);
    Sym.Binding = static_cast<SymBinding>(BindingByte);
    File.Symbols.push_back(std::move(Sym));
  }

  // --- Relocations --------------------------------------------------------
  FieldOff = R.pos();
  uint32_t NumRelocs = R.readU32();
  // Minimum relocation record: 4 + 4 + 1 = 9 bytes.
  if (NumRelocs > R.remaining() / 9)
    return Error(ErrorCode::ImplausibleCount, "implausible relocation count")
        .atOffset(FieldOff)
        .inField("nrelocs");
  for (uint32_t I = 0; I < NumRelocs; ++I) {
    Offs.Relocs.push_back(R.pos());
    SxfReloc Reloc;
    Reloc.Site = R.readU32();
    Reloc.Target = R.readU32();
    FieldOff = R.pos();
    uint8_t KindByte = R.readU8();
    if (R.failed())
      return Error(ErrorCode::Truncated, "truncated relocations")
          .atOffset(Offs.Relocs.back())
          .inField("reloc[" + std::to_string(I) + "]");
    if (KindByte > static_cast<uint8_t>(RelocKind::PcRel))
      return Error(ErrorCode::BadRelocKind, "bad relocation kind")
          .atOffset(FieldOff)
          .inField("reloc[" + std::to_string(I) + "].kind");
    Reloc.Kind = static_cast<RelocKind>(KindByte);
    File.Relocs.push_back(Reloc);
  }

  if (R.failed())
    return Error(ErrorCode::Truncated, "truncated file").atOffset(R.pos());
  if (R.remaining() != 0)
    return Error(ErrorCode::TrailingBytes,
                 "trailing bytes after the last record")
        .atOffset(R.pos());

  Expected<bool> Valid = validateImage(File, &Offs);
  if (Valid.hasError())
    return Valid.error();
  return File;
}

Expected<bool> SxfFile::writeToFile(const std::string &Path) const {
  // writeFileBytes already attaches IoError + the path.
  return writeFileBytes(Path, serialize());
}

Expected<SxfFile> SxfFile::readFromFile(const std::string &Path) {
  Expected<std::vector<uint8_t>> Bytes = readFileBytes(Path);
  if (Bytes.hasError())
    return Bytes.error(); // already carries IoError + the path
  Expected<SxfFile> File = deserialize(Bytes.value());
  if (File.hasError())
    return Error(File.error()).inFile(Path);
  return File;
}
