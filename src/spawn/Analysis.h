//===- spawn/Analysis.h - Per-word semantic analysis ------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Derives everything a TargetInfo must answer about one machine word from
/// the word's RTL semantics: classification, register reads/writes, delay
/// behaviour, direct/indirect transfer shapes, dataflow and memory shapes,
/// and the instruction fields that hold register numbers. This is the
/// machine-independent core of spawn — the paper's claim that classification,
/// register sets, literal values, and even "the computation in most
/// instructions" fall out of a concise description is reproduced here.
///
/// The same walk serves twice. analyzeWord interprets one word's RTL afresh.
/// CompiledDecoder runs the walk once per pattern and per value of the
/// pattern's steering bits (the fields the walk folds to choose a path,
/// such as SRISC's `i` and `a`) and keeps the answer as a template plus a
/// list of field fills; its decode() is a pattern lookup, a template copy
/// and the fills. Every TargetInfo decodes through a CompiledDecoder, and
/// the tests compare it against analyzeWord.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SPAWN_ANALYSIS_H
#define EEL_SPAWN_ANALYSIS_H

#include "isa/Target.h"
#include "spawn/MachineDesc.h"

#include <cstring>
#include <memory>
#include <vector>

namespace eel {
namespace spawn {

/// Analyzes one word into the DecodedWord a TargetInfo answers, before
/// the trap conventions (which the description does not know) are laid
/// over it. Never fails: undecodable words yield an Invalid answer;
/// malformed semantics abort (they indicate a broken description, which
/// MachineDesc::finalize should have caught).
DecodedWord analyzeWord(const MachineDesc &Desc, MachWord Word);

/// analyzeWord with \p Conv's trap registers laid over a System answer
/// (paper §4: conventions live outside the description). The interpretive
/// reference that CompiledDecoder::decode must equal.
DecodedWord analyzeWord(const MachineDesc &Desc, MachWord Word,
                        const TargetConventions &Conv);

/// One field of the word that a compiled entry reads: the bits
/// [Lo, Lo + width of Mask).
///  - A Word fill sign-extends the field when SignBit is set, multiplies
///    it by Scale (a power of two), adds Base, and stores the result at
///    byte offset At of the entry's DecodedWord.
///  - A Byte fill stores the field, a register number, in the byte at At.
///  - A Byte or Reg fill adds register RegBase + field to Reads and Writes
///    through ReadMask and WriteMask: all ones but the hard zero's bit
///    where the word reads or writes the register, and 0 where it does not.
struct DecodeFill {
  enum class Kind : uint8_t { Byte, Word, Reg };
  Kind K = Kind::Byte;
  uint8_t At = 0;
  uint8_t Lo = 0;
  uint8_t RegBase = 0;
  uint32_t Mask = 0;
  uint32_t SignBit = 0; ///< The field's top bit when signed, else 0.
  uint32_t Scale = 1;
  uint32_t Base = 0;
  uint64_t ReadMask = 0;
  uint64_t WriteMask = 0;

  uint32_t field(MachWord Word) const { return (Word >> Lo) & Mask; }

  uint32_t value(MachWord Word) const {
    // (x ^ s) - s sign-extends x at bit s without a branch.
    return Base + ((field(Word) ^ SignBit) - SignBit) * Scale;
  }
};

/// A machine description compiled into a decode table, built whole at
/// construction and immutable afterwards. An entry is a pattern together
/// with one value of its steering bits; it holds the DecodedWord every
/// word of the entry shares (trap conventions included) and the fills
/// that store what varies from word to word, grouped by kind so that
/// decode() runs three short loops and no per-fill dispatch.
class CompiledDecoder {
public:
  CompiledDecoder(std::shared_ptr<const MachineDesc> Desc,
                  const TargetConventions &Conv);

  /// Everything EEL asks about \p Word.
  DecodedWord decode(MachWord Word) const {
    // One named result, built in the caller's object: copying it out of
    // a temporary would reload the fills' narrow stores with wide loads,
    // which stall.
    const Entry &E = Entries[entryOf(Word)];
    DecodedWord D = E.Template;
    // Each fill stores through a byte offset taken from a DecodedWord's
    // members at construction, and reads nothing back.
    auto *Bytes = reinterpret_cast<unsigned char *>(&D);
    uint64_t Reads = 0, Writes = 0;
    auto AddReg = [&](const DecodeFill &F, uint32_t Number) {
      uint64_t Bit = uint64_t(1) << ((F.RegBase + Number) & 63);
      Reads |= Bit & F.ReadMask;
      Writes |= Bit & F.WriteMask;
    };
    const DecodeFill *F = Fills.data() + E.FirstFill;
    for (const DecodeFill *End = F + E.NumBytes; F != End; ++F) {
      uint32_t Number = F->field(Word);
      Bytes[F->At] = static_cast<unsigned char>(Number);
      AddReg(*F, Number);
    }
    for (const DecodeFill *End = F + E.NumWords; F != End; ++F) {
      uint32_t V = F->value(Word);
      std::memcpy(Bytes + F->At, &V, sizeof(V));
    }
    for (const DecodeFill *End = F + E.NumRegs; F != End; ++F)
      AddReg(*F, F->field(Word));
    D.Reads.insert(RegSet::fromMask(Reads));
    D.Writes.insert(RegSet::fromMask(Writes));
    return D;
  }

  /// The entry \p Word decodes through; entry 0, an Invalid answer with
  /// no fills, holds the words that match no pattern.
  unsigned entryOf(MachWord Word) const {
    int Pattern = Desc->decode(Word);
    if (Pattern < 0)
      return 0;
    const Key &K = Keys[Pattern];
    unsigned Index = K.First;
    for (unsigned I = 0; I < K.NumRuns; ++I)
      Index += ((Word >> K.Runs[I].Lo) & K.Runs[I].Mask) << K.Runs[I].At;
    return Index;
  }

  size_t numEntries() const { return Entries.size(); }
  const MachineDesc &desc() const { return *Desc; }

private:
  /// Where a pattern's entries start, and the runs of steering bits that
  /// index them, lowest first.
  struct Key {
    static constexpr unsigned MaxRuns = 4;
    struct Run {
      uint8_t Lo = 0;
      uint8_t At = 0;
      uint32_t Mask = 0;
    };
    uint32_t First = 0;
    uint8_t NumRuns = 0;
    Run Runs[MaxRuns];
  };

  /// A template and its fills: NumBytes Byte fills, then NumWords Word
  /// fills, then NumRegs Reg fills from FirstFill on.
  struct Entry {
    DecodedWord Template;
    uint32_t FirstFill = 0;
    uint8_t NumBytes = 0;
    uint8_t NumWords = 0;
    uint8_t NumRegs = 0;
  };

  std::shared_ptr<const MachineDesc> Desc;
  std::vector<Key> Keys;       ///< Per pattern.
  std::vector<Entry> Entries;
  std::vector<DecodeFill> Fills;
};

} // namespace spawn
} // namespace eel

#endif // EEL_SPAWN_ANALYSIS_H
