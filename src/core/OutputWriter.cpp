//===- core/OutputWriter.cpp - Edited-executable production -------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements Executable::writeEditedExecutable(): lays out every routine,
/// places the layouts (plus the run-time translator and tool-added
/// routines) in a fresh text segment, patches all placement-dependent
/// relocations, runs snippet call-backs, rewrites dispatch tables and data
/// code-pointers, builds the original→edited translation table, and emits
/// the new image with an updated symbol table.
///
//===----------------------------------------------------------------------===//

#include "core/Executable.h"

#include "analysis/Verifier.h"
#include "asmkit/Assembler.h"
#include "asmkit/TargetAsm.h"
#include "core/Layout.h"
#include "core/Translate.h"
#include "support/BitOps.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory_resource>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>

using namespace eel;

namespace {

/// Where one routine's layout went, fixed by the placement prefix sums.
struct Placement {
  Addr Base = 0;      ///< Edited address of its first word.
  size_t MapAt = 0;   ///< First slot of its entries in the address map.
  size_t TableAt = 0; ///< First slot of its entries in TableWrites.
  size_t CellAt = 0;  ///< First slot of its entries in CellWrites.
};

/// A word of a non-text segment the writer rewrites once every routine is
/// placed, resolved in a fan-out and stored in index order afterwards.
/// Value 0 (never an edited address) leaves the word alone; a null \c At
/// (outside the file-backed bytes) counts the rewrite without storing it,
/// as SxfFile::writeWord's failure always did.
struct PendingWord {
  uint8_t *At = nullptr;
  Addr Value = 0;
};

/// Stores \p Writes in order; returns how many rewrites they count.
unsigned applyWrites(std::span<const PendingWord> Writes) {
  unsigned Count = 0;
  for (const PendingWord &W : Writes) {
    if (!W.Value)
      continue;
    if (W.At)
      storeLE32(W.At, W.Value);
    ++Count;
  }
  return Count;
}

/// Chunk size of the layout pieces' arenas (not tuned).
constexpr size_t LayoutArenaChunkBytes = 64 * 1024;

/// Image relocations per task of the data-pointer fan-out (not tuned).
constexpr size_t RelocChunk = 4096;

} // namespace

Expected<SxfFile> Executable::writeEditedExecutable() {
  Expected<bool> Read = readContents();
  if (Read.hasError())
    return Read.error();
  Stats = EditStats();
  AddrMap.clear();
  const SxfFile &Image = An->image();
  const TargetInfo &Target = An->target();
  const Options &Opts = An->options();
  const std::vector<std::unique_ptr<Routine>> &Routines = An->routines();

  EEL_TRACE_SCOPE("writeEditedExecutable");
  // One span per numbered phase below, sequential and non-overlapping:
  // starting a phase ends the previous one.
  TracePhases Phase;

  const asmkit::InstParser &Parser = asmkit::instParserFor(Image.Arch);

  // --- 1. Lay out every routine --------------------------------------------
  // Per-routine layout is independent across routines (readContents has
  // already built the CFGs, slices, and liveness it reads, and each reads
  // only its own batch), so it fans out over the pool, a piece of the
  // routine list per task: one piece inline, else as many as the claims
  // parallelForEach would make. Each piece's layouts keep their arrays in
  // the piece's arena, which the pass frees at the end in a few blocks.
  // The layouts stay in their per-index slots, read where they were laid
  // out, which makes placement, the address map, and the reported error
  // (the lowest-index failure) the same at every width.
  Phase.begin("write.layout");
  const unsigned NThreads = An->effectiveThreads();
  const size_t NumRoutines = Routines.size();
  const size_t Pieces = std::min<size_t>(
      NumRoutines, NThreads <= 1 ? 1 : ClaimsPerParticipant * NThreads);
  std::deque<BumpArena> Arenas;
  for (size_t I = 0; I < Pieces; ++I)
    Arenas.emplace_back(LayoutArenaChunkBytes);
  std::vector<std::optional<Expected<RoutineLayout>>> LaidOut(NumRoutines);
  parallelForEach(NThreads, Pieces,
                  [this, &Routines, &LaidOut, &Arenas, NumRoutines,
                   Pieces](size_t Piece) {
                    for (size_t Index = Piece * NumRoutines / Pieces,
                                End = (Piece + 1) * NumRoutines / Pieces;
                         Index < End; ++Index)
                      LaidOut[Index].emplace(layoutRoutine(
                          *this, *Routines[Index], Arenas[Piece]));
                  });

  // --- 2. Place routines ---------------------------------------------------
  // Edited code lives at a fresh base disjoint from the original text so
  // that original and edited instruction addresses never collide: the
  // run-time translator can then distinguish untranslated original
  // addresses (in its table) from values that were already rewritten.
  // Prefix sums fix every routine's base and its slots in the address map
  // and the table and cell write lists; then each routine fills its own
  // stretch of the map, in a fan-out.
  Phase.begin("write.place");
  Addr NewTextBase = (An->textEnd() + 0xFFFu) & ~0xFFFu;
  Addr Cursor = NewTextBase;
  std::vector<Placement> Place(NumRoutines);
  size_t MapEntries = 0, TableEntries = 0, CellEntries = 0;
  bool NeedTranslator = false;
  for (size_t Index = 0; Index < NumRoutines; ++Index) {
    const Routine &R = *Routines[Index];
    const Expected<RoutineLayout> &Laid = *LaidOut[Index];
    if (Laid.hasError())
      return Laid.error();
    const RoutineLayout &L = Laid.value();
    NeedTranslator |= L.NeedsTranslator;
    if (L.Verbatim)
      ++Stats.RoutinesVerbatim;
    else if (R.controlFlowGraph() && edited(*R.controlFlowGraph()))
      ++Stats.RoutinesEdited;
    Stats.DelaySlotsFolded += L.DelayFolded;
    Stats.DelaySlotsMaterialized += L.DelayMaterialized;
    Stats.SnippetInstances += L.SnippetInstances;
    Stats.SnippetSpills += L.SnippetSpills;
    Stats.SnippetCCSaves += L.SnippetCCSaves;
    Place[Index] = {Cursor, MapEntries, TableEntries, CellEntries};
    Cursor += static_cast<Addr>(L.Code.size() * 4);
    MapEntries += L.AddrMap.size();
    TableEntries += L.TableEntries.size();
    CellEntries += L.CellFixes.size();
  }
  auto LayoutOf = [&LaidOut](size_t Index) -> const RoutineLayout & {
    return LaidOut[Index]->value();
  };
  // Routines are placed in start order, each layout's map is sorted and
  // inside its extent (layout fails otherwise), and the extents are
  // disjoint: the entries arrive in strictly increasing order, and the
  // sealed map serves every lookup below.
  std::span<FlatAddrMap::value_type> MapSlots =
      AddrMap.appendSlots(MapEntries);
  parallelForEach(NThreads, NumRoutines,
                  [&LayoutOf, &Place, MapSlots](size_t Index) {
                    const Placement &P = Place[Index];
                    FlatAddrMap::value_type *Slot = MapSlots.data() + P.MapAt;
                    for (const auto &[Orig, WordIndex] :
                         LayoutOf(Index).AddrMap)
                      *Slot++ = {Orig, P.Base + 4 * WordIndex};
                  });
  AddrMap.seal();
  // The edited address of original address A, or 0 (never an edited
  // address) when no layout maps it.
  auto EditedAddrOf = [this](Addr A) -> Addr {
    auto It = AddrMap.find(A);
    return It != AddrMap.end() ? It->second : 0;
  };

  // --- 3. Translation table and translator ----------------------------------
  Phase.begin("write.translator");
  Addr TranslatorAddr = 0;
  std::vector<MachWord> TranslatorCode;
  Addr TableAddr = 0;
  unsigned TableCount = 0;
  if (NeedTranslator && Opts.EnableRuntimeTranslation) {
    TableCount = static_cast<unsigned>(AddrMap.size());
    TableAddr = appendData(TableCount * 8, 8);
    TranslatorAddr = Cursor;
    Expected<SxfFile> Assembled = assembleProgram(
        Image.Arch, translatorAsm(Target, TableAddr, TableCount),
        AsmOptions{TranslatorAddr, 0x7F000000});
    if (Assembled.hasError())
      return Error("internal: translator assembly failed: " +
                   Assembled.error().message());
    const SxfSegment *Text = Assembled.value().segment(SegKind::Text);
    for (size_t I = 0; I + 4 <= Text->Bytes.size(); I += 4)
      TranslatorCode.push_back(
          *Assembled.value().readWord(Text->VAddr + static_cast<Addr>(I)));
    Cursor += static_cast<Addr>(TranslatorCode.size() * 4);
    Stats.TranslationEntries = TableCount;
  }

  // --- 4. Tool-added routines -------------------------------------------------
  Phase.begin("write.added_routines");
  std::vector<std::vector<MachWord>> AddedCode;
  for (AddedRoutine &Added : AddedRoutines) {
    Added.PlacedAddr = Cursor;
    Expected<SxfFile> Assembled = assembleProgram(
        Image.Arch, Added.AsmText, AsmOptions{Added.PlacedAddr, 0x7F000000});
    if (Assembled.hasError())
      return Error("added routine '" + Added.Name + "': " +
                   Assembled.error().message());
    const SxfSegment *Text = Assembled.value().segment(SegKind::Text);
    std::vector<MachWord> Words;
    for (size_t I = 0; I + 4 <= Text->Bytes.size(); I += 4)
      Words.push_back(
          *Assembled.value().readWord(Text->VAddr + static_cast<Addr>(I)));
    Cursor += static_cast<Addr>(Words.size() * 4);
    AddedCode.push_back(std::move(Words));
  }

  // --- 5. The output image's segments ------------------------------------------
  // Placement fixed the exact text size, so the text segment is allocated
  // once, up front; the routines' words go straight into it below. So are
  // the other arrays phase 6 fills: the table and cell write lists and one
  // symbol per routine.
  Phase.begin("write.image");
  SxfFile Out;
  Out.Arch = Image.Arch;
  {
    SxfSegment TextSeg;
    TextSeg.Kind = SegKind::Text;
    TextSeg.VAddr = NewTextBase;
    TextSeg.Bytes.resize(static_cast<size_t>(Cursor - NewTextBase));
    TextSeg.MemSize = static_cast<uint32_t>(TextSeg.Bytes.size());
    Out.Segments.push_back(std::move(TextSeg));
  }
  // Original non-text segments are copied unchanged (then patched below).
  for (const SxfSegment &Seg : Image.Segments)
    if (Seg.Kind != SegKind::Text)
      Out.Segments.push_back(Seg);
  // Appended data (tool counters, translation table).
  if (!AppendedData.empty()) {
    Addr Lo = AppendedData.front().Address;
    SxfSegment Blob;
    Blob.Kind = SegKind::Data;
    Blob.VAddr = Lo;
    Blob.Bytes.assign(NextDataAddr - Lo, 0);
    for (const DataBlob &B : AppendedData)
      for (size_t I = 0; I < B.Initial.size(); ++I)
        Blob.Bytes[B.Address - Lo + I] = B.Initial[I];
    Blob.MemSize = static_cast<uint32_t>(Blob.Bytes.size());
    Out.Segments.push_back(std::move(Blob));
  }
  uint8_t *const TextBuf = Out.Segments.front().Bytes.data();
  auto Emit = [TextBuf, NewTextBase](Addr At, std::span<const MachWord> Words) {
    uint8_t *Dst = TextBuf + (At - NewTextBase);
    for (MachWord W : Words) {
      storeLE32(Dst, W);
      Dst += 4;
    }
  };
  if (!TranslatorCode.empty())
    Emit(TranslatorAddr, TranslatorCode);
  for (size_t I = 0; I < AddedCode.size(); ++I)
    Emit(AddedRoutines[I].PlacedAddr, AddedCode[I]);
  std::vector<PendingWord> TableWrites(TableEntries), CellWrites(CellEntries);
  Out.Symbols.resize(NumRoutines);
  std::vector<unsigned> SiteCounts(NumRoutines, 0);
  std::vector<std::string> RoutineErrors(NumRoutines);
  // The binding of the first original symbol with each name (the one
  // SxfFile::findSymbol returns), probed read-only from the fan-out. Its
  // nodes come from one buffer, freed in a few blocks instead of one by
  // one.
  std::pmr::monotonic_buffer_resource BindingMemory;
  std::pmr::unordered_map<std::string_view, SymBinding> BindingOf(
      &BindingMemory);
  BindingOf.reserve(Image.Symbols.size());
  for (const SxfSymbol &Sym : Image.Symbols)
    BindingOf.emplace(Sym.Name, Sym.Binding);

  // --- 6. Each routine's post-placement work ---------------------------------
  // One task per routine, independent once placement is fixed: it emits
  // its words, patches its relocations in place, resolves its
  // dispatch-table and cell values, and writes its symbol. It reads only
  // the immutable layouts, placements and sealed address map. The words
  // of shared segments it resolves are stored below, in index order, and
  // its translation-site count and error are merged in index order, so
  // the result is the same at every width.
  Phase.begin("write.routines");
  parallelForEach(
      NThreads, NumRoutines,
      [&, TranslatorAddr](size_t Index) {
        const Routine &R = *Routines[Index];
        const RoutineLayout &L = LayoutOf(Index);
        const Placement &P = Place[Index];
        uint8_t *Words = TextBuf + (P.Base - NewTextBase);
        Emit(P.Base, L.Code);
        for (const Reloc &Rl : L.Relocs) {
          Addr PC = P.Base + 4 * Rl.WordIndex;
          MachWord Word = loadLE32(Words + 4 * Rl.WordIndex);
          switch (Rl.K) {
          case Reloc::Kind::CallTo:
          case Reloc::Kind::JumpTo: {
            Addr Dest = EditedAddrOf(Rl.OrigTarget);
            if (!Dest)
              continue; // bogus transfer decoded from data: leave untouched
            std::optional<MachWord> New =
                retargetDirect(Rl.Shape, Word, PC, Dest);
            if (!New) {
              RoutineErrors[Index] = "routine '" + R.name() +
                                     "': edited transfer target out of range";
              return;
            }
            Word = *New;
            break;
          }
          case Reloc::Kind::Internal: {
            std::optional<MachWord> New = retargetDirect(
                Rl.Shape, Word, PC, P.Base + 4 * Rl.DestWordIndex);
            if (!New) {
              RoutineErrors[Index] = "routine '" + R.name() +
                                     "': internal transfer out of range";
              return;
            }
            Word = *New;
            break;
          }
          case Reloc::Kind::AddrHi:
          case Reloc::Kind::AddrLo: {
            Addr Dest = EditedAddrOf(Rl.OrigTarget);
            if (!Dest)
              continue; // not a code address after all
            Word = Rl.K == Reloc::Kind::AddrHi ? Parser.applyImmHi(Word, Dest)
                                               : Parser.applyImmLo(Word, Dest);
            break;
          }
          case Reloc::Kind::TranslatorHi:
            ++SiteCounts[Index];
            Word = Parser.applyImmHi(Word, TranslatorAddr);
            break;
          case Reloc::Kind::TranslatorLo:
            Word = Parser.applyImmLo(Word, TranslatorAddr);
            break;
          }
          storeLE32(Words + 4 * Rl.WordIndex, Word);
        }

        // Dispatch tables and constant code-pointer cells in moved text
        // are not rewritable.
        auto OutsideText = [&Image](Addr A) {
          const SxfSegment *Seg = Image.segmentContaining(A);
          return Seg && Seg->Kind != SegKind::Text;
        };
        PendingWord *Table = TableWrites.data() + P.TableAt;
        for (const TableEntryFix &EF : L.TableEntries) {
          PendingWord &W = *Table++;
          if (!OutsideText(EF.TableAddr))
            continue;
          W.Value = EF.StubWordIndex >= 0
                        ? P.Base + 4 * static_cast<Addr>(EF.StubWordIndex)
                        : EditedAddrOf(EF.OrigTarget);
          W.At = Out.wordBytes(EF.TableAddr + 4 * EF.Index);
        }
        PendingWord *Cell = CellWrites.data() + P.CellAt;
        for (const CellFix &Fix : L.CellFixes) {
          PendingWord &W = *Cell++;
          if (!OutsideText(Fix.Cell))
            continue;
          W.Value = EditedAddrOf(Fix.Target);
          W.At = Out.wordBytes(Fix.Cell);
        }

        SxfSymbol &Sym = Out.Symbols[Index];
        Sym.Name = R.name();
        Sym.Value = P.Base;
        Sym.Size = static_cast<uint32_t>(L.Code.size() * 4);
        Sym.Kind = R.isData() ? SymKind::Object : SymKind::Routine;
        auto Binding = BindingOf.find(R.name());
        Sym.Binding =
            Binding != BindingOf.end() ? Binding->second : SymBinding::Local;
      });
  for (size_t Index = 0; Index < NumRoutines; ++Index) {
    if (!RoutineErrors[Index].empty())
      return Error(RoutineErrors[Index]);
    Stats.TranslationSites += SiteCounts[Index];
  }

  // --- 7. Snippet call-backs ------------------------------------------------------
  Phase.begin("write.callbacks");
  for (size_t Index = 0; Index < NumRoutines; ++Index) {
    const Placement &P = Place[Index];
    uint8_t *Words = TextBuf + (P.Base - NewTextBase);
    for (const PendingCallback &Pending : LayoutOf(Index).Callbacks) {
      SnippetInstance Inst = Pending.Instance;
      Inst.StartAddr = P.Base + 4 * Pending.WordIndex;
      for (size_t I = 0; I < Inst.Words.size(); ++I)
        Inst.Words[I] = loadLE32(Words + 4 * (Pending.WordIndex + I));
      Pending.Snippet->callback()(Inst);
      for (size_t I = 0; I < Inst.Words.size(); ++I)
        storeLE32(Words + 4 * (Pending.WordIndex + I), Inst.Words[I]);
    }
  }

  // The edited text sits on the page after the original text, so a large
  // enough program runs it into the data segment. Report that rather than
  // return an image the loader rejects.
  for (size_t I = 1; I < Out.Segments.size(); ++I) {
    const SxfSegment &Seg = Out.Segments[I];
    uint64_t Lo = Seg.VAddr, Hi = Lo + Seg.MemSize;
    if (NewTextBase < Hi && Lo < Cursor) {
      char Msg[128];
      std::snprintf(Msg, sizeof(Msg),
                    "edited text [0x%x, 0x%x) overlaps %s segment "
                    "[0x%llx, 0x%llx)",
                    NewTextBase, Cursor,
                    Seg.Kind == SegKind::Bss ? "bss" : "data",
                    static_cast<unsigned long long>(Lo),
                    static_cast<unsigned long long>(Hi));
      return Error(ErrorCode::SegmentOverlap, Msg);
    }
  }

  // Translation table contents: sorted (orig, edited) pairs. The sealed
  // flat map iterates in original-address order.
  if (TableCount) {
    Addr At = TableAddr;
    for (const auto &[Orig, Edited] : AddrMap) {
      Out.writeWord(At, Orig);
      Out.writeWord(At + 4, Edited);
      At += 8;
    }
  }

  // --- 8. Data-pointer rewriting ------------------------------------------------
  // When the image carries relocation information, rewrite exactly the
  // 32-bit address words it names (the §3.1 footnote's "supplement ...
  // with relocation information, when available"), looked up in a
  // fan-out and stored in relocation order; otherwise fall back to the
  // heuristic whole-segment scan, which can mistake an integer for a code
  // pointer.
  Phase.begin("write.data_pointers");
  if (!Image.Relocs.empty()) {
    Addr TB = An->textBase(), TE = An->textEnd();
    Stats.DataPointersRewritten += applyWrites(collectChunks<PendingWord>(
        NThreads, Image.Relocs.size(), RelocChunk,
        [&](size_t Lo, size_t Hi, std::vector<PendingWord> &Writes) {
          for (const SxfReloc &Reloc :
               std::span(Image.Relocs).subspan(Lo, Hi - Lo)) {
            if (Reloc.Kind != RelocKind::Word32)
              continue;
            if (Reloc.Site >= TB && Reloc.Site < TE)
              continue; // words inside text moved with their routine
            if (Addr Edited = EditedAddrOf(Reloc.Target))
              Writes.push_back({Out.wordBytes(Reloc.Site), Edited});
            // else a data-to-data pointer
          }
        }));
  } else {
    for (SxfSegment &Seg : Out.Segments) {
      if (Seg.Kind != SegKind::Data)
        continue;
      // Only segments copied from the original image (not the appended
      // blob, whose contents are already edited addresses).
      bool FromOriginal = false;
      for (const SxfSegment &OrigSeg : Image.Segments)
        if (OrigSeg.Kind == Seg.Kind && OrigSeg.VAddr == Seg.VAddr)
          FromOriginal = true;
      if (!FromOriginal)
        continue;
      for (size_t Off = 0; Off + 4 <= Seg.Bytes.size(); Off += 4) {
        Addr A = Seg.VAddr + static_cast<Addr>(Off);
        uint32_t W = *Out.readWord(A);
        if (!An->isTextAddr(W))
          continue;
        Addr Edited = EditedAddrOf(W);
        if (!Edited)
          continue;
        Out.writeWord(A, Edited);
        ++Stats.DataPointersRewritten;
      }
    }
  }

  // --- 9. Dispatch-table and cell rewriting -------------------------------------
  // The values phase 6 resolved, stored after the pointer rewrites, each
  // routine's table entries and then its cells, routine by routine (the
  // cells repeat what the pointer scan writes; a table entry may point at
  // a stub instead).
  Phase.begin("write.dispatch_tables");
  for (size_t Index = 0; Index < NumRoutines; ++Index) {
    const RoutineLayout &L = LayoutOf(Index);
    const Placement &P = Place[Index];
    Stats.DispatchEntriesRewritten += applyWrites(
        std::span(TableWrites).subspan(P.TableAt, L.TableEntries.size()));
    Stats.CellPointersRewritten += applyWrites(
        std::span(CellWrites).subspan(P.CellAt, L.CellFixes.size()));
  }

  // --- 10. Symbols and entry point --------------------------------------------------
  // The routines' symbols were written in phase 6.
  Phase.begin("write.symbols");
  if (!TranslatorCode.empty())
    Out.Symbols.push_back({"__eel_translate", TranslatorAddr,
                           static_cast<uint32_t>(TranslatorCode.size() * 4),
                           SymKind::Routine, SymBinding::Local});
  for (size_t I = 0; I < AddedRoutines.size(); ++I)
    Out.Symbols.push_back({AddedRoutines[I].Name, AddedRoutines[I].PlacedAddr,
                           static_cast<uint32_t>(AddedCode[I].size() * 4),
                           SymKind::Routine, SymBinding::Local});
  // Non-text symbols (data objects) keep their addresses.
  for (const SxfSymbol &Sym : Image.Symbols)
    if (Sym.Value < An->textBase() || Sym.Value >= An->textEnd())
      Out.Symbols.push_back(Sym);

  Out.Entry = EditedAddrOf(Image.Entry);
  if (!Out.Entry)
    return Error("program entry point did not survive editing");

  // --- 11. Optional verification gate -----------------------------------------------
  Phase.begin("write.verify_gate");
  if (Opts.Verify) {
    // The gate runs the re-analysis-free profile (passes 1-4); full
    // translation validation re-disassembles the output and is a separate
    // verifyEdit()/eel-lint step when a tool can afford it.
    DiagnosticReport Report = verifyEdit(*this, Out, VerifyOptions::writeGate());
    if (Report.hasErrors())
      return Error("edited image failed verification (" +
                   std::to_string(Report.errorCount()) + " error(s)):\n" +
                   Report.renderText());
  }

  // --- 12. Release ---------------------------------------------------------------
  // Every local declared after Phase is destroyed before it on return, so
  // the teardown is timed under its own span. The layouts' arrays go with
  // their pieces' arenas, a few blocks each.
  Phase.begin("write.release");
  return Out;
}
