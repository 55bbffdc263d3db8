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

#include <cstdio>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>

using namespace eel;

namespace {

struct PlacedRoutine {
  Routine *R = nullptr;
  RoutineLayout Layout;
  Addr Base = 0;
  size_t MapAt = 0; ///< First slot of its entries in the address map.
};

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
  // only its own batch), so it fans out over the pool. Results land in
  // per-index slots and are merged in index order below, which makes
  // placement, the address map, and the reported error (the lowest-index
  // failure) the same at every width.
  Phase.begin("write.layout");
  const unsigned NThreads = An->effectiveThreads();
  const size_t NumRoutines = Routines.size();
  std::vector<std::optional<Expected<RoutineLayout>>> LaidOut(NumRoutines);
  parallelForEach(NThreads, NumRoutines,
                  [this, &Routines, &LaidOut](size_t Index) {
                    LaidOut[Index].emplace(
                        layoutRoutine(*this, *Routines[Index]));
                  });

  std::vector<PlacedRoutine> Placed;
  bool NeedTranslator = false;
  for (size_t Index = 0; Index < NumRoutines; ++Index) {
    Routine &R = *Routines[Index];
    Expected<RoutineLayout> Layout = std::move(*LaidOut[Index]);
    if (Layout.hasError())
      return Layout.error();
    PlacedRoutine P;
    P.R = &R;
    P.Layout = Layout.takeValue();
    NeedTranslator |= P.Layout.NeedsTranslator;
    if (P.Layout.Verbatim)
      ++Stats.RoutinesVerbatim;
    else if (R.controlFlowGraph() && edited(*R.controlFlowGraph()))
      ++Stats.RoutinesEdited;
    Stats.DelaySlotsFolded += P.Layout.DelayFolded;
    Stats.DelaySlotsMaterialized += P.Layout.DelayMaterialized;
    Stats.SnippetInstances += P.Layout.SnippetInstances;
    Stats.SnippetSpills += P.Layout.SnippetSpills;
    Stats.SnippetCCSaves += P.Layout.SnippetCCSaves;
    Placed.push_back(std::move(P));
  }

  // --- 2. Place routines and build the global address map -------------------
  // Edited code lives at a fresh base disjoint from the original text so
  // that original and edited instruction addresses never collide: the
  // run-time translator can then distinguish untranslated original
  // addresses (in its table) from values that were already rewritten.
  Phase.begin("write.place");
  Addr NewTextBase = (An->textEnd() + 0xFFFu) & ~0xFFFu;
  Addr Cursor = NewTextBase;
  size_t MapEntries = 0;
  for (PlacedRoutine &P : Placed) {
    P.Base = Cursor;
    Cursor += static_cast<Addr>(P.Layout.Code.size() * 4);
    P.MapAt = MapEntries;
    MapEntries += P.Layout.AddrMap.size();
  }
  // With bases and slots fixed by the prefix sums above, each routine
  // fills its own stretch of the map, in placement order at every width.
  std::span<FlatAddrMap::value_type> MapSlots =
      AddrMap.appendSlots(MapEntries);
  parallelForEach(NThreads, Placed.size(), [&Placed, MapSlots](size_t Index) {
    const PlacedRoutine &P = Placed[Index];
    FlatAddrMap::value_type *Slot = MapSlots.data() + P.MapAt;
    for (const auto &[Orig, WordIndex] : P.Layout.AddrMap)
      *Slot++ = {Orig, P.Base + 4 * WordIndex};
  });
  // Routines are placed in start order with disjoint extents, and each
  // layout's map is sorted, so the entries arrive sorted and seal() skips
  // its sort. It still drops duplicates (first mapping wins, same as the
  // seed's std::map::emplace); the sealed map then serves concurrent
  // binary-search lookups from the patch workers below.
  AddrMap.seal();

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

  // --- 5. Emit text, patch relocations, run call-backs ----------------------
  // Placement (phase 2) fixed the exact text size, so one buffer is
  // allocated up front, every routine's words are emitted directly at
  // their placed offsets, and relocation patching and snippet call-backs
  // then operate in place on that buffer.
  SxfFile Out;
  Out.Arch = Image.Arch;

  SxfSegment TextSeg;
  TextSeg.Kind = SegKind::Text;
  TextSeg.VAddr = NewTextBase;

  Phase.begin("write.emit");
  TextSeg.Bytes.resize(static_cast<size_t>(Cursor - NewTextBase));
  uint8_t *const TextBuf = TextSeg.Bytes.data();
  auto Emit = [TextBuf, NewTextBase](Addr At,
                                     const std::vector<MachWord> &Words) {
    uint8_t *Dst = TextBuf + (At - NewTextBase);
    for (MachWord W : Words) {
      storeLE32(Dst, W);
      Dst += 4;
    }
  };
  parallelForEach(NThreads, Placed.size(), [&Placed, &Emit](size_t Index) {
    Emit(Placed[Index].Base, Placed[Index].Layout.Code);
  });
  if (!TranslatorCode.empty())
    Emit(TranslatorAddr, TranslatorCode);
  for (size_t I = 0; I < AddedCode.size(); ++I)
    Emit(AddedRoutines[I].PlacedAddr, AddedCode[I]);

  // Word \p WI of placed routine \p P, in the text buffer.
  auto WordAt = [TextBuf, NewTextBase](const PlacedRoutine &P, unsigned WI) {
    return TextBuf + (P.Base - NewTextBase) + size_t(4) * WI;
  };

  // Per-routine and independent once the address map is frozen (phase 2):
  // each worker writes only its own routine's words and reads the shared
  // sealed map. Per-routine translation-site counts and error messages are
  // merged in index order, so the result is the same at every width.
  Phase.begin("write.reloc_patch");
  std::vector<unsigned> SiteCounts(Placed.size(), 0);
  std::vector<std::string> PatchErrors(Placed.size());
  parallelForEach(
      NThreads, Placed.size(),
      [this, &Target, &Placed, &SiteCounts, &PatchErrors, &Parser, &WordAt,
       TranslatorAddr](size_t Index) {
        const PlacedRoutine &P = Placed[Index];
        for (const Reloc &Rl : P.Layout.Relocs) {
          Addr PC = P.Base + 4 * Rl.WordIndex;
          MachWord Word = loadLE32(WordAt(P, Rl.WordIndex));
          switch (Rl.K) {
          case Reloc::Kind::CallTo:
          case Reloc::Kind::JumpTo: {
            auto It = AddrMap.find(Rl.OrigTarget);
            if (It == AddrMap.end())
              break; // bogus transfer decoded from data: leave untouched
            std::optional<MachWord> New =
                retargetDirect(Target.decode(Word), Word, PC, It->second);
            if (!New) {
              PatchErrors[Index] = "routine '" + P.R->name() +
                                   "': edited transfer target out of range";
              return;
            }
            Word = *New;
            break;
          }
          case Reloc::Kind::Internal: {
            Addr Dest = P.Base + 4 * Rl.DestWordIndex;
            std::optional<MachWord> New =
                retargetDirect(Target.decode(Word), Word, PC, Dest);
            if (!New) {
              PatchErrors[Index] = "routine '" + P.R->name() +
                                   "': internal transfer out of range";
              return;
            }
            Word = *New;
            break;
          }
          case Reloc::Kind::AddrHi:
          case Reloc::Kind::AddrLo: {
            auto It = AddrMap.find(Rl.OrigTarget);
            if (It == AddrMap.end())
              break; // not a code address after all
            Word = Rl.K == Reloc::Kind::AddrHi
                       ? Parser.applyImmHi(Word, It->second)
                       : Parser.applyImmLo(Word, It->second);
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
          storeLE32(WordAt(P, Rl.WordIndex), Word);
        }
      });
  for (size_t Index = 0; Index < Placed.size(); ++Index) {
    if (!PatchErrors[Index].empty())
      return Error(PatchErrors[Index]);
    Stats.TranslationSites += SiteCounts[Index];
  }

  // --- 6. Snippet call-backs ------------------------------------------------------
  Phase.begin("write.callbacks");
  for (PlacedRoutine &P : Placed) {
    for (PendingCallback &CB : P.Layout.Callbacks) {
      SnippetInstance &Inst = CB.Instance;
      Inst.StartAddr = P.Base + 4 * CB.WordIndex;
      for (size_t I = 0; I < Inst.Words.size(); ++I)
        Inst.Words[I] =
            loadLE32(WordAt(P, CB.WordIndex + static_cast<unsigned>(I)));
      CB.Snippet->callback()(Inst);
      for (size_t I = 0; I < Inst.Words.size(); ++I)
        storeLE32(WordAt(P, CB.WordIndex + static_cast<unsigned>(I)),
                  Inst.Words[I]);
    }
  }

  // --- 7. Build the output image ----------------------------------------------------
  Phase.begin("write.image");
  TextSeg.MemSize = static_cast<uint32_t>(TextSeg.Bytes.size());
  Out.Segments.push_back(std::move(TextSeg));

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
  // with relocation information, when available"); otherwise fall back to
  // the heuristic whole-segment scan, which can mistake an integer for a
  // code pointer.
  Phase.begin("write.data_pointers");
  if (!Image.Relocs.empty()) {
    Addr TB = An->textBase(), TE = An->textEnd();
    for (const SxfReloc &Reloc : Image.Relocs) {
      if (Reloc.Kind != RelocKind::Word32)
        continue;
      if (Reloc.Site >= TB && Reloc.Site < TE)
        continue; // words inside text moved with their routine's layout
      auto It = AddrMap.find(Reloc.Target);
      if (It == AddrMap.end())
        continue; // a data-to-data pointer
      Out.writeWord(Reloc.Site, It->second);
      ++Stats.DataPointersRewritten;
    }
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
        auto It = AddrMap.find(W);
        if (It == AddrMap.end())
          continue;
        Out.writeWord(A, It->second);
        ++Stats.DataPointersRewritten;
      }
    }
  }

  // --- 9. Dispatch-table rewriting --------------------------------------------------
  Phase.begin("write.dispatch_tables");
  for (const PlacedRoutine &P : Placed) {
    for (const TableFix &Fix : P.Layout.TableFixes) {
      const SxfSegment *Seg = Image.segmentContaining(Fix.TableAddr);
      if (!Seg || Seg->Kind == SegKind::Text)
        continue; // tables inside moved text are not rewritable
      for (size_t I = 0; I < Fix.Entries.size(); ++I) {
        const TableEntryFix &EF = Fix.Entries[I];
        Addr Value;
        if (EF.StubWordIndex >= 0) {
          Value = P.Base + 4 * static_cast<Addr>(EF.StubWordIndex);
        } else {
          auto It = AddrMap.find(EF.OrigTarget);
          if (It == AddrMap.end())
            continue;
          Value = It->second;
        }
        Out.writeWord(Fix.TableAddr + 4 * static_cast<Addr>(I), Value);
        ++Stats.DispatchEntriesRewritten;
      }
    }
    // Constant code-pointer cells behind inferred Literal jumps: precise,
    // unconditional rewrites (idempotent with the phase-8 pointer scan,
    // which writes the same edited address).
    for (const CellFix &Fix : P.Layout.CellFixes) {
      const SxfSegment *Seg = Image.segmentContaining(Fix.Cell);
      if (!Seg || Seg->Kind == SegKind::Text)
        continue;
      auto It = AddrMap.find(Fix.Target);
      if (It == AddrMap.end())
        continue;
      Out.writeWord(Fix.Cell, It->second);
      ++Stats.CellPointersRewritten;
    }
  }

  // --- 10. Symbols and entry point --------------------------------------------------
  Phase.begin("write.symbols");
  // Binding of the first original symbol with each name (the one
  // SxfFile::findSymbol returns: emplace keeps the first).
  std::unordered_map<std::string_view, SymBinding> BindingOf;
  for (const SxfSymbol &Sym : Image.Symbols)
    BindingOf.emplace(Sym.Name, Sym.Binding);
  for (const PlacedRoutine &P : Placed) {
    SxfSymbol Sym;
    Sym.Name = P.R->name();
    Sym.Value = P.Base;
    Sym.Size = static_cast<uint32_t>(P.Layout.Code.size() * 4);
    Sym.Kind = P.R->isData() ? SymKind::Object : SymKind::Routine;
    auto Orig = BindingOf.find(P.R->name());
    Sym.Binding = Orig != BindingOf.end() ? Orig->second : SymBinding::Local;
    Out.Symbols.push_back(std::move(Sym));
  }
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

  auto EntryIt = AddrMap.find(Image.Entry);
  if (EntryIt == AddrMap.end())
    return Error("program entry point did not survive editing");
  Out.Entry = EntryIt->second;

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
  // Every local declared after Phase (the layouts above all) is destroyed
  // before it on return, so the teardown is timed under its own span.
  Phase.begin("write.release");
  return Out;
}
