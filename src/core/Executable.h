//===- core/Executable.h - Executable editing ---------------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top of EEL's abstraction stack (§3.1), in two halves:
///
///  * Analysis, the read-only half: the image, its options and target, the
///    decode table built from its text, and what readContents() learns from
///    them — routine discovery, every routine's CFG, slices and liveness,
///    and the eel-infer facts. It is frozen once readContents() returns, so
///    any number of edit sessions may share one (eel-serve caches them).
///  * Executable, one edit session over an analysis. A tool opens an
///    executable, calls readContents(), edits routines through their CFGs
///    — the edits accumulate here, a pending batch per routine (§3.3.1),
///    never in the graphs — and calls writeEditedExecutable() to produce a
///    new image in which control flows correctly despite deleted
///    instructions and added foreign code. A one-shot tool's Executable
///    owns a fresh Analysis and never sees the split.
///
/// The editor:
///  * re-lays out every routine, applying its pending edits and folding
///    unedited delay slots back (§3.3.1);
///  * retargets all direct calls, branches, and inter-routine jumps;
///  * rewrites dispatch tables found by slicing to point at edited
///    locations, plus known code-pointer cells;
///  * rewrites data words that point at code (function pointers): exactly
///    the words the image's relocations name, or, for an image without
///    relocations, every data word that equals a code address;
///  * appends a run-time translation routine and a sorted original→edited
///    address table for indirect jumps the analysis could not resolve,
///    so "run-time code ensures that control passes to the correct edited
///    instruction";
///  * updates the symbol table so standard tools keep working.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_CORE_EXECUTABLE_H
#define EEL_CORE_EXECUTABLE_H

#include "core/Routine.h"
#include "support/FlatMap.h"
#include "sxf/Sxf.h"

#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace eel {

struct InferResult;

/// The read-only half of an executable: the image and everything
/// readContents() derives from it. Only readContents() mutates it, and it
/// returns at once after the first call, so a finished analysis is safe to
/// share across threads and edit sessions.
class Analysis {
public:
  struct Options {
    /// Emit the run-time translation fallback for unanalyzable indirect
    /// jumps (§3.3). When off, routines with such jumps are copied
    /// verbatim and cannot be edited.
    bool EnableRuntimeTranslation = true;
    /// Ablation: ignore slicing results for indirect jumps, forcing every
    /// one through run-time translation. Measures how much §3.3's slicing
    /// buys ("EEL's slicing makes run-time translation a rare occurrence").
    bool DisableSlicing = false;
    /// Ablation: never fold unedited delay-slot duplicates back into delay
    /// slots, always materializing the §3.3.1 stub form instead. Measures
    /// the size/time cost fold-back avoids.
    bool DisableDelayFolding = false;
    /// Worker threads for the per-routine analysis and editing phases
    /// (CFG construction, liveness, slicing, layout, relocation patching).
    /// 0 = hardware concurrency. Every width runs the same schedule — 1
    /// just runs each fan-out inline, in routine order — so output images,
    /// statistics, and span names (bar pool.worker occupancy spans) are
    /// identical across all settings.
    unsigned Threads = 0;
    /// Run the static verifier (analysis/Verifier.h) over every emitted
    /// image; writeEditedExecutable() fails with the findings if any check
    /// reports an error. The gate runs the re-analysis-free profile
    /// (VerifyOptions::writeGate(): CFG well-formedness, delay-slot/annul
    /// invariants, the scavenging audit, and layout consistency), which
    /// bench_overhead measures at 16-18% of the gated write (above the 10%
    /// the design aims for); full translation validation is the explicit
    /// verifyEdit()/eel-lint step. Off by default.
    bool Verify = false;
    /// Distrust the symbol table entirely: readContents() discards symbols
    /// and derives routine boundaries, entry points, and dispatch facts
    /// with the eel-infer fixpoint (analysis/Infer.h), exactly as it does
    /// automatically for stripped images. Lets tools cross-check lying
    /// symbol tables against heuristic inference (eel-lint --stripped).
    bool NoSymbols = false;
  };

  /// Decodes the text into the decode table (the "decode" phase). Spans
  /// and counters go to the calling thread's metrics sink, if one is
  /// installed (support/Metrics.h), and log records follow the
  /// process-wide level (logSetLevel); no option changes either.
  Analysis(SxfFile Image, Options Opts);
  ~Analysis();
  Analysis(const Analysis &) = delete;
  Analysis &operator=(const Analysis &) = delete;

  const SxfFile &image() const { return Image; }
  const TargetInfo &target() const { return Target; }
  const Options &options() const { return Opts; }
  /// The flyweight decode table of the text, frozen since construction.
  const DecodeTable &pool() const { return Pool; }

  /// The instruction at text address \p A: one load from the decode
  /// table. Null outside the text and between its words.
  const Instruction *instAt(Addr A) const { return Pool.at(A); }

  /// Resolved worker count for the parallel phases: Options::Threads, with
  /// 0 mapped to std::thread::hardware_concurrency().
  unsigned effectiveThreads() const;

  Addr textBase() const;
  Addr textEnd() const;
  bool isTextAddr(Addr A) const { return A >= textBase() && A < textEnd(); }

  /// Word fetch from the image (text or initialized data).
  std::optional<MachWord> fetchWord(Addr A) const { return Image.readWord(A); }

  /// Runs symbol-table refinement and routine discovery (§3.1 stages 1–4),
  /// then the "analyze" phase: every code routine's CFG, slices, and (where
  /// layout will need it) liveness. Everything fans out over
  /// effectiveThreads() except stage 1, stage 2's eel-infer fixpoint and
  /// the merges: the transfer scan reads the decode table in chunks of
  /// ScanChunkWords words; stage 3 looks up chunks of transfer sites;
  /// stage 4 walks each routine and its chain of hidden tails as one task.
  /// Results merge in chunk or routine order, so the routine map is the
  /// same at every width. Idempotent; after it returns nothing in the
  /// analysis changes again. Returns an error (instead of asserting) when
  /// the image is not analyzable — e.g. it has no text segment.
  Expected<bool> readContents();
  bool analyzed() const { return Analyzed; }

  /// Text words per task of the transfer scan, and transfer sites per task
  /// of stage 3. A few-hundred-routine image spans several chunks.
  static constexpr size_t ScanChunkWords = 2048;

  const std::vector<std::unique_ptr<Routine>> &routines() const {
    return Routines;
  }
  /// The routine whose extent holds \p A, or nullptr. A binary search,
  /// which relies on an invariant of refinement: routine extents are
  /// pairwise disjoint, and routines() is sorted by start address whenever
  /// a lookup can run. Routines are built from sorted candidates before
  /// stage 3's tasks look them up (stage 3 only appends entry points);
  /// stage 4's tasks cut hidden routines from tails and look none up, and
  /// readContents() sorts once the discovered routines are merged.
  Routine *routineContaining(Addr A) const;
  Routine *findRoutine(const std::string &Name) const;

  /// Routines discovered by analysis rather than named by symbols.
  std::vector<Routine *> hiddenRoutines() const;

  // --- Inference (eel-infer) -------------------------------------------------
  // When the image is stripped (or Options::NoSymbols is set), readContents
  // degrades from symbol refinement to the fixpoint inference pass in
  // analysis/Infer.h. Its facts feed both the slicing oracle and CfgBuild.

  /// True when routine discovery ran the eel-infer fixpoint.
  bool inferenceUsed() const { return InferenceRan; }

  /// The initial contents of \p Cell, when inference proved no store in
  /// the program can write that cell (the constant-cell oracle consulted
  /// by backward slicing). Empty for every symboled analysis.
  std::optional<uint32_t> inferredCellValue(Addr Cell) const;

  /// The fixpoint's resolution of the indirect site at \p JumpAddr, or
  /// nullptr. CfgBuild prefers these over a fresh slice so the graphs a
  /// stripped analysis builds are bit-identical to what inference decided.
  const IndirectResolution *inferredSite(Addr JumpAddr) const;

  /// Inference confidence for the routine starting at \p RoutineStart:
  /// 0 = not inferred (symboled analysis), else an
  /// analysis/InferFacts.h InferConfidence value (1 low .. 3 high).
  uint8_t inferredConfidence(Addr RoutineStart) const;

private:
  /// The fixpoint installs constant-cell facts round by round (the slicing
  /// oracle must see round N's cells during round N+1's resolutions).
  friend InferResult inferLayout(Analysis &);

  /// §3.1 stages 1–4: builds the sorted routine map (readContents'
  /// "symbol_refine" phase).
  void refineRoutines();

  SxfFile Image;
  Options Opts;
  const TargetInfo &Target;
  const DecodeTable Pool;
  bool Analyzed = false;
  std::vector<std::unique_ptr<Routine>> Routines;

  // eel-infer results (readContents fills these on the inference path).
  bool InferenceRan = false;
  /// Constant code-pointer/table-base cells, sorted by cell address.
  std::vector<std::pair<Addr, uint32_t>> InferredCells;
  /// Fixpoint-resolved indirect sites, keyed by jump address.
  std::map<Addr, IndirectResolution> InferredSites;
  /// Per-routine confidence, keyed by routine start address.
  std::map<Addr, uint8_t> InferredConfidence;
};

/// One edit session: the pending edits, added data and routines, and the
/// results of writing them out, over an Analysis it may share.
class Executable {
public:
  using Options = Analysis::Options;

  explicit Executable(SxfFile Image, Options Opts = {});
  /// A session over an analysis whose readContents() has returned (asserted),
  /// shared with any number of other sessions.
  explicit Executable(std::shared_ptr<const Analysis> Shared);
  ~Executable();

  /// Opens an executable file: reads and validates the SXF image (the full
  /// hostile-input validation in SxfFile::deserialize), requires a text
  /// segment, and returns the ready-to-analyze Executable. All failures —
  /// I/O, malformed image, no text — come back as structured Errors with
  /// the path attached; nothing on this path aborts. This is the entry
  /// point tools should use for untrusted files.
  static Expected<std::unique_ptr<Executable>> open(const std::string &Path,
                                                    Options Opts = {});

  /// Same, for an image already decoded or built in memory. Runs
  /// SxfFile::validate() before accepting it.
  static Expected<std::unique_ptr<Executable>> openImage(SxfFile Image,
                                                         Options Opts = {});

  const Analysis &analysis() const { return *An; }
  /// The analysis, for further sessions to share once readContents() has
  /// returned.
  std::shared_ptr<const Analysis> sharedAnalysis() const { return An; }

  /// Runs the analysis (Analysis::readContents); a no-op for a session
  /// over a finished one.
  Expected<bool> readContents();

  // Shorthands for the analysis accessors every tool uses.
  const SxfFile &image() const { return An->image(); }
  const TargetInfo &target() const { return An->target(); }
  const std::vector<std::unique_ptr<Routine>> &routines() const {
    return An->routines();
  }
  Routine *findRoutine(const std::string &Name) const {
    return An->findRoutine(Name);
  }

  // --- Editing (a pending batch per routine; §3.3.1) -----------------------
  // Edits name blocks and edges of the analysis' graphs, which they never
  // change: layout applies each routine's batch, in the order it was made,
  // when writeEditedExecutable() produces the routine.

  void addCodeBefore(const BasicBlock *Block, unsigned InstIndex,
                     SnippetPtr Snippet);
  void addCodeAfter(const BasicBlock *Block, unsigned InstIndex,
                    SnippetPtr Snippet);
  /// Adds foreign code along \p E (the paper's add_code_along). Asserts
  /// the edge is editable.
  void addCodeAlong(const Edge *E, SnippetPtr Snippet);
  void deleteInst(const BasicBlock *Block, unsigned InstIndex);

  /// Replaces a non-transfer instruction with \p NewWord (also required to
  /// be a non-transfer) — the capability the paper contrasts with ATOM,
  /// which "does not permit existing instructions to be modified".
  void replaceInst(const BasicBlock *Block, unsigned InstIndex,
                   MachWord NewWord);

  /// The pending batch for graph \p G, in the order its edits were made.
  std::span<const Edit> edits(const Cfg &G) const;
  bool edited(const Cfg &G) const { return !edits(G).empty(); }

  // --- Additions ---------------------------------------------------------------

  /// Reserves \p Bytes of fresh data space aligned to \p Align (e.g.
  /// profile counters); returns its address. Contents are zero-initialized
  /// in the edited image unless \p Initial is provided.
  Addr appendData(uint32_t Bytes, unsigned Align,
                  std::vector<uint8_t> Initial = {});

  /// Adds a new routine given as assembly text; it is assembled at its
  /// final address during output. Address constants the routine needs must
  /// be formatted into the text (tools know them from appendData).
  /// Returns an id with which editedAddrOfAdded() retrieves its address.
  unsigned addRoutineAsm(const std::string &Name, std::string AsmText);

  // --- Output ---------------------------------------------------------------

  /// Produces the edited executable. After this succeeds, editedAddr()
  /// maps original instruction addresses into the new image. One call per
  /// session: the translation table it appends is session data.
  Expected<SxfFile> writeEditedExecutable();

  /// Edited address of original instruction address \p A; asserts the
  /// mapping exists (writeEditedExecutable must have succeeded).
  Addr editedAddr(Addr A) const;

  /// The full original→edited instruction address map of the last
  /// writeEditedExecutable() call (the verifier checks images against it).
  /// Sorted by original address; lookups are binary searches over the
  /// flat entry array.
  const FlatAddrMap &addrMap() const { return AddrMap; }

  /// Entry address of an added routine in the edited image.
  Addr editedAddrOfAdded(unsigned Id) const;

  /// Statistics of the last writeEditedExecutable() call.
  struct EditStats {
    unsigned RoutinesEdited = 0;
    unsigned RoutinesVerbatim = 0;   ///< Copied unmodified (unsupported).
    unsigned DispatchEntriesRewritten = 0;
    unsigned DataPointersRewritten = 0;
    unsigned CellPointersRewritten = 0; ///< Inferred constant cells.
    unsigned TranslationSites = 0;
    unsigned TranslationEntries = 0;
    unsigned DelaySlotsFolded = 0;
    unsigned DelaySlotsMaterialized = 0;
    unsigned SnippetInstances = 0;
    unsigned SnippetSpills = 0;
    unsigned SnippetCCSaves = 0;
  };
  const EditStats &editStats() const { return Stats; }

private:
  /// Appends \p E to the batch of the graph that owns its block or edge.
  void addEdit(Edit E);

  /// The one-shot path's analysis, which readContents() runs; null for a
  /// session over a shared, finished analysis.
  std::shared_ptr<Analysis> Owned;
  std::shared_ptr<const Analysis> An;

  std::unordered_map<const Cfg *, std::vector<Edit>> Batches;

  /// Appended data with initial bytes; the rest of [the first blob's
  /// address, NextDataAddr) is zero in the edited image.
  struct DataBlob {
    Addr Address;
    std::vector<uint8_t> Initial;
  };
  std::vector<DataBlob> AppendedData;
  Addr NextDataAddr = 0;

  struct AddedRoutine {
    std::string Name;
    std::string AsmText;
    Addr PlacedAddr = 0;
  };
  std::vector<AddedRoutine> AddedRoutines;

  FlatAddrMap AddrMap;
  EditStats Stats;
};

} // namespace eel

#endif // EEL_CORE_EXECUTABLE_H
