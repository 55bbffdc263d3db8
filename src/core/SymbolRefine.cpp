//===- core/SymbolRefine.cpp - Symbol-table refinement -------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements Analysis::readContents(): the §3.1 analysis that refines an
/// unreliable symbol table into an accurate routine map.
///
///   Stage 1  Read the symbol table; drop duplicate, temporary, and
///            debugging labels, labels not on instruction boundaries, and
///            labels that are branch/jump (not call!) targets from the
///            preceding routine — those are probably internal labels.
///   Stage 2  For stripped executables (and Options::NoSymbols), seed the
///            routine set from the eel-infer fixpoint (analysis/Infer.h):
///            heuristic disassembly votes in routine entries — the entry
///            point and first text address always, plus call targets,
///            inferred indirect-transfer targets, and corroborated code
///            pointers — and its resolved dispatch facts are kept for
///            CfgBuild to consume.
///   Stage 3  Control transfers out of a routine, and calls on addresses
///            not in the initial set, add entry points to the routines
///            containing their destinations. This is conservative: it can
///            invent invalid entries when data is decoded as instructions,
///            but it never misses one.
///   Stage 4  Reachability from each routine's entries: an entry that lands
///            on an invalid instruction marks the extent as data (a table
///            carrying a routine-like symbol); unreachable instructions at
///            the end of a routine become a new, hidden routine, which is
///            analyzed in turn and may itself contribute entry points.
///
/// Cost, for W text words, S direct transfer sites, C candidate labels and
/// R routines, and what fans out over effectiveThreads():
///   - Stage 1 first sorts the candidates by address (serial, stable, so
///     an address keeps its first name), O(C log C).
///   - The transfer scan, O(W), reads every text word's instruction from
///     the decode table, which the analysis built at construction.
///     Chunks of Analysis::ScanChunkWords words are tasks; site lists are
///     concatenated in chunk order. A chunk also looks each non-call
///     site's destination up among the candidates, O(S log C), and notes
///     the sites that land on one from below it.
///   - Stage 1 then (serial) keeps each candidate's highest such source and
///     decides every candidate in one pass in address order, O(C + L) for
///     L landing sites, building the routines as it goes.
///   - Stage 3: chunks of sites make two routineContaining() binary
///     searches per site, O(S log R), and collect (entry, routine) pairs;
///     one sort and one pass then build every routine's entry list.
///   - Stage 4: one task per routine marks reached words in a byte-per-word
///     map of its extent, linear in the extent's words, then does the same
///     down its chain of hidden tails. Each chain lies inside its
///     routine's old extent, so the routine map is each routine followed
///     by its chain, in index order.
/// The binary searches rely on the routine-map invariant (Executable.h):
/// sorted by start, disjoint extents. Every merge is in chunk or routine
/// order, so the routine map is the same at every width.
///
//===----------------------------------------------------------------------===//

#include "core/Executable.h"

#include "analysis/Infer.h"
#include "core/Liveness.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <optional>
#include <string_view>

using namespace eel;

namespace {

/// One direct control transfer discovered in the linear scan.
struct TransferSite {
  Addr From = 0;
  Addr To = 0;
  bool IsCall = false;
};

/// The instruction words of one extent [Lo, Hi) that scanReachable reached:
/// a byte per word, plus the only two facts stage 4 reads from the set.
/// One instance serves a routine and then each hidden tail cut from it.
class ReachedWords {
public:
  void reset(Addr LoIn, Addr Hi) {
    Lo = LoIn;
    Marks.assign((Hi - Lo + 3) / 4, 0);
    Count = 0;
    Highest = 0;
  }
  bool contains(Addr A) const { return Marks[(A - Lo) / 4]; }
  void insert(Addr A) {
    uint8_t &Mark = Marks[(A - Lo) / 4];
    if (Mark)
      return;
    Mark = 1;
    ++Count;
    Highest = std::max(Highest, A);
  }
  size_t size() const { return Count; }
  Addr highest() const { return Highest; }

private:
  Addr Lo = 0;
  std::vector<uint8_t> Marks;
  size_t Count = 0;
  Addr Highest = 0;
};

} // namespace

/// Follows control flow from \p Entries within [Lo, Hi), recording reached
/// instruction addresses. Returns false if a reachable word is invalid.
static bool scanReachable(const Analysis &An, const std::vector<Addr> &Entries,
                          Addr Lo, Addr Hi, ReachedWords &Reached) {
  bool AllValid = true;
  Reached.reset(Lo, Hi);
  std::vector<Addr> Worklist(Entries.begin(), Entries.end());
  while (!Worklist.empty()) {
    Addr A = Worklist.back();
    Worklist.pop_back();
    if (A < Lo || A >= Hi || (A & 3) || Reached.contains(A))
      continue;
    const Instruction *I = An.instAt(A);
    if (!I) {
      AllValid = false;
      continue;
    }
    Reached.insert(A);
    if (I->kind() == InstKind::Invalid) {
      AllValid = false;
      continue;
    }
    if (!I->isControlTransfer()) {
      Worklist.push_back(A + 4);
      continue;
    }
    // The delay-slot instruction is reached whenever it can execute.
    if (I->hasDelaySlot() &&
        I->delayBehavior() != DelayBehavior::AnnulAlways &&
        A + 4 < Hi) {
      if (const Instruction *DI = An.instAt(A + 4)) {
        Reached.insert(A + 4);
        if (DI->kind() == InstKind::Invalid)
          AllValid = false;
      }
    }
    // Fallthrough/continuation address: past the delay slot when one exists.
    Addr Past = A + (I->hasDelaySlot() ? 8 : 4);
    switch (I->kind()) {
    case InstKind::Branch: {
      std::optional<Addr> T = I->directTarget(A);
      if (T && *T >= Lo && *T < Hi)
        Worklist.push_back(*T);
      Worklist.push_back(Past);
      break;
    }
    case InstKind::Jump: {
      std::optional<Addr> T = I->directTarget(A);
      if (T && *T >= Lo && *T < Hi)
        Worklist.push_back(*T);
      break;
    }
    case InstKind::Call:
    case InstKind::IndirectCall:
      Worklist.push_back(Past);
      break;
    case InstKind::Return:
    case InstKind::IndirectJump:
      // Indirect-jump targets are handled during CFG construction; for
      // extent purposes the reachable set stops here.
      break;
    default:
      Worklist.push_back(A + 4);
      break;
    }
  }
  return AllValid;
}

Expected<bool> Analysis::readContents() {
  if (Analyzed)
    return true;
  if (!Image.segment(SegKind::Text))
    return Error(ErrorCode::NoTextSegment,
                 "image has no text segment to analyze");
  Analyzed = true;

  EEL_TRACE_SCOPE("readContents");
  // Stages 1-4 are the symbol-refinement analysis proper; the per-routine
  // analyses after them are their own "analyze" phase.
  {
    EEL_TRACE_SCOPE("symbol_refine");
    refineRoutines();
  }
  bumpHistogram("refine.routines_per_image", Routines.size());

  // --- Per-routine analysis ------------------------------------------------
  // The remaining per-routine analyses — CFG construction with delay-slot
  // normalization, backward slicing of indirect-jump sites (both inside
  // buildCfg), and liveness — are independent across routines, so they fan
  // out over the pool now (inline, in index order, at width 1). Each
  // routine is touched by exactly one worker; the decode table is frozen
  // and the metrics sink, if any, sharded. Every width runs this same
  // schedule. Nothing builds lazily afterwards, which is what lets edit
  // sessions share the finished analysis.
  EEL_TRACE_SCOPE("analyze", "routines", uint64_t(Routines.size()));
  bool WantTranslation = Opts.EnableRuntimeTranslation;
  parallelForEach(effectiveThreads(), Routines.size(),
                  [this, WantTranslation](size_t Index) {
                    Routine &R = *Routines[Index];
                    if (R.isData())
                      return; // layout copies data verbatim, no CFG
                    R.Graph = buildCfg(R);
                    // Mirror layoutRoutine's condition so exactly the
                    // analyses layout needs run here.
                    if (!R.Graph->unsupported() &&
                        (R.Graph->complete() || WantTranslation))
                      R.Live = std::make_unique<Liveness>(*R.Graph);
                  });
  return true;
}

void Analysis::refineRoutines() {
  const Addr TB = textBase();
  const Addr TE = textEnd();
  const unsigned NThreads = effectiveThreads();

  // --- Stage 1 / Stage 2: initial candidate set ---------------------------
  // Candidate entries in address order, the first name of each address
  // kept: the sort is stable, and the table (or inference) order decides.
  std::vector<std::pair<Addr, std::string_view>> Candidates;
  bool Stripped = true;
  if (!Opts.NoSymbols) {
    for (const SxfSymbol &Sym : Image.Symbols) {
      if (Sym.Value < TB || Sym.Value >= TE)
        continue;
      Stripped = false;
      if (Sym.Kind != SymKind::Routine)
        continue; // internal, debugging, and temporary labels
      if (Sym.Value & 3)
        continue; // not on an instruction boundary
      Candidates.emplace_back(Sym.Value, Sym.Name);
    }
  }
  InferResult Inferred;
  if (Stripped) {
    // No (trusted) symbol table: the eel-infer fixpoint derives routine
    // entries, constant code-pointer cells, and indirect-site resolutions
    // from the bytes alone (analysis/Infer.h). Its seeds subsume the old
    // naive stage 2 — entry point, first text address, call targets — and
    // its cell/site facts persist on the analysis, where backward
    // slicing and CFG construction consult them.
    Inferred = inferLayout(*this);
    InferenceRan = true;
    InferredSites = std::move(Inferred.Sites);
    for (const InferredRoutine &IR : Inferred.Routines) {
      Candidates.emplace_back(IR.Lo, IR.Name);
      InferredConfidence[IR.Lo] = static_cast<uint8_t>(IR.Confidence);
    }
  }
  if (Candidates.empty())
    Candidates.emplace_back(TB, "text_start");
  std::stable_sort(Candidates.begin(), Candidates.end(),
                   [](const auto &A, const auto &B) { return A.first < B.first; });
  Candidates.erase(std::unique(Candidates.begin(), Candidates.end(),
                               [](const auto &A, const auto &B) {
                                 return A.first == B.first;
                               }),
                   Candidates.end());

  // Linear scan of the text segment for direct transfers (used by stages
  // 1 and 3), read from the decode table. Data decoded as instructions
  // contributes bogus sites; the later stages are designed to tolerate
  // that. Each chunk also notes the non-call sites that land on a
  // candidate from below it: (candidate, source) pairs, all stage 1 reads.
  const size_t NumChunks =
      ((TE - TB) / 4 + Analysis::ScanChunkWords - 1) / Analysis::ScanChunkWords;
  std::vector<std::vector<std::pair<size_t, Addr>>> Landings(NumChunks);
  const std::vector<TransferSite> Transfers = collectChunks<TransferSite>(
      NThreads, (TE - TB) / 4, Analysis::ScanChunkWords,
      [this, TB, TE, &Candidates, &Landings](size_t Lo, size_t Hi,
                                             std::vector<TransferSite> &Sites) {
        std::vector<std::pair<size_t, Addr>> &Landed =
            Landings[Lo / Analysis::ScanChunkWords];
        for (size_t Word = Lo; Word < Hi; ++Word) {
          Addr A = TB + 4 * static_cast<Addr>(Word);
          const Instruction *I = instAt(A);
          std::optional<Addr> T;
          bool IsCall = false;
          switch (I->kind()) {
          case InstKind::Call:
            T = I->directTarget(A);
            IsCall = true;
            break;
          case InstKind::Branch:
          case InstKind::Jump:
            T = I->directTarget(A);
            break;
          default:
            break;
          }
          if (!T || *T < TB || *T >= TE || (*T & 3))
            continue;
          Sites.push_back({A, *T, IsCall});
          if (IsCall || A >= *T)
            continue;
          auto C = std::lower_bound(
              Candidates.begin(), Candidates.end(), *T,
              [](const auto &Cand, Addr K) { return Cand.first < K; });
          if (C != Candidates.end() && C->first == *T)
            Landed.emplace_back(C - Candidates.begin(), A);
        }
      });

  // Stage 1 (cont.): drop labels that are branch/jump targets from the
  // preceding routine, i.e. some non-call site has To == C and
  // PrevStart <= From < C: the highest such source below C decides.
  std::vector<Addr> HighestFrom(Candidates.size(), 0);
  std::vector<bool> Landed(Candidates.size(), false);
  for (const std::vector<std::pair<size_t, Addr>> &Part : Landings)
    for (const auto &[C, From] : Part) {
      HighestFrom[C] = std::max(HighestFrom[C], From);
      Landed[C] = true;
    }

  // --- Build routines from the kept candidates' extents --------------------
  {
    Addr PrevStart = 0;
    bool Kept = false;
    for (size_t I = 0; I < Candidates.size(); ++I) {
      Addr C = Candidates[I].first;
      if (Kept && C != Image.Entry && Landed[I] && HighestFrom[I] >= PrevStart)
        continue;
      if (Kept)
        Routines.back()->Hi = C;
      Routines.push_back(std::make_unique<Routine>(
          *this, std::string(Candidates[I].second), C, TE));
      PrevStart = C;
      Kept = true;
    }
  }

  // --- Stage 3: entry points from inter-routine transfers -------------------
  // Chunks of sites look both ends up in the sorted routine map (read-only
  // here) and collect (entry, routine) pairs. Extents are disjoint, so one
  // sort by entry also groups the pairs by routine: each routine's list
  // is then built sorted and unique in one pass, behind its start.
  std::vector<std::pair<Addr, Routine *>> NewEntries =
      collectChunks<std::pair<Addr, Routine *>>(
          NThreads, Transfers.size(), Analysis::ScanChunkWords,
          [this, &Transfers](size_t Lo, size_t Hi,
                             std::vector<std::pair<Addr, Routine *>> &Out) {
            for (size_t I = Lo; I < Hi; ++I) {
              const TransferSite &Site = Transfers[I];
              Routine *From = routineContaining(Site.From);
              Routine *To = routineContaining(Site.To);
              if (From && To && From != To && Site.To != To->startAddr())
                Out.emplace_back(Site.To, To);
            }
          });
  auto ByEntry = [](const std::pair<Addr, Routine *> &A,
                    const std::pair<Addr, Routine *> &B) {
    return A.first < B.first;
  };
  std::sort(NewEntries.begin(), NewEntries.end(), ByEntry);
  NewEntries.erase(std::unique(NewEntries.begin(), NewEntries.end(),
                               [](const auto &A, const auto &B) {
                                 return A.first == B.first;
                               }),
                   NewEntries.end());
  for (const auto &[Entry, R] : NewEntries)
    R->Entries.push_back(Entry);

  // --- Stage 4: reachability, data detection, hidden-routine discovery -----
  // One task per original routine: its reachability walk, then the walk of
  // the hidden routine cut from its tail, and so on down the chain (a
  // discovered routine may itself have an unreachable tail). A task
  // touches only its own chain, and every hidden routine is cut from the
  // top of the one before it, so the chain lies inside its routine's old
  // extent in increasing order: the merge below, each routine followed by
  // its chain in index order, is address order without a sort.
  std::vector<std::vector<std::unique_ptr<Routine>>> Discovered(
      Routines.size());
  parallelForEach(NThreads, Routines.size(), [this, &Discovered](size_t Index) {
    ReachedWords Reached;
    for (Routine *R = Routines[Index].get(); R;) {
      bool AllValid = scanReachable(*this, R->Entries, R->Lo, R->Hi, Reached);
      if (Reached.size() == 0 ||
          (!AllValid && Reached.size() <= R->Entries.size())) {
        // Every entry lands on data: this "routine" is a data table.
        R->IsData = true;
        bumpStat("eel.refine.data_tables");
        return;
      }
      // Unreachable instructions at the end comprise another routine.
      Addr TailLo = Reached.highest() + 4;
      if (TailLo + 4 > R->Hi || !fetchWord(TailLo))
        return;
      auto Hidden = std::make_unique<Routine>(
          *this, "hidden_" + std::to_string(TailLo), TailLo, R->Hi);
      Hidden->Hidden = true;
      R->Hi = TailLo;
      // Entry points of R that fall in the tail move to the hidden
      // routine: a sorted suffix, placed behind its own start.
      auto Moved = std::lower_bound(R->Entries.begin(), R->Entries.end(),
                                    TailLo);
      Hidden->Entries.insert(
          Hidden->Entries.end(),
          Moved + (Moved != R->Entries.end() && *Moved == TailLo),
          R->Entries.end());
      R->Entries.erase(Moved, R->Entries.end());
      bumpStat("eel.refine.hidden_routines");
      R = Hidden.get();
      Discovered[Index].push_back(std::move(Hidden));
    }
  });
  std::vector<std::unique_ptr<Routine>> Merged;
  for (size_t Index = 0; Index < Discovered.size(); ++Index) {
    Merged.push_back(std::move(Routines[Index]));
    for (std::unique_ptr<Routine> &R : Discovered[Index])
      Merged.push_back(std::move(R));
  }
  Routines = std::move(Merged);
}
