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
/// R routines: one linear scan of the text finds the sites (O(W)). Stage 1
/// sorts the non-call sites by (destination, source) once and decides each
/// candidate with one binary search (O((S + C) log S)). Stage 3 makes two
/// routineContaining() binary searches per site (O(S log R)); they rely on
/// the routine map being sorted by start with disjoint extents. Stage 4
/// marks reached words in a byte-per-word map of the extent, reused across
/// routines, so it is linear in the words of each extent.
///
//===----------------------------------------------------------------------===//

#include "core/Executable.h"

#include "analysis/Infer.h"
#include "core/Liveness.h"
#include "support/Metrics.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <map>
#include <optional>

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
/// One instance serves every routine in turn, so its storage is reused.
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
    std::optional<MachWord> W = An.fetchWord(A);
    if (!W) {
      AllValid = false;
      continue;
    }
    const Instruction *I = An.pool().getAt(A, *W);
    Reached.insert(A);
    if (isa<InvalidInst>(I)) {
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
      std::optional<MachWord> DW = An.fetchWord(A + 4);
      if (DW) {
        Reached.insert(A + 4);
        if (isa<InvalidInst>(An.pool().getAt(A + 4, *DW)))
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
  // routine is touched by exactly one worker; the cross-routine state
  // (instruction pool, stat registry) is sharded. Every width runs this
  // same schedule. Nothing builds lazily afterwards, which is what lets
  // edit sessions share the finished analysis.
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

  // Linear scan of the text segment for direct transfers (used by stages
  // 1–3). Data decoded as instructions contributes bogus sites; the later
  // stages are designed to tolerate that.
  std::vector<TransferSite> Transfers;
  for (Addr A = TB; A + 4 <= TE; A += 4) {
    std::optional<MachWord> W = fetchWord(A);
    if (!W)
      break;
    const Instruction *I = Pool.get(*W);
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
    if (T && *T >= TB && *T < TE && (*T & 3) == 0)
      Transfers.push_back({A, *T, IsCall});
  }

  // --- Stage 1 / Stage 2: initial candidate set ---------------------------
  std::map<Addr, std::string> Candidates;
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
      if (!Candidates.count(Sym.Value))
        Candidates[Sym.Value] = Sym.Name; // drop duplicates
    }
  }
  if (Stripped) {
    // No (trusted) symbol table: the eel-infer fixpoint derives routine
    // entries, constant code-pointer cells, and indirect-site resolutions
    // from the bytes alone (analysis/Infer.h). Its seeds subsume the old
    // naive stage 2 — entry point, first text address, call targets — and
    // its cell/site facts persist on the analysis, where backward
    // slicing and CFG construction consult them.
    InferResult Inferred = inferLayout(*this);
    InferenceRan = true;
    InferredSites = std::move(Inferred.Sites);
    for (const InferredRoutine &IR : Inferred.Routines) {
      if (!Candidates.count(IR.Lo))
        Candidates[IR.Lo] = IR.Name;
      InferredConfidence[IR.Lo] = static_cast<uint8_t>(IR.Confidence);
    }
  }
  if (Candidates.empty())
    Candidates[TB] = "text_start";

  // Stage 1 (cont.): drop labels that are branch/jump targets from the
  // preceding routine, i.e. some non-call site has To == C and
  // PrevStart <= From < C. With the sites sorted by (To, From), the first
  // one not below (C, PrevStart) decides.
  {
    std::vector<std::pair<Addr, Addr>> ToFrom;
    for (const TransferSite &Site : Transfers)
      if (!Site.IsCall)
        ToFrom.emplace_back(Site.To, Site.From);
    std::sort(ToFrom.begin(), ToFrom.end());
    std::map<Addr, std::string> Kept;
    Addr PrevStart = 0;
    for (auto &[C, Name] : Candidates) {
      if (!Kept.empty() && C != Image.Entry) {
        auto Hit = std::lower_bound(ToFrom.begin(), ToFrom.end(),
                                    std::make_pair(C, PrevStart));
        if (Hit != ToFrom.end() && Hit->first == C && Hit->second < C)
          continue;
      }
      Kept.emplace_hint(Kept.end(), C, std::move(Name));
      PrevStart = C;
    }
    Candidates = std::move(Kept);
  }

  // --- Build routines from candidate extents --------------------------------
  {
    std::vector<std::pair<Addr, std::string>> Sorted(Candidates.begin(),
                                                     Candidates.end());
    for (size_t I = 0; I < Sorted.size(); ++I) {
      Addr Lo = Sorted[I].first;
      Addr Hi = I + 1 < Sorted.size() ? Sorted[I + 1].first : TE;
      Routines.push_back(
          std::make_unique<Routine>(*this, Sorted[I].second, Lo, Hi));
    }
  }

  // --- Stage 3: entry points from inter-routine transfers -------------------
  for (const TransferSite &Site : Transfers) {
    Routine *From = routineContaining(Site.From);
    Routine *To = routineContaining(Site.To);
    if (!From || !To || From == To)
      continue;
    if (Site.To != To->startAddr())
      To->addEntryPoint(Site.To);
  }

  // --- Stage 4: reachability, data detection, hidden-routine discovery -----
  // Process newly created routines too (a discovered routine may itself
  // have an unreachable tail).
  ReachedWords Reached;
  for (size_t Index = 0; Index < Routines.size(); ++Index) {
    Routine &R = *Routines[Index];
    bool AllValid =
        scanReachable(*this, R.entryPoints(), R.startAddr(), R.endAddr(),
                      Reached);
    if (Reached.size() == 0 ||
        (!AllValid && Reached.size() <= R.entryPoints().size())) {
      // Every entry lands on data: this "routine" is a data table.
      R.IsData = true;
      bumpStat("eel.refine.data_tables");
      continue;
    }
    Addr HighWater = Reached.highest() + 4;
    // Unreachable instructions at the end comprise another routine.
    if (HighWater + 4 <= R.endAddr()) {
      Addr TailLo = HighWater;
      std::optional<MachWord> W = fetchWord(TailLo);
      if (W) {
        auto Hidden = std::make_unique<Routine>(
            *this, "hidden_" + std::to_string(TailLo), TailLo, R.endAddr());
        Hidden->Hidden = true;
        R.Hi = TailLo;
        // Entry points previously attributed to R that now fall in the
        // tail move to the hidden routine.
        std::vector<Addr> Moved;
        for (Addr E : R.Entries)
          if (E >= TailLo)
            Moved.push_back(E);
        if (!Moved.empty()) {
          R.Entries.erase(
              std::remove_if(R.Entries.begin(), R.Entries.end(),
                             [TailLo](Addr E) { return E >= TailLo; }),
              R.Entries.end());
          for (Addr E : Moved)
            Hidden->addEntryPoint(E);
        }
        bumpStat("eel.refine.hidden_routines");
        Routines.push_back(std::move(Hidden));
      }
    }
  }

  // Keep routines sorted by address for deterministic iteration.
  std::sort(Routines.begin(), Routines.end(),
            [](const std::unique_ptr<Routine> &A,
               const std::unique_ptr<Routine> &B) {
              return A->startAddr() < B->startAddr();
            });
}
