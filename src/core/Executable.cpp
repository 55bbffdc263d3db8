//===- core/Executable.cpp - Executable editing -------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Executable.h"

#include "support/Error.h"
#include "support/Trace.h"

#include <algorithm>
#include <thread>

using namespace eel;

Executable::Executable(SxfFile ImageIn)
    : Executable(std::move(ImageIn), Options()) {}

Executable::Executable(SxfFile ImageIn, Options OptsIn)
    : Image(std::move(ImageIn)), Opts(OptsIn),
      Target(targetFor(Image.Arch)), Pool(Target) {
  // Construction is a quiescent point, so flipping the process-wide trace
  // gate here is safe. Only enable — never disable — so one untraced
  // Executable can't silence another's active trace.
  if (Opts.Trace)
    traceSetEnabled(true);
  // Same one-way rule for the log gate: Off leaves the process-wide level
  // where another Executable (or the embedding daemon) set it.
  if (Opts.Log != LogLevel::Off)
    logSetLevel(Opts.Log);
  // Fresh data (counters, tables) goes after the highest existing segment.
  Addr High = 0;
  for (const SxfSegment &Seg : Image.Segments)
    High = std::max(High, Seg.VAddr + Seg.MemSize);
  NextDataAddr = (High + 15) & ~15u;
  // One decode-index slot per text word: the per-address probe that makes
  // repeat decoding of the same address a single load.
  if (const SxfSegment *Text = Image.segment(SegKind::Text))
    Pool.attachDecodeIndex(Text->VAddr, Text->Bytes.size() / 4);
}

Executable::~Executable() = default;

Expected<std::unique_ptr<Executable>>
Executable::open(const std::string &Path, Options Opts) {
  Expected<SxfFile> File = SxfFile::readFromFile(Path);
  if (File.hasError())
    return File.error();
  Expected<std::unique_ptr<Executable>> Exec =
      openImage(std::move(File.value()), Opts);
  if (Exec.hasError())
    return Error(Exec.error()).inFile(Path);
  return Exec;
}

Expected<std::unique_ptr<Executable>> Executable::openImage(SxfFile Image,
                                                            Options Opts) {
  Expected<bool> Valid = Image.validate();
  if (Valid.hasError())
    return Valid.error();
  const SxfSegment *Text = Image.segment(SegKind::Text);
  if (!Text || Text->Bytes.empty())
    return Error(ErrorCode::NoTextSegment,
                 "image has no text segment to analyze");
  return std::make_unique<Executable>(std::move(Image), Opts);
}

Expected<std::unique_ptr<Executable>>
Executable::open(const std::string &Path) {
  return open(Path, Options());
}

Expected<std::unique_ptr<Executable>> Executable::openImage(SxfFile Image) {
  return openImage(std::move(Image), Options());
}

unsigned Executable::effectiveThreads() const {
  if (Opts.Threads != 0)
    return Opts.Threads;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

Addr Executable::textBase() const {
  const SxfSegment *Text = Image.segment(SegKind::Text);
  assert(Text && "executable has no text segment");
  return Text->VAddr;
}

Addr Executable::textEnd() const {
  const SxfSegment *Text = Image.segment(SegKind::Text);
  assert(Text && "executable has no text segment");
  return Text->VAddr + static_cast<Addr>(Text->Bytes.size());
}

std::optional<uint32_t> Executable::inferredCellValue(Addr Cell) const {
  auto It = std::lower_bound(
      InferredCells.begin(), InferredCells.end(), Cell,
      [](const std::pair<Addr, uint32_t> &E, Addr A) { return E.first < A; });
  if (It == InferredCells.end() || It->first != Cell)
    return std::nullopt;
  return It->second;
}

const IndirectResolution *Executable::inferredSite(Addr JumpAddr) const {
  auto It = InferredSites.find(JumpAddr);
  return It == InferredSites.end() ? nullptr : &It->second;
}

uint8_t Executable::inferredConfidence(Addr RoutineStart) const {
  auto It = InferredConfidence.find(RoutineStart);
  return It == InferredConfidence.end() ? 0 : It->second;
}

Routine *Executable::routineContaining(Addr A) const {
  // The last routine starting at or below A is the only one that can
  // contain it (see the sorted, disjoint invariant in Executable.h).
  auto It = std::upper_bound(
      Routines.begin(), Routines.end(), A,
      [](Addr Key, const std::unique_ptr<Routine> &R) {
        return Key < R->startAddr();
      });
  if (It == Routines.begin())
    return nullptr;
  Routine *R = std::prev(It)->get();
  return R->contains(A) ? R : nullptr;
}

Routine *Executable::findRoutine(const std::string &Name) const {
  for (const auto &R : Routines)
    if (R->name() == Name)
      return R.get();
  return nullptr;
}

std::vector<Routine *> Executable::hiddenRoutines() const {
  std::vector<Routine *> Result;
  for (const auto &R : Routines)
    if (R->hidden() && !R->isData())
      Result.push_back(R.get());
  return Result;
}

void Executable::resetEdits() {
  for (const auto &R : Routines)
    if (Cfg *Graph = R->cachedCfg())
      Graph->clearEdits();
  AppendedData.clear();
  AddedRoutines.clear();
  // Recompute the fresh-data base exactly as construction did, so a
  // reused analysis hands appendData the same addresses a cold run would
  // (byte-identity of cached-analysis output depends on it).
  Addr High = 0;
  for (const SxfSegment &Seg : Image.Segments)
    High = std::max(High, Seg.VAddr + Seg.MemSize);
  NextDataAddr = (High + 15) & ~15u;
  AddrMap.clear();
  Stats = EditStats();
}

Addr Executable::appendData(uint32_t Bytes, unsigned Align,
                            const std::string &Name,
                            std::vector<uint8_t> Initial) {
  assert(Align && (Align & (Align - 1)) == 0 && "alignment not a power of 2");
  assert(Initial.empty() || Initial.size() <= Bytes);
  NextDataAddr = (NextDataAddr + Align - 1) & ~(Align - 1);
  DataBlob Blob;
  Blob.Address = NextDataAddr;
  Blob.Size = Bytes;
  Blob.Align = Align;
  Blob.Name = Name;
  Blob.Initial = std::move(Initial);
  AppendedData.push_back(std::move(Blob));
  NextDataAddr += Bytes;
  return AppendedData.back().Address;
}

unsigned Executable::addRoutineAsm(const std::string &Name,
                                   std::string AsmText) {
  AddedRoutine R;
  R.Name = Name;
  R.AsmText = std::move(AsmText);
  AddedRoutines.push_back(std::move(R));
  return static_cast<unsigned>(AddedRoutines.size() - 1);
}

Addr Executable::editedAddr(Addr A) const {
  auto It = AddrMap.find(A);
  assert(It != AddrMap.end() &&
         "no edited address: writeEditedExecutable not run or address "
         "is not an instruction start");
  return It->second;
}

Addr Executable::editedAddrOfAdded(unsigned Id) const {
  assert(Id < AddedRoutines.size() && "bad added-routine id");
  assert(AddedRoutines[Id].PlacedAddr && "edited executable not written yet");
  return AddedRoutines[Id].PlacedAddr;
}
