//===- core/Executable.cpp - Executable editing -------------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Executable.h"

#include "support/Error.h"

#include <algorithm>
#include <thread>

using namespace eel;

/// Fresh data (counters, tables) goes after the highest existing segment.
static Addr firstFreeDataAddr(const SxfFile &Image) {
  Addr High = 0;
  for (const SxfSegment &Seg : Image.Segments)
    High = std::max(High, Seg.VAddr + Seg.MemSize);
  return (High + 15) & ~15u;
}

/// The decode table of \p Image's text segment (empty without one).
static DecodeTable decodeText(const SxfFile &Image, const TargetInfo &Target) {
  const SxfSegment *Text = Image.segment(SegKind::Text);
  if (!Text)
    return DecodeTable(Target, 0, {});
  return DecodeTable(Target, Text->VAddr, Text->Bytes);
}

Analysis::Analysis(SxfFile ImageIn, Options OptsIn)
    : Image(std::move(ImageIn)), Opts(OptsIn), Target(targetFor(Image.Arch)),
      Pool(decodeText(Image, Target)) {}

Analysis::~Analysis() = default;

Executable::Executable(SxfFile ImageIn, Options OptsIn)
    : Owned(std::make_shared<Analysis>(std::move(ImageIn), OptsIn)),
      An(Owned), NextDataAddr(firstFreeDataAddr(An->image())) {}

Executable::Executable(std::shared_ptr<const Analysis> Shared)
    : An(std::move(Shared)), NextDataAddr(firstFreeDataAddr(An->image())) {
  assert(An->analyzed() && "a shared analysis must be finished");
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

Expected<bool> Executable::readContents() {
  if (!Owned)
    return true;
  return Owned->readContents();
}

unsigned Analysis::effectiveThreads() const {
  if (Opts.Threads != 0)
    return Opts.Threads;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

Addr Analysis::textBase() const {
  const SxfSegment *Text = Image.segment(SegKind::Text);
  assert(Text && "executable has no text segment");
  return Text->VAddr;
}

Addr Analysis::textEnd() const {
  const SxfSegment *Text = Image.segment(SegKind::Text);
  assert(Text && "executable has no text segment");
  return Text->VAddr + static_cast<Addr>(Text->Bytes.size());
}

std::optional<uint32_t> Analysis::inferredCellValue(Addr Cell) const {
  auto It = std::lower_bound(
      InferredCells.begin(), InferredCells.end(), Cell,
      [](const std::pair<Addr, uint32_t> &E, Addr A) { return E.first < A; });
  if (It == InferredCells.end() || It->first != Cell)
    return std::nullopt;
  return It->second;
}

const IndirectResolution *Analysis::inferredSite(Addr JumpAddr) const {
  auto It = InferredSites.find(JumpAddr);
  return It == InferredSites.end() ? nullptr : &It->second;
}

uint8_t Analysis::inferredConfidence(Addr RoutineStart) const {
  auto It = InferredConfidence.find(RoutineStart);
  return It == InferredConfidence.end() ? 0 : It->second;
}

Routine *Analysis::routineContaining(Addr A) const {
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

Routine *Analysis::findRoutine(const std::string &Name) const {
  for (const auto &R : Routines)
    if (R->name() == Name)
      return R.get();
  return nullptr;
}

std::vector<Routine *> Analysis::hiddenRoutines() const {
  std::vector<Routine *> Result;
  for (const auto &R : Routines)
    if (R->hidden() && !R->isData())
      Result.push_back(R.get());
  return Result;
}

std::span<const Edit> Executable::edits(const Cfg &G) const {
  auto It = Batches.find(&G);
  if (It == Batches.end())
    return {};
  return It->second;
}

void Executable::addEdit(Edit E) {
  const Cfg *G = E.E ? E.E->parent() : &E.Block->parent();
  Batches[G].push_back(std::move(E));
}

void Executable::addCodeBefore(const BasicBlock *Block, unsigned InstIndex,
                               SnippetPtr Snippet) {
  assert(Block->editable() && "block is not editable");
  assert(InstIndex < Block->size() && "instruction index out of range");
  Edit E;
  E.K = Edit::Kind::Before;
  E.Block = Block;
  E.InstIndex = InstIndex;
  E.Snippet = std::move(Snippet);
  addEdit(std::move(E));
}

void Executable::addCodeAfter(const BasicBlock *Block, unsigned InstIndex,
                              SnippetPtr Snippet) {
  assert(Block->editable() && "block is not editable");
  assert(InstIndex < Block->size() && "instruction index out of range");
  assert(!(InstIndex + 1 == Block->size() && Block->terminator()) &&
         "cannot add code after a control transfer; use an edge instead");
  Edit E;
  E.K = Edit::Kind::After;
  E.Block = Block;
  E.InstIndex = InstIndex;
  E.Snippet = std::move(Snippet);
  addEdit(std::move(E));
}

void Executable::addCodeAlong(const Edge *EdgePtr, SnippetPtr Snippet) {
  assert(EdgePtr->editable() && "edge is not editable");
  Edit E;
  E.K = Edit::Kind::OnEdge;
  E.E = EdgePtr;
  E.Snippet = std::move(Snippet);
  addEdit(std::move(E));
}

void Executable::replaceInst(const BasicBlock *Block, unsigned InstIndex,
                             MachWord NewWord) {
  assert(Block->editable() && "block is not editable");
  assert(InstIndex < Block->size() && "instruction index out of range");
  [[maybe_unused]] const CfgInst &Old = Block->insts()[InstIndex];
  [[maybe_unused]] const DecodedWord New = target().decode(NewWord);
  [[maybe_unused]] const DecodedWord &Prev = Old.Inst->decoded();
  assert(New.Category != InstCategory::Invalid &&
         "replacement must be a valid instruction");
  if (Old.Inst->isControlTransfer()) {
    // A transfer may only be replaced by one with identical control
    // structure: same category, conditionality, delay behaviour, and
    // static target (register renamings of compare-and-branch forms).
    assert(New.Category == Prev.Category &&
           New.Conditional == Prev.Conditional && New.Delay == Prev.Delay &&
           New.directTarget(Old.OrigAddr) == Prev.directTarget(Old.OrigAddr) &&
           "replacement transfer changes control flow");
    assert(Old.Inst->kind() != InstKind::IndirectJump &&
           Old.Inst->kind() != InstKind::IndirectCall &&
           Old.Inst->kind() != InstKind::Return &&
           "indirect transfers cannot be replaced");
  } else {
    assert(!New.hasDelaySlot() && "a non-transfer cannot become a transfer");
  }
  Edit E;
  E.K = Edit::Kind::Replace;
  E.Block = Block;
  E.InstIndex = InstIndex;
  E.NewWord = NewWord;
  addEdit(std::move(E));
}

void Executable::deleteInst(const BasicBlock *Block, unsigned InstIndex) {
  assert(Block->editable() && "block is not editable");
  assert(InstIndex < Block->size() && "instruction index out of range");
  assert(!Block->insts()[InstIndex].Inst->isControlTransfer() &&
         "control transfers cannot be deleted");
  Edit E;
  E.K = Edit::Kind::Delete;
  E.Block = Block;
  E.InstIndex = InstIndex;
  addEdit(std::move(E));
}

Addr Executable::appendData(uint32_t Bytes, unsigned Align,
                            std::vector<uint8_t> Initial) {
  assert(Align && (Align & (Align - 1)) == 0 && "alignment not a power of 2");
  assert(Initial.size() <= Bytes);
  NextDataAddr = (NextDataAddr + Align - 1) & ~(Align - 1);
  AppendedData.push_back({NextDataAddr, std::move(Initial)});
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
